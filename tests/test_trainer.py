import gc
import os
import subprocess
import sys
import weakref
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from dagrl import autodiff as ad
from dagrl.adversarial import DomainDiscriminator
from dagrl.errors import ConfigurationError, ContractViolation
from dagrl.graphs import DomainDataset, Graph, pack, subset_as_target
from dagrl.gin import GinEncoder, GinLayer
from dagrl.synthetic import make_shifted_pair
from dagrl import trainer
from dagrl.trainer import (
    VARIANTS,
    Batch,
    GinBranch,
    GknBranch,
    TrainConfig,
    build_state,
    evaluate,
    fuse_predictions,
    source_loss,
    train,
    train_epoch,
)
from dagrl.wl import GknHead
from helpers import assert_bitwise_csr, fit_wl, reference_train_step


def toy_config(**overrides):
    defaults = dict(epochs=2, lr=1e-3, hidden_dim=8, batch_size=8, lambda1=0.1,
                    lambda2=0.1, epsilon=1.0, wl_depth=2, seed=0, variant="full")
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_pair():
    return make_shifted_pair(seed=0, graphs_per_class=12)


def separable_dataset(seed, n=16, num_classes=2):
    # Class fully determined by the dominant node label: trivially
    # linearly separable from the label histogram.
    rng = np.random.default_rng(seed)
    graphs = []
    labels = tuple(i % num_classes for i in range(n))
    for label in labels:
        nodes = int(rng.integers(4, 8))
        node_labels = tuple(label for _ in range(nodes))
        edges = tuple((k, k + 1) for k in range(nodes - 1))
        graphs.append(Graph(node_count=nodes, edges=edges, node_labels=node_labels))
    return DomainDataset(graphs=pack(graphs), num_classes=num_classes,
                         label_alphabet_size=max(3, num_classes), graph_labels=labels)


class TestConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigurationError, match="gin_only_dual"):
            toy_config(variant="bogus")

    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigurationError):
            toy_config(lambda1=-0.5)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ConfigurationError):
            toy_config(epsilon=0.0)

    @pytest.mark.parametrize("field,value", [
        ("epsilon", float("nan")), ("epsilon", float("inf")), ("lambda1", float("nan")),
        ("lambda2", float("inf")), ("lr", float("nan")), ("lr", -1.0), ("lr", 0.0),
        ("hidden_dim", 0), ("wl_depth", -1), ("seed", -1),
        ("epochs", 1.5), ("batch_size", 2.5), ("hidden_dim", 4.0), ("wl_depth", 1.5),
        ("seed", 1.5), ("epochs", True), ("lr", "0.1"), ("lambda1", False),
        ("variant", ["full"]),
    ])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            toy_config(**{field: value})

    def test_synthetic_pair_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            make_shifted_pair(seed=-1)


class TestSourceLoss:
    def test_unlabeled_graph_rejected(self, tiny_pair):
        # Source batches come from a source dataset, which holds no unlabeled graph.
        source, _ = tiny_pair
        labels = (None,) + source.graph_labels[1:]
        with pytest.raises(ContractViolation, match=r"graph_labels\[0\] is None"):
            replace(source, graph_labels=labels)

    def test_uniform_heads_give_log_c(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        for branch in state.branches:
            for p in branch.params():
                p.data[:] = 0.0
        tape = ad.Tape()
        batch = Batch(source.graphs, range(4), source.label_alphabet_size,
                      state.histogram_rows[source])
        outputs = [branch.forward(tape, batch) for branch in state.branches]
        loss = source_loss(tape, outputs, source.graph_labels[:4])
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_mean_of_extreme_and_uniform(self):
        # Cross-entropy 0 for a certain correct row, ln 2 for a uniform
        # row; the batch mean is (ln 2) / 2.
        tape = ad.Tape()
        logits = ad.constant([[1000.0, 0.0], [0.0, 0.0]])
        loss = ad.softmax_cross_entropy(tape, logits, [0, 1])
        assert loss.item() == pytest.approx(np.log(2.0) / 2.0, abs=1e-12)


class TestVariants:
    def test_gkn_only_never_builds_gin(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(variant="gkn_only_dual"), source, target)
        assert all(isinstance(b, GknBranch) for b in state.branches)

    def test_gin_only_builds_two_distinct_encoders(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(variant="gin_only_dual"), source, target)
        assert all(isinstance(b, GinBranch) for b in state.branches)
        assert state.refinement is None
        w0 = state.branches[0].encoder.layer0.lin1.weight.data
        w1 = state.branches[1].encoder.layer0.lin1.weight.data
        assert not np.array_equal(w0, w1)

    def test_p1_keeps_delta_zero(self, tiny_pair):
        source, target = tiny_pair
        state = train(toy_config(variant="p1", lr=1e-2), source, target)
        delta, zeta = state.store.rows
        assert delta is None and state.store.offsets[0] is None
        assert not any(k.startswith("delta/") for k in state.named_arrays())
        assert np.any(zeta != 0.0)

    def test_p2_keeps_zeta_zero(self, tiny_pair):
        source, target = tiny_pair
        state = train(toy_config(variant="p2", lr=1e-2), source, target)
        delta, zeta = state.store.rows
        assert zeta is None and state.store.offsets[1] is None
        assert not any(k.startswith("zeta/") for k in state.named_arrays())
        assert np.any(delta != 0.0)

    @pytest.mark.parametrize("variant", ["full", "gin_only_dual", "gkn_only_dual"])
    def test_named_arrays_hold_one_perturbation_per_source_graph(self, tiny_pair, variant):
        source, target = tiny_pair
        state = build_state(toy_config(variant=variant), source, target)
        arrays = state.named_arrays()
        for slot, branch in zip(("delta", "zeta"), state.branches):
            keys = [k for k in arrays if k.startswith(f"{slot}/")]
            assert keys == [f"{slot}/{i}" for i in range(len(source.graphs))]
            for i, nodes in enumerate(np.diff(source.graphs.node_offsets)):
                expected = ((nodes, source.label_alphabet_size)
                            if isinstance(branch, GinBranch) else (1, 8))
                assert arrays[f"{slot}/{i}"].shape == expected

    def test_source_only_has_no_adversarial_state(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(variant="source_only"), source, target)
        assert state.discriminators == [] and state.disc_opts == []
        assert state.store.rows == [None, None] and state.store.offsets == [None, None]
        assert not any(k.startswith(("delta/", "zeta/", "disc")) for k in state.named_arrays())

    @pytest.mark.parametrize("variant", ["gin_only_dual", "gkn_only_dual"])
    def test_dual_variants_train_end_to_end(self, tiny_pair, variant):
        # Both dual variants route perturbations of the other shape
        # through their second branch; make sure the whole loop runs.
        source, target = tiny_pair
        state = train(toy_config(variant=variant, lr=1e-2), source, target)
        assert len(state.history) == 2
        assert all(np.isfinite(e.source_loss) for e in state.history)
        assert state.store.steps > state.store.degenerate_steps
        acc = evaluate(state, target)
        assert 0.0 <= acc <= 1.0


class TestDeterminism:
    def test_same_seed_bitwise_identical_history(self, tiny_pair):
        source, target = tiny_pair
        cfg = toy_config(epochs=3, lr=1e-2)
        h1 = train(cfg, source, target).history
        h2 = train(cfg, source, target).history
        assert h1 == h2

    def test_reduction_to_source_only(self, tiny_pair):
        # lambda1 = lambda2 = 0 without perturbations must reproduce the
        # source_only run bit for bit: same loss trace and same final
        # model parameters.
        source, target = tiny_pair
        cfg_zero = toy_config(epochs=3, lr=1e-2, lambda1=0.0, lambda2=0.0,
                              variant="unperturbed")
        cfg_base = toy_config(epochs=3, lr=1e-2, variant="source_only")
        state_zero = train(cfg_zero, source, target)
        state_base = train(cfg_base, source, target)
        for a, b in zip(state_zero.history, state_base.history):
            assert a.source_loss == b.source_loss
            assert a.total_loss == b.total_loss
            assert a.total_loss == a.source_loss
        for pa, pb in zip((p for br in state_zero.branches for p in br.params()),
                          (p for br in state_base.branches for p in br.params())):
            assert np.array_equal(pa.data, pb.data)

    def test_history_independent_of_blas_thread_count(self, tmp_path):
        # The criterion-6 config's weight gradients sum over ~2600 nodes, long
        # enough for OpenBLAS to split an unchunked product across threads.
        # train_epoch would hold one thread, so the script replaces the hold
        # with a null context and prints the count the first step ran at.
        script = (
            "import contextlib, sys\n"
            "from dagrl import trainer\n"
            "from dagrl.synthetic import make_shifted_pair\n"
            "trainer._one_blas_thread = contextlib.nullcontext\n"
            "threads, ran_at, step = trainer._openblas_threads(), [], trainer._train_step\n"
            "def first_step_count(*args):\n"
            "    if not ran_at:\n"
            "        ran_at.append(threads[0]() if threads else None)\n"
            "    return step(*args)\n"
            "trainer._train_step = first_step_count\n"
            "source, target = make_shifted_pair(1, graphs_per_class=100)\n"
            "config = trainer.TrainConfig(epochs=3, lr=1e-2, hidden_dim=32, batch_size=256,\n"
            "                             lambda1=0.01, lambda2=0.01, epsilon=4.0, wl_depth=2,\n"
            "                             seed=1)\n"
            "state = trainer.train(config, source, target)\n"
            "trainer.export_loss_history(sys.argv[1], state.history)\n"
            "print(ran_at[0])\n")
        src = str(Path(trainer.__file__).resolve().parents[1])
        histories, ran_at = [], []
        for threads in ("1", "2"):
            path = tmp_path / f"history_{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            histories.append(path.read_bytes())
            ran_at.append(proc.stdout.strip())
        assert histories[0] == histories[1]
        # OpenBLAS runs at most one thread per CPU.
        if ran_at[0] != "None" and len(os.sched_getaffinity(0)) >= 2:
            assert ran_at == ["1", "2"]

    @staticmethod
    def counts_at_two_threads(monkeypatch, run):
        """``run()`` with the count set to 2: the count each step and evaluate
        saw, and the count ``run`` left."""
        threads = trainer._openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS is not its bundled scipy-openblas")
        get_threads, set_threads = threads
        seen = []
        for name in ("_train_step", "evaluate"):
            def counting(*args, original=getattr(trainer, name), name=name):
                seen.append((name, get_threads()))
                return original(*args)

            monkeypatch.setattr(trainer, name, counting)
        before = get_threads()
        set_threads(2)
        try:
            run()
            left = get_threads()
        finally:
            set_threads(before)
        return seen, left

    def test_train_holds_one_blas_thread_and_restores_the_count(self, tiny_pair,
                                                                monkeypatch):
        seen, left = self.counts_at_two_threads(
            monkeypatch, lambda: train(toy_config(epochs=3), *tiny_pair))
        steps = -(-len(tiny_pair[0].graphs) // 8)
        assert seen == ([("_train_step", 1)] * steps + [("evaluate", 1)]) * 3
        assert left == 2

    def test_train_epoch_holds_one_blas_thread_and_restores_the_count(self, tiny_pair,
                                                                      monkeypatch):
        # The path a caller takes that steps the epochs itself.
        state = build_state(toy_config(), *tiny_pair)
        seen, left = self.counts_at_two_threads(
            monkeypatch, lambda: train_epoch(state, *tiny_pair))
        steps = -(-len(tiny_pair[0].graphs) // 8)
        assert seen == [("_train_step", 1)] * steps + [("evaluate", 1)]
        assert left == 2

    def test_different_seeds_differ(self, tiny_pair):
        source, target = tiny_pair
        h1 = train(toy_config(seed=0, lr=1e-2), source, target).history
        h2 = train(toy_config(seed=1, lr=1e-2), source, target).history
        assert h1 != h2


class TestTraining:
    def test_source_loss_decreases_on_separable_task(self):
        source = separable_dataset(seed=3)
        target = subset_as_target(separable_dataset(seed=4), range(16))
        cfg = toy_config(epochs=5, lr=1e-2, batch_size=16, variant="source_only")
        state = train(cfg, source, target)
        losses = [e.source_loss for e in state.history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_source_of_empty_graphs_steps_every_graph(self, tiny_pair):
        # Each GIN perturbation leaf then has no rows, and still gets its
        # (0, d) gradient from the discriminator's logit.
        source, target = tiny_pair
        source = replace(source, graphs=pack(
            [Graph(node_count=0, edges=(), node_labels=())] * len(source)))
        state = train(toy_config(epochs=1), source, target)
        assert state.store.steps == 2 * len(source)
        assert state.store.rows[0].shape == (0, source.label_alphabet_size)

    def test_three_class_task_trains_and_solves(self):
        source = separable_dataset(seed=5, n=18, num_classes=3)
        target = subset_as_target(separable_dataset(seed=6, n=18, num_classes=3), range(18))
        cfg = toy_config(epochs=10, lr=1e-2, batch_size=18)
        state = train(cfg, source, target)
        assert evaluate(state, target) >= 0.8

    def test_perturbation_norms_bounded_all_run(self, tiny_pair):
        source, target = tiny_pair
        cfg = toy_config(epochs=3, lr=1e-2, epsilon=0.75)
        state = train(cfg, source, target)
        eps = cfg.epsilon
        store = state.store
        assert store.steps, "perturbation phases never ran"
        assert store.max_post_norm <= eps + 1e-10
        assert store.max_step_error <= 1e-10
        assert all(np.linalg.norm(a) <= eps + 1e-10 for a in store.as_arrays().values())

    def test_history_is_finite_and_consistent(self, tiny_pair):
        source, target = tiny_pair
        cfg = toy_config(epochs=2, lr=1e-2)
        state = train(cfg, source, target)
        for e in state.history:
            for v in (e.source_loss, e.domain_loss_first, e.domain_loss_second, e.total_loss):
                assert np.isfinite(v)
            # L = L_S - lambda1 * L_DA_C - lambda2 * L_DA_K
            expected = (e.source_loss - cfg.lambda1 * e.domain_loss_first
                        - cfg.lambda2 * e.domain_loss_second)
            assert e.total_loss == pytest.approx(expected, abs=1e-9)

    def test_non_finite_loss_names_its_column(self, tiny_pair, monkeypatch):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        monkeypatch.setattr(trainer, "_train_step", lambda *args: (0.7, 1.4, float("inf"), 0.5))
        with pytest.raises(ContractViolation, match="non-finite L_DA_K in epoch 0"):
            train_epoch(state, source, target)
        assert state.history == []

    def test_empty_domain_rejected(self, tiny_pair):
        source, target = tiny_pair
        empty = DomainDataset(graphs=pack([]), num_classes=2, label_alphabet_size=3,
                              graph_labels=())
        with pytest.raises(ConfigurationError):
            build_state(toy_config(), empty, target)

    def test_labeled_target_rejected(self, tiny_pair):
        source, _ = tiny_pair
        with pytest.raises(ConfigurationError):
            build_state(toy_config(), source, source)

    def test_source_without_graph_labels_rejected(self, tiny_pair):
        _, target = tiny_pair
        with pytest.raises(ConfigurationError, match="expected a source dataset with graph_labels"):
            build_state(toy_config(), target, target)

    def test_mismatched_label_spaces_rejected(self, tiny_pair):
        from dataclasses import replace

        source, target = tiny_pair
        skewed = replace(target, num_classes=5)
        with pytest.raises(ConfigurationError, match="label space"):
            build_state(toy_config(), source, skewed)

    def test_mismatched_node_label_alphabets_rejected(self, tiny_pair):
        # Both domains would be one-hot encoded at the source's width.
        from dataclasses import replace

        source, target = tiny_pair
        wider = replace(target, label_alphabet_size=source.label_alphabet_size + 2)
        with pytest.raises(ConfigurationError,
                           match=f"{source.label_alphabet_size} vs "
                                 f"{source.label_alphabet_size + 2} labels"):
            build_state(toy_config(), source, wider)


class TestStatePair:
    """A state takes only the datasets it was built from."""

    @pytest.mark.parametrize("variant", ["full", "gkn_only_dual"])
    def test_foreign_datasets_rejected(self, variant):
        source, target = make_shifted_pair(0, 10)
        other_source, other_target = make_shifted_pair(1, 10)
        config = toy_config(variant=variant, epochs=1)
        state = build_state(config, source, target)
        for pair in ((other_source, other_target), (source, other_target),
                     (other_source, target)):
            with pytest.raises(ConfigurationError, match="built from"):
                train_epoch(state, *pair)
        # A rejected call changes nothing: the own pair still trains as a fresh state.
        train_epoch(state, source, target)
        assert state.history == train(config, source, target).history


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_target_classes_never_reach_training(variant):
    # Flipping every target class changes the accuracy only: the same
    # parameters and the same four losses come out of training.
    source, target = make_shifted_pair(0, 10)
    flipped = replace(target, eval_labels=tuple(1 - label for label in target.eval_labels))
    config = toy_config(variant=variant)
    runs = [train(config, source, t) for t in (target, flipped)]
    arrays = [{k: v.tobytes() for k, v in state.named_arrays().items()} for state in runs]
    assert arrays[0] == arrays[1]
    for a, b in zip(runs[0].history, runs[1].history):
        assert astuple(a)[:5] == astuple(b)[:5]
        assert a.target_accuracy + b.target_accuracy == pytest.approx(1.0)


class TestEvaluate:
    def test_all_correct_heads(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        labels = np.asarray(target.eval_labels)
        onehot = np.zeros((len(labels), 2))
        onehot[np.arange(len(labels)), labels] = 1.0
        assert np.array_equal(fuse_predictions([onehot, onehot]), labels)

    def test_confident_head_dominates_uniform_head(self):
        uniform = np.full((3, 2), 0.5)
        confident = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2]])
        fused = fuse_predictions([uniform, confident])
        assert fused.tolist() == [0, 1, 0]

    def test_hand_set_predictions_accuracy(self, tiny_pair):
        # Manual oracle on ten rows: count agreement by hand.
        labels = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0]
        predicted = [0, 1, 0, 0, 1, 1, 0, 1, 1, 1]
        expected = sum(int(a == b) for a, b in zip(labels, predicted)) / 10.0
        assert expected == 0.7
        probs = np.zeros((10, 2))
        probs[np.arange(10), predicted] = 1.0
        fused = fuse_predictions([probs, probs])
        assert float(np.mean(fused == np.asarray(labels))) == expected

    def test_evaluate_invariant_to_ordering(self, tiny_pair):
        source, target = tiny_pair
        state = train(toy_config(epochs=1, lr=1e-2), source, target)
        acc = evaluate(state, target)
        order = np.random.default_rng(5).permutation(len(target.graphs))
        shuffled = DomainDataset(
            graphs=target.graphs.take(order),
            num_classes=target.num_classes,
            label_alphabet_size=target.label_alphabet_size,
            eval_labels=tuple(target.eval_labels[i] for i in order),
        )
        assert evaluate(state, shuffled) == pytest.approx(acc, abs=1e-12)

    def test_dataset_with_no_graphs_rejected(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        empty = replace(target, graphs=pack([]), eval_labels=())
        with pytest.raises(ConfigurationError, match="no graphs"):
            evaluate(state, empty)

    @pytest.mark.parametrize("variant", ["full", "gkn_only_dual"])
    def test_dataset_with_other_classes_rejected(self, tiny_pair, variant):
        source, target = tiny_pair
        state = build_state(toy_config(variant=variant), source, target)
        with pytest.raises(ConfigurationError, match="2 vs 5 classes"):
            evaluate(state, replace(target, num_classes=5))

    @pytest.mark.parametrize("variant", ["full", "gkn_only_dual"])
    def test_dataset_with_other_alphabet_rejected(self, tiny_pair, variant):
        source, target = tiny_pair
        state = build_state(toy_config(variant=variant), source, target)
        labels = target.graphs.node_labels.copy()
        labels[0] = 4
        graphs = replace(target.graphs, node_labels=labels)
        with pytest.raises(ConfigurationError, match="3 vs 5 labels"):
            evaluate(state, replace(target, graphs=graphs, label_alphabet_size=5))


class TestAssemblyReuse:
    """Each step gathers its batches once; kernel rows come from the fit for
    the fitted pair and are refined once for any other dataset."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from collections import Counter

        from dagrl.wl import WlRefinement

        calls = Counter()

        def count(owner, attr, name):
            original = getattr(owner, attr)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)

        count(trainer, "GraphBatch", "batch")
        count(WlRefinement, "fit", "fit")
        count(WlRefinement, "histograms", "histograms")
        count(WlRefinement, "feature_row", "feature_row")
        return calls

    def run_two_epochs(self, tiny_pair, variant):
        source, target = tiny_pair
        state = build_state(toy_config(variant=variant), source, target)
        for _ in range(2):
            train_epoch(state, source, target)
        return source, target

    def test_full_builds_two_batches_per_step(self, tiny_pair, counts):
        # Two per step in each epoch; evaluate's chunks once per state.
        source, target = self.run_two_epochs(tiny_pair, "full")
        steps = -(-len(source.graphs) // 8)
        eval_chunks = -(-len(target.graphs) // trainer.EVAL_CHUNK)
        assert counts["batch"] == 2 * 2 * steps + eval_chunks

    def test_each_state_builds_its_own_eval_batches(self, tiny_pair, counts):
        source, target = tiny_pair
        eval_chunks = -(-len(target.graphs) // trainer.EVAL_CHUNK)
        states = [build_state(toy_config(), source, target) for _ in range(2)]
        for state in states + states:
            evaluate(state, target)
        assert counts["batch"] == 2 * eval_chunks
        first, second = (state.eval_batches[target] for state in states)
        assert not set(map(id, first)) & set(map(id, second))
        # The histogram rows too: taken from each state's own fit, never refined again.
        assert counts["fit"] == 2 and counts["histograms"] == 0
        first, second = (state.histogram_rows[target] for state in states)
        assert first is not second

    def test_a_copied_dataset_is_refined_once(self, tiny_pair, counts):
        source, target = tiny_pair
        state = build_state(toy_config(variant="gkn_only_dual"), source, target)
        copy = replace(target)
        for _ in range(2):
            assert evaluate(state, copy) == evaluate(state, target)
        assert counts["histograms"] == 1

    def test_a_copy_evaluates_chunk_by_chunk_as_the_target(self, tiny_pair, counts,
                                                           monkeypatch):
        # The copy's rows come from one refinement of its own, and each chunk
        # batch reads the same rows as the fitted target's batch of that chunk.
        monkeypatch.setattr(trainer, "EVAL_CHUNK", 5)
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        copy = replace(target)
        assert evaluate(state, copy) == evaluate(state, target)
        assert counts["histograms"] == 1
        copied, fitted = state.eval_batches[copy], state.eval_batches[target]
        assert len(copied) == len(fitted) == -(-len(target) // 5) > 1
        for a, b in zip(copied, fitted):
            assert a.indices == b.indices
            assert_bitwise_csr(a.histograms, b.histograms)

    @pytest.mark.parametrize("variant", ["full", "gin_only_dual"])
    def test_rows_held_for_the_fitted_pair_only(self, tiny_pair, variant):
        source, target = tiny_pair
        state = build_state(toy_config(variant=variant), source, target)
        evaluate(state, replace(target))
        kernel = variant != "gin_only_dual"
        assert set(state.histogram_rows) == ({source, target} if kernel else set())

    def test_cached_evaluate_equals_a_fresh_one(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        for _ in range(2):
            train_epoch(state, source, target)
        cached = evaluate(state, target)
        assert len(state.eval_batches) == 1
        # A copy of the target is another dataset, so its batches are new.
        assert cached == evaluate(state, replace(target))
        assert len(state.eval_batches) == 2

    def test_gkn_only_builds_no_gin_batch(self, tiny_pair, counts):
        self.run_two_epochs(tiny_pair, "gkn_only_dual")
        assert counts["batch"] == 0
        assert counts["histograms"] == 0

    @pytest.mark.parametrize("variant", ["full", "gin_only_dual", "gkn_only_dual",
                                         "source_only"])
    def test_feature_row_at_most_once_per_graph(self, tiny_pair, counts, variant):
        # One fit per build_state, whose labels give both datasets' rows; the
        # per-graph feature_row is left to the oracles.
        self.run_two_epochs(tiny_pair, variant)
        kernel = variant != "gin_only_dual"
        assert counts["fit"] == (1 if kernel else 0)
        assert counts["histograms"] == 0
        assert counts["feature_row"] == 0


@pytest.mark.parametrize("variant", [v for v, branches in VARIANTS.items()
                                     if ("gkn", True) in branches or ("gkn", False) in branches])
def test_rows_from_the_fit_equal_a_fresh_refinement(tiny_pair, variant):
    source, target = tiny_pair
    state = build_state(toy_config(variant=variant), source, target)
    for dataset in (source, target):
        assert_bitwise_csr(state.histogram_rows[dataset],
                           state.refinement.histograms(dataset.graphs))


@pytest.mark.parametrize("variant", VARIANTS)
def test_finished_state_is_freed_without_the_cyclic_gc(tiny_pair, variant):
    # The state keeps batches for evaluate; a batch that held the state would
    # make a cycle, and every finished state would wait for the cyclic GC.
    source, target = tiny_pair
    gc.disable()
    try:
        state = build_state(toy_config(variant=variant, epochs=1), source, target)
        train_epoch(state, source, target)
        for dataset in (target, replace(target)):
            evaluate(state, dataset)
        freed = weakref.ref(state)
        del state
        assert freed() is None
    finally:
        gc.enable()


# The configs the step must reproduce bit for bit: every variant, and
# two lambda switches.
STEP_CONFIGS = {
    **{variant: {"variant": variant} for variant in VARIANTS},
    "lambda1_zero": {"lambda1": 0.0},
    "lambda2_zero_delta_off": {"lambda2": 0.0, "variant": "p1"},
}


class TestTrainStep:
    """``_train_step`` shares forwards across its phases and keeps every bit."""

    @pytest.fixture(scope="class")
    def pair(self, tiny_pair):
        # 24 source graphs in batches of 7 leave a short last batch; the
        # 17 target graphs cycle.
        source, target = tiny_pair
        return source, replace(target, graphs=target.graphs.take(range(17)),
                               eval_labels=target.eval_labels[:17])

    @staticmethod
    def run(config, pair):
        state = train(config, *pair)
        return repr(state.history), {k: v.tobytes() for k, v in state.named_arrays().items()}

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(STEP_CONFIGS))
    def test_matches_three_phase_reference(self, pair, monkeypatch, name, seed):
        config = toy_config(lr=1e-2, batch_size=7, seed=seed, **STEP_CONFIGS[name])
        history, arrays = self.run(config, pair)
        monkeypatch.setattr(trainer, "_train_step", reference_train_step)
        assert (history, arrays) == self.run(config, pair)


class TestPhaseScope:
    """Each phase's backward reaches only the tensors that phase updates."""

    def test_each_backward_reaches_only_its_phase(self, tiny_pair, monkeypatch):
        # Per step: discriminator 0, perturbation 0 (the leaf only),
        # discriminator 1, perturbation 1, then the model.
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        params = state.branch_params() + state.discriminator_params()
        owner = {id(p): f"branch{i}" for i, b in enumerate(state.branches) for p in b.params()}
        owner.update({id(p): f"disc{i}"
                      for i, d in enumerate(state.discriminators) for p in d.params()})
        seen = []
        backward = ad.Tape.backward

        def recording_backward(self, loss):
            backward(self, loss)
            seen.append([owner[id(p)] for p in params if p.grad is not None])

        monkeypatch.setattr(ad.Tape, "backward", recording_backward)
        train_epoch(state, source, target)

        steps = -(-len(source.graphs) // 8)
        disc = [[f"disc{i}"] * len(d.params()) for i, d in enumerate(state.discriminators)]
        branch_owners = [owner[id(p)] for p in state.branch_params()]
        assert seen == [disc[0], [], disc[1], [], branch_owners] * steps
        assert all(p.requires_grad for p in params)

    def test_inference_records_nothing(self, tiny_pair, monkeypatch):
        source, target = tiny_pair
        state = train(toy_config(epochs=1), source, target)
        records = []
        monkeypatch.setattr(ad.Tape, "record", lambda self, *args: records.append(args))
        evaluate(state, target)
        assert records == []
        assert all(p.requires_grad
                   for p in state.branch_params() + state.discriminator_params())


GIN_BRANCH_KEYS = [
    "encoder/layer0/lin1/weight", "encoder/layer0/lin1/bias",
    "encoder/layer0/lin2/weight", "encoder/layer0/lin2/bias",
    "encoder/layer1/lin1/weight", "encoder/layer1/lin1/bias",
    "encoder/layer1/lin2/weight", "encoder/layer1/lin2/bias",
    "head/lin1/weight", "head/lin1/bias", "head/lin2/weight", "head/lin2/bias",
]
GKN_BRANCH_KEYS = [
    "head/embedding/weight", "head/embedding/bias",
    "head/lin1/weight", "head/lin1/bias", "head/lin2/weight", "head/lin2/bias",
]
DISC_KEYS = ["lin1/weight", "lin1/bias", "lin2/weight", "lin2/bias"]


class TestParameterNames:
    """Checkpoint keys and optimizer order come from one attribute walk."""

    @pytest.mark.parametrize("variant, kinds", [
        ("full", ("gin", "gkn")),
        ("gin_only_dual", ("gin", "gin")),
        ("gkn_only_dual", ("gkn", "gkn")),
        ("source_only", ("gin", "gkn")),
    ])
    def test_named_arrays_keys_are_pinned(self, tiny_pair, variant, kinds):
        source, target = tiny_pair
        state = build_state(toy_config(variant=variant), source, target)
        keys = {"gin": GIN_BRANCH_KEYS, "gkn": GKN_BRANCH_KEYS}
        expected = [f"branch{i}_{kind}/{k}" for i, kind in enumerate(kinds) for k in keys[kind]]
        if variant != "source_only":
            expected += [f"disc{i}/{k}" for i in (0, 1) for k in DISC_KEYS]
        names = [k for k in state.named_arrays() if not k.startswith(("delta/", "zeta/"))]
        assert names == expected

    def test_optimizers_hold_the_named_order(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        named = [t for b in state.branches for t in b.named_params().values()]
        assert state.branch_params() is state.model_opt.params
        assert [id(t) for t in state.model_opt.params] == [id(t) for t in named]
        for disc, opt in zip(state.discriminators, state.disc_opts):
            assert [id(t) for t in opt.params] == [id(t) for t in disc.named_params().values()]

    def test_params_are_named_params_values_for_every_module_class(self, tiny_pair):
        source, _ = tiny_pair
        rng = np.random.default_rng(0)
        refinement = fit_wl(1, source.graphs)
        modules = [
            ad.Linear(rng, 3, 2), GinLayer(rng, 3, 4, 4), GinEncoder(rng, 3, hidden_dim=4),
            ad.Mlp(rng, 4, 4, 2), GknHead(rng, 5, 2, hidden_dim=4),
            DomainDiscriminator(rng, 4, 2, hidden_dim=4), GinBranch(rng, 3, 2, 4),
            GknBranch(rng, refinement, 2, 4),
        ]
        subclasses, pending = set(), [ad.Module]
        while pending:
            for cls in pending.pop().__subclasses__():
                subclasses.add(cls)
                pending.append(cls)
        assert {type(m) for m in modules} == {c for c in subclasses
                                              if c.__module__.startswith("dagrl.")}
        for module in modules:
            named = module.named_params()
            assert named and all(isinstance(t, ad.Tensor) for t in named.values())
            assert [id(t) for t in module.params()] == [id(t) for t in named.values()]

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_modules_hold_only_parameters(self, tiny_pair, variant):
        source, target = tiny_pair
        state = build_state(toy_config(variant=variant), source, target)
        pending = list(state.branches) + list(state.discriminators)
        while pending:
            module = pending.pop()
            for attr, value in vars(module).items():
                assert isinstance(value, (ad.Tensor, ad.Module)), (
                    f"{type(module).__name__}.{attr} is a {type(value).__name__}")
                if isinstance(value, ad.Module):
                    pending.append(value)
