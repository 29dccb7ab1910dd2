import numpy as np
import pytest

from dagrl import autodiff as ad
from dagrl.errors import ConfigurationError, ContractViolation
from dagrl.graphs import SOURCE, DomainDataset, Graph, subset_as_target
from dagrl.synthetic import make_shifted_pair
from dagrl import trainer
from dagrl.trainer import (
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
    for i in range(n):
        label = i % num_classes
        nodes = int(rng.integers(4, 8))
        node_labels = tuple(label for _ in range(nodes))
        edges = tuple((k, k + 1) for k in range(nodes - 1))
        graphs.append(Graph(node_count=nodes, edges=edges, node_labels=node_labels,
                            graph_label=label))
    return DomainDataset(graphs=tuple(graphs), domain=SOURCE, num_classes=num_classes,
                         label_alphabet_size=max(3, num_classes))


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


class TestSourceLoss:
    def test_unlabeled_graph_rejected(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        tape = ad.Tape()
        with pytest.raises(ContractViolation, match="unlabeled"):
            source_loss(tape, state.branches, Batch(state, target, [0, 1]), [None, None])

    def test_uniform_heads_give_log_c(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        for branch in state.branches:
            for p in branch.params():
                p.data[:] = 0.0
        tape = ad.Tape()
        loss, _ = source_loss(tape, state.branches, Batch(state, source, range(4)),
                              [g.graph_label for g in source.graphs[:4]])
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
        w0 = state.branches[0].encoder.layers[0].lin1.weight.data
        w1 = state.branches[1].encoder.layers[0].lin1.weight.data
        assert not np.array_equal(w0, w1)

    def test_p1_keeps_delta_zero(self, tiny_pair):
        source, target = tiny_pair
        state = train(toy_config(delta_enabled=False, lr=1e-2), source, target)
        assert all(np.all(a == 0.0) for a in state.store.delta)
        assert any(np.linalg.norm(a) > 0 for a in state.store.zeta)

    def test_p2_keeps_zeta_zero(self, tiny_pair):
        source, target = tiny_pair
        state = train(toy_config(zeta_enabled=False, lr=1e-2), source, target)
        assert all(np.all(a == 0.0) for a in state.store.zeta)
        assert any(np.linalg.norm(a) > 0 for a in state.store.delta)

    def test_source_only_has_no_adversarial_state(self, tiny_pair):
        source, target = tiny_pair
        state = build_state(toy_config(variant="source_only"), source, target)
        assert state.discriminators is None
        assert state.store is None

    @pytest.mark.parametrize("variant", ["gin_only_dual", "gkn_only_dual"])
    def test_dual_variants_train_end_to_end(self, tiny_pair, variant):
        # Both dual variants route perturbations of the other shape
        # through their second branch; make sure the whole loop runs.
        source, target = tiny_pair
        state = train(toy_config(variant=variant, lr=1e-2), source, target)
        assert len(state.history) == 2
        assert all(np.isfinite(e.source_loss) for e in state.history)
        assert any(r.raw_step_norm > 0 for r in state.store.audit)
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
        # lambda1 = lambda2 = 0 with both perturbations disabled must
        # reproduce the source-only run bit for bit: same loss trace and
        # same final model parameters.
        source, target = tiny_pair
        cfg_zero = toy_config(epochs=3, lr=1e-2, lambda1=0.0, lambda2=0.0,
                              delta_enabled=False, zeta_enabled=False)
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
        assert state.store.audit, "perturbation phases never ran"
        for record in state.store.audit:
            assert record.post_norm <= eps + 1e-10
            assert record.raw_step_norm == 0.0 or abs(record.raw_step_norm - eps) <= 1e-10
        assert state.store.max_norm() <= eps + 1e-10

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

    def test_empty_domain_rejected(self, tiny_pair):
        source, target = tiny_pair
        empty = DomainDataset(graphs=(), domain=SOURCE, num_classes=2, label_alphabet_size=3)
        with pytest.raises(ConfigurationError):
            build_state(toy_config(), empty, target)

    def test_labeled_target_rejected(self, tiny_pair):
        source, _ = tiny_pair
        with pytest.raises(ConfigurationError):
            build_state(toy_config(), source, source)

    def test_mismatched_label_spaces_rejected(self, tiny_pair):
        from dataclasses import replace

        source, target = tiny_pair
        skewed = replace(target, num_classes=5)
        with pytest.raises(ConfigurationError, match="label space"):
            build_state(toy_config(), source, skewed)


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
            graphs=tuple(target.graphs[i] for i in order),
            domain=target.domain,
            num_classes=target.num_classes,
            label_alphabet_size=target.label_alphabet_size,
            eval_labels=tuple(target.eval_labels[i] for i in order),
        )
        assert evaluate(state, shuffled) == pytest.approx(acc, abs=1e-12)


class TestAssemblyReuse:
    """Each step gathers its batches once; kernel rows are computed once per graph."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from collections import Counter

        from dagrl.wl import WlRefinement

        builds = []
        rows = Counter()
        batch_cls, feature_row = trainer.GraphBatch, WlRefinement.feature_row

        def counting_batch(*args, **kwargs):
            builds.append(1)
            return batch_cls(*args, **kwargs)

        def counting_row(self, g):
            rows[(id(self), id(g))] += 1
            return feature_row(self, g)

        monkeypatch.setattr(trainer, "GraphBatch", counting_batch)
        monkeypatch.setattr(WlRefinement, "feature_row", counting_row)
        return builds, rows

    def run_two_epochs(self, tiny_pair, variant):
        source, target = tiny_pair
        state = build_state(toy_config(variant=variant), source, target)
        for _ in range(2):
            train_epoch(state, source, target)
        return source, target

    def test_full_builds_two_batches_per_step(self, tiny_pair, counts):
        source, target = self.run_two_epochs(tiny_pair, "full")
        builds, _ = counts
        steps = -(-len(source.graphs) // 8)
        eval_chunks = -(-len(target.graphs) // 8)
        assert len(builds) == 2 * (2 * steps + eval_chunks)

    def test_gkn_only_builds_no_gin_batch(self, tiny_pair, counts):
        self.run_two_epochs(tiny_pair, "gkn_only_dual")
        builds, rows = counts
        assert builds == []
        assert rows

    @pytest.mark.parametrize("variant", ["full", "gin_only_dual", "gkn_only_dual",
                                         "source_only"])
    def test_feature_row_at_most_once_per_graph(self, tiny_pair, counts, variant):
        source, target = self.run_two_epochs(tiny_pair, variant)
        _, rows = counts
        assert all(n == 1 for n in rows.values())
        if variant != "gin_only_dual":
            assert len(rows) == len(source.graphs) + len(target.graphs)


class TestPhaseScope:
    """Each phase's backward reaches only the tensors that phase updates."""

    def test_each_backward_reaches_only_its_phase(self, tiny_pair, monkeypatch):
        source, target = tiny_pair
        state = build_state(toy_config(), source, target)
        params = state.branch_params() + state.discriminator_params()
        owner = {id(p): f"branch{i}" for i, b in enumerate(state.branches) for p in b.params()}
        owner.update({id(p): f"disc{i}"
                      for i, d in enumerate(state.discriminators) for p in d.params()})
        phase = [None]
        seen = []
        backward = ad.Tape.backward

        def recording_backward(self, loss):
            backward(self, loss)
            seen.append((phase[0], [owner[id(p)] for p in params if p.grad is not None]))

        def entering(name):
            original = getattr(trainer, name)

            def wrapped(*args, **kwargs):
                phase[0] = name
                return original(*args, **kwargs)

            monkeypatch.setattr(trainer, name, wrapped)

        for name in ("_phase_discriminators", "_phase_perturbations", "_phase_model"):
            entering(name)
        monkeypatch.setattr(ad.Tape, "backward", recording_backward)
        train_epoch(state, source, target)

        steps = -(-len(source.graphs) // 8)
        by_phase = {}
        for name, holders in seen:
            by_phase.setdefault(name, []).append(holders)
        disc = by_phase["_phase_discriminators"]
        assert len(disc) == 2 * steps
        for k, holders in enumerate(disc):
            assert holders == [f"disc{k % 2}"] * len(state.discriminators[k % 2].params())
        assert by_phase["_phase_perturbations"] == [[]] * (2 * steps)
        branch_owners = [owner[id(p)] for p in state.branch_params()]
        assert by_phase["_phase_model"] == [branch_owners] * steps
        assert all(p.requires_grad for p in params)

    def test_inference_records_nothing(self, tiny_pair, monkeypatch):
        source, target = tiny_pair
        state = train(toy_config(epochs=1), source, target)
        records = []
        monkeypatch.setattr(ad.Tape, "record", lambda self, *args: records.append(args))
        evaluate(state, target)
        for b in range(2):
            trainer.discriminator_domain_accuracy(state, source, target, b)
        assert records == []
        assert all(p.requires_grad
                   for p in state.branch_params() + state.discriminator_params())
