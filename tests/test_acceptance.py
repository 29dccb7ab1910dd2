"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
The desk-scale benchmark check (criterion 7) needs the Mutagenicity
files under ``$DAGRL_DATA_ROOT`` or ``./data`` and is skipped with an
explicit message when they are absent.
"""

import time

import numpy as np
import pytest

from dagrl import autodiff as ad
from dagrl.adversarial import DomainDiscriminator
from dagrl.gin import GinEncoder
from dagrl.graphs import parse_tudataset, split_by_density, subset_as_source, subset_as_target
from dagrl.synthetic import make_shifted_pair
from dagrl.trainer import (
    TrainConfig,
    build_state,
    evaluate,
    train,
)
from dagrl.wl import GknHead, WlRefinement
from helpers import (
    ReferenceRefinement,
    brute_force_kernel,
    dataset_root,
    discriminator_domain_accuracy,
    finite_difference,
    have_dataset,
    kernel_gram,
    max_relative_error,
    one_graph_batch,
    random_graph,
)

GRAD_TOL = 1e-4
FD_STEP = 1e-4


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def check_gradients(pairs) -> float:
    worst = 0.0
    for tensor, closure in pairs:
        numeric = finite_difference(closure, tensor.data, h=FD_STEP)
        worst = max(worst, max_relative_error(tensor.grad, numeric))
    return worst


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, max_nodes=5, num_labels=3, edge_prob=0.5)
        label = int(rng.integers(0, 2))
        encoder = GinEncoder(rng, input_dim=3, hidden_dim=6)
        head = ad.Mlp(rng, 6, 6, 2)
        disc = DomainDiscriminator(rng, repr_dim=6, num_classes=2, hidden_dim=6)
        refinement = WlRefinement(depth=2).fit([g])
        gkn = GknHead(rng, refinement.vocab_size, num_classes=2, hidden_dim=6)
        delta = ad.parameter(0.3 * rng.standard_normal((g.node_count, 3)))
        zeta = ad.parameter(0.3 * rng.standard_normal((1, 6)))
        # Built once: every closure below reads the same constant matrices.
        batch = one_graph_batch(encoder, g)

        # (a) GIN classification loss wrt parameters and wrt delta.
        def class_loss():
            tape = ad.Tape()
            _, z = encoder.encode_batch(tape, batch, delta)
            loss = ad.softmax_cross_entropy(tape, head(tape, z), [label])
            return tape, loss

        tape, loss = class_loss()
        tape.backward(loss)
        closure = lambda: class_loss()[1].item()
        worst = max(worst, check_gradients(
            [(t, closure) for t in encoder.params() + head.params() + [delta]]))
        for t in encoder.params() + head.params() + [delta, zeta]:
            t.grad = None

        # (b) log D wrt delta on the message-passing branch.
        def disc_loss_delta():
            tape = ad.Tape()
            _, z = encoder.encode_batch(tape, batch, delta)
            p = ad.softmax(tape, head(tape, z))
            logit = disc.logits(tape, z, p)
            return tape, ad.log_sigmoid(tape, logit)

        tape, loss = disc_loss_delta()
        tape.backward(loss)
        worst = max(worst, check_gradients([(delta, lambda: disc_loss_delta()[1].item())]))
        for t in encoder.params() + head.params() + disc.params() + [delta, zeta]:
            t.grad = None

        # (b) log D wrt zeta on the histogram branch.
        features = refinement.feature_row(g)

        def disc_loss_zeta():
            tape = ad.Tape()
            z, p, _ = gkn.forward(tape, features, zeta)
            logit = disc.logits(tape, z, p)
            return tape, ad.log_sigmoid(tape, logit)

        tape, loss = disc_loss_zeta()
        tape.backward(loss)
        worst = max(worst, check_gradients([(zeta, lambda: disc_loss_zeta()[1].item())]))
        for t in gkn.params() + disc.params() + [zeta]:
            t.grad = None

    elapsed = time.perf_counter() - start
    ok = worst <= GRAD_TOL and elapsed < 60.0
    report(1, ok, f"max relative gradient error {worst:.3e} (tol {GRAD_TOL}), "
                  f"50 seeds in {elapsed:.1f}s (< 60s)")


def test_criterion_2_kernel_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        g1 = random_graph(rng, max_nodes=6, num_labels=3, edge_prob=0.45)
        g2 = random_graph(rng, max_nodes=6, num_labels=3, edge_prob=0.45)
        ref = WlRefinement(depth=2).fit([g1, g2])
        via_map = int(kernel_gram(ref, [g1, g2])[0, 1])
        # The double sum reads the independent oracle's labels.
        brute = brute_force_kernel(ReferenceRefinement([g1, g2], 2), g1, g2)
        if via_map != brute:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(2, ok, f"feature-map kernel equals brute-force double-sum on 200 random pairs "
                  f"({mismatches} mismatches) in {elapsed:.1f}s (< 10s)")


def test_criterion_3_gram_psd():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    min_eig = np.inf
    for _ in range(10):
        graphs = [random_graph(rng, max_nodes=8, num_labels=3, edge_prob=0.35)
                  for _ in range(32)]
        ref = WlRefinement(depth=2).fit(graphs)
        gram = kernel_gram(ref, graphs, normalized=True)
        sym = (gram + gram.T) / 2.0
        min_eig = min(min_eig, float(np.linalg.eigvalsh(sym).min()))
    elapsed = time.perf_counter() - start
    ok = min_eig >= -1e-8 and elapsed < 30.0
    report(3, ok, f"min eigenvalue over 10 normalized 32-graph Grams = {min_eig:.2e} "
                  f"(>= -1e-8) in {elapsed:.1f}s (< 30s)")


def test_criterion_4_perturbation_constraint():
    epsilon = 0.8
    config = TrainConfig(epochs=10, lr=1e-2, hidden_dim=8, batch_size=8, lambda1=0.1,
                         lambda2=0.1, epsilon=epsilon, wl_depth=2, seed=0, variant="full")
    source, target = make_shifted_pair(seed=11, graphs_per_class=12)
    state = train(config, source, target)
    store = state.store
    assert store.steps, "no perturbation steps were taken"
    # The store's counters are maxima over every step of the run; every
    # final entry was left by some step, so its norm is among them.
    final_norm = max(np.linalg.norm(a) for a in store.as_arrays().values())
    norm_ok = final_norm <= store.max_post_norm <= epsilon + 1e-10
    step_ok = store.max_step_error <= 1e-10
    final_ok = final_norm <= epsilon + 1e-10
    nondegenerate = store.steps - store.degenerate_steps
    ok = norm_ok and step_ok and final_ok
    report(4, ok, f"{store.steps} perturbation updates over 10 epochs ({nondegenerate} "
                  f"non-degenerate): post-step norms <= eps and raw steps exactly eps (+-1e-10)")


def test_criterion_5_reduction_bitwise():
    source, target = make_shifted_pair(seed=21, graphs_per_class=12)
    shared = dict(epochs=4, lr=1e-2, hidden_dim=8, batch_size=8, epsilon=1.0,
                  wl_depth=2, seed=3)
    zeroed = train(TrainConfig(lambda1=0.0, lambda2=0.0, variant="unperturbed", **shared),
                   source, target)
    baseline = train(TrainConfig(variant="source_only", **shared), source, target)
    trace_ok = all(
        a.source_loss == b.source_loss and a.total_loss == b.total_loss
        for a, b in zip(zeroed.history, baseline.history)
    ) and len(zeroed.history) == len(baseline.history)
    params_ok = all(
        np.array_equal(pa.data, pb.data)
        for pa, pb in zip((p for br in zeroed.branches for p in br.params()),
                          (p for br in baseline.branches for p in br.params()))
    )
    ok = trace_ok and params_ok
    report(5, ok, "lambda1=lambda2=0 with perturbations disabled reproduces the "
                  "source_only loss trace and final parameters bit-for-bit")


SYNTH_CONFIG = dict(epochs=25, lr=1e-2, hidden_dim=32, batch_size=256, lambda1=0.01,
                    lambda2=0.01, epsilon=4.0, wl_depth=2)
SYNTH_SEEDS = (0, 1, 2, 3, 4)
SYNTH_GRAPHS_PER_CLASS = 100


@pytest.fixture(scope="module")
def synthetic_shift_results():
    """Target accuracies per variant over 5 seeds on the shifted task."""
    start = time.perf_counter()
    results = {}
    disc_accs = []
    # p1 and p2 are the full model without delta or without zeta.
    for variant in ("full", "source_only", "p1", "p2"):
        accs = []
        for seed in SYNTH_SEEDS:
            config = TrainConfig(seed=seed, variant=variant, **SYNTH_CONFIG)
            source, target = make_shifted_pair(seed=seed,
                                               graphs_per_class=SYNTH_GRAPHS_PER_CLASS)
            state = train(config, source, target)
            accs.append(evaluate(state, target))
            if variant == "full":
                disc_accs.append([discriminator_domain_accuracy(state, b) for b in (0, 1)])
        results[variant] = accs
    results["disc"] = disc_accs
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_6_synthetic_shift_efficacy(synthetic_shift_results):
    r = synthetic_shift_results
    full = float(np.mean(r["full"]))
    base = float(np.mean(r["source_only"]))
    # Branch 1's (GKN) discriminator is reported without a bound.
    disc, disc_gkn = np.mean(r["disc"], axis=0)
    gap = 100.0 * (full - base)
    # The fixture also trains the ablation variants; the runtime budget
    # covers the whole batch of runs, which is strictly more work.
    elapsed = r["elapsed"]
    ok = gap >= 5.0 and 0.45 <= disc <= 0.65 and elapsed < 300.0
    report(6, ok, f"full {100 * full:.1f}% vs source_only {100 * base:.1f}% "
                  f"(gap {gap:.1f} >= 5 points); discriminator domain accuracy "
                  f"{disc:.3f} in [0.45, 0.65], branch 1 {disc_gkn:.3f}; "
                  f"{elapsed:.0f}s (< 300s)")


def test_criterion_8_ablation_ordering(synthetic_shift_results):
    r = synthetic_shift_results
    full = float(np.mean(r["full"]))
    flagged = []
    failed = []
    for name in ("p1", "p2"):
        variant = float(np.mean(r[name]))
        if full >= variant:
            continue
        if 100.0 * (variant - full) < 1.0:
            flagged.append(f"{name} ahead by {100 * (variant - full):.2f} points (flagged)")
        else:
            failed.append(f"{name} ahead by {100 * (variant - full):.2f} points")
    detail = (f"full {100 * full:.1f}% vs p1 {100 * float(np.mean(r['p1'])):.1f}% / "
              f"p2 {100 * float(np.mean(r['p2'])):.1f}%")
    if flagged:
        detail += "; " + "; ".join(flagged)
    report(8, not failed, detail if not failed else detail + "; " + "; ".join(failed))


@pytest.mark.skipif(not have_dataset("Mutagenicity"),
                    reason="Mutagenicity files not present under DAGRL_DATA_ROOT or ./data")
def test_criterion_7_mutagenicity_desk_scale():
    start = time.perf_counter()
    dataset = parse_tudataset(dataset_root(), "Mutagenicity")
    groups = split_by_density(dataset).groups
    source = subset_as_source(dataset, groups[0])
    target = subset_as_target(dataset, groups[1])
    accs = []
    for seed in (0, 1, 2):
        config = TrainConfig(epochs=15, lr=1e-4, hidden_dim=64, batch_size=64,
                             lambda1=0.1, lambda2=0.1, epsilon=1.0, wl_depth=2,
                             seed=seed, variant="full")
        state = train(config, source, target)
        accs.append(evaluate(state, target))
    elapsed = time.perf_counter() - start
    mean_acc = float(np.mean(accs))
    ok = mean_acc >= 0.70 and elapsed < 1800.0
    report(7, ok, f"Mutagenicity M0->M1 mean accuracy {100 * mean_acc:.1f}% over 3 seeds "
                  f"(>= 70%) in {elapsed:.0f}s (< 1800s)")
