"""The benchmark in ``perfbench/`` patches dagrl attributes by name.

A rename or deletion in ``src/`` would break ``perfbench/run.py --trace 1``
only when the benchmark runs; these tests catch it with the unit tests.
"""

import sys
from pathlib import Path

import pytest

from dagrl.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Span names the per-layer metrics read; each must be reached by a plan.
# ``wl.feature_row`` is not among them: training counts each dataset's
# histograms in one pass, so only tests reach that one-graph path, which
# stays while ``spans.py`` wraps it.
LAYER_SPANS = {
    "gin.batch_build", "gin.encode", "wl.fit", "wl.head_forward",
    "autodiff.backward", "autodiff.adam", "autodiff.checkpoint_write",
    "adversarial.disc_update", "adversarial.domain_loss", "adversarial.perturbation_step",
    "trainer.gin_forward", "trainer.gkn_forward", "trainer.evaluate", "trainer.build_state",
    "trainer.history_write", "graphs.parse", "experiments.cell", "experiments.report",
}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans as module

    yield module
    sys.modules.pop("spans", None)


def test_install_and_uninstall_restore_every_attribute(spans):
    tracer = spans.Tracer("t")
    spans.install_layers(tracer)
    spans.install_plan_probes(tracer)
    patched = list(tracer._patches)
    assert patched
    for owner, attr, _ in patched:
        assert hasattr(owner, attr), f"{owner!r} lost {attr!r}"
    tracer.uninstall()
    # An attribute wrapped twice must end up as it was before the first wrap.
    first = {}
    for owner, attr, original in patched:
        first.setdefault((id(owner), attr), (owner, attr, original))
    for owner, attr, original in first.values():
        assert getattr(owner, attr) is original


@pytest.fixture
def workloads(spans):
    import workloads as module

    yield module
    sys.modules.pop("workloads", None)


def one_pair_run_args(tmp_path) -> list[str]:
    """Write a small synthetic dataset; return ``dagrl run`` arguments for pair 0,1, seed 0."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--name", "SynthBench", "--seed", "0",
                 "--graphs-per-block", "8"]) == 0
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("epochs = 1\nhidden_dim = 8\nbatch_size = 8\nwl_depth = 1\n")
    return ["run", "--data-root", str(data), "--dataset", "SynthBench", "--pairs", "0,1",
            "--seeds", "0", "--config", str(cfg), "--out", str(tmp_path / "out")]


def test_traced_plan_reaches_every_layer(spans, tmp_path):
    args = one_pair_run_args(tmp_path)
    tracer = spans.Tracer("t")
    spans.install_layers(tracer)
    try:
        code = main(args)
    finally:
        tracer.uninstall()
    assert code == 0
    seen = [name for _, name, *_ in tracer.spans]
    assert LAYER_SPANS <= set(seen), f"never reached: {sorted(LAYER_SPANS - set(seen))}"
    assert seen.count("wl.fit") == 1
    assert "wl.feature_row" not in seen
    assert tracer.counts["autodiff.checkpoint_bytes"] > 0


def test_two_cell_plan_runs_under_the_plan_probes(spans, tmp_path, monkeypatch):
    # ``plan-cli --trace 0`` installs these probes; two CPUs put the cells
    # in forked workers, which inherit the wrapped ``_run_cell``.
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    args = one_pair_run_args(tmp_path)
    args[args.index("0,1")] = "0,1;1,0"
    tracer = spans.Tracer("t")
    spans.install_plan_probes(tracer)
    try:
        code = main(args)
    finally:
        tracer.uninstall()
    assert code == 0
    out = tmp_path / "out"
    assert len((out / "results.csv").read_text().splitlines()) == 3
    for s, t in ((0, 1), (1, 0)):
        assert (out / f"loss_history_{s}_{t}_0.csv").is_file()
        assert (out / f"checkpoint_{s}_{t}_0.txt").is_file()


def test_plan_checkpoint_passes_the_benchmark_gate(workloads, tmp_path):
    from dagrl.autodiff import load_checkpoint
    from dagrl.trainer import TrainConfig

    assert main(one_pair_run_args(tmp_path)) == 0
    arrays = load_checkpoint(tmp_path / "out" / "checkpoint_0_1_0.txt")
    assert "delta/0" in arrays and "zeta/0" in arrays
    assert workloads._array_problems(arrays, TrainConfig().epsilon) == []


@pytest.mark.parametrize("overrides,slots", [({}, 2), ({"variant": "p1"}, 1),
                                             ({"variant": "gkn_only_dual"}, 2)])
def test_traced_epoch_counts_one_update_per_graph_and_slot(spans, overrides, slots):
    from dagrl.synthetic import make_shifted_pair
    from dagrl.trainer import TrainConfig, build_state, train_epoch

    source, target = make_shifted_pair(seed=0, graphs_per_class=6)
    config = TrainConfig(epochs=1, hidden_dim=8, batch_size=5, wl_depth=1, **overrides)
    state = build_state(config, source, target)
    tracer = spans.Tracer("t")
    spans.install_layers(tracer)
    try:
        train_epoch(state, source, target)
    finally:
        tracer.uninstall()
    assert tracer.counts["adversarial.perturbation_updates"] == len(source.graphs) * slots


@pytest.mark.parametrize("variant,span,per_step", [("full", "trainer.gin_forward", 3),
                                                   ("gkn_only_dual", "wl.head_forward", 6),
                                                   ("p1", "trainer.gin_forward", 2),
                                                   ("p2", "wl.head_forward", 2),
                                                   ("unperturbed", "trainer.gin_forward", 2),
                                                   ("source_only", "trainer.gin_forward", 1)])
def test_traced_step_runs_three_forwards_per_branch(spans, variant, span, per_step):
    # A perturbed branch runs one target forward, one leaf-perturbed source
    # forward for both adversaries and one source forward for the model.
    # An unperturbed branch's discriminator and the model share its one
    # source forward, and source_only runs no target forward.
    from dataclasses import replace

    from dagrl.synthetic import make_shifted_pair
    from dagrl.trainer import TrainConfig, build_state, train_epoch

    source, target = make_shifted_pair(seed=0, graphs_per_class=6)
    target = replace(target, eval_labels=None)  # no evaluate inside the epoch
    config = TrainConfig(epochs=1, hidden_dim=8, batch_size=5, wl_depth=1, variant=variant)
    state = build_state(config, source, target)
    tracer = spans.Tracer("t")
    spans.install_layers(tracer)
    try:
        train_epoch(state, source, target)
    finally:
        tracer.uninstall()
    steps = -(-len(source.graphs) // 5)
    assert [name for _, name, *_ in tracer.spans].count(span) == per_step * steps


def tiny_shifted_pair(seed):
    from dagrl.synthetic import make_shifted_pair

    return make_shifted_pair(seed, graphs_per_class=8)


def tiny_density_pair(seed):
    from dagrl.graphs import split_by_density, subset_as_source, subset_as_target
    from dagrl.synthetic import make_benchmark

    dataset = make_benchmark(seed, graphs_per_block=16)
    groups = split_by_density(dataset).groups
    return subset_as_source(dataset, groups[0]), subset_as_target(dataset, groups[1])


@pytest.mark.parametrize("name,inputs", [("ShiftFullbatch", tiny_shifted_pair),
                                         ("DensityGknMinibatch", tiny_density_pair)])
def test_training_workload_unit_passes_its_checks(workloads, tmp_path, name, inputs):
    # One ``--trace 0`` unit of the workload, on tiny inputs for one epoch:
    # its set-up, its training and every output check it runs.
    class Tiny(getattr(workloads, name)):
        config_kwargs = dict(getattr(workloads, name).config_kwargs, epochs=1)

        def make_inputs(self, seed):
            return inputs(seed)

    workload = Tiny()
    workload.prepare(1, tmp_path)
    assert workload.setup() > 0
    unit = workload.run_unit()
    assert unit.failed == 0, unit.failures
    assert unit.trained_graphs == len(workload.source)


def test_plan_cli_unit_passes_its_checks(workloads, tmp_path, monkeypatch):
    # One ``--trace 0`` unit of ``plan-cli`` on a small synthesized dataset:
    # the text round trip, all twelve cells and every output check it runs.
    class Tiny(workloads.PlanCli):
        GRAPHS_PER_BLOCK = 8

    # ``prepare`` sets the variable; monkeypatch restores it after the test.
    monkeypatch.setenv("DAGRL_THREADS", str(Tiny.THREADS))
    workload = Tiny()
    workload.prepare(1, tmp_path)
    assert workload.setup() > 0
    unit = workload.run_unit()
    assert unit.failed == 0, unit.failures
    assert unit.attempted == 12
