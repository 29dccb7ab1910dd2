import multiprocessing
import os
import re
import time

import numpy as np
import pytest

import dagrl.experiments as exp
from dagrl.cli import main
from dagrl.errors import ConfigurationError
from dagrl.experiments import (
    ALL_PAIRS,
    ExperimentPlan,
    PlanExecutionError,
    ResultTable,
    RunResult,
    emit_report,
    run_plan,
)
from dagrl.graphs import write_tudataset
from dagrl.synthetic import make_benchmark
from dagrl import trainer
from dagrl.trainer import VARIANTS, TrainConfig


def tiny_config(**overrides):
    defaults = dict(epochs=2, lr=1e-2, hidden_dim=8, batch_size=16, lambda1=0.1,
                    lambda2=0.1, epsilon=1.0, wl_depth=1, seed=0, variant="full")
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    write_tudataset(make_benchmark(seed=1, graphs_per_block=16), root, "SynthBench")
    return root


def make_plan(root, out, pairs=((0, 1),), seeds=(0,), **cfg):
    return ExperimentPlan(data_root=str(root), dataset_name="SynthBench", pairs=pairs,
                          config=tiny_config(**cfg), seeds=seeds, out_dir=str(out))


class TestPlanValidation:
    def test_default_pair_matrix_has_all_twelve(self):
        assert len(ALL_PAIRS) == 12
        assert len(set(ALL_PAIRS)) == 12
        assert all(s != t for s, t in ALL_PAIRS)
        assert ALL_PAIRS[0] == (0, 1) and ALL_PAIRS[-1] == (3, 2)

    def test_same_group_pair_rejected(self, bench_root, tmp_path):
        with pytest.raises(ConfigurationError):
            make_plan(bench_root, tmp_path, pairs=((1, 1),))

    def test_out_of_range_group_rejected(self, bench_root, tmp_path):
        with pytest.raises(ConfigurationError):
            make_plan(bench_root, tmp_path, pairs=((0, 4),))

    @pytest.mark.parametrize("pairs,seeds,message", [
        (((True, 0),), (0,), "group index must be an integer, got True"),
        (((0.5, 1),), (0,), "group index must be an integer, got 0.5"),
        (((0, 1),), (1.5,), "seed must be an integer, got 1.5"),
        (((0, 1),), (True,), "seed must be an integer, got True"),
    ], ids=["bool-group", "fractional-group", "fractional-seed", "bool-seed"])
    def test_non_integer_group_or_seed_rejected(self, tmp_path, pairs, seeds, message):
        # Each would pass the range checks: True is group 1, and 0.5 lies in 0..3.
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            make_plan(tmp_path, tmp_path, pairs=pairs, seeds=seeds)

    @pytest.mark.parametrize("pairs,message", [
        (((0, 1, 2),), "got (0, 1, 2)"),
        (((0,),), "got (0,)"),
        ((0,), "got 0"),
    ], ids=["three-groups", "one-group", "flat"])
    def test_malformed_pair_rejected(self, tmp_path, pairs, message):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"each pair must be (source, target), {message}")):
            make_plan(tmp_path, tmp_path, pairs=pairs)

    def test_numpy_integer_group_and_seed_accepted(self, tmp_path):
        plan = make_plan(tmp_path, tmp_path, pairs=((np.int64(0), 1),), seeds=(np.int64(2),))
        assert plan.pairs == ((0, 1),) and plan.seeds == (2,)

    @pytest.mark.parametrize("pairs", [([0, 1], [0, 1]), ([0, 1], (0, 1))],
                             ids=["lists", "list-and-tuple"])
    def test_repeated_pair_given_as_list_rejected(self, tmp_path, pairs):
        # A list pair is the tuple it stands for: neither unhashable nor a new cell.
        with pytest.raises(ConfigurationError,
                           match=re.escape("repeated pair in plan: [(0, 1)]")):
            make_plan(tmp_path, tmp_path, pairs=pairs)

    def test_list_pairs_become_tuples(self, tmp_path):
        plan = make_plan(tmp_path, tmp_path, pairs=[[0, 1], [1, 0]])
        assert plan.pairs == ((0, 1), (1, 0))


class TestRunPlan:
    def test_single_cell_shape(self, bench_root, tmp_path):
        table = run_plan(make_plan(bench_root, tmp_path / "o"))
        assert len(table.rows) == 1
        row = table.rows[0]
        assert (row.source_group, row.target_group, row.seed) == (0, 1, 0)
        assert 0.0 <= row.accuracy <= 1.0
        assert (tmp_path / "o" / "loss_history_0_1_0.csv").is_file()
        assert (tmp_path / "o" / "checkpoint_0_1_0.txt").is_file()

    def test_loss_history_columns(self, bench_root, tmp_path):
        run_plan(make_plan(bench_root, tmp_path / "o"))
        lines = (tmp_path / "o" / "loss_history_0_1_0.csv").read_text().splitlines()
        assert lines[0] == "epoch,L_S,L_DA_C,L_DA_K,L,target_accuracy"
        assert len(lines) == 3  # header + 2 epochs

    def test_byte_identical_reruns(self, bench_root, tmp_path):
        plan_a = make_plan(bench_root, tmp_path / "a", pairs=((0, 1), (1, 0)), seeds=(0, 1))
        plan_b = make_plan(bench_root, tmp_path / "b", pairs=((0, 1), (1, 0)), seeds=(0, 1))
        emit_report(run_plan(plan_a), tmp_path / "a")
        emit_report(run_plan(plan_b), tmp_path / "b")
        for name in ("results.csv", "summary.csv", "loss_history_0_1_0.csv",
                     "loss_history_1_0_1.csv", "checkpoint_0_1_0.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_checkpoint_contains_model_and_perturbations(self, bench_root, tmp_path):
        from dagrl.autodiff import load_checkpoint

        run_plan(make_plan(bench_root, tmp_path / "o"))
        arrays = load_checkpoint(tmp_path / "o" / "checkpoint_0_1_0.txt")
        keys = set(arrays)
        assert any(k.startswith("branch0_gin/") for k in keys)
        assert any(k.startswith("branch1_gkn/") for k in keys)
        assert any(k.startswith("disc0/") for k in keys)
        assert "delta/0" in keys and "zeta/0" in keys

    def test_failed_cell_raises_with_manifest(self, bench_root, tmp_path, monkeypatch):
        import dagrl.experiments as exp

        original = exp.train

        def boom(config, source, target):
            if config.seed == 1:
                raise RuntimeError("synthetic failure")
            return original(config, source, target)

        monkeypatch.setattr(exp, "train", boom)
        plan = make_plan(bench_root, tmp_path / "o", seeds=(0, 1))
        with pytest.raises(PlanExecutionError) as excinfo:
            run_plan(plan)
        failures = excinfo.value.failures
        assert failures == [(0, 1, 1, "RuntimeError: synthetic failure")]
        assert [r.seed for r in excinfo.value.partial.rows] == [0]

    @pytest.mark.parametrize("epochs", [2, 0])
    def test_cell_evaluates_once_per_epoch(self, bench_root, tmp_path, monkeypatch, epochs):
        # The last epoch's evaluation is the cell's accuracy; only an
        # untrained cell evaluates on its own.
        import dagrl.experiments as exp
        from dagrl import trainer

        original, calls = trainer.evaluate, []

        def counting(state, dataset):
            calls.append((state, dataset))
            return original(state, dataset)

        monkeypatch.setattr(trainer, "evaluate", counting)
        monkeypatch.setattr(exp, "evaluate", counting)
        table = run_plan(make_plan(bench_root, tmp_path / "o", epochs=epochs))
        assert len(calls) == max(epochs, 1)
        accuracy = original(*calls[-1])
        assert table.rows[0].accuracy == accuracy
        results, summary = emit_report(table, tmp_path / "o")
        assert results.read_text().splitlines()[1].endswith(f",{accuracy!r}")
        assert summary.read_text().splitlines()[1].endswith(f",{accuracy!r}")


def use_cpus(monkeypatch, count):
    """Let the plan see ``count`` CPUs: 1 runs cells in-process, 2 in a fork pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def blas_threads_per_cell(bench_root, tmp_path, monkeypatch, cpus):
    """The OpenBLAS thread count each cell of a 2-cell plan sees, started at 2 threads."""
    threads = trainer._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not its bundled scipy-openblas")
    get_threads, set_threads = threads
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(exp, "_run_cell", lambda *args: get_threads())
    before = get_threads()
    set_threads(2)
    try:
        table = run_plan(make_plan(bench_root, tmp_path / "o", seeds=(0, 1)))
        assert get_threads() == 2  # restored after the plan
    finally:
        set_threads(before)
    return table.rows


def test_in_process_cells_run_one_blas_thread(bench_root, tmp_path, monkeypatch):
    # One CPU keeps both cells in this process.
    assert blas_threads_per_cell(bench_root, tmp_path, monkeypatch, cpus=1) == [1, 1]


def test_plan_runs_where_the_blas_lookup_has_no_rtld_noload(bench_root, tmp_path, monkeypatch):
    # Platforms without the POSIX mode leave the BLAS alone instead of failing.
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    assert trainer._openblas_threads() is None
    assert len(run_plan(make_plan(bench_root, tmp_path / "o")).rows) == 1


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker pool forks")


@needs_fork
class TestWorkerPool:
    """Two CPUs put a plan in worker processes, so these also run on a 1-CPU box."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_pool_outputs_are_byte_identical_to_in_process(self, bench_root, tmp_path,
                                                           monkeypatch, variant):
        pairs = ((0, 1), (2, 0))
        for count in (1, 2):
            use_cpus(monkeypatch, count)
            assert exp._worker_count(len(pairs)) == count
            out = tmp_path / f"cpus{count}"
            emit_report(run_plan(make_plan(bench_root, out, pairs=pairs, variant=variant)), out)
            assert multiprocessing.active_children() == []
        names = ["results.csv", "summary.csv"]
        for s, t in pairs:
            names += [f"loss_history_{s}_{t}_0.csv", f"checkpoint_{s}_{t}_0.txt"]
        assert sorted(p.name for p in (tmp_path / "cpus1").iterdir()) == sorted(names)
        for name in names:
            assert (tmp_path / "cpus1" / name).read_bytes() == \
                (tmp_path / "cpus2" / name).read_bytes(), name

    @staticmethod
    def crash_second_seed(monkeypatch, out):
        # Seed 1 kills its worker once seed 0's cell has written its files;
        # the pause lets seed 0's result reach the parent first.
        original = exp.train

        def crash(config, source, target):
            if config.seed == 1:
                deadline = time.monotonic() + 60
                while (not (out / "checkpoint_0_1_0.txt").exists()
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                time.sleep(0.5)
                os._exit(3)
            return original(config, source, target)

        monkeypatch.setattr(exp, "train", crash)

    def test_dead_worker_fails_its_cell_and_keeps_the_rest(self, bench_root, tmp_path,
                                                          monkeypatch):
        use_cpus(monkeypatch, 2)
        out = tmp_path / "o"
        self.crash_second_seed(monkeypatch, out)
        with pytest.raises(PlanExecutionError) as excinfo:
            run_plan(make_plan(bench_root, out, seeds=(0, 1)))
        assert multiprocessing.active_children() == []
        [(s, t, seed, message)] = excinfo.value.failures
        assert (s, t, seed) == (0, 1, 1)
        assert message.startswith("BrokenProcessPool: ")
        assert [r.seed for r in excinfo.value.partial.rows] == [0]
        assert (out / "checkpoint_0_1_0.txt").is_file()
        assert not (out / "checkpoint_0_1_1.txt").exists()

    def test_dead_worker_run_exits_1_with_manifest(self, bench_root, tmp_path, monkeypatch,
                                                  capsys):
        use_cpus(monkeypatch, 2)
        out = tmp_path / "o"
        self.crash_second_seed(monkeypatch, out)
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("epochs = 1\nhidden_dim = 8\nbatch_size = 16\nwl_depth = 1\n")
        code = main(["run", "--data-root", str(bench_root), "--dataset", "SynthBench",
                     "--pairs", "0,1", "--seeds", "0,1", "--config", str(cfg),
                     "--out", str(out)])
        assert multiprocessing.active_children() == []
        assert code == 1
        [line] = (out / "failures.txt").read_text().splitlines()
        assert line.startswith("0->1 seed=1: BrokenProcessPool: ")
        assert f"FAILED {line}" in capsys.readouterr().err

    def test_each_worker_runs_one_blas_thread(self, bench_root, tmp_path, monkeypatch):
        assert blas_threads_per_cell(bench_root, tmp_path, monkeypatch, cpus=2) == [1, 1]
        assert multiprocessing.active_children() == []


class TestReport:
    def synthetic_table(self):
        pairs = ((0, 1), (1, 0))
        table = ResultTable(dataset_name="Mutagenicity", pairs=pairs)
        table.rows = [
            RunResult(0, 1, 0, 0.779),
            RunResult(0, 1, 1, 0.781),
            RunResult(1, 0, 0, 0.70),
            RunResult(1, 0, 1, 0.72),
        ]
        return table

    def test_summary_row_rendering(self, tmp_path):
        pairs = ((0, 1),)
        table = ResultTable(dataset_name="Mutagenicity", pairs=pairs)
        table.rows = [RunResult(0, 1, 0, 0.779)]
        _, summary = emit_report(table, tmp_path)
        lines = summary.read_text().splitlines()
        assert lines[1].startswith("M0,M1,77.9,")
        assert lines[-1].startswith("Avg.,,77.9,")

    def test_results_rows_count(self, tmp_path):
        table = ResultTable(dataset_name="SynthBench", pairs=ALL_PAIRS)
        for pair in ALL_PAIRS:
            for seed in range(3):
                table.rows.append(RunResult(pair[0], pair[1], seed, 0.5))
        results, summary = emit_report(table, tmp_path)
        lines = results.read_text().splitlines()
        assert len(lines) == 1 + 36
        # Full matrix: one summary row per pair plus the Avg. row.
        summary_lines = summary.read_text().splitlines()
        assert len(summary_lines) == 1 + 12 + 1
        assert summary_lines[1].startswith("S0,S1,")
        assert summary_lines[-1].startswith("Avg.,")

    def test_empty_table_rejected(self, tmp_path):
        table = ResultTable(dataset_name="X", pairs=((0, 1),))
        with pytest.raises(ConfigurationError):
            emit_report(table, tmp_path)
        assert not (tmp_path / "results.csv").exists()

    def test_average_recomputable_from_results(self, tmp_path):
        table = self.synthetic_table()
        results, summary = emit_report(table, tmp_path)
        rows = results.read_text().splitlines()[1:]
        by_pair = {}
        for line in rows:
            src, tgt, _seed, acc = line.split(",")
            by_pair.setdefault((src, tgt), []).append(float(acc))
        recomputed = np.mean([np.mean(v) for v in by_pair.values()])
        reported = float(summary.read_text().splitlines()[-1].split(",")[4])
        assert abs(recomputed - reported) <= 1e-9
        assert abs(table.overall_average() - reported) <= 1e-9

    def test_avg_is_mean_of_pair_means(self):
        table = self.synthetic_table()
        expected = np.mean([np.mean([0.779, 0.781]), np.mean([0.70, 0.72])])
        assert table.overall_average() == pytest.approx(expected, abs=1e-12)
