"""Transfer-task matrix execution and report emission.

A plan names a dataset, a set of ordered (source_group, target_group)
pairs over the four density quartiles, a training config, and seeds.
Each (pair, seed) cell trains one model and records final-epoch target
accuracy. A plan of more than one cell trains its cells in
``min(cells, CPUs)`` forked worker processes, CPUs being those the
process may run on; the workers run numpy's bundled OpenBLAS at one
thread. A plan runs its cells in-process, one after another, when it
has one cell, when it may run on one CPU, or where ``fork`` is not a
start method. Either way results and failures are collected in plan
order, and every output file is byte-identical. Reports are written
deterministically and atomically: identical plans and seeds produce
byte-identical CSV files, and no output file is ever left half-written.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import takewhile
from pathlib import Path

import numpy as np

from .autodiff import save_checkpoint
from .errors import ConfigurationError, DagrlError
from .fileio import atomic_write, output_dir
from .graphs import parse_tudataset, split_by_density, subset_as_source, subset_as_target
from .trainer import TrainConfig, evaluate, export_loss_history, train

# Ordered as in the transfer-result tables: both directions of each
# unordered group pair, lowest-density groups first.
ALL_PAIRS = ((0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0),
             (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))


@dataclass(frozen=True)
class ExperimentPlan:
    data_root: str
    dataset_name: str
    pairs: tuple[tuple[int, int], ...]
    config: TrainConfig
    seeds: tuple[int, ...]
    out_dir: str

    def __post_init__(self):
        if not self.pairs:
            raise ConfigurationError("a plan needs at least one (source, target) pair")
        if not self.seeds:
            raise ConfigurationError("a plan needs at least one seed")
        for s, t in self.pairs:
            if s == t:
                raise ConfigurationError(f"source and target group must differ, got ({s}, {t})")
            if not (0 <= s <= 3 and 0 <= t <= 3):
                raise ConfigurationError(f"group indices must lie in 0..3, got ({s}, {t})")
        # A repeated pair or seed would train the same cell twice and
        # weight it twice in the pair mean and the Avg. row.
        for name, values in (("pair", self.pairs), ("seed", self.seeds)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigurationError(f"repeated {name} in plan: {repeated}")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be nonnegative, got {min(self.seeds)}")


@dataclass(frozen=True)
class RunResult:
    source_group: int
    target_group: int
    seed: int
    accuracy: float


@dataclass
class ResultTable:
    dataset_name: str
    pairs: tuple[tuple[int, int], ...]
    rows: list[RunResult] = field(default_factory=list)

    @property
    def initial(self) -> str:
        return self.dataset_name[0].upper()

    def group_name(self, index: int) -> str:
        return f"{self.initial}{index}"

    def pair_accuracies(self, pair) -> list[float]:
        s, t = pair
        return [r.accuracy for r in self.rows
                if r.source_group == s and r.target_group == t]

    def pair_mean(self, pair) -> float:
        values = self.pair_accuracies(pair)
        if not values:
            raise ConfigurationError(f"no results recorded for pair {pair}")
        return float(np.mean(values))

    def pair_std(self, pair) -> float:
        return float(np.std(self.pair_accuracies(pair)))

    def overall_average(self) -> float:
        return float(np.mean([self.pair_mean(p) for p in self.pairs]))


class PlanExecutionError(DagrlError):
    """One or more runs of a plan failed; carries a per-run manifest.

    ``lines`` holds one ``"s->t seed=N: message"`` line per failed run.
    """

    def __init__(self, failures, partial: ResultTable):
        self.lines = [f"{s}->{t} seed={seed}: {message}" for s, t, seed, message in failures]
        super().__init__("plan execution failed:\n" + "\n".join(self.lines))
        self.failures = failures
        self.partial = partial


def _run_cell(plan: ExperimentPlan, dataset, groups, pair, seed: int) -> RunResult:
    s, t = pair
    config = replace(plan.config, seed=seed)
    source = subset_as_source(dataset, groups[s])
    target = subset_as_target(dataset, groups[t])
    state = train(config, source, target)
    # The last epoch already evaluated the trained state on the target.
    accuracy = state.history[-1].target_accuracy if state.history else evaluate(state, target)
    out = Path(plan.out_dir)
    export_loss_history(out / f"loss_history_{s}_{t}_{seed}.csv", state.history)
    save_checkpoint(out / f"checkpoint_{s}_{t}_{seed}.txt", state.named_arrays())
    return RunResult(source_group=s, target_group=t, seed=seed, accuracy=accuracy)


def _attempt(call, *args) -> RunResult | str:
    """``call(*args)``, or its ``"<Type>: <message>"`` failure line."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - manifest reports every failure
        return f"{type(exc).__name__}: {exc}"


def _worker_count(cells: int) -> int:
    """Worker processes for a plan of ``cells`` cells; 1 means in-process."""
    if (cells < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(cells, len(os.sched_getaffinity(0)))


def _openblas_threads():
    """Getter and setter of numpy's bundled OpenBLAS thread count, or None.

    None means another BLAS, which is left alone. ``RTLD_NOLOAD`` opens
    only the copy numpy loaded, never a second one.
    """
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread for the block, then restore it.

    Workers forked inside the block inherit the count: one worker per CPU
    already fills the machine, and more BLAS threads would spin against
    the other workers. Setting the count in a worker instead restarts
    OpenBLAS's thread pool there, and its idle thread spins as well.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# ``(plan, dataset, groups)`` in a pool worker, set by ``_init_worker``.
_worker_plan = None


def _init_worker(plan: ExperimentPlan, dataset, groups) -> None:
    # The arguments reach the worker through fork; nothing is pickled.
    global _worker_plan
    _worker_plan = (plan, dataset, groups)


def _worker_cell(pair, seed: int) -> RunResult | str:
    # ``_run_cell`` is looked up at call time, so a wrapper set on it
    # before the fork runs in the worker too.
    return _attempt(_run_cell, *_worker_plan, pair, seed)


def run_plan(plan: ExperimentPlan) -> ResultTable:
    """Execute every (pair, seed) cell and collect target accuracies.

    Cells run in forked worker processes when ``_worker_count`` gives
    more than one; results and failures keep plan order either way.
    Raises :class:`PlanExecutionError` with a per-run manifest if any
    cell fails; completed cells are kept on the exception's ``partial``.
    """
    # A bad output path fails before the parse. A bad dataset still
    # writes nothing: the directories made for the output are removed.
    out = Path(plan.out_dir)
    made = list(takewhile(lambda d: not d.exists(), (out, *out.parents)))
    output_dir(out)
    try:
        dataset = parse_tudataset(plan.data_root, plan.dataset_name)
        groups = split_by_density(dataset).groups
    except BaseException:
        for d in made:
            d.rmdir()
        raise

    cells = [(pair, seed) for pair in plan.pairs for seed in plan.seeds]
    workers = _worker_count(len(cells))
    if workers == 1:
        outcomes = [_attempt(_run_cell, plan, dataset, groups, pair, seed)
                    for pair, seed in cells]
    else:
        with _one_blas_thread():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_init_worker,
                                       initargs=(plan, dataset, groups))
            try:
                futures = [pool.submit(_worker_cell, pair, seed) for pair, seed in cells]
                # A dead worker fails its cells with BrokenProcessPool; the rest stand.
                outcomes = [_attempt(f.result) for f in futures]
            finally:
                pool.shutdown(cancel_futures=True)

    table = ResultTable(dataset_name=plan.dataset_name, pairs=plan.pairs)
    failures = []
    for (pair, seed), outcome in zip(cells, outcomes):
        if isinstance(outcome, str):
            failures.append((pair[0], pair[1], seed, outcome))
        else:
            table.rows.append(outcome)
    if failures:
        raise PlanExecutionError(failures, table)
    return table


def emit_report(table: ResultTable, out_dir) -> tuple[Path, Path]:
    """Write results.csv (per run) and summary.csv (per pair plus Avg.).

    Percentages are rendered with one decimal; summary.csv also carries
    the full-precision mean so the average is recomputable exactly.
    """
    if not table.rows:
        raise ConfigurationError("cannot emit a report for an empty result table")
    out = output_dir(out_dir)
    results_path = out / "results.csv"
    summary_path = out / "summary.csv"

    with atomic_write(results_path) as fh:
        fh.write("source,target,seed,accuracy\n")
        for r in table.rows:
            fh.write(f"{table.group_name(r.source_group)},{table.group_name(r.target_group)},"
                     f"{r.seed},{r.accuracy!r}\n")

    with atomic_write(summary_path) as fh:
        fh.write("source,target,mean_pct,std_pct,mean_accuracy\n")
        for pair in table.pairs:
            mean = table.pair_mean(pair)
            std = table.pair_std(pair)
            fh.write(f"{table.group_name(pair[0])},{table.group_name(pair[1])},"
                     f"{100 * mean:.1f},{100 * std:.1f},{mean!r}\n")
        avg = table.overall_average()
        fh.write(f"Avg.,,{100 * avg:.1f},,{avg!r}\n")
    return results_path, summary_path
