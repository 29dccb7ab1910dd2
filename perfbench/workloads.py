"""The benchmark's three workloads.

Each workload is a closed loop with one client: it runs one unit of work
(one training run, or one plan) at a time, and the next unit starts when
the previous one has ended. Inputs are generated from the seed before
anything is timed; the program only ever sees the generated inputs.

- ``shift-fullbatch``: the acceptance-criterion-6 config, one batch per
  epoch, so per-graph batch assembly in ``gin`` dominates.
- ``density-gkn-minibatch``: 1000 source graphs in batches of 16 through
  two kernel branches, so ``gin`` does no work and time goes to the
  autodiff tape, Adam, WL feature rows and the adversarial steps.
- ``plan-cli``: ``dagrl run`` over all 12 density pairs with two worker
  threads; the only workload that parses the text format, writes
  outputs and runs cells concurrently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, cell_key, durations, install_plan_probes


@dataclass
class UnitResult:
    """What one unit of work took and produced."""

    unit_s: float                 # wall time of the unit: one train+evaluate, or one plan
    train_s: float                # wall time in which ``trained_graphs`` were trained
    trained_graphs: int           # source graphs x epochs
    epoch_s: list[float]          # one entry per ``train_epoch`` call
    cell_s: list[float]           # one entry per cell (a training run is one cell)
    accuracy: float               # fused target accuracy (the Avg. row for a plan)
    digests: dict[str, str]       # SHA-256 of each loss history, by cell
    attempted: int                # runs or cells
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _history_problems(rows) -> list[str]:
    """Finite losses and an accuracy in [0, 1] for every epoch."""
    problems = []
    for epoch, losses, accuracy in rows:
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"epoch {epoch}: non-finite loss {losses}")
        if accuracy is None or not 0.0 <= accuracy <= 1.0:
            problems.append(f"epoch {epoch}: target accuracy {accuracy} outside [0, 1]")
    return problems


def _array_problems(arrays: dict, epsilon: float) -> list[str]:
    """Finite arrays, and every perturbation inside the epsilon ball."""
    problems = []
    limit = epsilon * (1.0 + 1e-9)
    for key, value in arrays.items():
        if not np.all(np.isfinite(value)):
            problems.append(f"{key}: non-finite values")
        elif key.startswith(("delta/", "zeta/")):
            norm = float(np.linalg.norm(value))
            if norm > limit:
                problems.append(f"{key}: Frobenius norm {norm!r} > epsilon {epsilon!r}")
    return problems


class TrainingWorkload:
    """One ``build_state`` plus ``epochs`` x ``train_epoch``, then ``evaluate``."""

    name = ""
    config_kwargs: dict = {}

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path) -> None:
        from dagrl.trainer import TrainConfig

        self.workdir = workdir
        self.source, self.target = self.make_inputs(seed)
        self.config = TrainConfig(seed=seed, **self.config_kwargs)

    def setup(self) -> float:
        """One timed ``build_state``: WL fit and parameter initialisation."""
        from dagrl import trainer

        start = perf_counter()
        trainer.build_state(self.config, self.source, self.target)
        return perf_counter() - start

    def run_unit(self) -> UnitResult:
        from dagrl import trainer

        cfg, source, target = self.config, self.source, self.target
        start = perf_counter()
        state = trainer.build_state(cfg, source, target)
        epoch_s = []
        for _ in range(cfg.epochs):
            epoch_start = perf_counter()
            trainer.train_epoch(state, source, target)
            epoch_s.append(perf_counter() - epoch_start)
        train_s = perf_counter() - start
        accuracy = trainer.evaluate(state, target)
        end = perf_counter()

        history_path = self.workdir / "loss_history.csv"
        trainer.export_loss_history(history_path, state.history)
        problems = _history_problems(
            (e.epoch, (e.source_loss, e.domain_loss_first, e.domain_loss_second, e.total_loss),
             e.target_accuracy)
            for e in state.history)
        if not 0.0 <= accuracy <= 1.0:
            problems.append(f"final target accuracy {accuracy} outside [0, 1]")
        problems += _array_problems(state.named_arrays(), cfg.epsilon)
        return UnitResult(
            unit_s=end - start,
            train_s=train_s,
            trained_graphs=len(source.graphs) * cfg.epochs,
            epoch_s=epoch_s,
            cell_s=[end - start],
            accuracy=accuracy,
            digests={"train": sha256_file(history_path)},
            attempted=1,
            failed=1 if problems else 0,
            failures=problems,
        )


class ShiftFullbatch(TrainingWorkload):
    name = "shift-fullbatch"
    config_kwargs = dict(epochs=25, lr=1e-2, hidden_dim=32, batch_size=256, lambda1=0.01,
                         lambda2=0.01, epsilon=4.0, wl_depth=2, variant="full")

    def make_inputs(self, seed: int):
        from dagrl.synthetic import make_shifted_pair

        return make_shifted_pair(seed, graphs_per_class=100)


class DensityGknMinibatch(TrainingWorkload):
    name = "density-gkn-minibatch"
    config_kwargs = dict(epochs=3, batch_size=16, variant="gkn_only_dual")

    def make_inputs(self, seed: int):
        from dagrl.graphs import split_by_density, subset_as_source, subset_as_target
        from dagrl.synthetic import make_benchmark

        dataset = make_benchmark(seed, graphs_per_block=1000)
        groups = split_by_density(dataset).groups
        return subset_as_source(dataset, groups[0]), subset_as_target(dataset, groups[1])


class PlanCli:
    """``dagrl run --pairs all --seeds 0 --variant full`` on a synthesized dataset."""

    name = "plan-cli"
    DATASET = "SynthBench"
    GRAPHS_PER_BLOCK = 50
    EPOCHS = 1
    THREADS = 2

    def __init__(self):
        self.units = 0
        self.reference: dict[str, str] | None = None

    def prepare(self, seed: int, workdir: Path) -> None:
        from dagrl import cli
        from dagrl.experiments import ALL_PAIRS
        from dagrl.graphs import parse_tudataset, split_by_density

        self.workdir = workdir
        self.data_root = workdir / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["synth", "--out", str(self.data_root), "--name", self.DATASET,
                             "--seed", str(seed),
                             "--graphs-per-block", str(self.GRAPHS_PER_BLOCK)])
        if code != 0:
            raise RuntimeError(f"dagrl synth exited with {code}")
        self.config_path = workdir / "plan.cfg"
        self.config_path.write_text(f"epochs={self.EPOCHS}\n")
        groups = split_by_density(parse_tudataset(self.data_root, self.DATASET)).groups
        self.pairs = ALL_PAIRS
        self.cells = [cell_key(s, t, 0) for s, t in ALL_PAIRS]
        self.source_sizes = [len(groups[s]) for s, _ in ALL_PAIRS]
        self.epsilon = 1.0  # TrainConfig default; the config file sets only epochs
        os.environ["DAGRL_THREADS"] = str(self.THREADS)

    def setup(self) -> float:
        """One timed ``parse_tudataset`` plus ``split_by_density``."""
        from dagrl.graphs import parse_tudataset, split_by_density

        start = perf_counter()
        split_by_density(parse_tudataset(self.data_root, self.DATASET))
        return perf_counter() - start

    def run_unit(self) -> UnitResult:
        from dagrl import cli

        out = self.workdir / f"plan-{self.units}"
        self.units += 1
        argv = ["run", "--data-root", str(self.data_root), "--dataset", self.DATASET,
                "--pairs", "all", "--seeds", "0", "--variant", "full",
                "--config", str(self.config_path), "--out", str(out)]
        probes = Tracer("plan")
        install_plan_probes(probes)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = cli.main(argv)
                plan_s = perf_counter() - start
        finally:
            probes.uninstall()

        try:
            result = self._check(out, code, plan_s, probes)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, out: Path, code: int, plan_s: float, probes: Tracer) -> UnitResult:
        from dagrl.autodiff import load_checkpoint
        from dagrl.errors import DagrlError

        cells = self.cells
        problems: list[str] = []
        failed_cells: set[str] = set()

        def fail(cell, message):
            problems.append(f"{cell or 'plan'}: {message}")
            failed_cells.update([cell] if cell else cells)

        if code != 0:
            fail(None, f"dagrl run exited with {code}")
        failures = out / "failures.txt"
        if failures.exists():
            fail(None, failures.read_text().strip())
        results = out / "results.csv"
        rows = results.read_text().splitlines()[1:] if results.exists() else []
        if len(rows) != len(cells):
            fail(None, f"results.csv has {len(rows)} rows, expected {len(cells)}")
        summary = out / "summary.csv"
        last = summary.read_text().splitlines()[-1] if summary.exists() else ""
        accuracy = float("nan")
        if not last.startswith("Avg."):
            fail(None, f"summary.csv does not end with the Avg. row: {last!r}")
        else:
            accuracy = float(last.rsplit(",", 1)[1])
            if not 0.0 <= accuracy <= 1.0:
                fail(None, f"Avg. accuracy {accuracy} outside [0, 1]")

        digests = {}
        checkpoints = {}
        for (s, t), cell in zip(self.pairs, cells):
            history = out / f"loss_history_{s}_{t}_0.csv"
            checkpoint = out / f"checkpoint_{s}_{t}_0.txt"
            if not history.exists() or not checkpoint.exists():
                fail(cell, "missing loss history or checkpoint")
                continue
            digests[cell] = sha256_file(history)
            checkpoints[cell] = sha256_file(checkpoint)
            rows = []
            for line in history.read_text().splitlines()[1:]:
                parts = line.split(",")
                rows.append((int(parts[0]), tuple(float(v) for v in parts[1:5]),
                             float(parts[5]) if parts[5] else None))
            for message in _history_problems(rows):
                fail(cell, message)
            if self.reference is None:
                # Every checkpoint of the first plan is loaded and checked;
                # later plans must write byte-identical checkpoints.
                try:
                    arrays = load_checkpoint(checkpoint)
                except (DagrlError, ValueError) as exc:
                    fail(cell, f"load_checkpoint: {type(exc).__name__}: {exc}")
                    continue
                for message in _array_problems(arrays, self.epsilon):
                    fail(cell, message)
            elif checkpoints[cell] != self.reference.get(cell):
                fail(cell, "checkpoint differs from the first plan of this run")
        if self.reference is None:
            self.reference = checkpoints

        output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return UnitResult(
            unit_s=plan_s,
            train_s=plan_s,
            trained_graphs=sum(self.source_sizes) * self.EPOCHS,
            epoch_s=durations(probes, "trainer.train_epoch"),
            cell_s=durations(probes, "experiments.cell"),
            accuracy=accuracy,
            digests=digests,
            attempted=len(cells),
            failed=len(failed_cells),
            failures=problems,
            output_bytes=output_bytes,
        )


WORKLOADS = {w.name: w for w in (ShiftFullbatch, DensityGknMinibatch, PlanCli)}
