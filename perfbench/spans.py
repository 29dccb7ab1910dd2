"""Spans and counters recorded around dagrl's public entry points.

The benchmark patches module attributes and class methods in its own
process only; nothing in ``src/`` changes. Names imported with
``from ... import`` are patched where they are looked up (for example
``trainer.GraphBatch`` and ``experiments.save_checkpoint``), because
patching the defining module would not reach those call sites.

A span is ``(id, name, start, end, parent_id, cell)``. Spans stay in
memory and are written once, after the traced unit ends. A span's self
time is its duration minus the durations of its direct children, which
run on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter


# The root span of one unit of work; its self time is the time that no
# layer span covers (forward autodiff ops, the trainer's phase glue).
UNIT_SPAN = "unit"


class Tracer:
    """Records spans and counters for the wrappers it installs."""

    def __init__(self, unit_id: str):
        self.unit_id = unit_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # id -> object; holding the object keeps its id from being reused.
        self.distinct: dict[str, dict] = defaultdict(dict)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_cell(self) -> str:
        """The plan cell the calling thread is in, or the unit id."""
        return getattr(self._local, "cell", self.unit_id)

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def see(self, key: str, item) -> None:
        with self._lock:
            self.distinct[key][id(item)] = item

    def call(self, name: str, fn, args=(), kwargs=None, after=None, cell=None):
        """Run ``fn`` inside a span; ``after(result, args)`` records counts.

        ``cell`` names the plan cell that this span and its children
        belong to; spans outside any cell carry the unit id.
        """
        local = self._local
        stack = self._stack()
        outer_cell = self.current_cell()
        if cell is not None:
            local.cell = cell
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.current_cell()))
            local.cell = outer_cell
        if after is not None:
            after(result, args)
        return result

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None, cell_of=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cell = cell_of(args) if cell_of is not None else None
            return tracer.call(name, original, args, kwargs, after, cell)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------
    def totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive seconds, self seconds and call counts per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span_id, name, start, end, _, _ in self.spans:
            inclusive[name] += end - start
            self_time[name] += end - start - child_time.get(span_id, 0.0)
            calls[name] += 1
        return inclusive, self_time, calls

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, cell in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "cell": cell}) + "\n")


def cell_key(source_group: int, target_group: int, seed: int) -> str:
    return f"{source_group}->{target_group}/seed{seed}"


def _cell_of(args) -> str:
    # experiments._run_cell(plan, dataset, groups, pair, seed)
    (s, t), seed = args[3], args[4]
    return cell_key(s, t, seed)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from dagrl import autodiff, cli, experiments, gin, trainer, wl

    def after_batch(batch, _):
        tracer.count("gin.batch_graphs", len(batch.graphs))
        for g in batch.graphs:
            tracer.see("gin.batch_graphs", g)

    # Argument positions: feature_row(self, g), backward(tape, loss),
    # perturbation_step(store, slot, gradients), save_checkpoint(path, arrays).
    tracer.wrap(trainer, "GraphBatch", "gin.batch_build", after_batch)
    tracer.wrap(gin.GinEncoder, "encode_batch", "gin.encode")
    tracer.wrap(wl.WlRefinement, "fit", "wl.fit")
    tracer.wrap(wl.WlRefinement, "feature_row", "wl.feature_row",
                lambda _, args: tracer.see("wl.feature_rows", args[1]))
    tracer.wrap(wl.GknHead, "forward", "wl.head_forward")
    tracer.wrap(autodiff.Tape, "backward", "autodiff.backward",
                lambda _, args: tracer.count("autodiff.tape_ops", len(args[0])))
    tracer.wrap(autodiff.Adam, "step", "autodiff.adam")
    tracer.wrap(experiments, "save_checkpoint", "autodiff.checkpoint_write",
                lambda _, args: tracer.count("autodiff.checkpoint_bytes",
                                             os.path.getsize(args[0])))
    tracer.wrap(trainer, "discriminator_update", "adversarial.disc_update")
    tracer.wrap(trainer, "domain_loss", "adversarial.domain_loss")
    tracer.wrap(trainer, "perturbation_step", "adversarial.perturbation_step",
                lambda _, args: tracer.count("adversarial.perturbation_updates",
                                             len(args[2])))
    tracer.wrap(trainer.GinBranch, "forward", "trainer.gin_forward")
    tracer.wrap(trainer.GknBranch, "forward", "trainer.gkn_forward")
    tracer.wrap(trainer, "evaluate", "trainer.evaluate")
    tracer.wrap(experiments, "evaluate", "trainer.evaluate")
    tracer.wrap(trainer, "build_state", "trainer.build_state")
    tracer.wrap(experiments, "export_loss_history", "trainer.history_write")
    tracer.wrap(experiments, "parse_tudataset", "graphs.parse")
    tracer.wrap(experiments, "_run_cell", "experiments.cell", cell_of=_cell_of)
    tracer.wrap(cli, "emit_report", "experiments.report")


def install_plan_probes(tracer: Tracer) -> None:
    """The few wrappers an untraced plan needs for per-cell and per-epoch times.

    A plan runs its cells inside dagrl's own thread pool, so epoch and
    cell times can only be read at these boundaries. Each costs two clock
    reads per call: 12 cells and 12 x epochs epochs.
    """
    from dagrl import experiments, trainer

    tracer.wrap(experiments, "_run_cell", "experiments.cell", cell_of=_cell_of)
    tracer.wrap(trainer, "train_epoch", "trainer.train_epoch")


def durations(tracer: Tracer, name: str) -> list[float]:
    return [end - start for _, n, start, end, _, _ in tracer.spans if n == name]


def layer_metrics(tracer: Tracer, unit_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit.

    ``_s`` metrics are self time, except the trainer branch forwards,
    ``trainer.evaluate_s``, ``trainer.build_state_s`` and
    ``experiments.cell_busy_s``, which include their children.
    """
    inclusive, self_time, calls = tracer.totals()
    counts = tracer.counts

    def ratio(distinct_key: str, total: int) -> float:
        return len(tracer.distinct[distinct_key]) / total if total else 0.0

    return {
        "gin.batch_build_s": self_time["gin.batch_build"],
        "gin.batch_builds": calls["gin.batch_build"],
        "gin.batch_graphs": counts["gin.batch_graphs"],
        "gin.assembly_reuse": ratio("gin.batch_graphs", counts["gin.batch_graphs"]),
        "gin.encode_s": self_time["gin.encode"],
        "wl.fit_s": self_time["wl.fit"],
        "wl.feature_row_s": self_time["wl.feature_row"],
        "wl.feature_rows": calls["wl.feature_row"],
        "wl.feature_row_reuse": ratio("wl.feature_rows", calls["wl.feature_row"]),
        "wl.head_forward_s": self_time["wl.head_forward"],
        "wl.head_forward_calls": calls["wl.head_forward"],
        "autodiff.backward_s": self_time["autodiff.backward"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "autodiff.tape_ops": counts["autodiff.tape_ops"],
        "autodiff.adam_s": self_time["autodiff.adam"],
        "autodiff.adam_steps": calls["autodiff.adam"],
        "autodiff.checkpoint_write_s": self_time["autodiff.checkpoint_write"],
        "autodiff.checkpoint_bytes": counts["autodiff.checkpoint_bytes"],
        "adversarial.disc_update_s": self_time["adversarial.disc_update"],
        "adversarial.domain_loss_s": self_time["adversarial.domain_loss"],
        "adversarial.perturbation_step_s": self_time["adversarial.perturbation_step"],
        "adversarial.perturbation_updates": counts["adversarial.perturbation_updates"],
        "trainer.gin_forward_s": inclusive["trainer.gin_forward"],
        "trainer.gkn_forward_s": inclusive["trainer.gkn_forward"],
        "trainer.evaluate_s": inclusive["trainer.evaluate"],
        "trainer.evaluate_calls": calls["trainer.evaluate"],
        "trainer.build_state_s": inclusive["trainer.build_state"],
        "trainer.history_write_s": self_time["trainer.history_write"],
        "graphs.parse_s": self_time["graphs.parse"],
        "experiments.cell_busy_s": inclusive["experiments.cell"],
        "experiments.overlap": inclusive["experiments.cell"] / unit_s,
        "experiments.report_s": self_time["experiments.report"],
        "trace.unattributed_s": self_time[UNIT_SPAN],
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"), ("_reuse", "ratio"),
                         (".overlap", "ratio"), (".overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# Counters that must repeat exactly between two traced units of one seed.
EXACT_COUNTS = ("gin.batch_graphs", "gin.assembly_reuse", "wl.feature_rows",
                "wl.feature_row_reuse", "autodiff.tape_ops",
                "adversarial.perturbation_updates", "gin.batch_builds",
                "wl.head_forward_calls", "autodiff.backward_calls", "autodiff.adam_steps",
                "trainer.evaluate_calls", "autodiff.checkpoint_bytes")


def top_self_span(tracer: Tracer) -> tuple[str, float]:
    """The layer span with the largest self time, the unit's own glue excluded."""
    _, self_time, _ = tracer.totals()
    name = max((n for n in self_time if n != UNIT_SPAN), key=self_time.get)
    return name, self_time[name]
