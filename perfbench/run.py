"""dagrl benchmark: one workload, one seed, end-to-end or traced.

Run from the root of a dagrl checkout:

    python3 perfbench/run.py --workload shift-fullbatch --seed 1 --seconds 40 --trace 0

``--trace 0`` runs units of work, each after ``SETUPS_PER_UNIT`` timed
set-ups, until ``--seconds`` is spent and reports every end-to-end metric.
``--trace 1`` alternates two untraced and two traced units and reports
every per-layer metric of the first traced unit, the tracing overhead,
and fails if the exact counters did not repeat. Both print a record line
(loss-history digests, machine, sample summaries) and then, as the last
line, the result object
``{"correct", "attempted", "failed", "metrics"}``. Any failed output
check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
# numpy's OpenBLAS otherwise starts one spinning thread per core for the
# small matmuls here; on two cores that costs CPU and adds run-to-run
# noise without making training faster (see NOTES.md). Set before any
# import of numpy.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS_PER_UNIT = 6
TRACED_UNITS = 2


def _machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value itself if alone."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(values: list[float]) -> dict:
    """Count, p10, p50 and p90 of one kind of sample, for the record line."""
    if not values:
        return {"n": 0}
    return {"n": len(values), **{f"p{q}": quantile(values, q) for q in (10, 50, 90)}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float):
    """End-to-end metrics over as many whole units as fit in ``seconds``.

    Set-up runs ``SETUPS_PER_UNIT`` times before every unit rather than
    all at once, so its samples meet the same machine conditions as the
    units they sit between.
    """
    from time import perf_counter

    setup_times, units = [], []
    window = perf_counter()
    while True:
        setup_times += [workload.setup() for _ in range(SETUPS_PER_UNIT)]
        units.append(workload.run_unit())
        elapsed = perf_counter() - window
        next_round = (statistics.median(u.unit_s for u in units)
                      + sum(setup_times[-SETUPS_PER_UNIT:]))
        if elapsed + next_round > seconds:
            break

    samples = {
        "setup_s": setup_times,
        "epoch_s": [e for u in units for e in u.epoch_s],
        "plan_s": [u.unit_s for u in units],
        "cell_s": [c for u in units for c in u.cell_s],
    }
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_graphs_per_s": (sum(u.trained_graphs for u in units) / sum(u.train_s for u in units),
                               "graphs/s"),
        "plan_s": (statistics.mean(samples["plan_s"]), "s"),
        "target_accuracy": (units[0].accuracy, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return units, metrics, samples


def traced(workload, name: str, seed: int, out_dir: Path):
    """Per-layer metrics of one traced unit, plus overhead and count checks.

    Untraced and traced units alternate, ``TRACED_UNITS`` of each, so
    that the overhead ratio compares units run under similar conditions.
    """
    from spans import (EXACT_COUNTS, UNIT_SPAN, Tracer, install_layers, layer_metrics,
                       layer_unit, top_self_span)

    untraced, traced_units, layers, tracers = [], [], [], []
    for k in range(TRACED_UNITS):
        untraced.append(workload.run_unit())
        tracer = Tracer(f"{name}/seed{seed}/unit{k}")
        install_layers(tracer)
        try:
            unit = tracer.call(UNIT_SPAN, workload.run_unit)
        finally:
            tracer.uninstall()
        traced_units.append(unit)
        tracers.append(tracer)
        metrics = layer_metrics(tracer, unit.unit_s)
        metrics["experiments.output_mb"] = unit.output_bytes / 1e6
        metrics["experiments.cells_failed"] = unit.failed
        layers.append(metrics)

    problems = [f"counter {key} differs between traced units: "
                f"{layers[0][key]!r} vs {layers[1][key]!r}"
                for key in EXACT_COUNTS if layers[0][key] != layers[1][key]]
    untraced_s = statistics.median(u.unit_s for u in untraced)
    traced_s = statistics.median(u.unit_s for u in traced_units)
    metrics = dict(layers[0])
    metrics["trace.overhead"] = traced_s / untraced_s
    top_name, top_s = top_self_span(tracers[0])
    tracers[0].write(out_dir / f"{name}-seed{seed}-spans.jsonl")
    samples = {"untraced_units": len(untraced), "traced_units": len(traced_units),
               "untraced_unit_s": untraced_s, "traced_unit_s": traced_s,
               "top_self_span": top_name, "top_self_s": top_s,
               "spans": len(tracers[0].spans)}
    return (untraced + traced_units, {k: (v, layer_unit(k)) for k, v in metrics.items()},
            samples, problems)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dagrl" / "__init__.py").is_file():
        print(f"error: no dagrl sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    problems: list[str] = []
    raw: dict[str, list[float]] = {}
    try:
        workload.prepare(args.seed, workdir)
        if args.trace:
            units, metrics, samples, problems = traced(workload, args.workload, args.seed,
                                                       out_dir)
        else:
            units, metrics, raw = measure(workload, args.seconds)
            samples = {name: summary(values) for name, values in raw.items()}
    except Exception:  # noqa: BLE001 - report the failure as a failed run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = units[0].digests
    failed = 0
    for k, unit in enumerate(units):
        problems += unit.failures
        if unit.digests != reference or unit.accuracy != units[0].accuracy:
            problems.append(f"unit {k}: loss-history digests or accuracy differ from unit 0")
            failed += unit.attempted
        else:
            failed += unit.failed
    if problems and not failed:
        failed = 1
    attempted = sum(u.attempted for u in units)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {k: u for k, (_, u) in metrics.items()}
    if reported != declared:
        problems.append(f"reported metrics {reported} differ from BENCHMARK.json {declared}")
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": _machine(), "loss_history_sha256": reference, "samples": samples,
              "failed_frac": failed / attempted, "problems": problems}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "raw_samples": raw}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    for _name, _value in BLAS_THREADS.items():
        os.environ.setdefault(_name, _value)
    sys.path.insert(0, str(HERE))
    sys.exit(main())
