"""Command-line harness for transfer-task experiments."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import DagrlError
from .experiments import ALL_PAIRS, ExperimentPlan, PlanExecutionError, emit_report, run_plan
from .fileio import atomic_write
from .graphs import write_tudataset
from .synthetic import make_benchmark
from .trainer import TrainConfig

# --variant spellings and the TrainConfig fields each sets; p1 and p2 are
# the full model with the delta or the zeta perturbation switched off.
VARIANT_FLAGS = {
    "full": {"variant": "full"},
    "p1": {"variant": "full", "delta_enabled": False},
    "p2": {"variant": "full", "zeta_enabled": False},
    "gin-only": {"variant": "gin_only_dual"},
    "gkn-only": {"variant": "gkn_only_dual"},
    "source-only": {"variant": "source_only"},
}

BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}


def _parse_bool(raw: str) -> bool:
    try:
        return BOOLEANS[raw.lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(BOOLEANS)}") from None


def parse_config_file(path) -> dict:
    """Flat key=value config; keys mirror TrainConfig fields."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    casts = {"int": int, "float": float, "str": str, "bool": _parse_bool}
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise DagrlError(f"{path}: line {lineno} is not key=value: {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key == "seed":
            raise DagrlError(f"{path}: set seeds via --seeds, not the config file")
        if key not in types:
            raise DagrlError(f"{path}: unknown config key {key!r}")
        kind = str(types[key])
        try:
            values[key] = casts[kind](raw)
        except ValueError as exc:
            raise DagrlError(f"{path}: line {lineno}: {key} needs a {kind} value, "
                             f"got {raw!r} ({exc})") from None
    return values


def parse_pairs(raw: str):
    if raw == "all":
        return ALL_PAIRS
    pairs = []
    for chunk in raw.split(";"):
        try:
            s, t = (int(part) for part in chunk.split(","))
        except ValueError:
            raise DagrlError(f"bad pair {chunk!r}; expected 's,t' group indices") from None
        pairs.append((s, t))
    return tuple(pairs)


def parse_seeds(raw: str):
    try:
        return tuple(int(s) for s in raw.split(","))
    except ValueError:
        raise DagrlError(f"bad seed list {raw!r}; expected comma-separated integers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dagrl",
                                     description="Domain-adaptive graph classification runs")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a transfer-task plan")
    run.add_argument("--data-root", required=True, help="directory containing <dataset>/ files")
    run.add_argument("--dataset", required=True, help="dataset name, e.g. Mutagenicity")
    run.add_argument("--pairs", default="all", help="'all' or 's,t[;s,t...]' group pairs")
    run.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default=None,
                     help="model variant (default: full, or the config file's value)")
    run.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    run.add_argument("--config", default=None, help="key=value training config file")
    run.add_argument("--out", required=True, help="output directory")

    synth = sub.add_parser("synth", help="write a synthetic benchmark in the standard layout")
    synth.add_argument("--out", required=True, help="directory to write the dataset under")
    synth.add_argument("--name", default="SynthBench")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--graphs-per-block", type=int, default=40)
    return parser


def command_run(args) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    if args.variant is not None:
        overrides.update(VARIANT_FLAGS[args.variant])
    config = replace(TrainConfig(), **overrides)
    plan = ExperimentPlan(
        data_root=args.data_root,
        dataset_name=args.dataset,
        pairs=parse_pairs(args.pairs),
        config=config,
        seeds=parse_seeds(args.seeds),
        out_dir=args.out,
    )
    try:
        table = run_plan(plan)
    except PlanExecutionError as exc:
        manifest = Path(args.out) / "failures.txt"
        manifest.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(manifest) as fh:
            fh.writelines(f"{s}->{t} seed={seed}: {message}\n"
                          for s, t, seed, message in exc.failures)
        for s, t, seed, message in exc.failures:
            print(f"FAILED {s}->{t} seed={seed}: {message}", file=sys.stderr)
        print(f"failure manifest written to {manifest}", file=sys.stderr)
        return 1
    results_path, summary_path = emit_report(table, args.out)
    for pair in table.pairs:
        name = f"{table.group_name(pair[0])}->{table.group_name(pair[1])}"
        print(f"{name}: {100 * table.pair_mean(pair):.1f}% "
              f"(std {100 * table.pair_std(pair):.1f}, {len(table.pair_accuracies(pair))} seeds)")
    print(f"Avg.: {100 * table.overall_average():.1f}%")
    print(f"wrote {results_path} and {summary_path}")
    return 0


def command_synth(args) -> int:
    dataset = make_benchmark(seed=args.seed, graphs_per_block=args.graphs_per_block)
    base = write_tudataset(dataset, args.out, args.name)
    print(f"wrote {len(dataset.graphs)} graphs to {base}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return command_run(args)
        if args.command == "synth":
            return command_synth(args)
    except DagrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
