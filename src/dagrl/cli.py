"""Command-line harness for transfer-task experiments."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import DagrlError, IngestionError
from .experiments import ALL_PAIRS, ExperimentPlan, PlanExecutionError, emit_report, run_plan
from .fileio import atomic_write, output_dir, plain_number
from .graphs import write_tudataset
from .synthetic import make_benchmark
from .trainer import VARIANTS, TrainConfig

# Config-file keys that a flag owns, and the flag that sets each.
FLAG_KEYS = {"seed": "--seeds", "variant": "--variant"}


def parse_config_file(path) -> dict:
    """Flat key=value config; keys mirror the int and float TrainConfig fields."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    casts = {"int": int, "float": float}
    try:
        content = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read config file {path}: {exc}") from None
    values, seen = {}, {}
    for lineno, line in enumerate(content.splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise DagrlError(f"{path}: line {lineno} is not key=value: {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key in FLAG_KEYS:
            raise DagrlError(f"{path}: line {lineno}: {key} is set by {FLAG_KEYS[key]}")
        if key not in types:
            raise DagrlError(f"{path}: line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise DagrlError(f"{path}: line {lineno}: {key} repeats line {seen[key]}")
        seen[key] = lineno
        kind = str(types[key])
        try:
            values[key] = plain_number(raw, casts[kind])
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
            s, t = (plain_number(part) for part in chunk.split(","))
        except ValueError:
            raise DagrlError(f"bad pair {chunk!r}; expected 's,t' group indices") from None
        pairs.append((s, t))
    return tuple(pairs)


def parse_seeds(raw: str):
    try:
        return tuple(plain_number(s) for s in raw.split(","))
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
    run.add_argument("--variant", choices=sorted(VARIANTS), default="full",
                     help="model variant (default: full)")
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
    config = replace(TrainConfig(), **overrides, variant=args.variant)
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
        manifest = output_dir(args.out) / "failures.txt"
        with atomic_write(manifest) as fh:
            fh.writelines(f"{line}\n" for line in exc.lines)
        for line in exc.lines:
            print(f"FAILED {line}", file=sys.stderr)
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
