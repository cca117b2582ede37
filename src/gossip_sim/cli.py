"""Command-line interface.

Subcommands: ``gen`` writes a graph file, ``run`` executes one seeded
process run, ``sweep`` runs a seeded trial grid into CSV, and ``analyze``
post-processes sweep CSVs or checks the span-probability bound.

Exit codes: 0 success, 1 failed analysis check, 2 bad arguments,
constraint violations or file errors, 3 sweep finished but some trial hit
the round cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analysis, harness
from .generators import FAMILIES, generate
from .graph import read_edge_list, write_edge_list
from .process import (
    DEFAULT_MAX_ROUNDS,
    ProcessConfig,
    ProcessKind,
    run_to_convergence,
)

__all__ = ["main"]

_PROCESS_CHOICES = tuple(k.value for k in ProcessKind)


def _default_jobs() -> int:
    env = os.environ.get("GOSSIP_SIM_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossip-sim",
        description="Gossip-based discovery process simulator and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph and write an edge-list file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--p", type=float, default=None, help="extra-edge probability (random family)")
    gen.add_argument("--clique-frac", type=float, default=None, help="clique fraction (lollipop family)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run one process to convergence on a graph file")
    run.add_argument("--graph", required=True)
    run.add_argument("--process", required=True, choices=_PROCESS_CHOICES)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-rounds", type=int, default=DEFAULT_MAX_ROUNDS)
    run.add_argument("--trace", default=None, help="write per-round trace CSV here")

    sweep = sub.add_parser("sweep", help="run a seeded trial grid into a CSV file")
    sweep.add_argument("--family", required=True, choices=FAMILIES)
    sweep.add_argument("--process", required=True, choices=_PROCESS_CHOICES)
    sweep.add_argument("--sizes", required=True, help="comma-separated node counts")
    sweep.add_argument("--trials", required=True, type=int)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--max-rounds", type=int, default=DEFAULT_MAX_ROUNDS)
    sweep.add_argument("--p", type=float, default=None)
    sweep.add_argument("--clique-frac", type=float, default=None)
    sweep.add_argument("--jobs", type=int, default=_default_jobs())
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--aggregate-out", default=None, help="also write per-size aggregates CSV")
    sweep.add_argument(
        "--self-check",
        action="store_true",
        help="recompute aggregates from the written CSV and compare",
    )

    analyze = sub.add_parser("analyze", help="post-process results")
    asub = analyze.add_subparsers(dest="analyze_command", required=True)

    scaling = asub.add_parser("scaling", help="normalized medians per size")
    scaling.add_argument("--in", dest="input", required=True)

    ph = asub.add_parser("ph-bound", help="check the span-probability recurrence bound")
    ph.add_argument("--n", required=True, type=int)
    ph.add_argument("--alpha", type=float, default=9.0)
    ph.add_argument("--eps", type=float, default=0.01)
    ph.add_argument("--hmax", type=int, default=8)

    return parser


def _cmd_gen(args) -> int:
    g = generate(args.family, args.n, args.seed, p=args.p, clique_frac=args.clique_frac)
    write_edge_list(g, args.out)
    return 0


def _cmd_run(args) -> int:
    g = read_edge_list(args.graph)
    collector = analysis.TraceCollector() if args.trace else None
    config = ProcessConfig(
        kind=ProcessKind(args.process), seed=args.seed, max_rounds=args.max_rounds
    )
    rounds, capped = run_to_convergence(g, config, trace_sink=collector)
    if collector is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(analysis.traces_to_csv(collector.traces))
    report = {"rounds": rounds, "capped": capped, "final_edges": g.edge_count}
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    spec = harness.ExperimentSpec(
        family=args.family,
        kind=ProcessKind(args.process),
        sizes=sizes,
        trials=args.trials,
        master_seed=args.seed,
        max_rounds=args.max_rounds,
        p=args.p,
        clique_frac=args.clique_frac,
        jobs=args.jobs,
    )
    rows = harness.run_sweep(spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(harness.rows_to_csv(rows))
    aggregates = harness.aggregate_rows(rows)
    if args.aggregate_out:
        with open(args.aggregate_out, "w", encoding="utf-8") as fh:
            fh.write(harness.aggregates_to_csv(aggregates))
    if args.self_check:
        with open(args.out, "r", encoding="utf-8") as fh:
            reread = harness.rows_from_csv(fh.read())
        if harness.aggregate_rows(reread) != aggregates:
            raise ValueError("aggregate self-check failed")
    if any(row.capped for row in rows):
        print("warning: some trials hit the round cap", file=sys.stderr)
        return 3
    return 0


def _cmd_analyze_scaling(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        rows = harness.rows_from_csv(fh.read())
    print(json.dumps(harness.scaling_report(rows), sort_keys=True))
    return 0


def _cmd_analyze_ph_bound(args) -> int:
    t_max = math.floor(args.eps * args.n * args.n)
    table = analysis.ph_recurrence(args.n, t_max, args.hmax)
    ok = analysis.ph_bound_check(table, args.alpha, args.eps)
    print("pass" if ok else "fail")
    return 0 if ok else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "scaling": _cmd_analyze_scaling,
    "ph-bound": _cmd_analyze_ph_bound,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # GraphError is a ValueError; bad input and unwritable paths all exit 2
    try:
        return _COMMANDS[getattr(args, "analyze_command", args.command)](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
