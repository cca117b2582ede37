"""Experiment sweeps: seeded trial grids over graph families, CSV
serialization, aggregation, and scaling analysis of the results.

A sweep is fully determined by its spec: per-trial seeds come from the
SplitMix64 derivation in the process module, trials may run in parallel,
and rows are always assembled in (n, trial) order so serial and parallel
runs produce identical files.  A CSV file's columns are its record
dataclass's fields in declaration order, written by one writer.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .generators import generate
from .process import DEFAULT_MAX_ROUNDS, ProcessConfig, ProcessKind, trial_seed
from .process import run_to_convergence

__all__ = [
    "ExperimentSpec",
    "TrialRow",
    "AggregateRow",
    "ROWS_CSV_HEADER",
    "AGGREGATES_CSV_HEADER",
    "run_sweep",
    "aggregate_rows",
    "rows_to_csv",
    "rows_from_csv",
    "aggregates_to_csv",
    "scaling_report",
]

@dataclass
class ExperimentSpec:
    """One sweep: a family, a process, a size list, and seeded trials."""

    family: str
    kind: ProcessKind
    sizes: list[int]
    trials: int
    master_seed: int
    max_rounds: int = DEFAULT_MAX_ROUNDS
    p: float | None = None
    clique_frac: float | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # rows are keyed by (n, trial): a repeated size would pool two cells
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"sizes must be distinct, got {self.sizes}")


@dataclass(frozen=True)
class TrialRow:
    family: str
    n: int
    process: str
    trial: int
    seed: int
    rounds: int
    capped: bool


@dataclass(frozen=True)
class AggregateRow:
    family: str
    n: int
    process: str
    trials: int
    mean: float
    median: float
    p05: float
    p95: float
    per_n_log_n: float
    per_n_log2_n: float
    per_n_sq: float
    capped_trials: int


def _csv_header(record_type) -> str:
    return ",".join(f.name for f in fields(record_type))


def _cell(x) -> str:
    if isinstance(x, bool):  # before int, which bool is
        return str(int(x))
    return repr(round(x, 9)) if isinstance(x, float) else str(x)


def _to_csv(record_type, records) -> str:
    """The header, then one line per record, fields in declaration order."""
    names = [f.name for f in fields(record_type)]
    lines = [_csv_header(record_type)]
    lines.extend(",".join(_cell(getattr(r, name)) for name in names) for r in records)
    return "\n".join(lines) + "\n"


ROWS_CSV_HEADER = _csv_header(TrialRow)
AGGREGATES_CSV_HEADER = _csv_header(AggregateRow)


def _run_one(task: tuple[ExperimentSpec, int, int]) -> tuple[int, bool]:
    spec, n, seed = task
    g = generate(spec.family, n, seed, p=spec.p, clique_frac=spec.clique_frac)
    config = ProcessConfig(kind=spec.kind, seed=seed, max_rounds=spec.max_rounds)
    return run_to_convergence(g, config)


def run_sweep(spec: ExperimentSpec) -> list[TrialRow]:
    """Execute every (size, trial) cell; rows come back in (n, trial) order.

    The per-trial seed is ``trial_seed(master_seed, row_index)`` where
    ``row_index`` enumerates (size, trial) cells over ascending sizes.
    The random family builds its graph from a stream split off that seed,
    independent of the process's draws.
    """
    sizes = sorted(spec.sizes)
    tasks = [
        (spec, n, trial_seed(spec.master_seed, index))
        for index, n in enumerate(n for n in sizes for _ in range(spec.trials))
    ]
    if spec.jobs > 1 and len(tasks) > 1:
        # map yields results in task order, whichever worker finishes first
        # the executor starts every worker up front, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(spec.jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_run_one, tasks, chunksize=8))
    else:
        outcomes = [_run_one(t) for t in tasks]
    return [
        TrialRow(spec.family, n, spec.kind.value, index % spec.trials, seed, rounds, capped)
        for index, ((_, n, seed), (rounds, capped)) in enumerate(zip(tasks, outcomes))
    ]


def aggregate_rows(rows: list[TrialRow]) -> list[AggregateRow]:
    """Per-(family, process, n) statistics, recomputable from the rows."""
    groups: dict[tuple[str, str, int], list[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.family, row.process, row.n), []).append(row)
    out = []
    for (family, process, n), members in sorted(groups.items()):
        values = sorted(float(r.rounds) for r in members)
        med = statistics.median(values)
        # linear interpolation between closest ranks (numpy's default
        # scheme); quantiles() refuses a single value
        if len(values) > 1:
            p05, *_, p95 = statistics.quantiles(values, n=20, method="inclusive")
        else:
            p05 = p95 = values[0]
        log_n = math.log(n)
        out.append(
            AggregateRow(
                family=family,
                n=n,
                process=process,
                trials=len(values),
                mean=statistics.fmean(values),
                median=med,
                p05=p05,
                p95=p95,
                per_n_log_n=med / (n * log_n),
                per_n_log2_n=med / (n * log_n * log_n),
                per_n_sq=med / (n * n),
                capped_trials=sum(1 for r in members if r.capped),
            )
        )
    return out


def rows_to_csv(rows: list[TrialRow]) -> str:
    return _to_csv(TrialRow, rows)


def rows_from_csv(text: str) -> list[TrialRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ROWS_CSV_HEADER:
        raise ValueError(f"expected header {ROWS_CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(fields(TrialRow)):
            raise ValueError(f"bad row {ln!r}")
        family, n, process, trial, seed, rounds, capped = parts
        # every family needs n >= 2, and the aggregates divide by log(n)
        if int(n) < 2 or int(trial) < 0 or int(rounds) < 0 or capped not in ("0", "1"):
            raise ValueError(f"bad row {ln!r}: need n >= 2, trial, rounds >= 0, capped 0 or 1")
        row = TrialRow(family, int(n), process, int(trial), int(seed), int(rounds), capped == "1")
        rows.append(row)
    return rows


def aggregates_to_csv(aggs: list[AggregateRow]) -> str:
    return _to_csv(AggregateRow, aggs)


def scaling_report(rows: list[TrialRow]) -> dict:
    """Normalized-median table per (family, process), sizes ascending.

    The three normalizations target the known growth orders: n log n
    (undirected lower bound), n log^2 n (undirected upper bound), and
    n^2 (directed bounds).  The ratios describe the sample and test no
    bound: at these sizes a Theta(n log n) process can show a falling
    n log n ratio, as the coupon collector does.
    """
    groups: dict[str, list[AggregateRow]] = {}
    # aggregate_rows sorts by (family, process, n)
    for a in aggregate_rows(rows):
        groups.setdefault(f"{a.family}/{a.process}", []).append(a)
    return {
        key: {
            "sizes": [a.n for a in members],
            "median": [a.median for a in members],
            "per_n_log_n": [a.per_n_log_n for a in members],
            "per_n_log2_n": [a.per_n_log2_n for a in members],
            "per_n_sq": [a.per_n_sq for a in members],
        }
        for key, members in groups.items()
    }
