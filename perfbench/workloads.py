"""The three benchmark workloads: inputs built from a seed, one timed pass
over them, and the checks every pass must satisfy.

A workload is driven only through the package's public functions.  Each
call into the package is looked up on its module at call time (for
example ``process.run_to_convergence``), so that the tracer and the
fault-injection tests can replace it.  A pass is a pure function of the
inputs: running it twice must give the same rounds and byte-identical
sweep CSV, which ``fingerprint`` lets the runner check.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from gossip_sim import analysis, generators, graph, harness, oracle, process
from gossip_sim.process import ProcessConfig, ProcessKind, trial_seed

TRI = ProcessKind.TRIANGULATION
HOP = ProcessKind.TWOHOP_UNDIRECTED
DHOP = ProcessKind.TWOHOP_DIRECTED

# A correct engine fails one of these with probability about 1e-9, so a
# failure in any of the thousands of tests a benchmark campaign makes is a
# real defect, not bad luck.
CHI_SQUARE_MIN_P = 1e-9
Z_MAX = 6.0


class Gate:
    """Counts checks attempted and failed; ``failed / attempted`` is the
    reported ``failed_frac``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class PassResult:
    """What one pass did and how long the program took to do it.

    ``wall`` is the program time of the pass, ``sim_seconds`` the part of it
    spent simulating rounds (the base of ``node_steps_per_s``), and
    ``trial_seconds`` the base of ``trials_per_s``.
    """

    wall: float = 0.0
    sim_seconds: float = 0.0
    trial_seconds: float = 0.0
    trial_ms: array = field(default_factory=lambda: array("d"))
    rounds: int = 0
    node_steps: int = 0
    edges_added: int = 0
    oracle_states: int = 0
    fingerprint: list = field(default_factory=list)
    host_factor: float = 1.0  # nominal-host seconds per measured second


def _missing_edges(n: int, edges) -> int:
    return n * (n - 1) // 2 - len(edges)


# ---------------------------------------------------------------- converge-large

# Mean rounds to convergence of each input under the reference kernels,
# over the process seeds trial_seed(2026, i) for i < 24 (n=1024), 40 (the
# other full inputs) or 400 (tiny inputs).  wall_s and the trial times of
# this workload scale each run's seconds to these rounds, so that a run's
# luck in its random stream does not move them: the rounds of one run vary
# by about 10% between seeds.
CONVERGE_INPUTS = {
    "full": [("cycle", 1024, TRI), ("cycle", 512, HOP), ("dstrong", 128, DHOP)],
    "tiny": [("cycle", 32, TRI), ("cycle", 16, HOP), ("dstrong", 16, DHOP)],
}
REFERENCE_ROUNDS = {
    ("cycle", 1024, "tri"): 7221.7,
    ("cycle", 512, "twohop"): 3283.1,
    ("dstrong", 128, "dtwohop"): 13055.5,
    ("cycle", 32, "tri"): 126.7,
    ("cycle", 16, "twohop"): 45.4,
    ("dstrong", 16, "dtwohop"): 208.9,
}


@dataclass
class ConvergeRun:
    label: str
    graph: object
    kind: ProcessKind
    seed: int
    target: int
    closure: set | None
    reference_rounds: float


def setup_converge(seed: int, size: str, workdir: str, gate: Gate) -> list[ConvergeRun]:
    """Write each input as an edge-list file and read it back, as
    ``gossip-sim run`` does; compute targets and directed closures."""
    runs = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for i, (family, n, kind) in enumerate(CONVERGE_INPUTS[size]):
            label = f"{family}{n}/{kind.value}"
            built = generators.generate(family, n)
            path = os.path.join(tmp, f"{family}{n}.el")
            graph.write_edge_list(built, path)
            g = graph.read_edge_list(path)
            gate.check(
                g.n == built.n and set(g.edges()) == set(built.edges()),
                f"{label}: edge-list round trip",
            )
            closure = set(graph.transitive_closure(g).edges()) if kind.directed else None
            runs.append(
                ConvergeRun(
                    label=label,
                    graph=g,
                    kind=kind,
                    seed=trial_seed(seed, i),
                    target=process.convergence_target(g, kind),
                    closure=closure,
                    reference_rounds=REFERENCE_ROUNDS[(family, n, kind.value)],
                )
            )
    return runs


def pass_converge(runs: list[ConvergeRun], gate: Gate, clock) -> PassResult:
    res = PassResult()
    for run in runs:
        g = run.graph.copy()
        start_edges = g.edge_count
        t0 = clock()
        rounds, capped = process.run_to_convergence(
            g, ProcessConfig(kind=run.kind, seed=run.seed)
        )
        seconds = clock() - t0
        gate.check(not capped and g.edge_count == run.target, f"{run.label}: converged uncapped")
        if run.closure is not None:
            gate.check(set(g.edges()) == run.closure, f"{run.label}: final edges equal closure")
        else:
            gate.check(g.is_complete(), f"{run.label}: final graph complete")
        scaled = seconds * run.reference_rounds / rounds
        res.wall += scaled
        res.trial_seconds += scaled
        res.trial_ms.append(scaled * 1e3)
        res.sim_seconds += seconds
        res.rounds += rounds
        res.node_steps += rounds * g.n
        res.edges_added += g.edge_count - start_edges
        res.fingerprint.append((run.label, rounds))
    return res


def collector_overhead(runs: list[ConvergeRun], clock, pairs: int = 3) -> float:
    """Extra share of run time that an attached ``analysis.TraceCollector``
    costs, on the directed input (the cheapest of the three)."""
    run = runs[-1]
    plain: list[float] = []
    collected: list[float] = []
    for _ in range(pairs):
        for sink, times in ((None, plain), (analysis.TraceCollector(), collected)):
            g = run.graph.copy()
            t0 = clock()
            process.run_to_convergence(
                g, ProcessConfig(kind=run.kind, seed=run.seed), trace_sink=sink
            )
            times.append(clock() - t0)
    return statistics.median(collected) / statistics.median(plain) - 1


# ------------------------------------------------------------------- sweep-small

SWEEP_GRID = {
    # (family, process, p, sizes); trials per size is the last entry
    "full": (
        [
            ("path", TRI, None, [16, 32, 64]),
            ("cycle", HOP, None, [16, 32, 64]),
            ("random", TRI, 0.1, [16, 32, 64]),
            ("dweak", DHOP, None, [8, 16, 32]),
            ("dstrong", DHOP, None, [8, 16, 32]),
        ],
        100,
    ),
    "tiny": (
        [
            ("path", TRI, None, [8, 16]),
            ("cycle", HOP, None, [8, 16]),
            ("random", TRI, 0.1, [8, 16]),
            ("dweak", DHOP, None, [8]),
            ("dstrong", DHOP, None, [8]),
        ],
        4,
    ),
}


def setup_sweep(seed: int, size: str, workdir: str, gate: Gate) -> list[harness.ExperimentSpec]:
    grid, trials = SWEEP_GRID[size]
    return [
        harness.ExperimentSpec(
            family=family,
            kind=kind,
            sizes=sizes,
            trials=trials,
            master_seed=trial_seed(seed, j),
            p=p,
            jobs=1,
        )
        for j, (family, kind, p, sizes) in enumerate(grid)
    ]


class TrialClock:
    """Times every sweep trial, from its ``generate`` call to the return of
    its run, and counts the edges the run added.

    It replaces the two names ``harness`` looks up per trial and costs two
    clock reads per trial of a few milliseconds.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.ms = array("d")
        self.edges_added = 0
        self._start = 0.0

    def __enter__(self):
        self._saved = (harness.generate, harness.run_to_convergence)
        generate, run = self._saved
        clock = self.clock

        def timed_generate(*args, **kwargs):
            self._start = clock()
            return generate(*args, **kwargs)

        def timed_run(g, *args, **kwargs):
            before = g.edge_count
            result = run(g, *args, **kwargs)
            self.ms.append((clock() - self._start) * 1e3)
            self.edges_added += g.edge_count - before
            return result

        harness.generate, harness.run_to_convergence = timed_generate, timed_run
        return self

    def __exit__(self, *exc) -> None:
        harness.generate, harness.run_to_convergence = self._saved


def _check_rows(spec, rows, gate: Gate) -> str:
    label = f"{spec.family}/{spec.kind.value}"
    sizes = sorted(spec.sizes)
    gate.check(len(rows) == len(sizes) * spec.trials, f"{label}: row count")
    for index, row in enumerate(rows):
        gate.check(
            not row.capped
            and row.rounds >= 1
            and row.n == sizes[index // spec.trials]
            and row.trial == index % spec.trials
            and row.seed == trial_seed(spec.master_seed, index)
            and (row.family, row.process) == (spec.family, spec.kind.value),
            f"{label} row {index}: converged uncapped with the derived seed",
        )
    text = harness.rows_to_csv(rows)
    parsed = harness.rows_from_csv(text)
    gate.check(parsed == rows, f"{label}: rows round-trip through CSV")
    groups: dict[int, list] = {}
    for row in parsed:
        groups.setdefault(row.n, []).append(row)
    aggs = {a.n: a for a in harness.aggregate_rows(parsed)}
    gate.check(sorted(aggs) == sorted(groups), f"{label}: one aggregate per size")
    for n, members in groups.items():
        agg = aggs.get(n)
        values = [float(r.rounds) for r in members]
        med = statistics.median(values)
        cuts = statistics.quantiles(values, n=20, method="inclusive")
        log_n = math.log(n)
        expected = (
            len(values),
            statistics.fmean(values),
            med,
            cuts[0],
            cuts[18],
            med / (n * log_n),
            med / (n * log_n * log_n),
            med / (n * n),
            sum(r.capped for r in members),
        )
        got = () if agg is None else (
            agg.trials, agg.mean, agg.median, agg.p05, agg.p95,
            agg.per_n_log_n, agg.per_n_log2_n, agg.per_n_sq, agg.capped_trials,
        )
        gate.check(
            len(got) == len(expected)
            and all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, expected)),
            f"{label} n={n}: recomputed aggregates match",
        )
    return text


def pass_sweep(specs: list[harness.ExperimentSpec], gate: Gate, clock) -> PassResult:
    res = PassResult()
    with TrialClock(clock) as trials:
        for spec in specs:
            t0 = clock()
            rows = harness.run_sweep(spec)
            seconds = clock() - t0
            res.wall += seconds
            res.fingerprint.append(_check_rows(spec, rows, gate))
            res.rounds += sum(r.rounds for r in rows)
            res.node_steps += sum(r.rounds * r.n for r in rows)
    res.sim_seconds = res.trial_seconds = res.wall
    res.trial_ms = trials.ms
    res.edges_added = trials.edges_added
    return res


# ----------------------------------------------------------------- exact-anchors

ANCHORS = {
    # chi-square graphs up to n nodes and single rounds per graph and kind,
    # empirical_vs_exact trials, exact graphs up to n nodes, ph_recurrence
    # (n, T, H), chain_span_presence (n, rounds, trials)
    "full": dict(chi_n=4, chi_trials=10_000, emp_trials=20_000, exact_n=5,
                 ph=(100, 100, 8), chain=(32, 10, 4_000)),
    "tiny": dict(chi_n=4, chi_trials=1_000, emp_trials=500, exact_n=4,
                 ph=(20, 4, 3), chain=(16, 2, 50)),
}
EXACT_ANCHORS = {
    # (graph, process) -> exact expected rounds to convergence
    ("P3", TRI): Fraction(2),
    ("P3", HOP): Fraction(4, 3),
    ("C4", TRI): Fraction(499, 240),
}


@dataclass
class AnchorInputs:
    params: dict
    chi_graphs: list
    exact_graphs: list
    seeds: dict


def setup_anchors(seed: int, size: str, workdir: str, gate: Gate) -> AnchorInputs:
    from scipy.stats import chi2  # noqa: F401  (import cost belongs to set-up)

    params = ANCHORS[size]
    return AnchorInputs(
        params=params,
        chi_graphs=oracle.connected_graphs_upto(params["chi_n"]),
        exact_graphs=oracle.connected_graphs_upto(params["exact_n"]),
        seeds={name: trial_seed(seed, i) for i, name in enumerate(("chi", "emp", "chain"))},
    )


def _chi_square_p(dist, counts, trials: int) -> float:
    from scipy.stats import chi2

    if len(dist) == 1:
        return 1.0
    stat = sum(
        (counts.get(edges, 0) - float(p) * trials) ** 2 / (float(p) * trials)
        for edges, p in dist.items()
    )
    return float(chi2.sf(stat, len(dist) - 1))


def _single_rounds(inputs: AnchorInputs, gate: Gate, res: PassResult, clock) -> None:
    trials = inputs.params["chi_trials"]
    config = 0
    for n, edges in inputs.chi_graphs:
        g = graph.UndirectedGraph(n, edges)
        for kind in (TRI, HOP):
            label = f"n={n} {edges} {kind.value}"
            t0 = clock()
            dist = oracle.single_round_distribution(g, kind)
            res.wall += clock() - t0
            gate.check(sum(dist.values()) == 1, f"{label}: single-round distribution sums to 1")
            step = process.round_function(kind)
            master = trial_seed(inputs.seeds["chi"], config)
            config += 1
            counts: Counter = Counter()
            ms = res.trial_ms
            start = clock()
            for i in range(trials):
                t0 = clock()
                outcome = step(g.copy(), random.Random(trial_seed(master, i)))
                ms.append((clock() - t0) * 1e3)
                counts[frozenset(outcome.edges_added)] += 1
            seconds = clock() - start
            res.wall += seconds
            res.sim_seconds += seconds
            res.trial_seconds += seconds
            res.rounds += trials
            res.node_steps += trials * n
            res.edges_added += sum(len(edges) * c for edges, c in counts.items())
            gate.check(set(counts) <= set(dist), f"{label}: outcomes inside oracle support")
            p = _chi_square_p(dist, counts, trials)
            gate.check(p >= CHI_SQUARE_MIN_P, f"{label}: chi-square p={p:.3g}")
            res.fingerprint.append(dict(counts))


def _timed(res: PassResult, clock, fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    res.wall += clock() - t0
    return out


def pass_anchors(inputs: AnchorInputs, gate: Gate, clock) -> PassResult:
    res = PassResult()
    params = inputs.params
    _single_rounds(inputs, gate, res, clock)

    p3 = generators.path_graph(3)
    for i, kind in enumerate((TRI, HOP)):
        t0 = clock()
        report = oracle.empirical_vs_exact(
            p3, kind, params["emp_trials"], trial_seed(inputs.seeds["emp"], i)
        )
        seconds = clock() - t0
        res.wall += seconds
        res.sim_seconds += seconds
        rounds = round(report["mean_rounds"] * report["trials"])
        res.rounds += rounds
        res.node_steps += rounds * p3.n
        res.edges_added += report["trials"]  # P3 needs exactly one edge
        res.oracle_states += 2  # P3 has one missing edge
        label = f"P3 {kind.value} empirical_vs_exact"
        gate.check(report["exact_rounds"] == float(EXACT_ANCHORS[("P3", kind)]), f"{label}: exact mean")
        gate.check(abs(report["z"]) <= Z_MAX, f"{label}: z={report['z']:.2f}")
        gate.check(report["p_value"] >= CHI_SQUARE_MIN_P, f"{label}: p={report['p_value']:.3g}")
        res.fingerprint.append(report)

    expected = {}
    for n, edges in inputs.exact_graphs:
        missing = _missing_edges(n, edges)
        for kind in (TRI, HOP):
            value = _timed(res, clock, oracle.expected_rounds, graph.UndirectedGraph(n, edges), kind)
            res.oracle_states += 1 << missing
            gate.check(value >= 1 if missing else value == 0,
                       f"n={n} {edges} {kind.value}: expected_rounds={value}")
            expected[(n, edges), kind] = value
    named = {"P3": generators.path_graph(3), "C4": generators.cycle_graph(4)}
    for (name, kind), exact in EXACT_ANCHORS.items():
        value = expected.get((oracle.canonical_form(named[name].n, named[name].edges()), kind))
        gate.check(value == exact, f"{name} {kind.value}: expected_rounds={value}, exact {exact}")
    res.fingerprint.append(expected)

    pairs = _timed(res, clock, oracle.nonmonotone_search, params["exact_n"], TRI)
    # The search evaluates every connected graph up to exact_n nodes once.
    res.oracle_states += sum(1 << _missing_edges(n, e) for n, e in inputs.exact_graphs)
    gate.check(bool(pairs), "nonmonotone_search found a witness")
    for pair in pairs:
        gate.check(
            set(pair.h_edges) < set(pair.g_edges) and pair.g_expected > pair.h_expected,
            f"witness {pair.g_edges} / {pair.h_edges}: proper subgraph, slower",
        )
    res.fingerprint.append([(p.g_edges, p.h_edges) for p in pairs])

    n, t_max, h_max = params["ph"]
    table = _timed(res, clock, analysis.ph_recurrence, n, t_max, h_max)
    gate.check(_timed(res, clock, analysis.ph_bound_check, table), f"ph_bound_check n={n}")

    n, rounds, trials = params["chain"]
    majorant = _timed(res, clock, analysis.ph_recurrence, n, rounds, 3)
    t0 = clock()
    freqs = analysis.chain_span_presence(n, rounds, trials, inputs.seeds["chain"])
    seconds = clock() - t0
    res.wall += seconds
    res.sim_seconds += seconds
    res.rounds += rounds * trials
    res.node_steps += rounds * trials * n
    for h in (2, 3):
        series = [freqs[(h, t)][0] for t in range(rounds + 1)]
        gate.check(
            series[0] == 0 and all(a <= b <= 1 for a, b in zip(series, series[1:])),
            f"chain span {h}: presence starts at 0 and never falls",
        )
        for t in range(1, rounds + 1):
            mean, se = freqs[(h, t)]
            gate.check(
                mean <= majorant.q(h, t) + Z_MAX * se,
                f"chain span {h} t={t}: {mean:.5f} <= q + {Z_MAX} se",
            )
    res.fingerprint.append(sorted(freqs.items()))
    return res


WORKLOADS = {
    "converge-large": (setup_converge, pass_converge),
    "sweep-small": (setup_sweep, pass_sweep),
    "exact-anchors": (setup_anchors, pass_anchors),
}
