"""Instrumentation for the discovery processes: tie classes, per-round
traces, chain-cut tracking, and the span-probability recurrence used to
bound edge growth along the strong lower-bound chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .generators import directed_strong_lb
from .graph import DirectedGraph, UndirectedGraph
from .process import RoundOutcome, directed_twohop_round, trial_seed

import random

__all__ = [
    "TieClass",
    "tie_class",
    "RoundTrace",
    "TraceCollector",
    "ChainCutTracker",
    "smallest_untouched_cut",
    "PhTable",
    "ph_constants_ok",
    "ph_recurrence",
    "ph_bound_check",
    "chain_span_presence",
    "min_four_hop_reach",
    "TRACE_CSV_HEADER",
    "traces_to_csv",
]


class TieClass(Enum):
    STRONG = "strong"
    WEAK = "weak"


def tie_class(g: UndirectedGraph, v: int, nodes, delta0: int) -> TieClass:
    """Strong iff ``v`` has at least ``delta0 / 2`` edges into ``nodes``.

    The threshold is real-valued (no rounding); ``delta0`` is the minimum
    degree captured at the start of the growth epoch being analyzed.
    """
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    if g.induced_degree(v, nodes) >= delta0 / 2:
        return TieClass.STRONG
    return TieClass.WEAK


def min_four_hop_reach(g: UndirectedGraph) -> int:
    """Smallest ``|N1(u) + N2(u) + N3(u) + N4(u)|`` over all nodes u.

    On a connected graph this is at least ``min(2 * min_degree, n - 1)``,
    which the property suite asserts on evolving graphs.
    """
    best = g.n
    for u in range(g.n):
        total = sum(len(g.khop_neighborhood(u, i)) for i in range(1, 5))
        best = min(best, total)
    return best


@dataclass
class RoundTrace:
    """Start-of-round state plus the number of edges the round added.

    ``min_degree`` is the minimum (out-)degree at the start of the round;
    ``missing_edges`` counts edges still absent versus the convergence
    target.  The two optional fields are filled only when their tracking
    was enabled on the collector.
    """

    round: int
    min_degree: int
    missing_edges: int
    edges_added: int
    smallest_untouched_cut: int | None = None
    strong_tie_count: int | None = None


TRACE_CSV_HEADER = (
    "round,min_degree,missing_edges,edges_added,smallest_untouched_cut,strong_tie_count"
)


def traces_to_csv(traces) -> str:
    """Serialize traces to CSV; disabled optional fields become empty."""
    lines = [TRACE_CSV_HEADER]
    for t in traces:
        cut = "" if t.smallest_untouched_cut is None else str(t.smallest_untouched_cut)
        ties = "" if t.strong_tie_count is None else str(t.strong_tie_count)
        lines.append(
            f"{t.round},{t.min_degree},{t.missing_edges},{t.edges_added},{cut},{ties}"
        )
    return "\n".join(lines) + "\n"


class ChainCutTracker:
    """Incrementally tracks the smallest untouched chain cut.

    Edge insertions update a difference array in O(1); queries rescan the
    coverage prefix in O(n) instead of re-walking the whole edge set.
    """

    def __init__(self, g: DirectedGraph, chain_start: int = 1):
        self._g = g
        self._chain_start = max(1, chain_start)
        self._diff = [0] * (g.n + 2)
        for a, b in g.edges():
            self.add_edge(a, b)

    def add_edge(self, a: int, b: int) -> None:
        i, j = a + 1, b + 1
        if i < j:
            self._diff[i] += 1
            self._diff[j] -= 1

    def smallest_untouched(self) -> int | None:
        g = self._g
        run = 0
        for x in range(1, g.n):
            run += self._diff[x]
            if x >= self._chain_start and run == 1 and g.has_edge(x - 1, x):
                return x
        return None


def smallest_untouched_cut(g: DirectedGraph, chain_start: int = 1) -> int | None:
    """Least 1-indexed ``x >= chain_start`` whose only forward crossing
    edge is ``(x, x+1)``, or None if every cut is touched.

    The cut at x separates 1-indexed nodes ``{1..x}`` from ``{x+1..n}``;
    only edges directed low-to-high count as crossings.  On a fresh
    strong lower-bound instance the answer is ``n/2``.
    """
    return ChainCutTracker(g, chain_start).smallest_untouched()


class TraceCollector:
    """Builds one RoundTrace per executed round of ``run_to_convergence``.

    Counter fields are O(1) amortized per round.  The optional metrics
    each cost a traversal and are off by default:

    * ``track_cut`` -- smallest untouched chain cut (directed chain
      instances only);
    * ``tie_focus`` -- a node u; the trace then counts how many of u's
      current neighbors are strongly tied to u's two-hop neighborhood.
      The epoch baseline delta0 is captured at the first observed round
      and exposed as ``tie_baseline``.
    """

    def __init__(
        self,
        *,
        track_cut: bool = False,
        chain_start: int = 1,
        tie_focus: int | None = None,
    ):
        self.traces: list[RoundTrace] = []
        self._track_cut = track_cut
        self._chain_start = chain_start
        self._tie_focus = tie_focus
        self.tie_baseline: int | None = None
        self._cut_tracker: ChainCutTracker | None = None
        self._pending: RoundTrace | None = None

    def begin_round(self, g, round_index: int, missing_edges: int) -> None:
        if isinstance(g, DirectedGraph):
            min_degree = g.min_out_degree()
        else:
            min_degree = g.min_degree()
        cut = None
        if self._track_cut:
            if self._cut_tracker is None:
                self._cut_tracker = ChainCutTracker(g, self._chain_start)
            cut = self._cut_tracker.smallest_untouched()
        ties = None
        if self._tie_focus is not None:
            if self.tie_baseline is None:
                self.tie_baseline = min_degree
            u = self._tie_focus
            two_hop = g.khop_neighborhood(u, 2)
            ties = sum(
                1
                for v in g.neighbors(u)
                if tie_class(g, v, two_hop, self.tie_baseline) is TieClass.STRONG
            )
        self._pending = RoundTrace(
            round=round_index,
            min_degree=min_degree,
            missing_edges=missing_edges,
            edges_added=0,
            smallest_untouched_cut=cut,
            strong_tie_count=ties,
        )

    def end_round(self, outcome: RoundOutcome) -> None:
        assert self._pending is not None and self._pending.round == outcome.round_index
        self.traces.append(replace(self._pending, edges_added=len(outcome.edges_added)))
        self._pending = None
        if self._cut_tracker is not None:
            for a, b in outcome.edges_added:
                self._cut_tracker.add_edge(a, b)

    def __iter__(self):
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)


@dataclass
class PhTable:
    """Tracked majorant ``q[h][t]`` for the probability that a chain edge
    spanning h hops exists by round t, together with the constants the
    bound check uses."""

    n: int
    alpha: float
    eps: float
    hmax: int
    tmax: int
    values: list[list[float]]  # values[h - 2][t] for 2 <= h <= hmax

    def q(self, h: int, t: int) -> float:
        if not 2 <= h <= self.hmax:
            raise ValueError(f"h must be in [2, {self.hmax}], got {h}")
        if not 0 <= t <= self.tmax:
            raise ValueError(f"t must be in [0, {self.tmax}], got {t}")
        return self.values[h - 2][t]


def ph_constants_ok(alpha: float, eps: float) -> bool:
    """The two constraints the induction places on alpha and eps."""
    if alpha <= 0 or eps < 0 or alpha * eps >= 1:
        return False
    if alpha < 4 + 4 / (1 - alpha * eps):
        return False
    return (4 - 3 * eps + eps * eps) / (1 - eps) ** 3 <= 5


def ph_recurrence(
    n: int, T: int, H: int, *, alpha: float = 9.0, eps: float = 0.01
) -> PhTable:
    """Evolve the span-probability majorant for T rounds.

    ``q[h][0] = 0`` for h >= 2, the span-1 boundary is pinned to 1, and

        q[h][t+1] = q[h][t] + (4/n^2) * (sum q[h+k] + sum q[k] q[h-k]
                                         + sum q[k])

    evaluated at the chain position i that maximizes the increment, which
    makes each q[h] a single majorant valid for every position.  Values
    are clamped to 1.  The constants are checked here, at configuration
    time.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if T < 0:
        raise ValueError(f"need T >= 0, got {T}")
    if not 2 <= H <= n - 1:
        raise ValueError(f"need 2 <= H <= n - 1, got H={H}")
    if not ph_constants_ok(alpha, eps):
        raise ValueError(
            f"alpha={alpha}, eps={eps} violate alpha >= 4 + 4/(1 - alpha*eps) "
            "or (4 - 3*eps + eps^2)/(1 - eps)^3 <= 5"
        )
    scale = 4.0 / (n * n)
    # internal table over all spans 1..n-1; span 1 is the boundary
    q = [[0.0] * (T + 1) for _ in range(n)]
    q[1] = [1.0] * (T + 1)
    for t in range(T):
        # prefix[j] = sum of q[k][t] for k = 1..j
        prefix = [0.0] * n
        for k in range(1, n):
            prefix[k] = prefix[k - 1] + q[k][t]

        def seg(a: int, b: int) -> float:
            if b < a:
                return 0.0
            return prefix[b] - prefix[a - 1]

        for h in range(2, n):
            middle = sum(q[k][t] * q[h - k][t] for k in range(1, h))
            best = 0.0
            for i in range(1, n - h + 1):
                inc = seg(h + 1, h + i - 1) + seg(h + 1, n - i)
                if inc > best:
                    best = inc
            q[h][t + 1] = min(1.0, q[h][t] + scale * (middle + best))
    return PhTable(
        n=n,
        alpha=alpha,
        eps=eps,
        hmax=H,
        tmax=T,
        values=[q[h] for h in range(2, H + 1)],
    )


def ph_bound_check(table: PhTable) -> bool:
    """True iff ``q[h][t] <= (alpha * t / n^2)^(h-1)`` for all tabulated
    spans and all ``1 <= t <= eps * n^2``."""
    t_max = math.floor(table.eps * table.n * table.n)
    if t_max > table.tmax:
        raise ValueError(
            f"table covers t <= {table.tmax} but the bound needs t <= {t_max}"
        )
    base = table.alpha / (table.n * table.n)
    for h in range(2, table.hmax + 1):
        for t in range(1, t_max + 1):
            if table.q(h, t) > (base * t) ** (h - 1):
                return False
    return True


def chain_span_presence(
    n: int,
    rounds: int,
    trials: int,
    master_seed: int,
    spans: tuple[int, ...] = (2, 3),
    chain_only: bool = True,
) -> dict[tuple[int, int], tuple[float, float]]:
    """Empirical presence frequency of span-h chain edges on the evolved
    strong lower-bound instance.

    For each span h and round t (start-of-round state), the frequency is
    pooled over initially absent edges ``(i, i+h)`` (1-indexed) and over
    trials; the returned map has ``(h, t) -> (mean, standard_error)``
    with the standard error computed across per-trial means, which stays
    valid under within-trial correlation.

    With ``chain_only`` (the default) only positions ``i >= n/2`` are
    pooled.  Those are the positions the span recurrence actually
    majorizes: every node there has out-degree at least n/2 and every
    initial forward edge spans one hop, so composite walks must wait for
    process-built legs.  Positions just left of the clique boundary
    violate both premises (out-degree n/2 - 1, and free two-hop routes
    such as clique edge plus chain edge exist at round 0), and their
    edges demonstrably appear faster than the recurrence tracks.
    """
    half = n // 2
    lo = half if chain_only else 1
    positions = {
        h: [i for i in range(lo, n - h + 1) if i + h > half] for h in spans
    }
    per_trial: dict[tuple[int, int], list[float]] = {
        (h, t): [] for h in spans for t in range(rounds + 1)
    }
    for trial in range(trials):
        g = directed_strong_lb(n)
        rng = random.Random(trial_seed(master_seed, trial))
        for t in range(rounds + 1):
            for h in spans:
                pos = positions[h]
                present = sum(1 for i in pos if g.has_edge(i - 1, i + h - 1))
                per_trial[(h, t)].append(present / len(pos))
            if t < rounds:
                directed_twohop_round(g, rng, round_index=t)
    result: dict[tuple[int, int], tuple[float, float]] = {}
    for key, samples in per_trial.items():
        mean = sum(samples) / len(samples)
        var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
        result[key] = (mean, math.sqrt(var / len(samples)))
    return result
