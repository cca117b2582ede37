"""Instrumentation for the discovery processes: per-round traces, the
smallest untouched chain cut, and the span-probability recurrence used to
bound edge growth along the strong lower-bound chain.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul

from .generators import directed_strong_lb
from .graph import DirectedGraph, UndirectedGraph
from .harness import _to_csv
from .process import RoundOutcome, directed_twohop_round, trial_seed

import random

__all__ = [
    "RoundTrace",
    "TraceCollector",
    "smallest_untouched_cut",
    "PH_STEP_LIMIT",
    "PhTable",
    "check_ph_constants",
    "ph_recurrence",
    "ph_bound_check",
    "chain_span_presence",
    "min_four_hop_reach",
    "traces_to_csv",
]


# ph_recurrence's budget on T * n^2, about 2 s of recurrence; it holds the
# (H - 1) * (T + 1) values it returns and two columns of n
PH_STEP_LIMIT = 10**7


def min_four_hop_reach(g: UndirectedGraph) -> int:
    """Smallest ``|N1(u) + N2(u) + N3(u) + N4(u)|`` over all nodes u: the
    size of u's radius-4 ball, less one, found by one breadth-first search.

    On a connected graph this is at least ``min(2 * min_degree, n - 1)``,
    which the property suite asserts on evolving graphs.
    """
    adj = g._adj
    best = g.n
    for u in range(g.n):
        ball = frontier = {u}
        for _ in range(4):
            frontier = {y for x in frontier for y in adj[x]} - ball
            ball = ball | frontier
        best = min(best, len(ball) - 1)
    return best


@dataclass
class RoundTrace:
    """Start-of-round state plus the number of edges the round added.

    ``min_degree`` is the minimum (out-)degree at the start of the round;
    ``missing_edges`` counts edges still absent versus the convergence
    target.
    """

    round: int
    min_degree: int
    missing_edges: int
    edges_added: int


def traces_to_csv(traces) -> str:
    """Serialize traces to CSV, one line per round."""
    return _to_csv(RoundTrace, traces)


def smallest_untouched_cut(g: DirectedGraph, chain_start: int = 1) -> int | None:
    """Least 1-indexed ``x >= chain_start`` whose only forward crossing
    edge is ``(x, x+1)``, or None if every cut is touched.

    The cut at x separates 1-indexed nodes ``{1..x}`` from ``{x+1..n}``;
    only edges directed low-to-high count as crossings.  On a fresh
    strong lower-bound instance the answer is ``n/2``.
    """
    # diff marks where each forward edge's span starts and ends, so the
    # running sum at x counts the forward edges crossing cut x
    diff = [0] * (g.n + 1)
    for a, b in g.edges():
        if a < b:
            diff[a + 1] += 1
            diff[b + 1] -= 1
    run = 0
    for x in range(1, g.n):
        run += diff[x]
        if x >= chain_start and run == 1 and g.has_edge(x - 1, x):
            return x
    return None


class TraceCollector:
    """Builds one RoundTrace per executed round of ``run_to_convergence``.

    Rounds that the tail engine skips add no edge and get no row, so the
    ``round`` column has gaps there.  Degrees only grow, so the minimum
    (out-)degree is tracked through the set of nodes at the minimum: a
    node leaves it when it gains an edge (both endpoints on an undirected
    graph, the source on a digraph), and the O(n) scan runs again only
    when the set is empty.
    """

    def __init__(self):
        self.traces: list[RoundTrace] = []
        self._pending: tuple[int, int, int] | None = None
        self._graph = None
        self._lowest: set[int] = set()
        self._min_degree = 0

    def begin_round(self, g, round_index: int, missing_edges: int) -> None:
        if g is not self._graph or not self._lowest:
            self._graph = g
            self._min_degree = g.min_degree()
            self._lowest = {u for u in range(g.n) if len(g._adj[u]) == self._min_degree}
        self._pending = (round_index, self._min_degree, missing_edges)

    def end_round(self, outcome: RoundOutcome) -> None:
        assert self._pending is not None and self._pending[0] == outcome.round_index
        self.traces.append(RoundTrace(*self._pending, len(outcome.edges_added)))
        self._pending = None
        ends = 1 if isinstance(self._graph, DirectedGraph) else 2
        self._lowest.difference_update(x for edge in outcome.edges_added for x in edge[:ends])

    def __iter__(self):
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)


@dataclass
class PhTable:
    """Tracked majorant ``q[h][t]`` for the probability that a chain edge
    spanning h hops exists by round t."""

    n: int
    hmax: int
    tmax: int
    values: list[list[float]]  # values[h - 2][t] for 2 <= h <= hmax

    def q(self, h: int, t: int) -> float:
        if not 2 <= h <= self.hmax:
            raise ValueError(f"h must be in [2, {self.hmax}], got {h}")
        if not 0 <= t <= self.tmax:
            raise ValueError(f"t must be in [0, {self.tmax}], got {t}")
        return self.values[h - 2][t]


def check_ph_constants(alpha: float, eps: float) -> None:
    """Raise ValueError unless alpha >= 4 + 4/(1 - alpha * eps), with
    1 - alpha * eps > 0.  The induction's other constraint,
    (4 - 3 eps + eps^2)/(1 - eps)^3 <= 5, holds for every eps <= 0.093,
    and this one admits no eps above (3 - 2 sqrt 2)/4 = 0.0429."""
    if not (alpha > 0 and eps >= 0 and alpha * eps < 1 and alpha >= 4 + 4 / (1 - alpha * eps)):
        raise ValueError(f"alpha={alpha}, eps={eps} violate alpha >= 4 + 4/(1 - alpha*eps)")


def ph_recurrence(n: int, T: int, H: int) -> PhTable:
    """Evolve the span-probability majorant for T rounds.

    ``q[h][0] = 0`` for h >= 2, the span-1 boundary is pinned to 1, and

        q[h][t+1] = q[h][t] + (4/n^2) * (sum q[h+k] + sum q[k] q[h-k]
                                         + sum q[k])

    evaluated at the chain position i that maximizes the increment, which
    makes each q[h] a single majorant valid for every position.  Values
    are clamped to 1.  The recurrence takes about T * n^2 steps, and a
    T * n^2 beyond PH_STEP_LIMIT is refused before anything is allocated.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if T < 0:
        raise ValueError(f"need T >= 0, got {T}")
    if not 2 <= H <= n - 1:
        raise ValueError(f"need 2 <= H <= n - 1, got H={H}")
    if T * n * n > PH_STEP_LIMIT:
        raise ValueError(f"T * n^2 = {T * n * n} exceeds {PH_STEP_LIMIT} recurrence steps")
    scale = 4.0 / (n * n)
    # col[k] = q[k][t] for spans k = 1..n-1 (span 1 is the boundary), updated
    # from the longest span down, so that the shorter ones still hold q[.][t]
    col = [0.0, 1.0] + [0.0] * (n - 2)
    rows = [[0.0] for _ in range(2, H + 1)]
    for t in range(T):
        # prefix[j] = sum of col[k] for k = 1..j
        prefix = list(accumulate(col[1:], initial=0.0))
        for h in range(n - 1, 1, -1):
            middle = math.fsum(map(mul, col[1:h], col[h - 1 : 0 : -1]))
            # increment at position i: the sums of col over h+1..h+i-1 and
            # over h+1..n-i, each 0.0 where empty; every one is >= 0
            tail = [prefix[j] - prefix[h] for j in range(h + 1, n)]
            best = max(map(add, [0.0] + tail, tail[::-1] + [0.0]))
            col[h] = min(1.0, col[h] + scale * (middle + best))
        for h, row in enumerate(rows, 2):
            row.append(col[h])
    return PhTable(n=n, hmax=H, tmax=T, values=rows)


def ph_bound_check(table: PhTable, alpha: float = 9.0, eps: float = 0.01) -> bool:
    """True iff ``q[h][t] <= (alpha * t / n^2)^(h-1)`` for all tabulated
    spans and all ``1 <= t <= eps * n^2``; refuses constants that fail
    ``check_ph_constants`` and a table shorter than that."""
    check_ph_constants(alpha, eps)
    t_max = math.floor(eps * table.n * table.n)
    if t_max > table.tmax:
        raise ValueError(
            f"table covers t <= {table.tmax} but the bound needs t <= {t_max}"
        )
    base = alpha / (table.n * table.n)
    for h in range(2, table.hmax + 1):
        for t in range(1, t_max + 1):
            if table.q(h, t) > (base * t) ** (h - 1):
                return False
    return True


def chain_span_presence(
    n: int, rounds: int, trials: int, master_seed: int
) -> dict[tuple[int, int], tuple[float, float]]:
    """Empirical presence frequency of span-h chain edges on the evolved
    strong lower-bound instance.

    For each span h and round t (start-of-round state), the frequency is
    pooled over initially absent edges ``(i, i+h)`` (1-indexed) and over
    trials; the returned map has ``(h, t) -> (mean, standard_error)``
    with the standard error computed across per-trial means, which stays
    valid under within-trial correlation.

    Spans are 2 and 3, and only positions ``i >= n/2`` are pooled.  Those
    are the positions the span recurrence actually majorizes: every node
    there has out-degree at least n/2 and every initial forward edge
    spans one hop, so composite walks must wait for process-built legs.
    Positions just left of the clique boundary violate both premises
    (out-degree n/2 - 1, and free two-hop routes such as clique edge plus
    chain edge exist at round 0), and their edges demonstrably appear
    faster than the recurrence tracks.  Needs ``n >= 6``, so that span 3
    has a pooled position, ``trials >= 2`` for the standard error, and
    ``rounds >= 0``.
    """
    if n < 6 or trials < 2 or rounds < 0:
        raise ValueError(f"need n >= 6 and trials >= 2 and rounds >= 0, got {n=}, {trials=}, {rounds=}")
    spans = (2, 3)
    positions = {h: range(n // 2, n - h + 1) for h in spans}
    # 8 bytes a value, against a list's pointer and float object
    per_trial: dict[tuple[int, int], array] = {(h, t): array("d") for h in spans for t in range(rounds + 1)}
    start = directed_strong_lb(n)
    for trial in range(trials):
        g = start.copy()
        rng = random.Random(trial_seed(master_seed, trial))
        for t in range(rounds + 1):
            for h in spans:
                pos = positions[h]
                present = sum(g._rows[i - 1][i + h - 1] for i in pos)
                per_trial[(h, t)].append(present / len(pos))
            if t < rounds:
                directed_twohop_round(g, rng, round_index=t)
    result: dict[tuple[int, int], tuple[float, float]] = {}
    for key, samples in per_trial.items():
        mean = math.fsum(samples) / len(samples)
        var = math.fsum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
        result[key] = (mean, math.sqrt(var / len(samples)))
    return result
