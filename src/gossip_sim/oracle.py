"""Exact ground truth for tiny instances.

Everything here is exact, by exhaustive enumeration: the distribution of
edges one round adds (integer weights over one denominator per round), the
expected convergence time via the absorbing Markov chain over edge-supersets
(one ``Fraction`` sum per state over its outcomes), and a search for
graph/subgraph pairs where more initial edges mean slower convergence, over
the same chain lumped by isomorphism class (each class valued once).  One
step budget, ``ORACLE_STEP_LIMIT``, decides every refusal.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graph import IsolatedNodeError, UndirectedGraph, transitive_closure
from .process import (
    ProcessGraphMismatchError,
    ProcessKind,
    _check_input,
    check_graph_type,
    convergence_target,
    round_function,
    trial_seed,
)

__all__ = [
    "ORACLE_STEP_LIMIT",
    "OracleIntractableError",
    "single_round_distribution",
    "expected_rounds",
    "NonmonotonePair",
    "nonmonotone_search",
    "canonical_form",
    "connected_graphs_upto",
    "empirical_vs_exact",
]

# Steps one public call may take, each charged before it is taken: n^3 per
# enumerated round (a node has at most (n-1)^2 choices), one per entry of a
# joint product, one per census edge mask, one per edge of each node
# relabeling.  Every connected graph on <= 6 nodes is accepted (S6/twohop
# charges most: 474 810, in 0.7 s), C7 is not.  canonical_form accepts P8
# (0.3 s), 8 nodes with 12 edges (0.5 s) and 9 nodes with 1 edge (0.6-0.8 s),
# and refuses K8 and K9 at once; the P18/twohop round takes 1.0 s, and the
# P19/twohop round is refused after 0.8 s (2 vCPUs, Python 3.11).
ORACLE_STEP_LIMIT = 5 * 10**5

Edge = tuple[int, int]


class OracleIntractableError(ValueError):
    """Instance too large for exhaustive analysis."""

    def __init__(self, message: str, size: int):
        super().__init__(f"{message} (size {size})")
        self.size = size


class _Budget:
    """ORACLE_STEP_LIMIT steps for one public call, charged before the work
    they pay for; the first charge past the limit refuses the call."""

    def __init__(self, steps: int) -> None:
        self.spent = 0
        self.charge(steps)

    def charge(self, steps: int) -> None:
        self.spent += steps
        if self.spent > ORACLE_STEP_LIMIT:
            raise OracleIntractableError(f"over {ORACLE_STEP_LIMIT} oracle steps", self.spent)


def _node_outcomes(g, u: int, kind: ProcessKind) -> tuple[dict[Edge | None, int], int]:
    """Integer weight of each edge-or-None node u produces, and their total:
    d^2 for triangulation, d * lcm(positive out-degrees in N(u)) for the walks."""
    adj, rows = g._adj, g._rows
    outcomes: dict[Edge | None, int] = {}

    def put(edge: Edge | None, w: int) -> None:
        outcomes[edge] = outcomes.get(edge, 0) + w

    nbrs = adj[u]
    d = len(nbrs)
    if d == 0:
        # like the kernels: a sink skips its draw, an isolated node is an error
        if not kind.directed:
            raise IsolatedNodeError(u)
        return {None: 1}, 1
    if kind is ProcessKind.TRIANGULATION:
        for v in nbrs:
            for w in nbrs:
                put(None if v == w or rows[v][w] else (min(v, w), max(v, w)), 1)
        return outcomes, d * d
    # lcm() of no degrees is 1: every out-neighbour is a sink
    lcm = math.lcm(*filter(None, map(len, map(adj.__getitem__, nbrs))))
    for v in nbrs:
        second = adj[v]
        if not second:
            put(None, lcm)
            continue
        share = lcm // len(second)
        for w in second:
            if w == u or rows[u][w]:
                put(None, share)
            else:
                put((u, w) if kind.directed or u < w else (w, u), share)
    return outcomes, d * lcm


def single_round_distribution(g, kind: ProcessKind) -> dict[frozenset[Edge], Fraction]:
    """Exact distribution of the set of edges one round adds.

    Enumerates all joint per-node choices under snapshot semantics; the
    probabilities sum to exactly 1.  Refuses a graph of the wrong type for
    the process, and a round whose enumeration exceeds ORACLE_STEP_LIMIT.
    """
    check_graph_type(g, kind)
    weights, total = _round_distribution(g, kind, _Budget(g.n**3))
    return {edges: Fraction(w, total) for edges, w in weights.items()}


def _round_distribution(g, kind: ProcessKind, budget: _Budget) -> tuple[dict, int]:
    # integer weights of each added edge set, and their total; the caller
    # pays for the enumeration, this loop for each joint product
    acc, total = {frozenset(): 1}, 1
    for u in range(g.n):
        per_node, node_total = _node_outcomes(g, u, kind)
        budget.charge(len(acc) * len(per_node))
        nxt: dict[frozenset[Edge], int] = {}
        for edges, p in acc.items():
            for edge, q in per_node.items():
                key = edges if edge is None else edges | {edge}
                nxt[key] = nxt.get(key, 0) + p * q
        acc, total = nxt, total * node_total
    assert sum(acc.values()) == total
    return acc, total


def expected_rounds(g, kind: ProcessKind) -> Fraction:
    """Exact expected number of rounds to reach the convergence target.

    The states are the edge-supersets of ``g`` up to the target (complete
    graph for undirected kinds, transitive closure for the directed kind),
    one bit per missing edge.  Transitions never remove edges, so the
    absorbing chain is solved by back-substitution over masks in
    decreasing integer order.  Refuses what ``run_to_convergence``
    refuses: a graph of the wrong type, or a disconnected undirected one.
    Charges 2^m n^3 steps for its states up front, m the missing edges,
    and every state's joint products to the same ORACLE_STEP_LIMIT.
    """
    _check_input(g, kind)
    if kind.directed:
        missing = [e for e in transitive_closure(g).edges() if not g.has_edge(*e)]
    else:
        missing = [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)]
    budget = _Budget(g.n**3 << len(missing))
    bit_of = {e: 1 << i for i, e in enumerate(missing)}
    full = (1 << len(missing)) - 1
    expect = [Fraction(0)] * (full + 1)
    for mask in range(full - 1, -1, -1):
        h = g.copy()
        for edge, bit in bit_of.items():
            if mask & bit:
                h.add_edge(*edge)
        expect[mask] = _state_value(
            h, kind, budget, lambda edges: expect[mask | sum(bit_of[e] for e in edges)]
        )
    return expect[0]


def _state_value(h, kind: ProcessKind, budget: _Budget, value) -> Fraction:
    # one back-substitution step: expected rounds from h, given value(edges)
    # of each state a round reaches
    dist, total = _round_distribution(h, kind, budget)
    # short of the target, some two-edge path has unjoined ends, so the
    # round can add an edge
    stay = dist.pop(frozenset(), 0)
    assert stay < total
    return (total + sum(w * value(edges) for edges, w in dist.items())) / (total - stay)


def _relabelings(n: int, edges):
    """Sorted edge tuple of each relabeling of the graph on nodes 0..n-1."""
    return (
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in itertools.permutations(range(n))
    )


def canonical_form(n: int, edges) -> tuple[int, tuple[Edge, ...]]:
    """Isomorphism-invariant form: the minimum sorted edge tuple over all
    node relabelings.  Brute force: charges its n! relabelings of m edges,
    max(1, m) * n! steps, up front: n = 8 takes at most 12 edges, n = 9 one,
    and n >= 10 is refused."""
    edges = list(edges)
    budget = _Budget(max(1, len(edges)))
    for k in range(2, n + 1):
        budget.charge(budget.spent * (k - 1))  # m * k! so far
    return (n, min(_relabelings(n, edges)))


@functools.cache
def _census(n: int) -> dict[tuple[Edge, ...], tuple[Edge, ...]]:
    """Every connected graph on nodes 0..n-1, as its sorted edge tuple,
    mapped to the edge tuple of its canonical form.  Built once per n and
    shared: callers must not change it."""
    pairs = list(itertools.combinations(range(n), 2))
    census: dict[tuple[Edge, ...], tuple[Edge, ...]] = {}
    for mask in range(1, 1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if edges in census or not UndirectedGraph(n, edges).is_connected():
            continue
        # one pass over the isomorphism class labels all its members
        orbit = set(_relabelings(n, edges))
        canon = min(orbit)
        census.update(dict.fromkeys(orbit, canon))
    return census


def _census_budget(max_n: int) -> _Budget:
    budget = _Budget(0)  # one step per census edge mask, one n at a time
    for n in range(2, max_n + 1):
        budget.charge(1 << n * (n - 1) // 2)
    return budget


def connected_graphs_upto(max_n: int):
    """All connected graphs with 2..max_n nodes, one per isomorphism class,
    as (n, edge_tuple) pairs in deterministic order.  Charges its
    2^(n(n-1)/2) edge masks per n up front, so max_n >= 7 is refused."""
    _census_budget(max_n)
    classes = {(n, canon) for n in range(2, max_n + 1) for canon in _census(n).values()}
    return sorted(classes, key=lambda c: (c[0], len(c[1]), c[1]))


@dataclass
class NonmonotonePair:
    """A graph and a spanning subgraph that converges strictly faster.

    ``h_edges`` is always a literal subset of ``g_edges``.
    """

    n: int
    g_edges: tuple[Edge, ...]
    h_edges: tuple[Edge, ...]
    g_expected: Fraction
    h_expected: Fraction


def nonmonotone_search(max_n: int, kind: ProcessKind) -> list[NonmonotonePair]:
    """All (G, H) pairs, H a connected proper spanning subgraph of G, where
    G's exact expected convergence time strictly exceeds H's.

    G ranges over canonical forms; each isomorphism class of H is reported
    once per G, through the first of its copies in G in subset order.

    The superset chain is lumpable by isomorphism class (Kemeny and Snell
    1960): each class is valued once, by one back-substitution step, in
    decreasing edge count.  Charges what ``connected_graphs_upto(max_n)``
    charges up front (refused exactly when it is), then n^3 per class.
    The census holds undirected graphs, so a directed kind is refused.
    """
    if kind.directed:
        raise ProcessGraphMismatchError(f"{kind.value} runs on digraphs; the census is undirected")
    budget = _census_budget(max_n)
    pairs: list[NonmonotonePair] = []
    for n in range(2, max_n + 1):
        census = _census(n)
        classes = sorted(set(census.values()), key=len, reverse=True)
        budget.charge(n**3 * len(classes))
        # K_n first: a round's outcomes have more edges, so they are valued
        expected = {classes[0]: Fraction(0)}
        for canon in classes[1:]:
            expected[canon] = _state_value(
                UndirectedGraph(n, canon), kind, budget,
                lambda edges: expected[census[tuple(sorted(canon + tuple(edges)))]],
            )
        for g_edges, e_g in expected.items():
            m = len(g_edges)
            witnesses: dict[tuple[Edge, ...], tuple[Edge, ...]] = {}
            for sub in range(1, (1 << m) - 1):
                h_edges = tuple(g_edges[i] for i in range(m) if sub >> i & 1)
                h_class = census.get(h_edges)
                if h_class is not None and e_g > expected[h_class]:
                    witnesses.setdefault(h_class, h_edges)
            pairs.extend(
                NonmonotonePair(n, g_edges, h_edges, e_g, expected[h_class])
                for h_class, h_edges in witnesses.items()
            )
    return sorted(pairs, key=lambda p: (p.n, len(p.g_edges), p.g_edges, p.h_edges))


def _graph_label(g) -> str:
    kind = "u" if isinstance(g, UndirectedGraph) else "d"
    edges = ";".join(f"{a}-{b}" for a, b in g.edges())
    return f"{kind}{g.n}:{edges}"


def empirical_vs_exact(g, kind: ProcessKind, trials: int, seed: int) -> dict:
    """Monte Carlo consistency report for an oracle-tractable graph.

    Runs the process ``trials`` times; compares the mean convergence time
    against the exact expectation (z-score) and the round-0 edge-set
    frequencies against the exact distribution (chi-square).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    exact = expected_rounds(g, kind)
    target = convergence_target(g, kind)
    step = round_function(kind)
    counts: Counter[frozenset[Edge]] = Counter()
    rounds_seen: list[int] = []
    for i in range(trials):
        gi = g.copy()
        rng = random.Random(trial_seed(seed, i))
        first: frozenset[Edge] = frozenset()
        rounds = 0
        while gi.edge_count < target:
            outcome = step(gi, rng, round_index=rounds)
            if rounds == 0:
                first = frozenset(outcome.edges_added)
            rounds += 1
        counts[first] += 1
        rounds_seen.append(rounds)

    chi_sq, p_value = _round0_chi_square(g, kind, counts, trials)
    mean = statistics.fmean(rounds_seen)
    sd = statistics.stdev(rounds_seen) if trials > 1 else 0.0
    se = sd / math.sqrt(trials)
    if se == 0:
        z = 0.0 if mean == float(exact) else math.inf
    else:
        z = (mean - float(exact)) / se
    return {
        "graph": _graph_label(g),
        "kind": kind.value,
        "trials": trials,
        "mean_rounds": mean,
        "exact_rounds": float(exact),
        "z": z,
        "chi_square": chi_sq,
        "p_value": p_value,
    }


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square law with integer ``df`` >= 1 at ``x``, in
    closed form (Abramowitz and Stegun 1964, 26.4.4-26.4.5).  With h = x/2:
    sum_{k < df/2} e^-h h^k / k! for even df, and for odd df erfc(sqrt h)
    + sum_{0 < k < df/2} e^-h h^(k-1/2) / Gamma(k + 1/2).  Each term is the
    exp of its logarithm, so that none underflows before the sum."""
    if x <= 0:
        return 1.0
    h, half = x / 2, df % 2 / 2  # the terms' powers of h are half + j
    log_h = math.log(h)
    tail = math.fsum(math.exp((half + j) * log_h - h - math.lgamma(half + j + 1)) for j in range(df // 2))
    # near x = 0 the rounded sum can exceed 1 by an ulp
    return min(1.0, tail + (math.erfc(math.sqrt(h)) if half else 0.0))


def _round0_chi_square(g, kind: ProcessKind, counts: Counter, trials: int) -> tuple[float, float]:
    """Pearson's chi-square of ``counts``, the edge sets the first round
    added in ``trials`` runs on ``g``, against ``single_round_distribution``,
    and its p-value from ``_chi2_sf``, the closed-form tail for integer
    degrees of freedom (Abramowitz and Stegun 26.4.4-26.4.5): 1 where the
    round has one outcome."""
    dist = single_round_distribution(g, kind)
    unexpected = set(counts) - set(dist)
    if unexpected:
        raise AssertionError(f"outcomes outside oracle support: {unexpected}")
    chi_sq = 0.0
    for edges, p in dist.items():
        expected_count = float(p) * trials
        chi_sq += (counts.get(edges, 0) - expected_count) ** 2 / expected_count
    df = len(dist) - 1
    return chi_sq, 1.0 if df == 0 else _chi2_sf(chi_sq, df)
