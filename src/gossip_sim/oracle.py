"""Exact ground truth for tiny instances.

Everything here works by exhaustive enumeration: the exact distribution
of edges added in a single round, expected convergence times via the
absorbing Markov chain over edge-supersets, and an exhaustive search for
graph/subgraph pairs where more initial edges mean slower convergence.

Arithmetic is exact (fractions) up to 4 nodes and floating point beyond.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graph import DirectedGraph, IsolatedNodeError, UndirectedGraph, transitive_closure
from .process import (
    ProcessKind,
    convergence_target,
    round_function,
    trial_seed,
)

__all__ = [
    "CHOICE_SPACE_LIMIT",
    "MISSING_EDGE_LIMIT",
    "OracleIntractableError",
    "StateSpace",
    "choice_space_size",
    "single_round_distribution",
    "expected_rounds",
    "NonmonotonePair",
    "nonmonotone_search",
    "canonical_form",
    "connected_graphs_upto",
    "empirical_vs_exact",
]

CHOICE_SPACE_LIMIT = 10**7
MISSING_EDGE_LIMIT = 20

Edge = tuple[int, int]


class OracleIntractableError(ValueError):
    """Instance too large for exhaustive analysis."""

    def __init__(self, message: str, size: int):
        super().__init__(f"{message} (size {size})")
        self.size = size


def choice_space_size(g, kind: ProcessKind) -> int:
    """Product over nodes of the raw per-node choice count.

    Triangulation: degree squared.  Two-hop: number of ordered two-hop
    walks; for the directed walk a first hop onto a node without
    out-neighbors counts as a single outcome.
    """
    size = 1
    if kind is ProcessKind.TRIANGULATION:
        for u in range(g.n):
            size *= max(1, g.degree(u) ** 2)
    else:
        for u in range(g.n):
            size *= max(1, sum(g.degree(v) or 1 for v in g.neighbors(u)))
    return size


def _node_outcomes(g, u: int, kind: ProcessKind, one):
    """Map from edge-or-None to the probability node u produces it."""
    outcomes: dict[Edge | None, object] = {}

    def put(edge: Edge | None, p) -> None:
        outcomes[edge] = outcomes.get(edge, 0) + p

    nbrs = g.neighbors(u)
    d = len(nbrs)
    if d == 0:
        # like the kernels: a sink skips its draw, an isolated node is an error
        if not kind.directed:
            raise IsolatedNodeError(u)
        put(None, one)
    elif kind is ProcessKind.TRIANGULATION:
        p = one / (d * d)
        for v in nbrs:
            for w in nbrs:
                if v == w or g.has_edge(v, w):
                    put(None, p)
                else:
                    put((min(v, w), max(v, w)), p)
    else:
        for v in nbrs:
            second = g.neighbors(v)
            if not second:
                put(None, one / d)
                continue
            p = one / (d * len(second))
            for w in second:
                if w == u or g.has_edge(u, w):
                    put(None, p)
                else:
                    put((u, w) if kind.directed or u < w else (w, u), p)
    return outcomes


def single_round_distribution(
    g, kind: ProcessKind, *, exact: bool | None = None
) -> dict[frozenset[Edge], object]:
    """Exact distribution of the set of edges one round adds.

    Enumerates all joint per-node choices under snapshot semantics; the
    probabilities sum to 1 (exactly with fractions, within 1e-12 with
    floats).  Refuses when the raw choice space exceeds
    CHOICE_SPACE_LIMIT.
    """
    size = choice_space_size(g, kind)
    if size > CHOICE_SPACE_LIMIT:
        raise OracleIntractableError("single-round choice space too large", size)
    if exact is None:
        exact = g.n <= 4
    one = Fraction(1) if exact else 1.0
    zero = one - one
    acc: dict[frozenset[Edge], object] = {frozenset(): one}
    for u in range(g.n):
        per_node = _node_outcomes(g, u, kind, one)
        nxt: dict[frozenset[Edge], object] = {}
        for edges, p in acc.items():
            for edge, q in per_node.items():
                key = edges if edge is None else edges | {edge}
                nxt[key] = nxt.get(key, zero) + p * q
        acc = nxt
    total = sum(acc.values())
    if exact:
        assert total == 1
    elif abs(total - 1.0) > 1e-12:
        raise AssertionError(f"probabilities sum to {total!r}")
    return acc


@dataclass
class StateSpace:
    """All edge-supersets of a base graph up to the convergence target.

    States are bitmasks over the missing-edge list; mask 0 is the base
    graph and the full mask is the absorbing target (complete graph for
    undirected kinds, transitive closure for the directed kind).
    """

    base: UndirectedGraph | DirectedGraph
    kind: ProcessKind
    missing: list[Edge]
    bit_of: dict[Edge, int]

    @classmethod
    def build(cls, g, kind: ProcessKind) -> StateSpace:
        if kind.directed:
            closure = transitive_closure(g)
            missing = [e for e in closure.edges() if not g.has_edge(*e)]
        else:
            missing = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
        if len(missing) > MISSING_EDGE_LIMIT:
            raise OracleIntractableError("too many missing edges", len(missing))
        bit_of = {e: i for i, e in enumerate(missing)}
        return cls(base=g.copy(), kind=kind, missing=missing, bit_of=bit_of)

    @property
    def num_states(self) -> int:
        return 1 << len(self.missing)

    def graph(self, mask: int):
        g = self.base.copy()
        for bit, edge in enumerate(self.missing):
            if mask >> bit & 1:
                g.add_edge(*edge)
        return g

    def edge_bits(self, edges) -> int:
        mask = 0
        for e in edges:
            mask |= 1 << self.bit_of[e]
        return mask


def expected_rounds(g, kind: ProcessKind, *, exact: bool | None = None):
    """Exact expected number of rounds to reach the convergence target.

    Solves the absorbing chain by back-substitution over the inclusion
    order (transitions never remove edges, so masks can be processed in
    decreasing integer order).  Exact fractions for n <= 4 by default.
    """
    space = StateSpace.build(g, kind)
    if exact is None:
        exact = g.n <= 4
    full = space.num_states - 1
    expect: list[object] = [None] * space.num_states
    expect[full] = Fraction(0) if exact else 0.0
    for mask in range(full - 1, -1, -1):
        dist = single_round_distribution(space.graph(mask), kind, exact=exact)
        stay = dist.get(frozenset(), Fraction(0) if exact else 0.0)
        if stay == 1:
            raise OracleIntractableError("absorbing state unreachable", mask)
        acc = 1 + sum(
            p * expect[mask | space.edge_bits(edges)]
            for edges, p in dist.items()
            if edges
        )
        expect[mask] = acc / (1 - stay)
    return expect[0]


def canonical_form(n: int, edges) -> tuple[int, tuple[Edge, ...]]:
    """Isomorphism-invariant form: the minimum sorted edge tuple over all
    node relabelings (brute force; meant for n <= 5)."""
    best: tuple[Edge, ...] | None = None
    edges = list(edges)
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    assert best is not None
    return (n, best)


def connected_graphs_upto(max_n: int):
    """All connected graphs with 2..max_n nodes, one per isomorphism class,
    as (n, edge_tuple) pairs in deterministic order."""
    result = []
    for n in range(2, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        seen: set[tuple[int, tuple[Edge, ...]]] = set()
        for mask in range(1, 1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            if not UndirectedGraph(n, edges).is_connected():
                continue
            canon = canonical_form(n, edges)
            if canon in seen:
                continue
            seen.add(canon)
            result.append(canon)
    result.sort(key=lambda c: (c[0], len(c[1]), c[1]))
    return result


@dataclass
class NonmonotonePair:
    """A graph and a spanning subgraph that converges strictly faster.

    ``h_edges`` is always a literal subset of ``g_edges``.
    """

    n: int
    g_edges: tuple[Edge, ...]
    h_edges: tuple[Edge, ...]
    g_expected: object
    h_expected: object


def nonmonotone_search(max_n: int, kind: ProcessKind) -> list[NonmonotonePair]:
    """All (G, H) pairs, H a connected proper spanning subgraph of G, where
    G's exact expected convergence time strictly exceeds H's.

    Graphs are enumerated up to isomorphism; pairs are deduplicated by
    the canonical forms of both members.
    """
    if max_n > 5:
        raise OracleIntractableError("nonmonotone search limited to n <= 5", max_n)
    expectations: dict[tuple[int, tuple[Edge, ...]], object] = {}

    def expected_of(n: int, edges: tuple[Edge, ...]):
        canon = canonical_form(n, edges)
        if canon not in expectations:
            expectations[canon] = expected_rounds(UndirectedGraph(n, canon[1]), kind)
        return expectations[canon]

    pairs: dict[tuple, NonmonotonePair] = {}
    for n, g_edges in connected_graphs_upto(max_n):
        e_g = expected_of(n, g_edges)
        m = len(g_edges)
        for sub in range(1, (1 << m) - 1):
            h_edges = tuple(g_edges[i] for i in range(m) if sub >> i & 1)
            if not UndirectedGraph(n, h_edges).is_connected():
                continue
            e_h = expected_of(n, h_edges)
            if e_g > e_h:
                key = (n, g_edges, canonical_form(n, h_edges)[1])
                if key not in pairs:
                    pairs[key] = NonmonotonePair(
                        n=n,
                        g_edges=g_edges,
                        h_edges=h_edges,
                        g_expected=e_g,
                        h_expected=e_h,
                    )
    return sorted(
        pairs.values(), key=lambda p: (p.n, len(p.g_edges), p.g_edges, p.h_edges)
    )


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
    from scipy.stats import chi2

    dist = single_round_distribution(g, kind)
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

    unexpected = set(counts) - set(dist)
    if unexpected:
        raise AssertionError(f"outcomes outside oracle support: {unexpected}")
    mean = statistics.fmean(rounds_seen)
    sd = statistics.stdev(rounds_seen) if trials > 1 else 0.0
    se = sd / math.sqrt(trials)
    if se == 0:
        z = 0.0 if mean == float(exact) else math.inf
    else:
        z = (mean - float(exact)) / se
    chi_sq = 0.0
    df = len(dist) - 1
    for edges, p in dist.items():
        expected_count = float(p) * trials
        observed = counts.get(edges, 0)
        chi_sq += (observed - expected_count) ** 2 / expected_count
    p_value = 1.0 if df == 0 else float(chi2.sf(chi_sq, df))
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
