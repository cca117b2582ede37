"""Initial-graph constructors: standard families, seeded random connected
graphs, and the two directed lower-bound instances.

All generators are pure functions of ``(family, n, seed)`` and always
produce simple graphs; the undirected ones are connected by construction.
``generate`` dispatches on one table of families, which also names the
parameters each family takes.
"""

from __future__ import annotations

import random

from .graph import DirectedGraph, GraphError, UndirectedGraph
from .process import trial_seed

__all__ = [
    "FAMILIES",
    "FamilyConstraintError",
    "generate",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "random_connected_graph",
    "lollipop_graph",
    "directed_weak_lb",
    "directed_strong_lb",
]

class FamilyConstraintError(GraphError):
    """A family-specific constraint on the parameters was violated."""


def path_graph(n: int) -> UndirectedGraph:
    _check_n(n)
    return UndirectedGraph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> UndirectedGraph:
    if n < 3:
        raise FamilyConstraintError(f"cycle needs n >= 3, got {n}")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def star_graph(n: int) -> UndirectedGraph:
    """Star with center 0 and ``n - 1`` leaves."""
    _check_n(n)
    return UndirectedGraph(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> UndirectedGraph:
    _check_n(n)
    return UndirectedGraph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def random_connected_graph(n: int, p: float, seed: int) -> UndirectedGraph:
    """Uniform random spanning tree plus each non-tree pair with probability p.

    The tree comes from a uniform random Pruefer sequence, so the result
    is connected by construction and deterministic given the seed.  The
    draws come from a stream split off the seed, so a process run seeded
    with the same value draws independently of the graph.
    """
    _check_n(n)
    if p is None or not 0.0 <= p <= 1.0:
        raise FamilyConstraintError(f"random family needs p in [0, 1], got {p}")
    rng = random.Random(trial_seed(seed, 0))
    g = UndirectedGraph(n)
    # at n = 2 the sequence is empty and the last step adds (0, 1)
    pruefer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in pruefer:
        degree[x] += 1
    for x in pruefer:
        leaf = degree.index(1)
        g.add_edge(leaf, x)
        degree[leaf] -= 1
        degree[x] -= 1
    last = [x for x in range(n) if degree[x] == 1]
    g.add_edge(last[0], last[1])
    if p > 0.0:
        # the nodes are in range, so a row test stands for has_edge
        for u, present in enumerate(g._rows):
            for v in range(u + 1, n):
                if not present[v] and rng.random() < p:
                    g.add_edge(u, v)
    return g


def lollipop_graph(n: int, clique_frac: float = 0.5) -> UndirectedGraph:
    """Clique on ``round(clique_frac * n)`` nodes with a pendant path."""
    _check_n(n)
    if not 0.0 < clique_frac <= 1.0:
        raise FamilyConstraintError(
            f"lollipop needs clique_frac in (0, 1], got {clique_frac}"
        )
    k = min(n, max(2, round(clique_frac * n)))
    g = UndirectedGraph(n, ((u, v) for u in range(k) for v in range(u + 1, k)))
    for i in range(k - 1, n - 1):
        g.add_edge(i, i + 1)
    return g


def directed_weak_lb(n: int) -> DirectedGraph:
    """Weakly connected digraph on which the directed walk needs
    ``Omega(n^2 log n)`` rounds.

    Short chains ``3i -> 3i+1 -> 3i+2`` whose first two nodes also point
    at every hub ``j >= 3n/4``; the hubs have no outgoing edges.  The only
    closure edges missing are ``(3i, 3i+2)``.
    """
    if n < 4 or n % 4 != 0:
        raise FamilyConstraintError(f"dweak needs n divisible by 4, got {n}")
    g = DirectedGraph(n)
    for i in range(n // 4):
        g.add_edge(3 * i, 3 * i + 1)
        g.add_edge(3 * i + 1, 3 * i + 2)
        for j in range(3 * n // 4, n):
            g.add_edge(3 * i, j)
            g.add_edge(3 * i + 1, j)
    return g


def directed_strong_lb(n: int) -> DirectedGraph:
    """Strongly connected digraph on which the directed walk needs
    ``Omega(n^2)`` rounds.

    With 1-indexed nodes (stored 0-indexed): a clique on ``1..n/2``, the
    chain ``(i, i+1)`` for ``n/2 <= i < n``, and every backward edge
    ``(i, j)`` with ``i > j, i > n/2``.  Self-loops are excluded from the
    clique block, so node 1's out-degree is ``n/2 - 1``.
    """
    if n < 4 or n % 2 != 0:
        raise FamilyConstraintError(f"dstrong needs even n >= 4, got {n}")
    half = n // 2
    g = DirectedGraph(n)
    for i in range(1, half + 1):
        for j in range(1, half + 1):
            if i != j:
                g.add_edge(i - 1, j - 1)
    for i in range(half, n):
        g.add_edge(i - 1, i)
    for i in range(half + 1, n + 1):
        for j in range(1, i):
            g.add_edge(i - 1, j - 1)
    return g


# family -> (build(n, seed, **given params), the params it takes), in
# FAMILIES' order
_BUILDERS = {
    "path": (lambda n, seed: path_graph(n), ()),
    "cycle": (lambda n, seed: cycle_graph(n), ()),
    "star": (lambda n, seed: star_graph(n), ()),
    "complete": (lambda n, seed: complete_graph(n), ()),
    "random": (lambda n, seed, p=None: random_connected_graph(n, p, seed), ("p",)),
    "lollipop": (lambda n, seed, **params: lollipop_graph(n, **params), ("clique_frac",)),
    "dweak": (lambda n, seed: directed_weak_lb(n), ()),
    "dstrong": (lambda n, seed: directed_strong_lb(n), ()),
}

FAMILIES = tuple(_BUILDERS)


def generate(
    family: str,
    n: int,
    seed: int = 0,
    *,
    p: float | None = None,
    clique_frac: float | None = None,
) -> UndirectedGraph | DirectedGraph:
    """Build a graph of the named family; see FAMILIES for valid names.
    A parameter given (not None) that the family does not take is refused."""
    if family not in _BUILDERS:
        raise FamilyConstraintError(f"unknown family {family!r}; choose from {FAMILIES}")
    build, takes = _BUILDERS[family]
    params = {k: v for k, v in (("p", p), ("clique_frac", clique_frac)) if v is not None}
    extra = sorted(params.keys() - set(takes))
    if extra:
        raise FamilyConstraintError(f"{family} family takes no {', '.join(extra)}")
    return build(n, seed, **params)


def _check_n(n: int) -> None:
    if n < 2:
        raise FamilyConstraintError(f"need n >= 2, got {n}")
