"""Property suites over randomized inputs.

The five suites named by the acceptance criteria (graph bookkeeping,
four-hop reach bound, snapshot correctness, determinism, monotone
growth) run at 1000 examples each; the acceptance module calls them
again to report the criterion.  Settings are derandomized so the suite
is reproducible.
"""

import random

from hypothesis import given, settings, strategies as st

from gossip_sim.analysis import min_four_hop_reach
from gossip_sim.graph import DirectedGraph, UndirectedGraph, transitive_closure
from gossip_sim.process import (
    ProcessConfig,
    ProcessKind,
    round_function,
    run_to_convergence,
    triangulation_round,
    twohop_round,
)

BIG = settings(max_examples=1000, deadline=None, derandomize=True)
SMALL = settings(max_examples=200, deadline=None, derandomize=True)

UNDIRECTED_KINDS = st.sampled_from(
    [ProcessKind.TRIANGULATION, ProcessKind.TWOHOP_UNDIRECTED]
)


@st.composite
def connected_graphs(draw, max_n: int = 10):
    """Random spanning tree plus a random subset of the remaining pairs."""
    n = draw(st.integers(2, max_n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.append((order[i], order[rng.randrange(i)]))
    extra = draw(st.integers(0, n))
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
    ]
    rng.shuffle(pool)
    count = 0
    g = UndirectedGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
    for u, v in pool:
        if count >= extra:
            break
        if g.add_edge(u, v):
            count += 1
    return g


@st.composite
def digraphs(draw, max_n: int = 8):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return DirectedGraph(n, (p for i, p in enumerate(pairs) if mask >> i & 1))


@BIG
@given(connected_graphs(), st.integers(0, 2**32), st.integers(1, 4))
def graph_bookkeeping_suite(g, seed, rounds):
    """Symmetry, counters, and reachability survive process rounds."""
    rng = random.Random(seed)
    for _ in range(rounds):
        triangulation_round(g, rng)
    for u in range(g.n):
        for v in g.neighbors(u):
            assert g.has_edge(v, u)
    scan = sum(1 for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v))
    assert g.edge_count == scan
    assert g.missing_count == g.n * (g.n - 1) // 2 - scan
    u = seed % g.n
    assert g.reachable_from(u) == set(range(g.n))


@BIG
@given(connected_graphs(), UNDIRECTED_KINDS, st.integers(0, 2**32), st.integers(0, 3))
def four_hop_reach_suite(g, kind, seed, rounds):
    """Within four hops every node sees min(2 * min_degree, n - 1) others,
    and ``min_four_hop_reach`` counts them as a distance table does."""
    rng = random.Random(seed)
    step = round_function(kind)
    for _ in range(rounds):
        step(g, rng)
    reach = min_four_hop_reach(g)
    assert reach >= min(2 * g.min_degree(), g.n - 1)
    # Floyd-Warshall distances, counted by brute force
    inf = g.n
    dist = [[0 if u == v else 1 if g.has_edge(u, v) else inf for v in range(g.n)] for u in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    assert reach == min(sum(0 < d <= 4 for d in row) for row in dist)


@BIG
@given(connected_graphs(), UNDIRECTED_KINDS, st.integers(0, 2**32))
def snapshot_suite(g, kind, seed):
    """Every draw in a round reads the start-of-round adjacency."""
    before = [set(g.neighbors(u)) for u in range(g.n)]
    log: list[tuple[int, int, int]] = []
    rng = random.Random(seed)
    if kind is ProcessKind.TRIANGULATION:
        outcome = triangulation_round(g, rng, draw_log=log)
        for u, v, w in log:
            assert v in before[u] and w in before[u]
    else:
        outcome = twohop_round(g, rng, draw_log=log)
        for u, v, w in log:
            assert v in before[u] and w in before[v]
    assert len(log) == g.n
    for a, b in outcome.edges_added:
        assert b not in before[a]


@BIG
@given(connected_graphs(max_n=8), UNDIRECTED_KINDS, st.integers(0, 2**64 - 1))
def determinism_suite(g, kind, seed):
    """Identical (graph, seed, kind) yields an identical edge history."""

    class Recorder:
        def __init__(self):
            self.history = []

        def begin_round(self, graph, index, missing):
            pass

        def end_round(self, outcome):
            self.history.append(tuple(outcome.edges_added))

    results = []
    for _ in range(2):
        trial = g.copy()
        rec = Recorder()
        config = ProcessConfig(kind=kind, seed=seed, max_rounds=5000)
        rounds, capped = run_to_convergence(trial, config, trace_sink=rec)
        assert not capped
        results.append((rounds, rec.history, sorted(trial.edges())))
    assert results[0] == results[1]


@BIG
@given(connected_graphs(), UNDIRECTED_KINDS, st.integers(0, 2**32), st.integers(1, 6))
def monotone_growth_suite(g, kind, seed, rounds):
    """Edge sets only grow; the degree sequence never shrinks."""
    rng = random.Random(seed)
    step = round_function(kind)
    for _ in range(rounds):
        edges_before = set(g.edges())
        degrees_before = [g.degree(u) for u in range(g.n)]
        step(g, rng)
        assert edges_before <= set(g.edges())
        assert all(g.degree(u) >= d for u, d in enumerate(degrees_before))


CRITERION_SUITES = [
    graph_bookkeeping_suite,
    four_hop_reach_suite,
    snapshot_suite,
    determinism_suite,
    monotone_growth_suite,
]


def test_graph_bookkeeping_properties():
    graph_bookkeeping_suite()


def test_four_hop_reach_property():
    four_hop_reach_suite()


def test_snapshot_property():
    snapshot_suite()


def test_determinism_property():
    determinism_suite()


def test_monotone_growth_property():
    monotone_growth_suite()


@SMALL
@given(digraphs())
def test_transitive_closure_is_idempotent(g):
    once = transitive_closure(g)
    assert set(transitive_closure(once).edges()) == set(once.edges())


@SMALL
@given(connected_graphs())
def test_edge_list_round_trip(g):
    from gossip_sim.graph import format_edge_list, parse_edge_list

    text = format_edge_list(g)
    assert format_edge_list(parse_edge_list(text)) == text


@SMALL
@given(digraphs(), st.integers(0, 2**32), st.integers(1, 5))
def test_directed_rounds_stay_within_closure(g, seed, rounds):
    from gossip_sim.process import directed_twohop_round

    closure = transitive_closure(g)
    rng = random.Random(seed)
    for index in range(rounds):
        outcome = directed_twohop_round(g, rng, index)
        for a, b in outcome.edges_added:
            assert closure.has_edge(a, b)
