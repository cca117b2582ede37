"""Distribution gates for the tail engine behind ``run_to_convergence``.

The engine skips the rounds that add no edge, so it draws another random
stream than the reference kernels.  These tests hold it to the kernels'
law instead: its per-node bounds and proposals against the oracle's
per-node outcomes, its first non-empty round and skip length against the
exact single-round distribution on tiny graphs and against the per-node
outcomes on graphs with many candidates per round, its mean rounds against
``expected_rounds``, and its round counts against the kernels' at n = 16
to 64.
"""

import math
import random
import statistics
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2, ks_2samp, mannwhitneyu

from gossip_sim import graph, process
from gossip_sim.generators import (
    complete_graph,
    cycle_graph,
    directed_strong_lb,
    directed_weak_lb,
    path_graph,
    random_connected_graph,
    star_graph,
)
from gossip_sim.graph import DirectedGraph, UndirectedGraph, transitive_closure
from gossip_sim.oracle import (
    _node_outcomes,
    connected_graphs_upto,
    expected_rounds,
    single_round_distribution,
)
from gossip_sim.process import (
    ProcessConfig,
    ProcessKind,
    convergence_target,
    round_function,
    run_to_convergence,
    trial_seed,
)

TRI = ProcessKind.TRIANGULATION
HOP = ProcessKind.TWOHOP_UNDIRECTED
DHOP = ProcessKind.TWOHOP_DIRECTED
MIN_P = 1e-3
Z_MAX = 4.0


def _reach(g, kind):
    return graph._reach(g) if kind.directed else None


def _small_graphs(kind, count):
    rng = random.Random(trial_seed(61, kind is DHOP))
    for i in range(count):
        n = rng.randint(3, 7)
        if kind.directed:
            arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.3]
            yield DirectedGraph(n, arcs)
        else:
            yield random_connected_graph(n, 0.2, seed=trial_seed(62, i))


def _assert_counts_match_a_recount(tail, g, kind):
    """Every count the engine keeps in ``add`` equals its value recounted
    from the graph: degrees, their buckets and extremes, the missing edges
    (the undirected lists may still hold pairs or nodes joined since), and
    on a digraph the out- and in-neighbour and missing-arc bitsets, the
    bitsets of the nodes missing each node and the two-hop path totals."""
    deg = [len(out) for out in g._adj]
    assert tail.deg == deg
    assert tail.count == [deg.count(d) for d in range(g.n)]
    assert (tail.low, tail.high) == (min(filter(None, deg)), max(deg))
    out = [set(a) for a in g._adj]
    if kind is TRI:
        # every missing pair a < b is in missing as key b*n + a, once; pairs
        # joined since the engine was built may stay until a draw finds them
        absent = {b * g.n + a for a in range(g.n) for b in range(a + 1, g.n) if b not in out[a]}
        assert len(set(tail.missing)) == len(tail.missing)
        assert absent <= set(tail.missing)
    elif kind is HOP:
        # every node u misses is in miss[u], once; nodes u has joined since
        # the engine was built may stay until a draw finds them
        for u in range(g.n):
            assert len(set(tail.miss[u])) == len(tail.miss[u])
            assert set(range(g.n)) - out[u] - {u} <= set(tail.miss[u])
    else:
        reach = [set(a) for a in transitive_closure(g)._adj]
        for u in range(g.n):
            miss = reach[u] - out[u]
            assert tail.out[u] == sum(1 << v for v in out[u])
            assert tail.miss[u] == sum(1 << w for w in miss)
            assert tail.inn[u] == sum(1 << x for x in range(g.n) if u in out[x])
            assert tail.missers[u] == sum(1 << x for x in range(g.n) if u in reach[x] - out[x])
            assert tail.C[u] == sum(len(out[v] & miss) for v in out[u])


def _fits(values, typecode):
    return values <= 2 ** (8 * array(typecode).itemsize)


def test_index_positions_fit_their_typecodes():
    """cycle(400) misses 79 400 pairs, more than a 2-byte index reaches;
    every key up to MAX_NODES fits the arrays' typecodes."""
    g = cycle_graph(400)
    tail = process._TriTail(g)
    assert len(tail.missing) == 400 * 399 // 2 - 400 > 2**16 - 1
    assert _fits(graph.MAX_NODES**2, tail.missing.typecode)
    hop = process._HopTail(cycle_graph(300))
    assert _fits(graph.MAX_NODES, hop.miss[0].typecode)


def _build_peak(g, kind):
    """Peak bytes traced while the engine for ``kind`` is built on ``g``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        process._tail(g, kind, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "kind, bound",
    [(TRI, lambda n: 4 * (n * (n - 1) // 2)), (HOP, lambda n: 2 * n * n)],
    ids=["tri", "twohop"],
)
def test_index_memory_at_construction(kind, bound):
    # peak bytes while the engine is built on cycle(300): tri keeps the
    # 4-byte keys of the missing pairs alone, less than 4 bytes per pair of
    # the graph; twohop keeps per node its 2-byte missing nodes alone; 96 KiB
    # covers the degree counts, array headers (300 of them for twohop) and
    # append slack.  A tuple list and a dict peaked at 8.0 MiB here, lists
    # and dicts per node at 4.1 MiB, a 2-byte position per node beside the
    # lists at 417 KiB, and a 4-byte position per missing pair beside the
    # keys, with bitsets of them, at 393 KiB
    n = 300
    assert _build_peak(cycle_graph(n), kind) <= bound(n) + 96 * 2**10


@pytest.mark.parametrize(
    "kind, bound",
    [
        (TRI, lambda g: 4 * g.missing_count),
        (HOP, lambda g: 4 * g.missing_count + 128 * g.n),
    ],
    ids=["tri", "twohop"],
)
def test_index_memory_at_handover(kind, bound):
    # peak bytes while the engine is built where run_to_convergence builds
    # it on cycle(512), with about 8% of the pairs missing.  tri keeps the
    # 4-byte keys of the missing pairs alone; 4-byte positions of them beside
    # bitsets took 160 KiB here, and a position for every pair of the graph
    # 2n^2 bytes, 512 KiB.  twohop keeps each missing edge's 2-byte id at both
    # ends, and an array header and append slack per node; a 2-byte
    # position per node beside the lists took 2n^2 bytes more, 668 KiB in
    # all.  64 KiB covers the degree counts
    n = 512
    g = cycle_graph(n)
    rng = random.Random(trial_seed(69, 0))
    step = round_function(kind)
    while len(step(g, rng).edges_added) >= process.TAIL_SHARE * n:
        pass
    assert _build_peak(g, kind) <= bound(g) + 64 * 2**10


@pytest.mark.parametrize("kind", [TRI, HOP, DHOP])
def test_bounds_and_proposals_match_the_oracle_after_every_round(kind):
    """After every executed round, the kernel's where the engine's draw
    refuses: the engine's counts equal a recount
    from the graph, the common cap is at least each node's bound, the
    bound at least its exact rate, and its proposals follow the exact
    per-node law thinned by the bound: edge e with p[u][e] / bound,
    none with the rest.  The per-node chi-square statistics are pooled into
    one test per kind.  Under triangulation some rounds are checked while
    ``missing`` still holds pairs joined since, so that the proposals that
    draw past them are held to the law too."""
    proposals = 200
    stat = dof = 0.0
    checked = []
    stale = 0

    def check(tail, g):
        nonlocal stat, dof, stale
        cap = tail.cap()
        stale += kind is TRI and len(tail.missing) > g.missing_count
        _assert_counts_match_a_recount(tail, g, kind)
        rng = random.Random(trial_seed(68, len(checked)))
        for u in range(g.n):
            weights, total = _node_outcomes(g, u, kind)
            exact = {e: float(Fraction(w, total)) for e, w in weights.items() if e is not None}
            rate = sum(exact.values())
            bound = tail.bound(u)
            assert cap >= bound >= rate * (1 - 1e-12)
            if bound == 0:
                continue
            counts = Counter(tail.propose(u, rng) for _ in range(proposals))
            expect = {e: proposals * p / bound for e, p in exact.items()}
            expect[None] = proposals * (1 - rate / bound)
            assert set(counts) <= set(expect)
            for e, x in expect.items():
                if x > 1e-9:
                    stat += (counts[e] - x) ** 2 / x
                    dof += 1
                else:
                    assert counts[e] == 0
            dof -= 1

    for i, g in enumerate(_small_graphs(kind, 40)):
        target = convergence_target(g, kind)
        tail = process._tail(g, kind, _reach(g, kind))
        rng = random.Random(trial_seed(63, i))
        while g.edge_count < target:
            drawn = tail.draw(rng)
            check(tail, g)
            checked.append(g.edge_count)
            if drawn is None:  # the cap reaches 1: a kernel round
                edges = round_function(kind)(g, rng).edges_added
            else:
                edges = drawn[1]
                for a, b in edges:
                    g._link(a, b)
            for a, b in edges:
                tail.add(a, b)
        check(tail, g)
        assert g.edge_count == target
    assert len(checked) > 100
    assert stale > 0 or kind is not TRI
    assert chi2.sf(stat, dof) > MIN_P


@pytest.mark.parametrize(
    "g, kind, nodes",
    [
        (DirectedGraph(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 0)]), DHOP, (0, 2)),
        (path_graph(5), TRI, (1, 2, 3)),
    ],
    ids=["dtwohop", "tri"],
)
def test_draw_refuses_where_the_cap_reaches_one(g, kind, nodes):
    """On the digraph, nodes 0 and 2 have at least d_u * low two-hop paths
    into their missing arcs; on path(5), the inner nodes have d_u = 2 and
    2M = 12 >= d_u^2.  So the cap is at least 1, every (round, node) slot
    is a candidate and no round can be skipped: ``draw`` returns None
    without taking a word from the stream, and ``run_to_convergence`` runs
    the round by the kernel."""
    tail = process._tail(g, kind, _reach(g, kind))
    assert all(tail.bound(u) >= 1 for u in nodes) and tail.cap() >= 1
    rng, ref = random.Random(trial_seed(72, 0)), random.Random(trial_seed(72, 0))
    assert tail.draw(rng) is None
    assert rng.random() == ref.random()


def _static_cases():
    for n, edges in connected_graphs_upto(5):
        for kind in (TRI, HOP):
            yield f"{kind.value}-{n}-{edges}", UndirectedGraph(n, edges), kind
    for name, g in (
        ("dweak4", directed_weak_lb(4)),
        ("dweak8", directed_weak_lb(8)),
        ("dstrong4", directed_strong_lb(4)),
        ("dstrong6", directed_strong_lb(6)),
    ):
        yield name, g, DHOP


STATIC = [case for case in _static_cases() if case[1].edge_count < convergence_target(*case[1:])]


@pytest.mark.parametrize("g, kind", [case[1:] for case in STATIC], ids=[case[0] for case in STATIC])
def test_first_nonempty_round_and_skip_match_the_oracle(g, kind):
    """On a static graph whose cap is below 1: the round the engine
    executes follows the exact single-round law conditioned on adding an
    edge, and the number of empty rounds skipped before it is geometric
    with mean P/(1 - P), P the exact probability of an empty round.  Where
    the cap reaches 1 (46 of the 56 cases), ``draw`` refuses."""
    trials = 10_000
    tail = process._tail(g, kind, _reach(g, kind))
    if tail.cap() >= 1:
        assert tail.draw(random.Random(0)) is None
        return
    dist = single_round_distribution(g, kind)
    empty = float(dist.pop(frozenset()))
    rng = random.Random(trial_seed(64, g.n * 100 + g.edge_count))
    counts: Counter = Counter()
    skips = []
    for _ in range(trials):
        skip, edges = tail.draw(rng)
        counts[frozenset(edges)] += 1
        skips.append(skip)
    assert set(counts) <= set(dist)
    if len(dist) > 1:
        stat = sum(
            (counts[e] - trials * float(p) / (1 - empty)) ** 2 / (trials * float(p) / (1 - empty))
            for e, p in dist.items()
        )
        assert chi2.sf(stat, len(dist) - 1) > MIN_P
    mean_skip = empty / (1 - empty)
    sd_skip = math.sqrt(empty) / (1 - empty)
    if sd_skip == 0:
        assert set(skips) == {0}
    else:
        z = (statistics.fmean(skips) - mean_skip) / (sd_skip / math.sqrt(trials))
        assert abs(z) <= Z_MAX


def _dense_with_low_nodes():
    # K40 less a Hamiltonian cycle and three pairs at each of three nodes:
    # uneven bounds, a few candidates per round, and rounds without one
    # often enough to show their conditioning in the skip
    rng = random.Random(trial_seed(69, 0))
    cut = {(i, i + 1) for i in range(39)} | {(0, 39)}
    cut |= {(a, b) for b in range(37, 40) for a in rng.sample(range(1, 36), 3)}
    return UndirectedGraph(40, [e for e in complete_graph(40).edges() if e not in cut])


def _dense_digraph():
    # the complete digraph on 40 nodes less a directed Hamiltonian cycle and
    # three arcs out of each of three nodes: strongly connected, so the
    # closure is complete, and n * cap = 5.0 candidates per round
    rng = random.Random(trial_seed(71, 0))
    cut = {(i, (i + 1) % 40) for i in range(40)}
    cut |= {(a, b) for a in range(37, 40) for b in rng.sample(range(36), 3)}
    arcs = [(a, b) for a in range(40) for b in range(40) if a != b and (a, b) not in cut]
    return DirectedGraph(40, arcs)


@pytest.mark.parametrize(
    "make, kind",
    [
        (_dense_with_low_nodes, TRI),
        (_dense_with_low_nodes, HOP),
        (_dense_digraph, DHOP),
    ],
    ids=["dense40-tri", "dense40-twohop", "dense40-dtwohop"],
)
def test_node_shares_and_skip_match_the_oracle_with_many_candidates(make, kind):
    """On a static graph where a round holds several candidates but not
    every slot is one (3 < n * cap < n): each node adds an edge in the
    first non-empty round with p_u / (1 - P), and the mean skip is
    P / (1 - P), P the product of (1 - p_x) over all nodes."""
    trials = 6000
    g = make()
    tail = process._tail(g, kind, _reach(g, kind))
    assert 3 < g.n * tail.cap() < g.n
    p = [float(1 - Fraction(w.get(None, 0), total))
         for w, total in (_node_outcomes(g, u, kind) for u in range(g.n))]
    empty = math.prod(1 - x for x in p)
    adders = []
    propose = tail.propose

    def spy(u, rng):
        e = propose(u, rng)
        if e is not None:
            adders[-1].add(u)
        return e

    tail.propose = spy
    rng = random.Random(trial_seed(70, g.n))
    skips = []
    for _ in range(trials):
        adders.append(set())
        skips.append(tail.draw(rng)[0])
    counts = Counter(u for nodes in adders for u in nodes)
    for u, x in enumerate(p):
        share = x / (1 - empty)
        if share == 0:
            assert counts[u] == 0
            continue
        z = (counts[u] - trials * share) / math.sqrt(trials * share * (1 - share))
        assert abs(z) <= Z_MAX, (u, counts[u], trials * share)
    mean_skip = empty / (1 - empty)
    sd_skip = math.sqrt(empty) / (1 - empty)
    z = (statistics.fmean(skips) - mean_skip) / (sd_skip / math.sqrt(trials))
    assert abs(z) <= Z_MAX


@pytest.mark.parametrize("kind", [TRI, HOP])
def test_mean_rounds_match_expected_rounds(kind, monkeypatch):
    """Every connected graph with at most 5 nodes, and C6, run with
    ``TAIL_SHARE`` = 1: the kernel runs round 0 and the engine every later
    round, unless round 0 adds n edges.  (With the default ``TAIL_SHARE``
    these graphs, under 16 nodes, enter the engine at their first empty
    round.)"""
    monkeypatch.setattr(process, "TAIL_SHARE", 1)
    trials = 500
    worst = 0.0
    graphs = connected_graphs_upto(5) + [(6, tuple(cycle_graph(6).edges()))]
    for j, (n, edges) in enumerate(graphs):
        g = UndirectedGraph(n, edges)
        exact = float(expected_rounds(g, kind))
        target = convergence_target(g, kind)
        rounds = []
        for i in range(trials):
            h = g.copy()
            rounds.append(run_to_convergence(h, ProcessConfig(kind, trial_seed(65 + j, i)))[0])
            assert h.edge_count == target
        sd = statistics.stdev(rounds)
        if sd == 0:
            assert rounds[0] == exact
            continue
        z = (statistics.fmean(rounds) - exact) / (sd / math.sqrt(trials))
        worst = max(worst, abs(z))
    assert worst <= Z_MAX


def test_directed_mean_rounds_match_expected_rounds(monkeypatch):
    """dstrong(4), dstrong(6), dweak(8) and dweak(12) under the directed
    walk, run with ``TAIL_SHARE`` = 1 as above: the kernel runs round 0 and
    the engine every later round, and the mean rounds of 500 runs each
    match ``expected_rounds`` (7.0714, 24.0050, 13.2353 and 28.9068)."""
    monkeypatch.setattr(process, "TAIL_SHARE", 1)
    trials = 500
    worst = 0.0
    cases = [directed_strong_lb(4), directed_strong_lb(6), directed_weak_lb(8), directed_weak_lb(12)]
    for j, g in enumerate(cases):
        exact = float(expected_rounds(g, DHOP))
        target = convergence_target(g, DHOP)
        rounds = []
        for i in range(trials):
            h = g.copy()
            rounds.append(run_to_convergence(h, ProcessConfig(DHOP, trial_seed(73 + j, i)))[0])
            assert h.edge_count == target
        z = (statistics.fmean(rounds) - exact) / (statistics.stdev(rounds) / math.sqrt(trials))
        worst = max(worst, abs(z))
    assert worst <= Z_MAX


@pytest.mark.parametrize(
    "make, kind, trials",
    [
        (lambda: cycle_graph(64), TRI, 100),
        (lambda: cycle_graph(64), HOP, 100),
        (lambda: directed_weak_lb(64), DHOP, 100),
        (lambda: directed_strong_lb(16), DHOP, 100),
        (lambda: star_graph(32), TRI, 100),
        (lambda: star_graph(32), HOP, 100),
    ],
    ids=["cycle-tri", "cycle-twohop", "dweak-dtwohop", "dstrong-dtwohop", "star-tri", "star-twohop"],
)
def test_round_counts_match_the_reference_kernels(make, kind, trials):
    # under tri the star hands over after round 0, which adds one edge at
    # most, and its cap stays above 1 until nearly the end: kernel rounds
    # run inside the engine's phase
    g0 = make()
    target = convergence_target(g0, kind)
    step = round_function(kind)
    reference = []
    for i in range(trials):
        g = g0.copy()
        rng = random.Random(trial_seed(66, i))
        rounds = 0
        while g.edge_count < target:
            step(g, rng, round_index=rounds)
            rounds += 1
        reference.append(rounds)
    engine = [
        run_to_convergence(g0.copy(), ProcessConfig(kind=kind, seed=trial_seed(67, i)))[0]
        for i in range(trials)
    ]
    assert ks_2samp(reference, engine).pvalue > MIN_P
    assert mannwhitneyu(reference, engine).pvalue > MIN_P


def test_cap_inside_a_skip_reports_the_cap():
    # K30 minus one edge: about one round in 15 adds it; the kernel runs
    # round 0, and when that round adds nothing the engine takes over
    cap = 5
    skipped_past_cap = 0
    executed = []

    class Sink:
        def begin_round(self, graph, index, missing):
            executed.append(index)

        def end_round(self, outcome):
            pass

    for seed in range(20):
        g = UndirectedGraph(30, [e for e in complete_graph(30).edges() if e != (0, 1)])
        executed.clear()
        config = ProcessConfig(kind=TRI, seed=seed, max_rounds=cap)
        rounds, capped = run_to_convergence(g, config, Sink())
        if capped:
            assert rounds == cap and not g.is_complete()
            skipped_past_cap += executed == [0]
        else:
            assert rounds <= cap and g.is_complete() and executed == sorted({0, rounds - 1})
    assert skipped_past_cap >= 5
