"""Distribution gates for the tail engine behind ``run_to_convergence``.

The engine skips the rounds that add no edge, so it draws another random
stream than the reference kernels.  These tests hold it to the kernels'
law instead: its per-node bounds and proposals against the oracle's
per-node outcomes, its first non-empty round and skip length against the
exact single-round distribution on tiny graphs and against the per-node
outcomes on graphs with many candidates per round, its mean rounds against
``expected_rounds``, and its round counts against the kernels' at n = 64.
"""

import math
import random
import statistics
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2, ks_2samp, mannwhitneyu

from gossip_sim import process
from gossip_sim.generators import (
    complete_graph,
    cycle_graph,
    directed_strong_lb,
    directed_weak_lb,
    random_connected_graph,
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


def _closure(g, kind):
    return transitive_closure(g) if kind.directed else None


def _small_graphs(kind, count):
    rng = random.Random(trial_seed(61, kind is DHOP))
    for i in range(count):
        n = rng.randint(3, 7)
        if kind.directed:
            arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.3]
            yield DirectedGraph(n, arcs)
        else:
            yield random_connected_graph(n, 0.2, seed=trial_seed(62, i))


@pytest.mark.parametrize("kind", [TRI, HOP, DHOP])
def test_bounds_and_proposals_match_the_oracle_after_every_round(kind):
    """After every executed round: the walks mark as wanted exactly the
    nodes still missed, the common cap is at least each node's bound, the
    bound at least its exact rate, and its proposals follow the exact
    per-node law thinned by the bound: edge e with p[u][e] / bound,
    none with the rest.  The per-node chi-square statistics are pooled into
    one test per kind."""
    proposals = 200
    stat = dof = 0.0
    checked = []

    def check(tail, g):
        nonlocal stat, dof
        cap = tail.cap()
        if kind is not TRI:
            # the walk's cap reads in-degrees only of the nodes still missed
            missed = {w for targets in tail.miss for w in targets}
            assert [bool(x) for x in tail.wanted] == [w in missed for w in range(g.n)]
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
        tail = process._tail(g, kind, _closure(g, kind))
        rng = random.Random(trial_seed(63, i))
        while g.edge_count < target:
            edges = tail.draw(rng)[1]
            check(tail, g)
            checked.append(g.edge_count)
            for a, b in edges:
                tail.add(a, b)
        check(tail, g)
        assert g.edge_count == target
    assert len(checked) > 100
    assert chi2.sf(stat, dof) > MIN_P


def _static_cases():
    for n, edges in connected_graphs_upto(4):
        for kind in (TRI, HOP):
            yield f"{kind.value}-{n}-{edges}", UndirectedGraph(n, edges), kind
    yield "dweak4", directed_weak_lb(4), DHOP
    yield "dstrong4", directed_strong_lb(4), DHOP


STATIC = [case for case in _static_cases() if case[1].edge_count < convergence_target(*case[1:])]


@pytest.mark.parametrize("g, kind", [case[1:] for case in STATIC], ids=[case[0] for case in STATIC])
def test_first_nonempty_round_and_skip_match_the_oracle(g, kind):
    """On a static graph: the round the engine executes follows the exact
    single-round law conditioned on adding an edge, and the number of
    empty rounds skipped before it is geometric with mean P/(1 - P),
    P the exact probability of an empty round."""
    trials = 10_000
    dist = single_round_distribution(g, kind)
    empty = float(dist.pop(frozenset()))
    tail = process._tail(g, kind, _closure(g, kind))
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
    tail = process._tail(g, kind, _closure(g, kind))
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
    """Every connected graph with at most 5 nodes, and C6, run by the engine
    alone from round 0 (with the default ``TAIL_SHARE``,
    ``run_to_convergence`` leaves them to the kernels)."""
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


@pytest.mark.parametrize(
    "make, kind, trials",
    [
        (lambda: cycle_graph(64), TRI, 100),
        (lambda: cycle_graph(64), HOP, 100),
        (lambda: directed_weak_lb(64), DHOP, 100),
    ],
    ids=["cycle-tri", "cycle-twohop", "dweak-dtwohop"],
)
def test_round_counts_match_the_reference_kernels(make, kind, trials):
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
    # K30 minus one edge: about one round in 15 adds it
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
            skipped_past_cap += not executed
        else:
            assert rounds <= cap and g.is_complete() and executed == [rounds - 1]
    assert skipped_past_cap >= 5
