"""The round kernels' random stream and outputs, pinned against reference
copies of the kernels as they were written with a separate queued-edge set
and one ``add_edge`` call per new edge.

The kernels define the processes' semantics, so a rewrite of them must
make the same draws, in the same order, and leave the same graph: the same
neighbor lists in the same order (later draws index them), the same edges
and membership answers, and the same edge count.  A kernel that raises
leaves the graph as it was.  The tail engines' draws must take the same
words as ``randrange`` and ``choice``.
"""

import random

import pytest

from gossip_sim import process
from gossip_sim.generators import FAMILIES, generate
from gossip_sim.graph import DirectedGraph, IsolatedNodeError, UndirectedGraph, transitive_closure
from gossip_sim.process import (
    DegreeDoublingViolation,
    ProcessConfig,
    ProcessKind,
    run_to_convergence,
    trial_seed,
    triangulation_round,
    twohop_round,
)


def _reference_triangulation_round(g, rng, round_index=0, draw_log=None):
    adj = g._adj
    gb = rng.getrandbits
    queued = []
    queued_set = set()
    for u in range(g.n):
        nbrs = adj[u]
        d = len(nbrs)
        if d == 0:
            raise IsolatedNodeError(u)
        if d == 1:
            v = w = nbrs[0]
        else:
            k = d.bit_length()
            r = gb(k)
            while r >= d:
                r = gb(k)
            v = nbrs[r]
            r = gb(k)
            while r >= d:
                r = gb(k)
            w = nbrs[r]
        if draw_log is not None:
            draw_log.append((u, v, w))
        if v == w:
            continue
        key = (v, w) if v < w else (w, v)
        if g.has_edge(*key) or key in queued_set:
            continue
        queued_set.add(key)
        queued.append(key)
    process._check_degree_doubling(g, queued)
    for a, b in queued:
        g.add_edge(a, b)
    return process.RoundOutcome(round_index, queued, g.edge_count)


def _reference_twohop_round(g, rng, round_index=0, draw_log=None):
    directed = isinstance(g, DirectedGraph)
    adj = g._adj
    gb = rng.getrandbits
    queued = []
    queued_set = set()
    for u in range(g.n):
        nbrs = adj[u]
        d = len(nbrs)
        if not d:
            if directed:
                continue
            raise IsolatedNodeError(u)
        if d > 1:
            k = d.bit_length()
            r = gb(k)
            while r >= d:
                r = gb(k)
            v = nbrs[r]
        else:
            v = nbrs[0]
        nbrs2 = adj[v]
        d2 = len(nbrs2)
        if not d2:
            continue
        if d2 > 1:
            k = d2.bit_length()
            r = gb(k)
            while r >= d2:
                r = gb(k)
            w = nbrs2[r]
        else:
            w = nbrs2[0]
        if draw_log is not None:
            draw_log.append((u, v, w))
        if w == u or g.has_edge(u, w):
            continue
        key = (u, w) if directed or u < w else (w, u)
        if key in queued_set:
            continue
        queued_set.add(key)
        queued.append(key)
    for a, b in queued:
        g.add_edge(a, b)
    return process.RoundOutcome(round_index, queued, g.edge_count)


def _state(g):
    nodes = range(g.n)
    return (
        [g.neighbors(u) for u in nodes],
        sorted(g.edges()),
        [[g.has_edge(u, v) for v in nodes] for u in nodes],
        g.edge_count,
    )


def _cases():
    # every family at n = 12: path, star and lollipop have degree-1 nodes,
    # dweak has sinks and first hops onto them
    for family in FAMILIES:
        params = {"p": 0.1} if family == "random" else {}
        if family in ("dweak", "dstrong"):
            kernels = [("dtwohop", twohop_round, _reference_twohop_round)]
        else:
            kernels = [
                ("tri", triangulation_round, _reference_triangulation_round),
                ("twohop", twohop_round, _reference_twohop_round),
            ]
        for name, kernel, reference in kernels:
            yield pytest.param(family, 12, params, kernel, reference, id=f"{family}-{name}")
    # above 256 nodes a graph keeps its neighbours in arrays, not lists
    for family, params in (("cycle", {}), ("random", {"p": 0.1})):
        yield pytest.param(family, 300, params, triangulation_round, _reference_triangulation_round,
                           id=f"{family}300-tri")
        yield pytest.param(family, 300, params, twohop_round, _reference_twohop_round,
                           id=f"{family}300-twohop")


@pytest.mark.parametrize("family, n, params, kernel, reference", list(_cases()))
def test_kernel_matches_the_reference_round_by_round(family, n, params, kernel, reference):
    for seed in (1, 2, 3):
        g = generate(family, n, seed, **params)
        h = g.copy()
        rng, ref_rng = random.Random(trial_seed(seed, 0)), random.Random(trial_seed(seed, 0))
        for r in range(5):
            log, ref_log = [], []
            outcome = kernel(g, rng, r, log)
            expected = reference(h, ref_rng, r, ref_log)
            assert log == ref_log
            assert outcome == expected
            assert _state(g) == _state(h)
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize(
    "family, n, kind, expected",
    [
        ("cycle", 64, "tri", [294, 277, 300]),
        ("path", 32, "tri", [120, 160, 152]),
        ("cycle", 32, "twohop", [114, 93, 102]),
        ("dstrong", 16, "dtwohop", [187, 239, 227]),
        ("dweak", 16, "dtwohop", [28, 107, 28]),
        # above 256 nodes the neighbours are arrays; the counts are the lists'
        ("cycle", 300, "tri", [1581, 2360, 1750]),
        ("cycle", 300, "twohop", [1493, 1622, 2067]),
        ("dweak", 300, "dtwohop", [27400, 28787, 33381]),
    ],
)
def test_rounds_to_convergence_are_pinned(family, n, kind, expected):
    rounds = []
    for i in range(3):
        config = ProcessConfig(kind=ProcessKind(kind), seed=trial_seed(1, i))
        rounds.append(run_to_convergence(generate(family, n), config)[0])
    assert rounds == expected


@pytest.mark.parametrize(
    "family, n, kind",
    [
        ("cycle", 32, "tri"),
        ("path", 24, "twohop"),
        ("dstrong", 12, "dtwohop"),
        ("dweak", 12, "dtwohop"),
        ("cycle", 300, "twohop"),
    ],
)
def test_membership_matches_the_lists_at_convergence(family, n, kind):
    # the kernels write the rows and lists a round at a time, the tail
    # engines an edge at a time; the run ends on the target graph
    g = generate(family, n)
    target = transitive_closure(g) if isinstance(g, DirectedGraph) else None
    rounds, capped = run_to_convergence(g, ProcessConfig(kind=ProcessKind(kind), seed=trial_seed(2, 0)))
    assert rounds > 0 and not capped
    if target is None:
        assert g.is_complete()
    else:
        assert sorted(g.edges()) == sorted(target.edges())
    for u in range(n):
        out = g.neighbors(u)
        assert len(out) == len(set(out))
        assert [v for v in range(n) if g.has_edge(u, v)] == sorted(out)


@pytest.mark.parametrize(
    "kernel, seed, queues",
    [
        # node 1 draws 0 and 2 and queues (0, 2)
        (triangulation_round, 4, (1, 0, 2)),
        # node 0 walks 0 -> 1 -> 2 and queues (0, 2)
        (twohop_round, 0, (0, 1, 2)),
    ],
)
def test_isolated_node_leaves_the_graph_as_it_was(kernel, seed, queues):
    g = UndirectedGraph(4, [(0, 1), (1, 2)])
    before = _state(g)
    log = []
    with pytest.raises(IsolatedNodeError) as err:
        kernel(g, random.Random(seed), draw_log=log)
    assert err.value.node == 3 and queues in log
    assert _state(g) == before


def test_degree_doubling_violation_leaves_the_graph_as_it_was(monkeypatch):
    def refuse(g, queued):
        assert queued
        raise DegreeDoublingViolation("refused")

    monkeypatch.setattr(process, "_check_degree_doubling", refuse)
    g = generate("cycle", 16)
    before = _state(g)
    with pytest.raises(DegreeDoublingViolation):
        triangulation_round(g, random.Random(0))
    assert _state(g) == before


@pytest.mark.parametrize("m", [1, 2, 3, 255, 256, 257, 65535, 2**31 + 1])
def test_engine_draw_is_randrange_and_choice(m):
    # the tail engines draw randrange(m) and choice(seq) by process._below,
    # the words of Random._randbelow_with_getrandbits; at m = 1 it draws
    # getrandbits(1) words until one is 0, where the kernels' d = 1 branch
    # draws none.  The next random() checks that no word more or less is used.
    seq = range(m)
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert process._below(rng.getrandbits, m) == ref.randrange(m)
        assert rng.random() == ref.random()
        assert seq[process._below(rng.getrandbits, len(seq))] == ref.choice(seq)
        assert rng.random() == ref.random()


def test_triangulation_engine_draws_a_missing_pair_by_randrange():
    # node 0 sees all four missing pairs, 2 * 4 < 11^2, so it proposes the
    # pair at randrange(4) of the engine's missing keys by its inlined draw
    missing = ((1, 2), (3, 5), (4, 9), (7, 11))
    g = UndirectedGraph(12, [(a, b) for b in range(12) for a in range(b) if (a, b) not in missing])
    tail = process._tail(g, ProcessKind.TRIANGULATION, None)
    pairs = {b * (b - 1) // 2 + a: (a, b) for a, b in missing}
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert tail.propose(0, rng) == pairs[tail.missing[ref.randrange(4)]]
        assert rng.random() == ref.random()
