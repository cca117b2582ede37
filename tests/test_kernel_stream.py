"""The round kernels' random stream and outputs, pinned against reference
copies of the kernels as they were written with a separate queued-edge set
and one ``add_edge`` call per new edge.

The kernels define the processes' semantics, so a rewrite of them must
make the same draws, in the same order, and leave the same graph: the same
neighbour arrays in the same order (later draws index them), the same edges
and membership answers, and the same edge count.  A kernel that raises
leaves the graph as it was.  The tail engines' draws must take the same
words as ``randrange`` and ``choice``.  The compiled rounds that
``run_to_convergence`` runs in the kernels' place are held to the same
pins, and to the kernels at the hand-over.
"""

import random
import tracemalloc

import pytest

from gossip_sim import process
from gossip_sim.analysis import TraceCollector
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
    # and at a few hundred nodes
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


compiled_only = pytest.mark.skipif(process._compiled is None, reason="the compiled kernel is not built")


class _Counted:
    """The compiled rounds, counting the calls made to them."""

    def __init__(self, compiled):
        self.compiled, self.calls = compiled, 0

    def rounds(self, *args):
        self.calls += 1
        return self.compiled.rounds(*args)


@pytest.fixture(params=["compiled", "reference"])
def kernels(request, monkeypatch):
    """``run_to_convergence`` on the compiled rounds, checked to be called,
    or on the Python kernels alone, as where the extension cannot be built:
    the counter of compiled calls, or None."""
    if request.param == "reference":
        monkeypatch.setattr(process, "_compiled", None)
        yield None
        return
    if process._compiled is None:
        pytest.skip("the compiled kernel is not built")
    counted = _Counted(process._compiled)
    monkeypatch.setattr(process, "_compiled", counted)
    yield counted
    assert counted.calls > 0


PINNED_ROUNDS = [
    ("cycle", 64, "tri", [288, 385, 280]),
    ("path", 32, "tri", [105, 148, 115]),
    ("cycle", 32, "twohop", [114, 93, 102]),
    ("dstrong", 16, "dtwohop", [187, 239, 227]),
    ("dweak", 16, "dtwohop", [28, 107, 28]),
    # a few hundred nodes, whose runs take thousands of rounds
    ("cycle", 300, "tri", [1947, 1796, 1643]),
    ("cycle", 300, "twohop", [1493, 1622, 2067]),
    ("dweak", 300, "dtwohop", [27400, 28787, 33381]),
    # the star under tri runs kernel rounds after the hand-over, until
    # the engine's cap falls below 1
    ("star", 64, "tri", [379, 389, 435]),
]


@pytest.mark.parametrize("family, n, kind, expected", PINNED_ROUNDS)
def test_rounds_to_convergence_are_pinned(kernels, family, n, kind, expected):
    rounds = []
    for i in range(3):
        config = ProcessConfig(kind=ProcessKind(kind), seed=trial_seed(1, i))
        rounds.append(run_to_convergence(generate(family, n), config)[0])
    assert rounds == expected
    if kernels is not None:
        # a run is one compiled call: an undirected run whole, a directed
        # run up to the hand-over
        assert kernels.calls == 3


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
def test_membership_matches_the_lists_at_convergence(kernels, family, n, kind):
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


def _kernel_phase(g, kind, seed, max_rounds, compiled):
    """Kernel rounds on g from seed up to run_to_convergence's hand-over,
    the first round adding fewer than TAIL_SHARE * n edges, or to the
    target or max_rounds: by the compiled rounds in one call, or by the
    kernels a round at a time.  Returns the rounds and the generator's
    state; the neighbour orders hold the last round's edges."""
    rng = random.Random(seed)
    target = process.convergence_target(g, kind)
    if compiled:
        tri = kind is ProcessKind.TRIANGULATION
        rounds = process._compiled.rounds(g, rng, tri, kind.directed, max_rounds, process.TAIL_SHARE, target)
    else:
        rounds, added = 0, g.n
        while g.edge_count < target and added >= process.TAIL_SHARE * g.n and rounds < max_rounds:
            added = len(process.round_function(kind)(g, rng).edges_added)
            rounds += 1
    return rounds, rng.getstate()


@compiled_only
@pytest.mark.parametrize(
    "family, n, kind, max_rounds",
    [
        ("dstrong", 32, "dtwohop", 10**7),
        ("dweak", 64, "dtwohop", 10**7),
        # an undirected call runs on in the engine after the hand-over;
        # capped in the middle of the kernel phase, it stops where they do
        ("cycle", 64, "tri", 40),
        ("cycle", 300, "twohop", 60),
    ],
)
def test_compiled_rounds_hand_over_as_the_kernels_do(family, n, kind, max_rounds):
    for seed in (trial_seed(1, 0), trial_seed(1, 1)):
        g, h = generate(family, n), generate(family, n)
        compiled = _kernel_phase(g, ProcessKind(kind), seed, max_rounds, compiled=True)
        expected = _kernel_phase(h, ProcessKind(kind), seed, max_rounds, compiled=False)
        assert compiled == expected
        assert [list(out) for out in g._adj] == [list(out) for out in h._adj]
        assert g._rows == h._rows and g.edge_count == h.edge_count
    if max_rounds < 10**7:
        assert compiled[0] == max_rounds


def _both_paths(monkeypatch, make, kind, seed, max_rounds=10**7):
    """``run_to_convergence`` on a graph from ``make`` compiled, in one
    call, and on the Python kernels and engines, checked to leave the same
    neighbour orders, rows and edge count: both results, and the Python
    path's graph."""
    runs, counted = [], _Counted(process._compiled)
    for compiled in (counted, None):
        monkeypatch.setattr(process, "_compiled", compiled)
        g = make()
        config = ProcessConfig(kind=ProcessKind(kind), seed=seed, max_rounds=max_rounds)
        runs.append((run_to_convergence(g, config), g))
    monkeypatch.setattr(process, "_compiled", counted.compiled)
    (result, g), (expected, h) = runs
    assert counted.calls == 1
    assert [list(out) for out in g._adj] == [list(out) for out in h._adj]
    assert g._rows == h._rows and g.edge_count == h.edge_count
    return result, expected, h


def _k_less_one(n):
    return lambda: UndirectedGraph(n, [(a, b) for b in range(n) for a in range(b) if (a, b) != (0, 1)])


@compiled_only
@pytest.mark.parametrize("kind", ["tri", "twohop"])
@pytest.mark.parametrize(
    "make, max_rounds",
    [
        (lambda: generate("cycle", 64), 10**7),
        (lambda: generate("cycle", 300), 10**7),
        (lambda: generate("path", 32), 10**7),
        # under tri, kernel rounds run inside the engine's phase
        (lambda: generate("star", 64), 10**7),
        (lambda: generate("random", 64, 5, p=0.1), 10**7),
        # one missing pair: the engines draw from lists of one entry
        (_k_less_one(8), 10**7),
        # capped inside the kernel phase
        (lambda: generate("cycle", 64), 40),
    ],
    ids=["cycle64", "cycle300", "path32", "star64", "random64", "K8-less-one", "cycle64-cap40"],
)
def test_compiled_runs_match_the_python_runs(monkeypatch, make, max_rounds, kind):
    # the same rounds, neighbour orders, rows and edge count on both paths
    for seed in (trial_seed(1, 0), trial_seed(1, 1)):
        result, expected, _ = _both_paths(monkeypatch, make, kind, seed, max_rounds)
        assert result == expected and expected[1] == (max_rounds < 10**7)


@compiled_only
@pytest.mark.parametrize("share", [process.TAIL_SHARE, 1])
@pytest.mark.parametrize(
    "make",
    [
        lambda: generate("dstrong", 32),
        lambda: generate("dweak", 64),
        # 137-157 compiled kernel rounds before the hand-over
        lambda: DirectedGraph(64, [(i, (i + 1) % 64) for i in range(64)]),
        # test_tail's digraph whose engine's cap reaches 1 at the hand-over
        lambda: DirectedGraph(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 0)]),
    ],
    ids=["dstrong32", "dweak64", "dcycle64", "digraph5"],
)
def test_compiled_directed_runs_match_the_python_runs(monkeypatch, make, share):
    # the kernel rounds to the hand-over in one call, and after it the
    # Python engine, with a Python kernel round where its cap reaches 1
    monkeypatch.setattr(process, "TAIL_SHARE", share)
    for seed in (trial_seed(1, 0), trial_seed(1, 1)):
        result, expected, _ = _both_paths(monkeypatch, make, "dtwohop", seed)
        assert result == expected and not expected[1]


@compiled_only
def test_compiled_runs_match_the_python_runs_capped_inside_a_skip(monkeypatch):
    # K30 less one edge, as test_tail's test_cap_inside_a_skip_reports_the_cap:
    # a skip past the cap draws its round and does not apply it
    capped = 0
    for seed in range(20):
        result, expected, _ = _both_paths(monkeypatch, _k_less_one(30), "tri", seed, 5)
        assert result == expected
        capped += expected[1]
    assert capped >= 5


@compiled_only
@pytest.mark.parametrize("max_rounds", [60, 200])
def test_compiled_runs_match_the_python_runs_capped_on_a_kernel_round_in_the_engine(monkeypatch, max_rounds):
    # star(64)/tri hands over after round 0, which adds one edge at most,
    # and its engine's cap stays at 1 or above until near the end: the
    # capping round is a kernel round run after the hand-over
    for seed in (trial_seed(1, 0), trial_seed(1, 1)):
        result, expected, h = _both_paths(monkeypatch, lambda: generate("star", 64), "tri", seed, max_rounds)
        assert result == expected == (max_rounds, True)
        assert process._tail(h, ProcessKind.TRIANGULATION, None).cap() >= 1


@compiled_only
def test_compiled_rounds_refuse_a_state_they_cannot_read():
    # getstate()'s layout is CPython's (version 3, 624 words and an index);
    # another is refused before a draw, leaving the generator and the graph
    class Other(random.Random):
        def getstate(self):
            return (2, (), None)

    rng, g = Other(1), generate("cycle", 16)
    words, before = random.Random.getstate(rng), _state(g)
    with pytest.raises(ValueError):
        process._compiled.rounds(g, rng, True, False, 5, process.TAIL_SHARE, 120)
    assert random.Random.getstate(rng) == words and _state(g) == before


@compiled_only
def test_compiled_rounds_refuse_triangulation_on_a_digraph():
    # no process runs tri on a digraph: its rounds would set both row bytes
    # of a pair and append one end only, so the call is refused before the
    # graph is read
    g = DirectedGraph(16, [(i, (i + step) % 16) for i in range(16) for step in (1, 2)])
    before = _state(g)
    with pytest.raises(ValueError, match="triangulation on a digraph"):
        process._compiled.rounds(g, random.Random(1), True, True, 3, 0.0, 240)
    assert _state(g) == before


@compiled_only
@pytest.mark.parametrize(
    "trace_sink, replaced",
    [(None, None), (TraceCollector(), None), (None, "triangulation_round"), (None, "_check_degree_doubling")],
)
def test_the_compiled_rounds_run_only_where_nothing_observes_a_kernel(monkeypatch, trace_sink, replaced):
    counted = _Counted(process._compiled)
    monkeypatch.setattr(process, "_compiled", counted)
    if replaced is not None:
        original = getattr(process, replaced)
        monkeypatch.setattr(process, replaced, lambda *args, **kwargs: original(*args, **kwargs))
    run_to_convergence(generate("cycle", 32), ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=1), trace_sink)
    assert (counted.calls > 0) == (trace_sink is None and replaced is None)


@compiled_only
@pytest.mark.parametrize("n", [64, 300])
@pytest.mark.parametrize("kind", ["tri", "twohop"])
def test_a_compiled_call_that_raises_leaves_the_arrays_holding_their_neighbours(kind, n):
    # an edge count one short of the rows: the engine runs out of missing
    # edges at the complete graph and raises, after rounds whose appends
    # wrote into slots reserved in the arrays; the rounds run stay applied
    g = generate("cycle", n)
    g.edge_count -= 1
    with pytest.raises(ValueError, match="disagree"):
        run_to_convergence(g, ProcessConfig(kind=ProcessKind(kind), seed=1))
    assert g.edge_count == n * (n - 1) // 2 - 1
    for u, row in enumerate(g._rows):
        assert sorted(g._adj[u]) == [v for v in range(n) if row[v]]


@compiled_only
@pytest.mark.parametrize("tri", [True, False])
def test_a_compiled_call_appends_no_node_past_n_minus_1_neighbours(tri):
    # K8 whose rows miss one pair its arrays hold: the kernel rounds queue
    # the pair, and its first append finds node 2 at 7 neighbours already
    g = generate("complete", 8)
    g._rows[2][5] = g._rows[5][2] = 0
    with pytest.raises(ValueError, match="disagree"):
        # no hand-over and a target past the complete graph: kernel rounds
        # until one queues the pair
        process._compiled.rounds(g, random.Random(1), tri, False, 1000, 0.0, 29)
    assert g.edge_count == 28
    for u, row in enumerate(g._rows):
        assert sorted(g._adj[u]) == [v for v in range(8) if row[v]] == [v for v in range(8) if v != u]


@compiled_only
def test_a_compiled_call_holds_at_most_the_complete_graphs_arrays():
    # an array that runs out of room is replaced by one of n - 1 slots, so
    # a call that stops after 3 rounds holds 2 (n - 1) bytes for each node
    # that gained, at most the complete graph's 2 n (n - 1), beyond the
    # call's own state, which a call on a graph that gains nothing holds
    n = 1024

    def held(g, rounds):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        directed = isinstance(g, DirectedGraph)
        assert process._compiled.rounds(
            g, random.Random(1), not directed, directed, 3, process.TAIL_SHARE, n * (n - 1) // 2
        ) == rounds
        return tracemalloc.get_traced_memory()[1] - before

    # traced from construction, so that the arrays replaced count as freed
    tracemalloc.start()
    try:
        state = held(DirectedGraph(n), 1)
        g = generate("cycle", n)
        grown = held(g, 3)
    finally:
        tracemalloc.stop()
    gained = sum(len(out) > 2 for out in g._adj)
    assert grown - state <= 2 * (n - 1) * gained <= 2 * n * (n - 1)


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
    # node 0 sees all four missing pairs, so it proposes the pair at
    # randrange(4) of the engine's missing keys, b * n + a, drawn by _below
    missing = ((1, 2), (3, 5), (4, 9), (7, 11))
    g = UndirectedGraph(12, [(a, b) for b in range(12) for a in range(b) if (a, b) not in missing])
    tail = process._tail(g, ProcessKind.TRIANGULATION, None)
    pairs = {b * 12 + a: (a, b) for a, b in missing}
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert tail.propose(0, rng) == pairs[tail.missing[ref.randrange(4)]]
        assert rng.random() == ref.random()
