"""Round-synchronous discovery processes on dynamic graphs.

Three processes are implemented:

* triangulation -- every node draws two independent uniform neighbors
  (with replacement) and connects them;
* two-hop walk -- every node takes a uniform two-hop walk and connects
  itself to the endpoint;
* directed two-hop walk -- the same walk on a digraph, adding a directed
  edge to the destination.

The two walks share one kernel, ``twohop_round``; ``directed_twohop_round``
names it for the directed process.

All draws in a round are made against the start-of-round snapshot: the
neighbour sequences, which sampling reads, take the round's edges after every
node has taken its turn, while each queued edge sets its bytes in the
adjacency rows at once, so that the rows are the round's queue.  A kernel
that raises leaves the graph as it found it.  Tests pin the kernels' draws
and seeded outputs against a reference copy that queues in a separate set
and adds each edge by ``add_edge``.  Each trial consumes one deterministic
random stream; draws are consumed in ascending node order, two per node
per round, and a skipped draw (a node or first-hop target with no
out-neighbors) consumes nothing.

The kernels define the semantics.  ``run_to_convergence`` runs them until
a round adds fewer than ``TAIL_SHARE`` * n edges, then hands the run to a
tail engine that skips the rounds adding no edge exactly: it caps every
node's rate by one bound from counts kept up to date edge by edge (degree
extremes, and on a digraph each node's total two-hop paths into its
missing arcs), jumps by geometric gaps from one candidate (round, node)
slot to the next, and keeps each candidate's one proposed edge with the
probability that makes the kernels' law exact.  It draws only while its
cap is below 1: where every slot would be a candidate, the round is the
kernel's.  Its round counts have the kernels' distribution, from another
random stream.  The undirected engines list the edges missing at the
hand-over and keep one joined since until a draw finds it.  The engines
draw the words ``randrange`` and ``choice`` would draw, by ``getrandbits``
alone, and only count the edges of a round: ``run_to_convergence`` writes
them, an engine round's by the graph's ``_link``.

The seam: ``run_to_convergence`` runs the kernel rounds compiled, by
``_kernel.c`` (built and loaded by ``_native``), where the package could
build it and nothing observes or replaces a kernel: no ``trace_sink`` is
given, and ``round_function(kind)`` and ``_check_degree_doubling`` are this
module's own.  A run makes one call, which returns the rounds it ran: an
undirected run whole, its engine too, or a directed run up to the
hand-over, where the Python engine takes it on.  Either way the draws
and the graph are the Python kernels' and engines'.  Tracers, spies and
substitute kernels see the Python kernels and engines run.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from enum import Enum

from ._native import kernel as _compiled
from .graph import (  # transitive_closure stays a module attribute for tracers to wrap
    DirectedGraph,
    GraphError,
    IsolatedNodeError,
    UndirectedGraph,
    _reach,
    transitive_closure,
)

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "TAIL_SHARE",
    "ProcessKind",
    "ProcessConfig",
    "RoundOutcome",
    "DisconnectedGraphError",
    "ProcessGraphMismatchError",
    "DegreeDoublingViolation",
    "triangulation_round",
    "twohop_round",
    "directed_twohop_round",
    "round_function",
    "run_to_convergence",
    "convergence_target",
    "check_graph_type",
    "mix64",
    "trial_seed",
]

DEFAULT_MAX_ROUNDS = 10**7
# run_to_convergence hands a run to the tail engine once a kernel round
# adds fewer than TAIL_SHARE * n edges; chosen by measurement, patched by tests
TAIL_SHARE = 1 / 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit mixing."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)

def trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial seed: element ``trial_index`` of the SplitMix64 stream.

    Sweeps derive independent trial streams from one master seed with
    this function, and the random family splits its generator stream off
    its seed with it; nothing else in the package draws randomness.
    """
    return mix64((master_seed + (trial_index + 1) * _GOLDEN) & _MASK64)


class ProcessKind(Enum):
    TRIANGULATION = "tri"
    TWOHOP_UNDIRECTED = "twohop"
    TWOHOP_DIRECTED = "dtwohop"

    @property
    def directed(self) -> bool:
        return self is ProcessKind.TWOHOP_DIRECTED


class DisconnectedGraphError(GraphError):
    """Undirected process started on a disconnected graph."""


class ProcessGraphMismatchError(GraphError):
    """Process kind does not match the graph type (directed vs undirected)."""


class DegreeDoublingViolation(RuntimeError):
    """A triangulation round more than doubled some node's degree.

    Structurally impossible (each neighbor queues at most one edge), so
    raising means a bookkeeping bug; the check runs on every round.
    """


@dataclass(frozen=True)
class ProcessConfig:
    """Which process to run, its seed, and the round cap."""

    kind: ProcessKind
    seed: int
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass
class RoundOutcome:
    """Edges queued and applied by one round."""

    round_index: int
    edges_added: list[tuple[int, int]]
    new_edge_count: int


def triangulation_round(
    g: UndirectedGraph,
    rng: random.Random,
    round_index: int = 0,
    draw_log: list[tuple[int, int, int]] | None = None,
) -> RoundOutcome:
    """One push-discovery round: each node connects two random neighbors.

    For each node u in ascending order, two independent uniform draws v, w
    from u's start-of-round neighbors; if v != w and {v, w} is neither
    present in the snapshot nor already queued, it is queued.  Queued
    edges are applied after every node has drawn.
    """
    adj = g._adj
    rows = g._rows
    gb = rng.getrandbits
    queued: list[tuple[int, int]] = []
    try:
        for u, nbrs in enumerate(adj):
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
            # the rows hold the snapshot's edges and the queued ones
            if v == w or rows[v][w]:
                continue
            rows[v][w] = rows[w][v] = 1
            queued.append((v, w) if v < w else (w, v))
        _check_degree_doubling(g, queued)
    except BaseException:
        _unqueue(g, queued, directed=False)
        raise
    _apply(g, queued, directed=False)
    return RoundOutcome(round_index, queued, g.edge_count)


def _check_degree_doubling(g: UndirectedGraph, queued: list[tuple[int, int]]) -> None:
    gains: dict[int, int] = {}
    for a, b in queued:
        gains[a] = gains.get(a, 0) + 1
        gains[b] = gains.get(b, 0) + 1
    for x, gain in gains.items():
        if gain > len(g._adj[x]):
            raise DegreeDoublingViolation(
                f"node {x} would gain {gain} edges at degree {len(g._adj[x])}"
            )


def _apply(g, queued: list[tuple[int, int]], directed: bool) -> None:
    """Append a round's queued edges, already in the rows, to the neighbour
    sequences."""
    adj = g._adj
    for a, b in queued:
        adj[a].append(b)
        if not directed:
            adj[b].append(a)
    g.edge_count += len(queued)


def _unqueue(g, queued: list[tuple[int, int]], directed: bool) -> None:
    """Take a round's queued edges back out of the rows."""
    rows = g._rows
    for a, b in queued:
        rows[a][b] = 0
        if not directed:
            rows[b][a] = 0


def twohop_round(
    g: UndirectedGraph | DirectedGraph,
    rng: random.Random,
    round_index: int = 0,
    draw_log: list[tuple[int, int, int]] | None = None,
) -> RoundOutcome:
    """One pull-discovery round: each node walks two hops and connects there.

    For each node u in ascending order, v is uniform on u's snapshot
    (out-)neighbors and w uniform on v's; if w != u and the edge from u to
    w is neither present nor queued, it is queued.  On a digraph the edge
    is ``(u, w)``, and a node without out-neighbors, or a first hop onto
    one, skips its turn without consuming randomness; on an undirected
    graph a node without neighbors raises ``IsolatedNodeError``.
    """
    directed = isinstance(g, DirectedGraph)
    adj = g._adj
    rows = g._rows
    gb = rng.getrandbits
    queued: list[tuple[int, int]] = []
    try:
        for u, nbrs in enumerate(adj):
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
            # the rows hold the snapshot's edges and the queued ones, an
            # undirected edge both ways, so this tests {u, w} too
            if w == u or rows[u][w]:
                continue
            rows[u][w] = 1
            if directed:
                queued.append((u, w))
            else:
                rows[w][u] = 1
                queued.append((u, w) if u < w else (w, u))
    except BaseException:
        _unqueue(g, queued, directed)
        raise
    _apply(g, queued, directed)
    return RoundOutcome(round_index, queued, g.edge_count)


# its own module attribute, so that the directed kernel can be replaced alone
directed_twohop_round = twohop_round


def round_function(kind: ProcessKind):
    # built per call, so that each kernel is looked up by name when it runs
    return {
        ProcessKind.TRIANGULATION: triangulation_round,
        ProcessKind.TWOHOP_UNDIRECTED: twohop_round,
        ProcessKind.TWOHOP_DIRECTED: directed_twohop_round,
    }[kind]


# what the compiled rounds stand in for: the kernels and the check as defined here
_OWN = {kind: round_function(kind) for kind in ProcessKind}
_OWN_CHECK = _check_degree_doubling


def convergence_target(g: UndirectedGraph | DirectedGraph, kind: ProcessKind) -> int:
    """Edge count at which the process stops.

    Undirected processes stop at the complete graph; the directed walk
    stops at the transitive closure of the initial graph (the closure is
    invariant under the process, so it is computed once up front).  Refuses
    what ``run_to_convergence`` refuses: a graph of the wrong type, or a
    disconnected undirected one.
    """
    return _target(g, kind)[0]


def _target(g, kind: ProcessKind) -> tuple[int, list[int] | None]:
    """``convergence_target``, and ``graph._reach(g)`` for the directed walk or None."""
    _check_input(g, kind)
    if kind.directed:
        reach = _reach(g)
        return sum(map(int.bit_count, reach)), reach
    return g.n * (g.n - 1) // 2, None


def _check_input(g, kind: ProcessKind) -> None:
    # what every run refuses: the wrong graph type, or a disconnected
    # undirected graph, whose complete target it could never reach
    check_graph_type(g, kind)
    if not kind.directed and not g.is_connected():
        raise DisconnectedGraphError("undirected input must be connected")


def check_graph_type(g, kind: ProcessKind) -> None:
    """Raise ProcessGraphMismatchError unless ``g`` is directed exactly when
    the process is."""
    if not isinstance(g, DirectedGraph if kind.directed else UndirectedGraph):
        need = "a directed" if kind.directed else "an undirected"
        raise ProcessGraphMismatchError(f"{kind.value} needs {need} graph")


def run_to_convergence(
    g: UndirectedGraph | DirectedGraph,
    config: ProcessConfig,
    trace_sink=None,
) -> tuple[int, bool]:
    """Run rounds until converged or ``config.max_rounds`` is hit.

    Returns ``(rounds, capped)``.  The run is fully deterministic given
    the initial graph and ``config.seed``.  Rounds that the tail engine
    skips count in ``rounds``.  When ``trace_sink`` is given, its
    ``begin_round(graph, index, missing)`` hook is called while the graph
    is still in its start-of-round state and ``end_round(outcome)`` after
    the round's edges are applied, for executed rounds only.
    """
    # the reachability is computed once and handed to the tail
    target, reach = _target(g, config.kind)
    rng = random.Random(config.seed)
    step = round_function(config.kind)
    # the compiled rounds run where nothing observes or replaces a kernel
    compiled = (
        _compiled is not None
        and trace_sink is None
        and step is _OWN[config.kind]
        and _check_degree_doubling is _OWN_CHECK
    )
    rounds, tail, added = 0, None, g.n
    if compiled and g.edge_count < target:
        # one call: an undirected run whole, a directed one up to the hand-over
        tri, directed = config.kind is ProcessKind.TRIANGULATION, config.kind.directed
        rounds = _compiled.rounds(g, rng, tri, directed, config.max_rounds, TAIL_SHARE, target)
        if not directed or rounds == config.max_rounds:
            return rounds, g.edge_count < target
        added = 0  # at the target, or the engine is due
    while g.edge_count < target:
        if tail is None and added < TAIL_SHARE * g.n:
            tail = _tail(g, config.kind, reach)
        drawn = None if tail is None else tail.draw(rng)  # None: a kernel round
        if drawn is not None:
            rounds += drawn[0]
        if rounds >= config.max_rounds:
            return config.max_rounds, True
        if trace_sink is not None:
            trace_sink.begin_round(g, rounds, target - g.edge_count)
        if drawn is None:
            outcome = step(g, rng, round_index=rounds)
            edges = outcome.edges_added
            added = len(edges)
        else:
            edges = drawn[1]
            for a, b in edges:
                g._link(a, b)
            outcome = None if trace_sink is None else RoundOutcome(rounds, edges, g.edge_count)
        if tail is not None:
            for a, b in edges:
                tail.add(a, b)
        if trace_sink is not None:
            trace_sink.end_round(outcome)
        rounds += 1
    return rounds, False


def _tail(g, kind: ProcessKind, reach: list[int] | None) -> _Tail:
    """The tail engine for ``kind`` on ``g``; ``reach`` is ``graph._reach(g)``
    for the directed walk and None for the undirected kinds."""
    if kind is ProcessKind.TRIANGULATION:
        return _TriTail(g)
    return _HopTail(g) if reach is None else _DirTail(g, reach)


def _below(gb, m: int) -> int:
    """``randrange(m)`` of the generator whose ``getrandbits`` is ``gb``: the
    words ``Random._randbelow_with_getrandbits`` draws, without its layers."""
    k = m.bit_length()
    r = gb(k)
    while r >= m:
        r = gb(k)
    return r


def _transpose(rows: list[int]) -> list[int]:
    """The columns of a square matrix of integer bitsets: bit u of column w
    is bit w of row u."""
    cols = [0] * len(rows)
    for u, m in enumerate(rows):
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= 1 << u
            m ^= low
    return cols


class _Tail:
    """Exact skip-ahead over the rounds that add no edge, by thinning (Lewis
    and Shedler 1979) in discrete time.

    While the graph is static, node u adds missing edge e in a round with
    the kernels' probability p[u][e], independently of the other nodes.
    Each draw takes one common cap Q, ``cap``, at least every node's bound
    q_u (``bound``).  Every (round, node) slot is a candidate with
    probability Q, so the draw jumps from one candidate to the next by
    geometric gaps (Devroye 1986, ch. 10) at a cost of O(1 + n Q) steps
    per round.  A candidate is kept with probability q_u / Q and then
    proposes e with probability p[u][e] / q_u (``propose``), so it adds e
    with p[u][e].  Where Q reaches 1 no slot can be skipped, and ``draw``
    returns None for the kernel to run the round.  No rate is kept between
    draws; ``add`` is told of each edge once a round has written it into
    the graph, and keeps the counts the bounds read in step with it, each
    in O(1) or a few bitset operations: ``deg`` the (out-)degrees, ``low``
    the least positive one and ``high`` the largest, from the number of
    nodes at each degree.
    """

    def __init__(self, g) -> None:
        self.g, self.deg = g, [len(out) for out in g._adj]
        self.count = [0] * g.n
        for d in self.deg:
            self.count[d] += 1
        self.low, self.high = min(filter(None, self.deg)), max(self.deg)

    def _grow(self, x: int) -> None:
        # x had an out-neighbour already: a node without one misses nothing
        d, count = self.deg[x], self.count
        self.deg[x] = d + 1
        count[d] -= 1
        count[d + 1] += 1
        if d == self.low and not count[d]:
            self.low = d + 1
        if d == self.high:
            self.high = d + 1

    def add(self, a: int, b: int) -> None:
        # missing {a, b} has joined the graph; the undirected engines' add as it is
        self._grow(a)
        self._grow(b)

    def draw(self, rng: random.Random) -> tuple[int, list[tuple[int, int]]] | None:
        """Number of empty rounds before the next round that adds an edge,
        and the edges that round adds, in order, or None, drawing nothing,
        where the cap reaches 1; the graph is not changed."""
        n, cap = self.g.n, self.cap()
        if cap >= 1.0:
            return None
        log_stay = math.log1p(-cap)
        bound, propose, uniform, log = self.bound, self.propose, rng.random, math.log
        # Slots run over (round, node) in order, each a candidate with
        # probability cap; ``end`` closes the round of the latest candidate.
        # A jump past it skips the rounds without one and lands on the next
        # round's first candidate, conditioned on the round having one.
        slot, end, edges = -1, 0, []
        while True:
            slot += 1 + int(log(1.0 - uniform()) / log_stay)
            if slot >= end:
                if edges:
                    return end // n - 1, edges if len(edges) == 1 else list(dict.fromkeys(edges))
                end = slot - slot % n + n
            u = slot % n
            if uniform() * cap < bound(u):
                e = propose(u, rng)
                if e is not None:
                    edges.append(e)


class _TriTail(_Tail):
    """Triangulation: u adds each of the M missing pairs inside N(u) with
    probability 2/d_u^2, so its rate is at most 2M/d_u^2.  ``missing`` holds
    the pairs a < b missing when the engine was built as 4-byte keys b n + a;
    a pair joined since stays until a draw finds it there and takes it out."""

    def __init__(self, g: UndirectedGraph) -> None:
        super().__init__(g)
        self.missing = missing = array("I")
        for a, row in enumerate(g._rows):
            b = row.find(0, a + 1)  # a row's missing pairs by C-level search
            while b >= 0:
                missing.append(b * g.n + a)
                b = row.find(0, b + 1)

    def cap(self) -> float:
        return 2 * self.g.missing_count / (self.low * self.low)

    def bound(self, u: int) -> float:
        d = self.deg[u]
        return 2 * self.g.missing_count / (d * d)

    def propose(self, u: int, rng: random.Random) -> tuple[int, int] | None:
        # a missing pair inside N(u) comes out with 2/d^2 over the bound:
        # 1/M over 2M/d^2, the first of the draws that is still missing
        missing, rows, gb, n = self.missing, self.g._rows, rng.getrandbits, self.g.n
        i = _below(gb, len(missing))
        b, a = divmod(missing[i], n)
        while rows[a][b]:  # joined since: the last key takes its slot
            missing[i] = missing[-1]
            del missing[-1]
            i = _below(gb, len(missing))
            b, a = divmod(missing[i], n)
        row = rows[u]
        return (a, b) if row[a] and row[b] else None

    def draw(self, rng: random.Random) -> tuple[int, list[tuple[int, int]]] | None:
        drawn = super().draw(rng)
        if drawn is not None:
            _check_degree_doubling(self.g, drawn[1])
        return drawn


class _HopTail(_Tail):
    """Undirected two-hop walk: u adds missing {u, w} with probability
    sum(1/(d_u d_v)) over v in N(u) & N(w), at most high / (d_u low), so its
    rate is at most (n - 1 - d_u) high / (d_u low).  ``miss[u]``, a 2-byte
    array as node ids are, lists the nodes u missed when the engine was
    built, ascending; a node u has joined since stays in it until a draw
    finds it there and takes it out."""

    def __init__(self, g: UndirectedGraph) -> None:
        super().__init__(g)
        self.miss = []
        for u, row in enumerate(g._rows):
            targets = array("H")
            w = row.find(0)  # a row's missing nodes by C-level search
            while w >= 0:
                if w != u:
                    targets.append(w)
                w = row.find(0, w + 1)
            self.miss.append(targets)

    def cap(self) -> float:
        # d_u >= low
        low = self.low
        return (self.g.n - 1 - low) * self.high / (low * low)

    def bound(self, u: int) -> float:
        d = self.deg[u]
        return (self.g.n - 1 - d) * self.high / (d * self.low)

    def propose(self, u: int, rng: random.Random) -> tuple[int, int] | None:
        # w comes out with sum(1/(d_u d_v)) over the bound: w, the first of
        # miss[u]'s draws that u misses, v uniform in N(w) kept if in N(u)
        # with d_w low / (high d_v)
        g, deg, gb = self.g, self.deg, rng.getrandbits
        targets, row = self.miss[u], g._rows[u]
        i = _below(gb, len(targets))
        while row[targets[i]]:  # joined since: the last id takes its slot
            targets[i] = targets[-1]
            del targets[-1]
            i = _below(gb, len(targets))
        w = targets[i]
        nbrs = g._adj[w]
        v = nbrs[_below(gb, len(nbrs))]
        if row[v] and rng.random() * self.high * deg[v] < deg[w] * self.low:
            return (u, w) if u < w else (w, u)
        return None


class _DirTail(_Tail):
    """Directed two-hop walk: u adds missing arc (u, w) with probability
    sum(1/(d_u d_v)) over v in N+(u) & N-(w), so its rate is at most
    C[u] / (d_u low), where ``C[u]`` counts the two-hop paths from u into
    ``miss[u]``, the nodes u reaches with no arc to them yet.  ``out[u]``
    (N+(u)), ``inn[w]`` (N-(w)), ``miss[u]`` and ``missers[w]``, the nodes
    that miss w, are integer bitsets; ``add`` walks the bits of
    ``missers[b] & inn[a]`` alone."""

    def __init__(self, g: DirectedGraph, reach: list[int]) -> None:
        super().__init__(g)
        # row u reversed and read as base-2 digits, by C-level translation
        digits = bytes.maketrans(b"\x00\x01", b"01")
        self.out = out = [int(row[::-1].translate(digits), 2) for row in g._rows]
        self.miss = [r & ~o for r, o in zip(reach, out)]
        self.inn, self.missers = _transpose(out), _transpose(self.miss)
        self.C = [sum((out[v] & m).bit_count() for v in a) for a, m in zip(g._adj, self.miss)]

    def cap(self) -> float:
        # a node with a path into miss[u] has an out-neighbour, so d_u >= low
        return max(self.C) / (self.low * self.low)

    def bound(self, u: int) -> float:
        # a node without out-neighbours has no paths
        paths = self.C[u]
        return paths / (self.deg[u] * self.low) if paths else 0.0

    def propose(self, u: int, rng: random.Random) -> tuple[int, int] | None:
        # w comes out with sum(1/(d_u d_v)) over the bound: a uniform path
        # u -> v -> w into miss[u], kept with low / d_v
        r, out_u, inn, m = _below(rng.getrandbits, self.C[u]), self.out[u], self.inn, self.miss[u]
        while True:  # lowest w first; an overstated C[u] fails at 1 << -1
            w = (m & -m).bit_length() - 1
            via = out_u & inn[w]
            k = via.bit_count()
            if r < k:
                break
            r -= k
            m ^= 1 << w
        for _ in range(r):
            via &= via - 1
        v = (via & -via).bit_length() - 1
        return (u, w) if rng.random() * self.deg[v] < self.low else None

    def add(self, a: int, b: int) -> None:
        # before the bitsets hold it: paths u -> a -> b gain the arc (a, b), the
        # paths a -> v -> b stop counting, and b's own arcs into miss[a] count
        C, out, inn, bit = self.C, self.out, self.inn, 1 << b
        self.miss[a] ^= bit
        self.missers[b] ^= 1 << a
        gain = self.missers[b] & inn[a]  # the nodes u with paths u -> a -> b
        while gain:
            low = gain & -gain
            C[low.bit_length() - 1] += 1
            gain ^= low
        C[a] += (out[b] & self.miss[a]).bit_count() - (out[a] & inn[b]).bit_count()
        inn[b] |= 1 << a
        out[a] |= bit
        self._grow(a)
