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
adjacency lists, which sampling reads, take the round's edges after every
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
extremes, missing lists, and on a digraph the two-hop paths into missing
arcs), jumps by geometric gaps from one candidate (round, node) slot to
the next, and keeps each candidate's one proposed edge with the
probability that makes the kernels' law exact; a node whose bound reaches
1 proposes by the kernel's own draw.  Its round counts have the kernels'
distribution, from another random stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .graph import (
    DirectedGraph,
    GraphError,
    IsolatedNodeError,
    UndirectedGraph,
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
# adds fewer than TAIL_SHARE * n edges; set by the converge-large benchmark
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
    """Append a round's queued edges, already in the rows, to the lists."""
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


def convergence_target(g: UndirectedGraph | DirectedGraph, kind: ProcessKind) -> int:
    """Edge count at which the process stops.

    Undirected processes stop at the complete graph; the directed walk
    stops at the transitive closure of the initial graph (the closure is
    invariant under the process, so it is computed once up front).  Refuses
    what ``run_to_convergence`` refuses: a graph of the wrong type, or a
    disconnected undirected one.
    """
    _check_input(g, kind)
    if kind.directed:
        return transitive_closure(g).edge_count
    return g.n * (g.n - 1) // 2


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
    _check_input(g, config.kind)
    # convergence_target's closure, computed once and handed to the tail
    closure = transitive_closure(g) if config.kind.directed else None
    target = closure.edge_count if config.kind.directed else g.n * (g.n - 1) // 2
    rng = random.Random(config.seed)
    step = round_function(config.kind)
    rounds, tail, added = 0, None, g.n
    while g.edge_count < target:
        if tail is None and added < TAIL_SHARE * g.n:
            tail = _tail(g, config.kind, closure)
        if tail is not None:
            skip, edges = tail.draw(rng)
            rounds += skip
        if rounds >= config.max_rounds:
            return config.max_rounds, True
        if trace_sink is not None:
            trace_sink.begin_round(g, rounds, target - g.edge_count)
        if tail is None:
            outcome = step(g, rng, round_index=rounds)
            added = len(outcome.edges_added)
        else:
            for a, b in edges:
                tail.add(a, b)
            outcome = RoundOutcome(rounds, edges, g.edge_count)
        if trace_sink is not None:
            trace_sink.end_round(outcome)
        rounds += 1
    return rounds, False


def _tail(g, kind: ProcessKind, closure: DirectedGraph | None) -> _Tail:
    """The tail engine for ``kind`` on ``g``; ``closure`` is the directed
    walk's convergence target and None for the undirected kinds."""
    if kind is ProcessKind.TRIANGULATION:
        return _TriTail(g)
    return _HopTail(g) if closure is None else _DirTail(g, closure)


def _swap_remove(items: list, where: dict, x) -> None:
    """Remove ``x`` from ``items`` in O(1); ``where`` maps each item to its
    index and is kept in step."""
    i, last = where.pop(x), items.pop()
    if i < len(items):
        items[i], where[last] = last, i


def _walk(g, u: int, rng: random.Random) -> int | None:
    """The kernels' two-hop walk from u: its end w if u misses the edge to
    w, else None."""
    v = rng.choice(g._adj[u])
    if not g._adj[v]:
        return None
    w = rng.choice(g._adj[v])
    return None if w == u or g._rows[u][w] else w


class _Tail:
    """Exact skip-ahead over the rounds that add no edge, by thinning (Lewis
    and Shedler 1979) in discrete time.

    While the graph is static, node u adds missing edge e in a round with
    the kernels' probability p[u][e], independently of the other nodes.
    Each draw takes one common cap Q (``cap``) at least every node's bound
    q_u (``bound``).  Every (round, node) slot is a candidate with
    probability Q, so the draw jumps from one candidate to the next by
    geometric gaps (Devroye 1986, ch. 10) at a cost of O(1 + n Q) steps per
    round.  A candidate is kept with probability q_u / Q and then proposes
    e with probability p[u][e] / q_u (``propose``), so it adds e with
    p[u][e].  No rate is kept between draws; ``add`` keeps the counts the
    bounds read in step with the graph, each in O(1) or a few set
    operations: ``deg`` the (out-)degrees, ``low`` the least positive one
    and ``high`` the largest, from the number of nodes at each degree.
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

    def draw(self, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
        """Number of empty rounds before the next round that adds an edge,
        and the edges that round adds, in order; the graph is not changed."""
        n, cap = self.g.n, self.cap()
        log_stay = math.log1p(-cap) if cap < 1.0 else -math.inf
        bound, propose = self.bound, self.propose
        # Slots run over (round, node) in order, each a candidate with
        # probability cap; ``end`` closes the round of the latest candidate.
        # A jump past it skips the rounds without one and lands on the next
        # round's first candidate, conditioned on the round having one.
        slot, end, edges = -1, 0, []
        while True:
            slot += 1 + int(math.log(1.0 - rng.random()) / log_stay)
            if slot >= end:
                if edges:
                    return end // n - 1, list(dict.fromkeys(edges))
                end = slot - slot % n + n
            u = slot % n
            if rng.random() * cap < bound(u):
                e = propose(u, rng)
                if e is not None:
                    edges.append(e)


class _TriTail(_Tail):
    """Triangulation: u adds each of the M missing pairs inside N(u) with
    probability 2/d_u^2, so its rate is at most 2M/d_u^2.  ``where``
    indexes ``missing``, so that a pair leaves it in O(1)."""

    def __init__(self, g: UndirectedGraph) -> None:
        super().__init__(g)
        n = g.n
        self.missing = [(a, b) for a, row in enumerate(g._rows) for b in range(a + 1, n) if not row[b]]
        self.where = {e: i for i, e in enumerate(self.missing)}

    def cap(self) -> float:
        return min(1.0, 2 * len(self.missing) / (self.low * self.low))

    def bound(self, u: int) -> float:
        d = self.deg[u]
        return min(1.0, 2 * len(self.missing) / (d * d))

    def propose(self, u: int, rng: random.Random) -> tuple[int, int] | None:
        # a missing pair inside N(u) comes out with 2/d^2 over the bound:
        # 1/M over 2M/d^2, or the kernel's own draw
        nbrs, rows, missing = self.g._adj[u], self.g._rows, self.missing
        if 2 * len(missing) >= len(nbrs) ** 2:
            a, b = rng.choice(nbrs), rng.choice(nbrs)
            return None if a == b or rows[a][b] else (min(a, b), max(a, b))
        a, b = missing[rng.randrange(len(missing))]
        return (a, b) if rows[u][a] and rows[u][b] else None

    def draw(self, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
        skip, edges = super().draw(rng)
        _check_degree_doubling(self.g, edges)
        return skip, edges

    def add(self, a: int, b: int) -> None:
        _swap_remove(self.missing, self.where, (a, b))
        self._grow(a)
        self._grow(b)
        self.g.add_edge(a, b)


class _HopTail(_Tail):
    """Undirected two-hop walk: u adds missing {u, w} with probability
    sum(1/(d_u d_v)) over v in N(u) & N(w), at most high / (d_u low), so its
    rate is at most |miss[u]| high / (d_u low).  ``miss[u]`` lists the
    nodes u is not adjacent to and ``where[u]`` indexes it."""

    def __init__(self, g: UndirectedGraph) -> None:
        super().__init__(g)
        n = g.n
        self.miss = [[w for w in range(n) if not row[w] and w != u] for u, row in enumerate(g._rows)]
        self.where = [{w: i for i, w in enumerate(targets)} for targets in self.miss]

    def cap(self) -> float:
        # |miss[u]| = n - 1 - d_u and d_u >= low
        low = self.low
        return min(1.0, (self.g.n - 1 - low) * self.high / (low * low))

    def bound(self, u: int) -> float:
        return min(1.0, len(self.miss[u]) * self.high / (self.deg[u] * self.low))

    def propose(self, u: int, rng: random.Random) -> tuple[int, int] | None:
        # w comes out with sum(1/(d_u d_v)) over the bound: w uniform in
        # miss[u], v uniform in N(w) kept if in N(u) with d_w low / (high d_v),
        # or the kernel's walk
        deg, targets = self.deg, self.miss[u]
        if len(targets) * self.high >= deg[u] * self.low:
            w = _walk(self.g, u, rng)
        else:
            w = targets[rng.randrange(len(targets))]
            v = rng.choice(self.g._adj[w])
            if not self.g._rows[u][v] or rng.random() * self.high * deg[v] >= deg[w] * self.low:
                w = None
        return None if w is None else (min(u, w), max(u, w))

    def add(self, a: int, b: int) -> None:
        _swap_remove(self.miss[a], self.where[a], b)
        _swap_remove(self.miss[b], self.where[b], a)
        self._grow(a)
        self._grow(b)
        self.g.add_edge(a, b)


class _DirTail(_Tail):
    """Directed two-hop walk: u adds missing arc (u, w) with probability
    sum(1/(d_u d_v)) over v in N+(u) & N-(w), so its rate is at most
    C[u] / (d_u low): ``c[u][v]`` counts the arcs of v into ``miss[u]``,
    the closure's arcs out of u not yet present, for each v in N+(u) in
    the order of the adjacency list, and ``C[u]`` is their sum.
    ``missers[w]`` holds the nodes that miss w, ``inn[w]`` N-(w) and
    ``out[u]`` N+(u), as sets for their intersections."""

    def __init__(self, g: DirectedGraph, closure: DirectedGraph) -> None:
        super().__init__(g)
        self.out = out = [set(a) for a in g._adj]
        self.miss = [set(r) - s - {u} for u, (r, s) in enumerate(zip(closure._adj, out))]
        self.missers = [set() for _ in range(g.n)]
        self.inn = [set() for _ in range(g.n)]
        for u, targets in enumerate(self.miss):
            for w in targets:
                self.missers[w].add(u)
            for v in g._adj[u]:
                self.inn[v].add(u)
        self.c = [{v: len(out[v] & targets) for v in g._adj[u]} for u, targets in enumerate(self.miss)]
        self.C = [sum(cu.values()) for cu in self.c]

    def cap(self) -> float:
        # a node with a path into miss[u] has an out-neighbour, so d_u >= low
        return min(1.0, max(self.C) / (self.low * self.low))

    def bound(self, u: int) -> float:
        paths = self.C[u]
        return min(1.0, paths / (self.deg[u] * self.low)) if paths else 0.0

    def propose(self, u: int, rng: random.Random) -> tuple[int, int] | None:
        # w comes out with sum(1/(d_u d_v)) over the bound: v in proportion
        # to c[u][v], w uniform in N+(v) & miss[u], kept with low / d_v, or
        # the kernel's walk
        if self.C[u] >= self.deg[u] * self.low:
            w = _walk(self.g, u, rng)
            return None if w is None else (u, w)
        v = rng.choices(self.g._adj[u], self.c[u].values())[0]
        w = rng.choice(tuple(self.out[v] & self.miss[u]))
        return (u, w) if rng.random() * self.deg[v] < self.low else None

    def add(self, a: int, b: int) -> None:
        # before the arc exists: paths u -> a -> b gain the arc (a, b), the
        # paths a -> v -> b stop counting, and b's own arcs into miss[a] count
        c, C, out = self.c, self.C, self.out
        self.miss[a].remove(b)
        self.missers[b].remove(a)
        for u in self.inn[a] & self.missers[b]:
            c[u][a] += 1
            C[u] += 1
        dropped = out[a] & self.inn[b]
        for v in dropped:
            c[a][v] -= 1
        c[a][b] = paths = len(out[b] & self.miss[a])
        C[a] += paths - len(dropped)
        self.inn[b].add(a)
        out[a].add(b)
        self._grow(a)
        self.g.add_edge(a, b)
