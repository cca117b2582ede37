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

All draws in a round are made against the start-of-round snapshot: queued
edges are applied only after every node has taken its turn.  Each trial
consumes one deterministic random stream; draws are consumed in ascending
node order, two per node per round, and a skipped draw (a node or
first-hop target with no out-neighbors) consumes nothing.

The kernels define the semantics.  ``run_to_convergence`` runs them until
at most ``TAIL_SHARE`` of the target's edges are missing, then hands the
run to a tail engine that skips the rounds adding no edge exactly: it caps
every node's rate by one bound from degree and missing-list extremes,
jumps by geometric gaps from one candidate (round, node) slot to the
next, and keeps each candidate's one proposed edge with the probability
that makes the kernels' law exact.  Its round counts have the kernels'
distribution, from another random stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import compress

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
# run_to_convergence hands a run to the tail engine once at most
# TAIL_SHARE * target edges are missing; set by the converge-large benchmark
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
    adj_sets = g._adj_sets
    gb = rng.getrandbits
    queued: list[tuple[int, int]] = []
    queued_set: set[tuple[int, int]] = set()
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
        if key[1] in adj_sets[key[0]] or key in queued_set:
            continue
        queued_set.add(key)
        queued.append(key)
    _check_degree_doubling(g, queued)
    for a, b in queued:
        g.add_edge(a, b)
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
    adj_sets = g._adj_sets
    gb = rng.getrandbits
    queued: list[tuple[int, int]] = []
    queued_set: set[tuple[int, int]] = set()
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
        # undirected adjacency sets are symmetric, so this tests {u, w} too
        if w == u or w in adj_sets[u]:
            continue
        key = (u, w) if directed or u < w else (w, u)
        if key in queued_set:
            continue
        queued_set.add(key)
        queued.append(key)
    for a, b in queued:
        g.add_edge(a, b)
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
    invariant under the process, so it is computed once up front).
    """
    check_graph_type(g, kind)
    if kind.directed:
        return transitive_closure(g).edge_count
    return g.n * (g.n - 1) // 2


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
    # convergence_target's closure, computed once and handed to the tail
    check_graph_type(g, config.kind)
    closure = transitive_closure(g) if config.kind.directed else None
    target = closure.edge_count if config.kind.directed else g.n * (g.n - 1) // 2
    if not config.kind.directed and not g.is_connected():
        raise DisconnectedGraphError("undirected input must be connected")
    rng = random.Random(config.seed)
    step = round_function(config.kind)
    rounds, tail = 0, None
    while g.edge_count < target:
        if tail is None and target - g.edge_count <= TAIL_SHARE * target:
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
    return _TriTail(g) if kind is ProcessKind.TRIANGULATION else _WalkTail(g, closure)


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
    p[u][e].  No rate is kept between draws: ``add`` updates the missing
    lists and the graph.
    """

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
    probability 2/d_u^2, and N(u) holds at most min(M, d_u(d_u-1)/2).
    ``where`` indexes ``missing``, so that a pair leaves it in O(1)."""

    def __init__(self, g: UndirectedGraph) -> None:
        self.g, n, nbrs = g, g.n, g._adj_sets
        self.missing = [(a, b) for a in range(n) for b in sorted(set(range(a + 1, n)) - nbrs[a])]
        self.where = {e: i for i, e in enumerate(self.missing)}

    def cap(self) -> float:
        degrees = list(map(len, self.g._adj))
        low, high = min(degrees), max(degrees)
        return min(2 * len(self.missing) / (low * low), (high - 1) / high)

    def bound(self, u: int) -> float:
        d, m2 = len(self.g._adj[u]), 2 * len(self.missing)
        return m2 / (d * d) if d * (d - 1) > m2 else (d - 1) / d

    def propose(self, u: int, rng: random.Random) -> tuple[int, int] | None:
        # a missing pair inside N(u) comes out with 2/d^2 over the bound:
        # 1/M over 2M/d^2, or the kernel's 2/(d(d-1)) over (d-1)/d
        nbrs, adj_sets, missing = self.g._adj[u], self.g._adj_sets, self.missing
        d = len(nbrs)
        if 2 * len(missing) < d * (d - 1):
            a, b = missing[rng.randrange(len(missing))]
            return (a, b) if a in adj_sets[u] and b in adj_sets[u] else None
        i, j = rng.randrange(d), rng.randrange(d - 1)
        a, b = nbrs[i], nbrs[j + (j >= i)]
        if b in adj_sets[a]:
            return None
        return (a, b) if a < b else (b, a)

    def draw(self, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
        skip, edges = super().draw(rng)
        _check_degree_doubling(self.g, edges)
        return skip, edges

    def add(self, a: int, b: int) -> None:
        missing, where = self.missing, self.where
        i, last = where.pop((a, b)), missing.pop()
        if i < len(missing):
            missing[i], where[last] = last, i
        self.g.add_edge(a, b)


class _WalkTail(_Tail):
    """Two-hop walks: u adds the missing edge to w with probability
    sum(1/(d_u d_v)) over v in N+(u) & N-(w), at most |N-(w)| / (d_u low)
    with ``low`` the least positive out-degree.  ``miss[u]`` lists the
    missing targets of u, on a digraph the arcs of the ``closure`` not yet
    present, ``inn[w]`` the in-neighbours of w, and ``wanted[w]`` is true
    while some node misses w (on a digraph a count of those nodes, on an
    undirected graph ``miss[w]`` itself)."""

    def __init__(self, g, closure: DirectedGraph | None) -> None:
        self.g, self.directed = g, closure is not None
        reach = closure._adj_sets if self.directed else [set(range(g.n))] * g.n
        self.miss = [sorted(r - s - {u}) for u, (r, s) in enumerate(zip(reach, g._adj_sets))]
        self.inn, self.wanted = g._adj, self.miss
        if self.directed:
            self.inn, self.wanted = [[] for _ in range(g.n)], [0] * g.n
            for u, out in enumerate(g._adj):
                for v in out:
                    self.inn[v].append(u)
                for w in self.miss[u]:
                    self.wanted[w] += 1

    def cap(self) -> float:
        # refreshes ``low`` for bound and propose; a node with missing
        # targets has an out-neighbour, so d_u >= low; its targets are wanted
        self.low = low = min(filter(None, map(len, self.g._adj)))
        most = max(map(len, compress(self.inn, self.wanted)), default=0)
        return min(1.0, max(map(len, self.miss)) * most / (low * low))

    def bound(self, u: int) -> float:
        weight = sum(map(len, map(self.inn.__getitem__, self.miss[u])))
        return min(1.0, weight / (len(self.g._adj[u]) * self.low)) if weight else 0.0

    def propose(self, u: int, rng: random.Random) -> tuple[int, int] | None:
        # w comes out with sum(1/(d_u d_v)) over the bound: w in proportion
        # to |N-(w)|, v uniform in N-(w) kept with low/d_v, or the kernel's walk
        adj, adj_sets, targets = self.g._adj, self.g._adj_sets, self.miss[u]
        weights = [len(self.inn[w]) for w in targets]
        if sum(weights) < len(adj[u]) * self.low:
            w = rng.choices(targets, weights)[0]
            v = rng.choice(self.inn[w])
            if v not in adj_sets[u] or rng.random() * len(adj[v]) >= self.low:
                return None
        else:
            v = rng.choice(adj[u])
            if not adj[v]:
                return None
            w = rng.choice(adj[v])
            if w == u or w in adj_sets[u]:
                return None
        return (u, w) if self.directed or u < w else (w, u)

    def add(self, a: int, b: int) -> None:
        self.miss[a].remove(b)
        if self.directed:
            self.inn[b].append(a)
            self.wanted[b] -= 1
        else:
            self.miss[b].remove(a)
        self.g.add_edge(a, b)
