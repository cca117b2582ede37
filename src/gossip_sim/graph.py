"""Dynamic simple-graph structures for round-based discovery simulations.

Both graph classes are grow-only: the simulated processes add edges and
never remove them.  They share one storage layout: every node's
(out-)neighbors are kept as a list, for uniform sampling, and as a byte
row of length n, for membership tests; both are O(1).  The rows cost n^2
bytes per graph from construction, against the 8 n^2 bytes the lists hold
once a run reaches the complete graph.  Nodes are dense integers
``0..n-1``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = [
    "GraphError",
    "InvalidNodeError",
    "SelfLoopError",
    "IsolatedNodeError",
    "EdgeListFormatError",
    "UndirectedGraph",
    "DirectedGraph",
    "transitive_closure",
    "is_strongly_connected",
    "is_weakly_connected",
    "read_edge_list",
    "write_edge_list",
    "parse_edge_list",
    "format_edge_list",
]


class GraphError(ValueError):
    """Base class for graph usage errors."""


class InvalidNodeError(GraphError):
    """Node index outside ``[0, n)``."""


class SelfLoopError(GraphError):
    """Attempt to add an edge from a node to itself."""


class IsolatedNodeError(GraphError):
    """Operation requires the node to have at least one (out-)neighbor."""

    def __init__(self, node: int):
        super().__init__(f"node {node} has no neighbors to sample from")
        self.node = node


class EdgeListFormatError(GraphError):
    """Malformed edge-list file."""


class _Graph:
    """Storage shared by both graph types: ``_adj[u]`` lists the
    (out-)neighbors of ``u`` and ``_rows[u][v]`` is 1 exactly when the edge
    from ``u`` to ``v`` is present, an undirected edge in both directions.
    Each subclass writes ``add_edge`` out in full, as it runs per new edge;
    the round kernels in ``process`` write both directly, a round at a time,
    and set a row's byte when they queue the edge."""

    __slots__ = ("n", "_adj", "_rows", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise GraphError(f"need at least one node, got n={n}")
        self.n = n
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self._rows = [bytearray(n) for _ in range(n)]
        self.edge_count = 0
        for u, v in edges:
            self.add_edge(u, v)

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise InvalidNodeError(f"node {u} out of range for n={self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return bool(self._rows[u][v])

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._adj[u])

    def neighbors(self, u: int) -> list[int]:
        """(Out-)neighbors of ``u`` in insertion order (copy; safe to mutate)."""
        self._check_node(u)
        return list(self._adj[u])

    def min_degree(self) -> int:
        return min(len(a) for a in self._adj)

    def copy(self):
        g = type(self).__new__(type(self))
        g.n = self.n
        g._adj = [list(a) for a in self._adj]
        g._rows = [r.copy() for r in self._rows]
        g.edge_count = self.edge_count
        return g

    def reachable_from(self, u: int) -> set[int]:
        """All nodes reachable from ``u``, excluding ``u`` unless on a cycle."""
        self._check_node(u)
        adj = self._adj
        seen: set[int] = set()
        stack = [u]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count})"


class UndirectedGraph(_Graph):
    """Simple undirected graph on nodes ``0..n-1`` with a grow-only edge set."""

    __slots__ = ()

    @property
    def missing_count(self) -> int:
        """Edges absent compared with the complete graph on ``n`` nodes."""
        return self.n * (self.n - 1) // 2 - self.edge_count

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``; return True iff it was newly added."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if self._rows[u][v]:
            return False
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._rows[u][v] = self._rows[v][u] = 1
        self.edge_count += 1
        return True

    def is_complete(self) -> bool:
        return self.missing_count == 0

    def khop_neighborhood(self, u: int, i: int) -> set[int]:
        """Nodes at shortest-path distance exactly ``i`` from ``u``.

        Computed on demand by truncated breadth-first search; never cached
        because the graph mutates between rounds.
        """
        self._check_node(u)
        if i < 1:
            raise GraphError(f"hop count must be >= 1, got {i}")
        seen = {u}
        frontier = [u]
        depth = 0
        while frontier and depth < i:
            nxt = []
            for x in frontier:
                for y in self._adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
            depth += 1
        return set(frontier)

    def is_connected(self) -> bool:
        return self.n == 1 or len(self.reachable_from(0)) == self.n

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)


class DirectedGraph(_Graph):
    """Simple digraph on nodes ``0..n-1`` with a grow-only edge set."""

    __slots__ = ()

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; return True iff it was newly added."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if self._rows[u][v]:
            return False
        self._adj[u].append(v)
        self._rows[u][v] = 1
        self.edge_count += 1
        return True

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ``(u, v)`` pairs in sorted order."""
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                yield (u, v)


def transitive_closure(g: DirectedGraph) -> DirectedGraph:
    """Reachability digraph of ``g``: edge ``(u, v)`` iff ``u`` has a path to ``v``.

    Self-loops are never added, so the result is simple and the operation
    is idempotent.  Warshall's algorithm over rows held as integer bitsets:
    O(n^2) big-integer operations, where a search from every node costs
    O(n m) steps.
    """
    n = g.n
    reach = [sum(1 << v for v in a) for a in g._adj]
    for k in range(n):
        bit, row = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row
    closed = DirectedGraph(n)
    for u, row in enumerate(reach):
        closed._adj[u] = out = [v for v in range(n) if row >> v & 1 and v != u]
        for v in out:
            closed._rows[u][v] = 1
        closed.edge_count += len(out)
    return closed


def is_strongly_connected(g: DirectedGraph) -> bool:
    if g.n == 1:
        return True
    if len(g.reachable_from(0)) != g.n:
        return False
    reverse = DirectedGraph(g.n, ((v, u) for u, v in g.edges()))
    return len(reverse.reachable_from(0)) == g.n


def is_weakly_connected(g: DirectedGraph) -> bool:
    return UndirectedGraph(g.n, g.edges()).is_connected()


def format_edge_list(g: UndirectedGraph | DirectedGraph) -> str:
    """Serialize to the edge-list format: ``n m u|d`` header then ``a b`` lines."""
    kind = "u" if isinstance(g, UndirectedGraph) else "d"
    lines = [f"{g.n} {g.edge_count} {kind}"]
    lines.extend(f"{a} {b}" for a, b in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> UndirectedGraph | DirectedGraph:
    """Parse the edge-list format; ``#``-prefixed lines are comments."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise EdgeListFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 3 or head[2] not in ("u", "d"):
        raise EdgeListFormatError(f"bad header {lines[0]!r}; expected 'n m u|d'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListFormatError(f"bad header {lines[0]!r}; n and m must be integers") from None
    if len(lines) - 1 != m:
        raise EdgeListFormatError(f"header declares {m} edges but found {len(lines) - 1}")
    # bound n by the edge lines before allocating: m arcs touch at most 2m nodes
    if head[2] == "u" and m < n - 1:
        raise EdgeListFormatError(f"{m} edges cannot connect {n} nodes")
    if head[2] == "d" and n > max(1, 2 * m):
        raise EdgeListFormatError(f"{m} edges cannot touch all of {n} nodes")
    g: UndirectedGraph | DirectedGraph
    g = UndirectedGraph(n) if head[2] == "u" else DirectedGraph(n)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"bad edge line {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"bad edge line {ln!r}; endpoints must be integers") from None
        if not g.add_edge(a, b):
            raise EdgeListFormatError(f"duplicate edge {a} {b}")
    return g


def read_edge_list(path: str) -> UndirectedGraph | DirectedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: UndirectedGraph | DirectedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
