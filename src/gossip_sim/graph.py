"""Dynamic simple-graph structures for round-based discovery simulations.

Both graph classes are grow-only: the simulated processes add edges and
never remove them.  They share one storage layout: every node's
(out-)neighbors are kept in an ``array('H')`` of 2-byte ints, for uniform
sampling, and as a byte row of length n, for membership tests; both are
O(1).  The rows cost n^2 bytes per graph from construction, against the
2 n^2 bytes the arrays hold once a run reaches the complete graph.  Nodes
are dense integers ``0..n-1``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

__all__ = [
    "MAX_NODES",
    "GraphError",
    "InvalidNodeError",
    "SelfLoopError",
    "IsolatedNodeError",
    "EdgeListFormatError",
    "UndirectedGraph",
    "DirectedGraph",
    "transitive_closure",
    "read_edge_list",
    "write_edge_list",
    "parse_edge_list",
    "format_edge_list",
]


# Most nodes a graph may have: its rows take n^2 bytes (64 MiB at this bound)
# from construction, so n is checked where they are allocated, before them.
# Every node index fits the 2-byte ints of the neighbour arrays.
MAX_NODES = 2**13


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
    """Storage shared by both graph types: ``_adj[u]`` holds the
    (out-)neighbors of ``u`` in an ``array('H')``, which the compiled
    rounds may replace by one holding the same, and ``_rows[u][v]`` is 1
    exactly when the edge from ``u`` to ``v`` is present, an undirected edge
    in both directions.  ``add_edge`` checks an edge and writes it by
    ``_link``, each subclass's one writer of an edge, which
    ``run_to_convergence`` calls for engine rounds; the round kernels write
    a round's edges directly, a row's byte as each queues."""

    __slots__ = ("n", "_adj", "_rows", "edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not 1 <= n <= MAX_NODES:
            raise GraphError(f"need 1 <= n <= {MAX_NODES} nodes, got n={n}")
        self.n = n
        # copies of one empty array: n constructor calls take 2-3x as long
        self._adj = list(map(array.__copy__, [array("H")] * n))
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

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``, ``{u, v}`` if undirected; return True iff it was newly added."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        if self._rows[u][v]:
            return False
        self._link(u, v)
        return True

    def min_degree(self) -> int:
        return min(len(a) for a in self._adj)

    def copy(self):
        g = type(self).__new__(type(self))
        g.n = self.n
        g._adj = list(map(array.__copy__, self._adj))
        g._rows = list(map(bytearray.copy, self._rows))
        g.edge_count = self.edge_count
        return g

    def reachable_from(self, u: int) -> set[int]:
        """``u`` and every node reachable from it."""
        self._check_node(u)
        adj = self._adj
        seen = {u}
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

    def _link(self, a: int, b: int) -> None:
        self._adj[a].append(b)
        self._adj[b].append(a)
        self._rows[a][b] = self._rows[b][a] = 1
        self.edge_count += 1

    def is_complete(self) -> bool:
        return self.missing_count == 0

    def is_connected(self) -> bool:
        return len(self.reachable_from(0)) == self.n

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)


class DirectedGraph(_Graph):
    """Simple digraph on nodes ``0..n-1`` with a grow-only edge set."""

    __slots__ = ()

    def _link(self, a: int, b: int) -> None:
        self._adj[a].append(b)
        self._rows[a][b] = 1
        self.edge_count += 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ``(u, v)`` pairs in sorted order."""
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                yield (u, v)


def transitive_closure(g: DirectedGraph) -> DirectedGraph:
    """Reachability digraph of ``g``: edge ``(u, v)`` iff ``u`` has a path to ``v``.

    Self-loops are never added, so the result is simple and the operation
    is idempotent.
    """
    closed = DirectedGraph(g.n)
    for u, row in enumerate(_reach(g)):
        out = closed._adj[u]
        out.extend([v for v in range(g.n) if row >> v & 1])
        for v in out:
            closed._rows[u][v] = 1
        closed.edge_count += len(out)
    return closed


def _reach(g: DirectedGraph) -> list[int]:
    """Bit v of row u is set iff u has a path to v != u.  Warshall's
    algorithm over rows held as integer bitsets: O(n^2) big-integer
    operations, where a search from every node costs O(n m) steps."""
    n = g.n
    reach = [sum(1 << v for v in a) for a in g._adj]
    for k in range(n):
        bit, row = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row
    return [row & ~(1 << u) for u, row in enumerate(reach)]


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
