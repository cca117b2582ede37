import math
import random
import tracemalloc

import pytest

from gossip_sim.graph import (
    DirectedGraph,
    EdgeListFormatError,
    GraphError,
    InvalidNodeError,
    IsolatedNodeError,
    SelfLoopError,
    UndirectedGraph,
    format_edge_list,
    is_strongly_connected,
    is_weakly_connected,
    parse_edge_list,
    read_edge_list,
    transitive_closure,
    write_edge_list,
)
from gossip_sim.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from gossip_sim.process import triangulation_round, twohop_round


class TestAddEdge:
    def test_new_edge_updates_counts(self):
        g = path_graph(3)
        assert g.missing_count == 1
        assert g.add_edge(0, 2) is True
        assert g.missing_count == 0
        assert g.is_complete()

    def test_duplicate_returns_false(self):
        g = path_graph(3)
        g.add_edge(0, 2)
        assert g.add_edge(0, 2) is False
        assert g.add_edge(2, 0) is False
        assert g.edge_count == 3

    def test_self_loop_rejected(self):
        g = path_graph(3)
        with pytest.raises(SelfLoopError):
            g.add_edge(1, 1)

    def test_bad_node_rejected(self):
        g = path_graph(3)
        with pytest.raises(InvalidNodeError):
            g.add_edge(0, 3)
        with pytest.raises(InvalidNodeError):
            g.add_edge(-1, 0)

    def test_symmetry(self):
        g = UndirectedGraph(5)
        g.add_edge(0, 4)
        g.add_edge(4, 2)
        for u in range(5):
            for v in range(5):
                if u != v:
                    assert g.has_edge(u, v) == g.has_edge(v, u)


class TestSampling:
    """Uniform neighbor sampling, read from the kernels' draw logs.

    The triangulation kernel draws two neighbors per node; on a complete
    graph no round adds an edge, so every round samples the same snapshot.
    """

    def test_k3_draws_are_unbiased(self):
        # each node of K3 has the two neighbors of the center of P3
        g = complete_graph(3)
        rng = random.Random(12345)
        log: list[tuple[int, int, int]] = []
        for _ in range(10**6 // 6):
            triangulation_round(g, rng, draw_log=log)
        lowest = [min(g.neighbors(u)) for u in range(3)]
        hits = sum((v == lowest[u]) + (w == lowest[u]) for u, v, w in log)
        assert abs(hits / (2 * len(log)) - 0.5) <= 0.002

    def test_k7_draws_hit_all_neighbors_uniformly(self):
        k = 6
        g = complete_graph(k + 1)
        rng = random.Random(99)
        log: list[tuple[int, int, int]] = []
        for _ in range(200_000 // (2 * (k + 1))):
            triangulation_round(g, rng, draw_log=log)
        n_draws = 2 * len(log)
        counts = [0] * k
        for u, v, w in log:
            nbrs = g.neighbors(u)
            counts[nbrs.index(v)] += 1
            counts[nbrs.index(w)] += 1
        p = 1 / k
        sigma = math.sqrt(p * (1 - p) / n_draws)
        for rank in range(k):
            assert abs(counts[rank] / n_draws - p) <= 3 * sigma

    def test_degree_one_returns_unique_neighbor(self):
        rng = random.Random(0)
        for _ in range(20):
            log: list[tuple[int, int, int]] = []
            triangulation_round(path_graph(3), rng, draw_log=log)
            assert log[0] == (0, 1, 1)

    def test_isolated_node_raises(self):
        for kernel in (triangulation_round, twohop_round):
            g = UndirectedGraph(3, [(0, 1)])
            with pytest.raises(IsolatedNodeError) as err:
                kernel(g, random.Random(0))
            assert err.value.node == 2


class TestKhop:
    def test_path_two_hops(self):
        g = path_graph(5)
        assert g.khop_neighborhood(2, 2) == {0, 4}

    def test_complete_graph_has_no_second_layer(self):
        g = complete_graph(4)
        for u in range(4):
            assert g.khop_neighborhood(u, 2) == set()

    def test_cycle_opposite_node(self):
        g = cycle_graph(6)
        assert g.khop_neighborhood(0, 2) == {2, 4}
        assert g.khop_neighborhood(0, 3) == {3}

    def test_layers_partition_reachable_nodes(self):
        g = cycle_graph(6)
        layers = [g.khop_neighborhood(0, i) for i in range(1, 6)]
        union: set[int] = set()
        for layer in layers:
            assert union.isdisjoint(layer)
            union |= layer
        assert union | {0} == set(range(6))

    def test_bad_hop_count(self):
        with pytest.raises(GraphError):
            path_graph(3).khop_neighborhood(0, 0)


class TestQueries:
    def test_degree_summaries(self):
        assert cycle_graph(6).min_degree() == 2
        assert complete_graph(5).is_complete()
        star = star_graph(5)
        assert star.min_degree() == 1
        assert star.degree(0) == 4

    def test_connectivity(self):
        assert path_graph(4).is_connected()
        assert not UndirectedGraph(4, [(0, 1), (2, 3)]).is_connected()
        assert UndirectedGraph(1).is_connected()

    def test_complete_graph_costs_its_lists_and_one_byte_per_pair(self):
        # at n = 512 the lists and their ints take about 5 MiB and the rows
        # 0.3 MiB; a membership set per node would add 16 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            complete_graph(512)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_copy_is_independent(self):
        g = path_graph(3)
        h = g.copy()
        h.add_edge(0, 2)
        assert g.missing_count == 1
        assert h.missing_count == 0

    def test_copy_keeps_membership_apart(self):
        for g in (path_graph(3), DirectedGraph(3, [(0, 1), (1, 2)])):
            h = g.copy()
            assert h.add_edge(0, 2)
            assert h.has_edge(0, 2)
            assert not g.has_edge(0, 2) and not g.has_edge(2, 0)
            assert g.add_edge(0, 2)
            assert sorted(g.edges()) == sorted(h.edges())


class TestDirected:
    def test_add_and_query(self):
        g = DirectedGraph(3)
        assert g.add_edge(0, 1)
        assert not g.add_edge(0, 1)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.degree(0) == 1
        # on a digraph the degree queries count out-neighbors only
        assert g.neighbors(0) == [1] and g.neighbors(1) == []
        assert g.min_degree() == 0
        with pytest.raises(SelfLoopError):
            g.add_edge(2, 2)

    def test_closure_of_directed_path(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        closed = transitive_closure(g)
        assert set(closed.edges()) == {(0, 1), (0, 2), (1, 2)}

    def test_closure_of_directed_cycle(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        closed = transitive_closure(g)
        assert closed.edge_count == 6

    def test_closure_idempotent(self):
        g = DirectedGraph(4, [(0, 1), (1, 2), (3, 0)])
        once = transitive_closure(g)
        twice = transitive_closure(once)
        assert set(once.edges()) == set(twice.edges())

    def test_closure_membership_matches_its_lists(self):
        g = DirectedGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        closed = transitive_closure(g)
        # the 3-cycle closes to 6 arcs, the arc (3, 4) stays alone
        assert closed.edge_count == 7
        for u in range(5):
            out = closed.neighbors(u)
            assert len(out) == len(set(out))
            for v in range(5):
                assert closed.has_edge(u, v) == (v in out)
                if u != v:
                    assert closed.add_edge(u, v) == (v not in out)
        assert closed.edge_count == 5 * 4

    def test_connectivity_flavors(self):
        cycle = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        assert is_strongly_connected(cycle)
        chain = DirectedGraph(3, [(0, 1), (1, 2)])
        assert not is_strongly_connected(chain)
        assert is_weakly_connected(chain)
        assert not is_weakly_connected(DirectedGraph(3, [(0, 1)]))


class TestEdgeListFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        g = cycle_graph(6)
        path = tmp_path / "c6.el"
        write_edge_list(g, str(path))
        text = path.read_text()
        assert text.startswith("6 6 u\n")
        again = read_edge_list(str(path))
        assert format_edge_list(again) == text

    def test_directed_round_trip(self):
        g = DirectedGraph(3, [(2, 0), (0, 1)])
        text = format_edge_list(g)
        assert text.splitlines()[0] == "3 2 d"
        again = parse_edge_list(text)
        assert set(again.edges()) == {(0, 1), (2, 0)}

    def test_comments_and_missing_trailing_newline(self):
        text = "# a comment\n3 2 u\n0 1\n# another\n1 2"
        g = parse_edge_list(text)
        assert isinstance(g, UndirectedGraph)
        assert g.edge_count == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3 2 x\n0 1\n1 2",
            "3 2 u\n0 1",
            "3 1 u\n0 1\n1 2",
            "3 1 u\n0 0",
            "3 1 u\n0 5",
            "3 2 u\n0 1\n0 1",
            "3 1 u\nzero one",
            "a b u\n0 1",
            "3 2 u\n0 1\n1 1",
            "3 2 u\n0 1\n1 5",
            "3 2 u\n0 1\nzero one",
            "100 1 u\n0 1",
            "1000000000 0 u",
            "1000000000 1 d\n0 1",
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(GraphError):
            parse_edge_list(text)

    @pytest.mark.parametrize("text", ["4000 1 u\n0 1", "4000 1 d\n0 1"])
    def test_size_refusals_come_before_the_rows(self, text):
        # a graph on 4000 nodes would allocate 16 MB of rows
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListFormatError):
                parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_missing_count_matches_full_scan(self):
        g = cycle_graph(7)
        g.add_edge(0, 3)
        by_scan = sum(
            1
            for u in range(7)
            for v in range(u + 1, 7)
            if not g.has_edge(u, v)
        )
        assert g.missing_count == by_scan
