import json
from fractions import Fraction

import pytest

from gossip_sim.generators import (
    complete_graph,
    cycle_graph,
    directed_weak_lb,
    path_graph,
    star_graph,
)
from gossip_sim.graph import DirectedGraph, IsolatedNodeError, UndirectedGraph
from gossip_sim.oracle import (
    OracleIntractableError,
    StateSpace,
    canonical_form,
    choice_space_size,
    connected_graphs_upto,
    empirical_vs_exact,
    expected_rounds,
    nonmonotone_search,
    single_round_distribution,
)
from gossip_sim.process import ProcessKind

TRI = ProcessKind.TRIANGULATION
HOP = ProcessKind.TWOHOP_UNDIRECTED
DHOP = ProcessKind.TWOHOP_DIRECTED


class TestSingleRoundDistribution:
    def test_p3_triangulation(self):
        dist = single_round_distribution(path_graph(3), TRI)
        assert dist == {
            frozenset(): Fraction(1, 2),
            frozenset({(0, 2)}): Fraction(1, 2),
        }

    def test_p3_twohop(self):
        dist = single_round_distribution(path_graph(3), HOP)
        assert dist == {
            frozenset(): Fraction(1, 4),
            frozenset({(0, 2)}): Fraction(3, 4),
        }

    def test_complete_graph_is_a_point_mass(self):
        for kind in (TRI, HOP):
            assert single_round_distribution(complete_graph(3), kind) == {
                frozenset(): Fraction(1)
            }

    def test_star4_no_edge_probability(self):
        dist = single_round_distribution(star_graph(4), TRI)
        assert dist[frozenset()] == Fraction(1, 3)
        assert sum(p for k, p in dist.items() if k) == Fraction(2, 3)

    @pytest.mark.parametrize("kind", [TRI, HOP], ids=["tri", "twohop"])
    def test_isolated_undirected_node_raises_like_the_kernel(self, kind):
        with pytest.raises(IsolatedNodeError) as err:
            single_round_distribution(UndirectedGraph(3, [(0, 1)]), kind)
        assert err.value.node == 2

    def test_weak_lb_first_edge_marginal(self):
        g = directed_weak_lb(8)
        dist = single_round_distribution(g, DHOP, exact=True)
        p = sum(p for edges, p in dist.items() if (0, 2) in edges)
        assert p == Fraction(1, 9)
        assert p <= Fraction(16, 8 * 8)

    def test_probabilities_sum_to_one_exactly(self):
        for g in (path_graph(4), cycle_graph(4), star_graph(4)):
            for kind in (TRI, HOP):
                dist = single_round_distribution(g, kind)
                assert sum(dist.values()) == 1
                assert all(isinstance(p, Fraction) for p in dist.values())

    def test_float_mode_beyond_four_nodes(self):
        dist = single_round_distribution(path_graph(5), TRI)
        assert all(isinstance(p, float) for p in dist.values())
        assert abs(sum(dist.values()) - 1.0) <= 1e-12

    def test_refusal_reports_size(self):
        g = complete_graph(12)
        with pytest.raises(OracleIntractableError) as err:
            single_round_distribution(g, TRI)
        assert err.value.size == choice_space_size(g, TRI)
        assert err.value.size == 11 ** 24


class TestExpectedRounds:
    def test_p3_anchors(self):
        assert expected_rounds(path_graph(3), TRI) == Fraction(2)
        assert expected_rounds(path_graph(3), HOP) == Fraction(4, 3)

    def test_complete_graph_is_zero(self):
        assert expected_rounds(complete_graph(4), TRI) == 0

    def test_known_four_node_values(self):
        # derived by hand from the single-round laws:
        # diamond = K4 minus one edge, both hubs try the missing pair at 2/9
        diamond = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert expected_rounds(diamond, TRI) == Fraction(81, 32)
        assert expected_rounds(cycle_graph(4), TRI) == Fraction(499, 240)

    def test_isomorphism_invariance(self):
        relabeled = UndirectedGraph(4, [(2, 0), (0, 3), (3, 1)])
        assert expected_rounds(relabeled, TRI) == expected_rounds(path_graph(4), TRI)
        assert expected_rounds(relabeled, HOP) == expected_rounds(path_graph(4), HOP)

    def test_directed_forced_walk(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        assert expected_rounds(g, DHOP) == Fraction(1)

    def test_too_many_missing_edges_refused(self):
        with pytest.raises(OracleIntractableError):
            expected_rounds(path_graph(8), TRI)

    def test_finite_for_all_tractable_connected_graphs(self):
        for n, edges in connected_graphs_upto(4):
            g = UndirectedGraph(n, edges)
            for kind in (TRI, HOP):
                value = expected_rounds(g, kind)
                assert value >= 0


class TestStateSpaceAndMatrix:
    def test_state_count_and_base(self):
        space = StateSpace.build(path_graph(4), TRI)
        assert space.num_states == 2 ** 3
        assert set(space.graph(0).edges()) == set(path_graph(4).edges())
        full = space.num_states - 1
        assert space.graph(full).is_complete()

    # the transition law's row at a state is the single-round distribution
    # of that state's graph, as expected_rounds consumes it

    def test_rows_are_stochastic_and_upper_triangular(self):
        space = StateSpace.build(cycle_graph(4), TRI)
        for mask in range(space.num_states):
            row = single_round_distribution(space.graph(mask), TRI)
            assert sum(row.values()) == 1
            assert all(space.edge_bits(edges) & mask == 0 for edges in row)

    def test_float_rows_sum_within_tolerance(self):
        space = StateSpace.build(cycle_graph(4), HOP)
        for mask in range(space.num_states):
            row = single_round_distribution(space.graph(mask), HOP, exact=False)
            assert abs(sum(row.values()) - 1.0) <= 1e-12
            assert all(space.edge_bits(edges) & mask == 0 for edges in row)


class TestCanonicalForms:
    def test_relabelings_collapse(self):
        a = canonical_form(4, [(0, 1), (1, 2), (2, 3)])
        b = canonical_form(4, [(3, 1), (1, 0), (0, 2)])
        assert a == b

    def test_connected_graph_census(self):
        graphs = connected_graphs_upto(4)
        assert len([g for g in graphs if g[0] == 2]) == 1
        assert len([g for g in graphs if g[0] == 3]) == 2
        assert len([g for g in graphs if g[0] == 4]) == 6


class TestNonmonotoneSearch:
    def test_three_nodes_has_no_witness(self):
        assert nonmonotone_search(3, TRI) == []

    def test_four_nodes_has_a_witness(self):
        pairs = nonmonotone_search(4, TRI)
        assert pairs
        for pair in pairs:
            assert set(pair.h_edges) < set(pair.g_edges)
            assert isinstance(pair.g_expected, Fraction)
            assert isinstance(pair.h_expected, Fraction)
            assert pair.g_expected > pair.h_expected

    def test_witness_is_diamond_over_cycle(self):
        pairs = nonmonotone_search(4, TRI)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.g_expected == Fraction(81, 32)
        assert pair.h_expected == Fraction(499, 240)
        assert canonical_form(4, pair.h_edges) == canonical_form(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)]
        )

    def test_max_n_limit(self):
        with pytest.raises(OracleIntractableError):
            nonmonotone_search(6, TRI)


class TestEmpiricalVsExact:
    def test_p3_triangulation_consistency(self):
        report = empirical_vs_exact(path_graph(3), TRI, trials=20_000, seed=424242)
        assert report["exact_rounds"] == 2.0
        assert abs(report["z"]) <= 3.0
        assert report["p_value"] > 0.001
        json.dumps(report)

    def test_complete_graph_matches_trivially(self):
        report = empirical_vs_exact(complete_graph(4), TRI, trials=100, seed=1)
        assert report["mean_rounds"] == 0.0
        assert report["z"] == 0.0
        assert report["p_value"] == 1.0

    def test_twohop_distribution_consistency(self):
        report = empirical_vs_exact(cycle_graph(4), HOP, trials=20_000, seed=77)
        assert report["p_value"] > 0.001
        assert abs(report["z"]) <= 3.0
