import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from gossip_sim.generators import (
    complete_graph,
    cycle_graph,
    directed_weak_lb,
    path_graph,
    star_graph,
)
from gossip_sim import oracle, process
from gossip_sim.graph import DirectedGraph, IsolatedNodeError, UndirectedGraph
from gossip_sim.oracle import (
    ORACLE_STEP_LIMIT,
    OracleIntractableError,
    canonical_form,
    connected_graphs_upto,
    empirical_vs_exact,
    expected_rounds,
    nonmonotone_search,
    single_round_distribution,
)
from gossip_sim.process import (
    DisconnectedGraphError,
    ProcessGraphMismatchError,
    ProcessKind,
)

TRI = ProcessKind.TRIANGULATION
HOP = ProcessKind.TWOHOP_UNDIRECTED
DHOP = ProcessKind.TWOHOP_DIRECTED

# nonmonotone_search(5, kind) as (n, G, H, E[G], E[H])
FIVE_NODE_WITNESSES = {
    TRI: [
        (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
         ((0, 2), (0, 3), (1, 2), (1, 3)),
         Fraction(81, 32),
         Fraction(499, 240)),
        (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)),
         ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3)),
         Fraction(826072049470, 99855554799),
         Fraction(8527459595214886734145, 1078406870540517610092)),
        (5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)),
         ((0, 2), (0, 3), (1, 2), (1, 4), (3, 4)),
         Fraction(62823968415425660, 10763832699929309),
         Fraction(1850900488970352838, 333678813697808579)),
        (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
         ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
         Fraction(296272, 46137),
         Fraction(1383596442070888, 247350994183293)),
        (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4)),
         ((0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4)),
         Fraction(2607187972, 432275129),
         Fraction(62823968415425660, 10763832699929309)),
        (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4)),
         ((0, 3), (0, 4), (1, 2), (1, 3), (2, 4)),
         Fraction(2607187972, 432275129),
         Fraction(1850900488970352838, 333678813697808579)),
        (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)),
         ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)),
         Fraction(464, 91),
         Fraction(400910308570, 89328636397)),
    ],
    HOP: [
        (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
         ((0, 2), (0, 3), (1, 2), (1, 3)),
         Fraction(9, 5),
         Fraction(134, 75)),
        (5, ((0, 1), (0, 2), (0, 3), (1, 2), (3, 4)),
         ((0, 1), (0, 2), (0, 3), (3, 4)),
         Fraction(1212995940379499621782317, 203938214109902683218115),
         Fraction(8211508211497129371856293815997896264, 1396979969334236949425057976841130125)),
        (5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)),
         ((0, 2), (0, 3), (1, 2), (1, 3), (2, 4)),
         Fraction(1951994461803831412201, 389939223919507998505),
         Fraction(14949430615237560024871471756754607655, 3024272104698665056266987429591178291)),
        (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
         ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
         Fraction(9178, 2303),
         Fraction(5005850308077302, 1360278879500849)),
        (5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)),
         ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)),
         Fraction(1144, 329),
         Fraction(9554644519716, 2806741224847)),
    ],
}


# a sample of the six-node witnesses, with values from the labelled 2^m
# chain of expected_rounds on each graph
SIX_NODE_WITNESSES = {
    TRI: [
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)),
         ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)),
         Fraction(1028987187658679579450066675, 94857383878528343763586896),
         Fraction(110886263839244975948590419110257396924078720366050885768547,
                  10824814038401357863484469483322356550734886387041332640000)),
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
         ((0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
         Fraction(21273646825, 1938830784),
         Fraction(1265973723110282860281883454987, 116260567527219548366448580032)),
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)),
         ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)),
         Fraction(15214800625, 1938830784),
         Fraction(3143420688454214040981947, 431409227743028192895072)),
    ],
    HOP: [
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 5)),
         ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5)),
         Fraction(1192153588641831579744610684965667751, 182799643350224161522045446341279787),
         Fraction(307706452637813413189635598797540061221150195863445660965422335435787845192169559,
                  47775662799073151516280017532724200546398019796091197505898414685653105913708959)),
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)),
         ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)),
         Fraction(165915568517923675, 27707279341519152),
         Fraction(3594870709564359076914600501488233409, 617390919398435415480780784498762515)),
        (6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)),
         ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)),
         Fraction(10676525, 2006543),
         Fraction(351452197981375225638364, 66923522399500401481605)),
    ],
}


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
        dist = single_round_distribution(g, DHOP)
        p = sum(p for edges, p in dist.items() if (0, 2) in edges)
        assert p == Fraction(1, 9)
        assert p <= Fraction(16, 8 * 8)

    def test_probabilities_sum_to_one_exactly(self):
        for g in (path_graph(4), cycle_graph(4), star_graph(4)):
            for kind in (TRI, HOP):
                dist = single_round_distribution(g, kind)
                assert sum(dist.values()) == 1
                assert all(isinstance(p, Fraction) for p in dist.values())

    def test_exact_beyond_four_nodes(self):
        # each inner node of P5 closes its own pair with probability 1/2
        dist = single_round_distribution(path_graph(5), TRI)
        pairs = [(0, 2), (1, 3), (2, 4)]
        assert dist == {
            frozenset(chosen): Fraction(1, 8)
            for k in range(4)
            for chosen in itertools.combinations(pairs, k)
        }
        assert all(isinstance(p, Fraction) for p in dist.values())

    def test_node_with_only_sink_out_neighbours_pinned(self):
        # node 2's out-neighbours 3 and 4 are both sinks: its walk weights
        # have an empty lcm; values recorded with per-entry fractions
        g = DirectedGraph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (0, 2)])
        assert single_round_distribution(g, DHOP) == {
            frozenset({(1, 3)}): Fraction(1, 4),
            frozenset({(1, 4)}): Fraction(1, 4),
            frozenset({(0, 3), (1, 3)}): Fraction(1, 8),
            frozenset({(0, 3), (1, 4)}): Fraction(1, 8),
            frozenset({(0, 4), (1, 3)}): Fraction(1, 8),
            frozenset({(0, 4), (1, 4)}): Fraction(1, 8),
        }

    def test_refusal_reports_size(self):
        # the round's enumeration, n^3 steps, is charged before it starts
        n = round(ORACLE_STEP_LIMIT ** (1 / 3)) + 1
        with pytest.raises(OracleIntractableError) as err:
            single_round_distribution(path_graph(n), TRI)
        assert err.value.size == n**3 > ORACLE_STEP_LIMIT

    @pytest.mark.parametrize("kind", [TRI, HOP], ids=["tri", "twohop"])
    def test_few_outcomes_accepted_whatever_the_choice_count(self, kind):
        # K8 less an edge: 7^14 triangulation draws, but two outcomes
        g = UndirectedGraph(8, [e for e in complete_graph(8).edges() if e != (0, 1)])
        dist = single_round_distribution(g, kind)
        assert set(dist) == {frozenset(), frozenset({(0, 1)})}
        assert sum(dist.values()) == 1

    def test_refused_mid_enumeration(self, monkeypatch):
        # P8 under tri: 8^3 up front, then joint products of
        # 1, 2, 4, 8, 16, 32, 64 and 64 entries as six inner nodes each
        # close their pair or not
        cost = 8**3 + 191
        monkeypatch.setattr(oracle, "ORACLE_STEP_LIMIT", cost - 1)
        with pytest.raises(OracleIntractableError) as err:
            single_round_distribution(path_graph(8), TRI)
        assert err.value.size == cost
        monkeypatch.setattr(oracle, "ORACLE_STEP_LIMIT", cost)
        assert len(single_round_distribution(path_graph(8), TRI)) == 2**6


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

    def test_five_node_values_pinned(self):
        # recorded with per-entry fractions; the trees and K5 less an edge
        # are not among the five-node witnesses pinned below
        assert expected_rounds(path_graph(5), TRI) == Fraction(
            25688574313878605, 2798751489906372)
        assert expected_rounds(path_graph(5), HOP) == Fraction(
            350950692649274078626226981002237189, 55729338367674890037405933370464125)
        assert expected_rounds(star_graph(5), TRI) == Fraction(1856935955354, 166425924665)
        assert expected_rounds(star_graph(5), HOP) == Fraction(
            95596573260917256058123464, 17711423294673541598732875)
        k5_less_edge = UndirectedGraph(5, [e for e in complete_graph(5).edges() if e != (3, 4)])
        assert expected_rounds(k5_less_edge, TRI) == Fraction(512, 169)
        assert expected_rounds(k5_less_edge, HOP) == Fraction(16, 7)

    def test_isomorphism_invariance(self):
        relabeled = UndirectedGraph(4, [(2, 0), (0, 3), (3, 1)])
        assert expected_rounds(relabeled, TRI) == expected_rounds(path_graph(4), TRI)
        assert expected_rounds(relabeled, HOP) == expected_rounds(path_graph(4), HOP)

    def test_directed_forced_walk(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        assert expected_rounds(g, DHOP) == Fraction(1)

    @pytest.mark.parametrize(
        "g, kind",
        [(path_graph(3), DHOP), (DirectedGraph(3, [(0, 1), (1, 2), (2, 0)]), TRI)],
        ids=["dtwohop-on-undirected", "tri-on-directed"],
    )
    def test_refuses_graph_of_the_wrong_type(self, g, kind):
        for oracle_fn in (single_round_distribution, expected_rounds):
            with pytest.raises(ProcessGraphMismatchError):
                oracle_fn(g, kind)

    @pytest.mark.parametrize("kind", [TRI, HOP], ids=["tri", "twohop"])
    def test_refuses_disconnected_graph(self, kind):
        with pytest.raises(DisconnectedGraphError):
            expected_rounds(UndirectedGraph(4, [(0, 1), (2, 3)]), kind)

    def test_too_many_missing_edges_refused(self):
        with pytest.raises(OracleIntractableError):
            expected_rounds(path_graph(8), TRI)

    @pytest.mark.parametrize("kind", [TRI, HOP], ids=["tri", "twohop"])
    def test_states_charged_before_any_is_computed(self, kind, monkeypatch):
        def no_round(*args):
            raise AssertionError("a state was computed")

        monkeypatch.setattr(oracle, "_round_distribution", no_round)
        # C8: 2^20 states of 8^3 steps each
        with pytest.raises(OracleIntractableError) as err:
            expected_rounds(cycle_graph(8), kind)
        assert err.value.size == 8**3 << 20

    def test_finite_for_all_tractable_connected_graphs(self):
        for n, edges in connected_graphs_upto(5):
            g = UndirectedGraph(n, edges)
            for kind in (TRI, HOP):
                value = expected_rounds(g, kind)
                assert isinstance(value, Fraction)
                assert value >= 0


class TestStateSpaceAndMatrix:
    # the states are the edge-supersets of a base graph, and the transition
    # law's row at a state is the single-round distribution of its graph,
    # as expected_rounds consumes it

    def test_rows_are_stochastic_and_upper_triangular(self):
        for base in (path_graph(4), cycle_graph(4)):
            absent = [
                e for e in itertools.combinations(range(4), 2) if not base.has_edge(*e)
            ]
            for k in range(len(absent) + 1):
                for extra in itertools.combinations(absent, k):
                    g = UndirectedGraph(4, list(base.edges()) + list(extra))
                    missing = set(absent) - set(extra)
                    for kind in (TRI, HOP):
                        row = single_round_distribution(g, kind)
                        assert sum(row.values()) == 1
                        assert all(edges <= missing for edges in row)


class TestCanonicalForms:
    def test_relabelings_collapse(self):
        a = canonical_form(4, [(0, 1), (1, 2), (2, 3)])
        b = canonical_form(4, [(3, 1), (1, 0), (0, 2)])
        assert a == b

    def test_connected_graph_census(self):
        graphs = connected_graphs_upto(5)
        assert len([g for g in graphs if g[0] == 2]) == 1
        assert len([g for g in graphs if g[0] == 3]) == 2
        assert len([g for g in graphs if g[0] == 4]) == 6
        assert len([g for g in graphs if g[0] == 5]) == 21
        assert all(canonical_form(n, edges) == (n, edges) for n, edges in graphs)

    def test_relabelings_refused_before_they_start(self):
        path = [(i, i + 1) for i in range(7)]
        assert canonical_form(8, path) == (
            8, ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7))
        )
        with pytest.raises(OracleIntractableError) as err:
            canonical_form(10, path + [(7, 8), (8, 9)])
        # max(1, m) * k! steps: 9 edges over 9! relabelings already pass the limit
        assert err.value.size == 9 * math.factorial(9)
        # charged one factor at a time, so a huge n is refused as fast
        with pytest.raises(OracleIntractableError):
            canonical_form(10**9, [(0, 1)])

    def test_census_refused_before_it_starts(self):
        # seven nodes alone are 2^21 edge masks
        with pytest.raises(OracleIntractableError) as err:
            connected_graphs_upto(7)
        assert err.value.size == sum(1 << n * (n - 1) // 2 for n in range(2, 8))
        # charged one n at a time, so a huge max_n is refused as fast
        with pytest.raises(OracleIntractableError):
            connected_graphs_upto(10**9)


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

    @pytest.mark.parametrize("kind", [TRI, HOP], ids=["tri", "twohop"])
    def test_five_node_witnesses(self, kind):
        pairs = nonmonotone_search(5, kind)
        assert [
            (p.n, p.g_edges, p.h_edges, p.g_expected, p.h_expected) for p in pairs
        ] == FIVE_NODE_WITNESSES[kind]
        for pair in pairs:
            assert isinstance(pair.g_expected, Fraction)
            assert isinstance(pair.h_expected, Fraction)

    def test_six_node_witnesses(self):
        pairs = [
            (p.n, p.g_edges, p.h_edges, p.g_expected, p.h_expected)
            for p in nonmonotone_search(6, TRI)
        ]
        assert pairs[:len(FIVE_NODE_WITNESSES[TRI])] == FIVE_NODE_WITNESSES[TRI]
        six = pairs[len(FIVE_NODE_WITNESSES[TRI]):]
        assert len(six) == 97
        assert sum(len(g) - len(h) == 1 for _, g, h, _, _ in six) == 57
        for pinned in SIX_NODE_WITNESSES[TRI]:
            assert pinned in six

    def test_six_node_twohop_witness_values(self):
        # the search over six-node classes under twohop takes as long again,
        # so its sample is pinned through expected_rounds on G and H
        for n, g_edges, h_edges, g_expected, h_expected in SIX_NODE_WITNESSES[HOP]:
            assert expected_rounds(UndirectedGraph(n, g_edges), HOP) == g_expected
            assert expected_rounds(UndirectedGraph(n, h_edges), HOP) == h_expected
            assert set(h_edges) < set(g_edges) and g_expected > h_expected

    def test_census_is_built_once_per_size(self):
        connected_graphs_upto(6)
        built = oracle._census.cache_info().misses
        connected_graphs_upto(6)
        nonmonotone_search(6, HOP)
        assert oracle._census.cache_info().misses == built

    def test_max_n_limit(self, monkeypatch):
        # refused exactly when the census is, before any census work
        with pytest.raises(OracleIntractableError) as census_err:
            connected_graphs_upto(7)

        def no_census(n):
            raise AssertionError("a census was computed")

        monkeypatch.setattr(oracle, "_census", no_census)
        with pytest.raises(OracleIntractableError) as err:
            nonmonotone_search(7, TRI)
        assert err.value.size == census_err.value.size == 2_131_018

    def test_directed_kind_refused_before_census(self, monkeypatch):
        # the census holds undirected graphs, so a directed outcome arc
        # such as (2, 1) has no class to look up
        def no_census(n):
            raise AssertionError("a census was computed")

        monkeypatch.setattr(oracle, "_census", no_census)
        with pytest.raises(ProcessGraphMismatchError):
            nonmonotone_search(3, DHOP)


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

    def test_no_trials_refused_before_oracle_work(self, monkeypatch):
        def no_oracle(g, kind):
            raise AssertionError("the oracle was run")

        monkeypatch.setattr(oracle, "expected_rounds", no_oracle)
        monkeypatch.setattr(oracle, "single_round_distribution", no_oracle)
        with pytest.raises(ValueError, match="trials"):
            empirical_vs_exact(path_graph(3), TRI, 0, 1)

    def test_outcome_outside_the_support_raises(self, monkeypatch):
        # a round no triangulation can make: all three missing edges of P4,
        # (0, 3) among them, which no node sees as a pair of neighbours
        def closes_at_once(g, rng, round_index=0):
            added = [(0, 2), (0, 3), (1, 3)]
            for u, v in added:
                g.add_edge(u, v)
            return process.RoundOutcome(round_index, added, g.edge_count)

        monkeypatch.setattr(process, "triangulation_round", closes_at_once)
        with pytest.raises(AssertionError, match="outside oracle support") as info:
            empirical_vs_exact(path_graph(4), TRI, trials=3, seed=1)
        assert "frozenset({(0, 2), (0, 3), (1, 3)})" in str(info.value)

    def test_twohop_distribution_consistency(self):
        report = empirical_vs_exact(cycle_graph(4), HOP, trials=20_000, seed=77)
        assert report["p_value"] > 0.001
        assert abs(report["z"]) <= 3.0

    def test_runs_where_scipy_cannot_be_imported(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        report = empirical_vs_exact(path_graph(3), TRI, trials=2000, seed=424242)
        assert 0 < report["p_value"] <= 1


def test_chi2_tail_matches_scipy_on_a_grid():
    # the closed form against scipy's incomplete gamma, wherever scipy's
    # value is a normal double well above underflow; skipped where scipy
    # is missing or cannot load
    stats = pytest.importorskip("scipy.stats", exc_type=ImportError)
    grid = [0.01 * 1.1**i for i in range(123)] + [1200.0]
    rng = random.Random(20)
    xs = grid + [rng.uniform(0.01, 1200) for _ in range(40)]
    for df in range(1, 301):
        assert oracle._chi2_sf(0.0, df) == 1.0
        for x, ref in zip(xs, stats.chi2.sf(xs, df)):
            if ref > 1e-280:
                assert oracle._chi2_sf(x, df) == pytest.approx(ref, rel=1e-12, abs=0), (x, df)
