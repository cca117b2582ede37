import random
from collections import Counter

import pytest

from gossip_sim.generators import (
    FAMILIES,
    FamilyConstraintError,
    complete_graph,
    cycle_graph,
    directed_strong_lb,
    directed_weak_lb,
    generate,
    lollipop_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from gossip_sim.graph import (
    UndirectedGraph,
    format_edge_list,
    is_strongly_connected,
    is_weakly_connected,
    transitive_closure,
)
from gossip_sim.process import triangulation_round


class TestStandardFamilies:
    def test_path(self):
        g = path_graph(4)
        assert set(g.edges()) == {(0, 1), (1, 2), (2, 3)}
        assert g.min_degree() == 1

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.edge_count == 6
        assert all(g.degree(u) == 2 for u in range(6))

    def test_star_and_complete(self):
        assert star_graph(5).degree(0) == 4
        assert complete_graph(5).is_complete()

    def test_small_n_rejected(self):
        with pytest.raises(FamilyConstraintError):
            path_graph(1)
        with pytest.raises(FamilyConstraintError):
            cycle_graph(2)


class TestRandomConnected:
    def test_p_zero_gives_spanning_tree(self):
        g = random_connected_graph(10, 0.0, seed=42)
        assert g.edge_count == 9
        assert g.is_connected()

    def test_p_one_gives_complete(self):
        assert random_connected_graph(8, 1.0, seed=1).is_complete()

    def test_deterministic_in_seed(self):
        a = random_connected_graph(12, 0.3, seed=7)
        b = random_connected_graph(12, 0.3, seed=7)
        c = random_connected_graph(12, 0.3, seed=8)
        assert format_edge_list(a) == format_edge_list(b)
        assert format_edge_list(a) != format_edge_list(c)

    def test_edges_pinned(self):
        # frozen so that seeded sweeps over the random family cannot drift
        assert list(random_connected_graph(16, 0.1, seed=7).edges()) == [
            (0, 3), (0, 7), (0, 9), (0, 11), (0, 15), (1, 5), (1, 8), (1, 9),
            (1, 14), (1, 15), (2, 13), (3, 8), (3, 15), (4, 5), (4, 6), (4, 12),
            (5, 6), (5, 8), (6, 7), (6, 11), (10, 11), (10, 13), (11, 12),
            (11, 14), (12, 13), (12, 14),
        ]

    def test_always_connected(self):
        for seed in range(30):
            assert random_connected_graph(9, 0.1, seed=seed).is_connected()

    def test_stream_independent_of_a_process_on_the_same_seed(self):
        # a sweep trial seeds both the generator and the process with one
        # value; the centre of a random P3 must not fix the centre's draw
        counts = Counter()
        for seed in range(200):
            g = random_connected_graph(3, 0.0, seed)
            centre = next(u for u in range(3) if g.degree(u) == 2)
            log = []
            triangulation_round(g.copy(), random.Random(seed), draw_log=log)
            first = next(v for u, v, _ in log if u == centre)
            counts[centre, g.neighbors(centre).index(first)] += 1
        for centre in range(3):
            seen = counts[centre, 0] + counts[centre, 1]
            assert seen >= 40
            assert max(counts[centre, 0], counts[centre, 1]) <= 0.8 * seen

    def test_two_nodes_give_the_one_edge(self):
        # the empty Pruefer sequence leaves the one edge, whatever the seed
        for seed in range(5):
            assert list(random_connected_graph(2, 1.0, seed).edges()) == [(0, 1)]

    def test_p_out_of_range(self):
        with pytest.raises(FamilyConstraintError):
            random_connected_graph(5, 1.5, seed=0)


class TestLollipop:
    def test_half_clique_shape(self):
        g = lollipop_graph(10, 0.5)
        assert g.is_connected()
        # clique on 5 nodes plus a 5-node pendant path
        assert g.edge_count == 10 + 5
        assert g.degree(9) == 1

    def test_full_clique_fraction(self):
        assert lollipop_graph(6, 1.0).is_complete()

    def test_bad_fraction(self):
        with pytest.raises(FamilyConstraintError):
            lollipop_graph(6, 0.0)


class TestDirectedWeakLB:
    def test_n8_structure(self):
        g = directed_weak_lb(8)
        assert g.edge_count == 12
        assert sorted(g.neighbors(0)) == [1, 6, 7]
        closure = transitive_closure(g)
        missing = [e for e in closure.edges() if not g.has_edge(*e)]
        assert missing == [(0, 2), (3, 5)]

    def test_n4_instance(self):
        g = directed_weak_lb(4)
        assert set(g.edges()) == {(0, 1), (1, 2), (0, 3), (1, 3)}

    def test_weak_but_not_strong(self):
        g = directed_weak_lb(8)
        assert is_weakly_connected(g)
        assert not is_strongly_connected(g)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_quarter_of_nodes_missing_from_closure(self, n):
        g = directed_weak_lb(n)
        closure = transitive_closure(g)
        missing = [e for e in closure.edges() if not g.has_edge(*e)]
        assert len(missing) == n // 4
        assert all(b - a == 2 and a % 3 == 0 for a, b in missing)

    def test_hubs_have_no_out_edges(self):
        g = directed_weak_lb(8)
        assert g.degree(6) == 0
        assert g.degree(7) == 0

    def test_divisibility_constraint(self):
        with pytest.raises(FamilyConstraintError):
            directed_weak_lb(10)


class TestDirectedStrongLB:
    def test_n4_structure(self):
        g = directed_strong_lb(4)
        assert g.edge_count == 9
        closure = transitive_closure(g)
        added = [e for e in closure.edges() if not g.has_edge(*e)]
        # 1-indexed (1,3), (1,4), (2,4)
        assert added == [(0, 2), (0, 3), (1, 3)]
        # 1-indexed node 3 points at 4, 1, 2
        assert sorted(g.neighbors(2)) == [0, 1, 3]

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_strongly_connected(self, n):
        assert is_strongly_connected(directed_strong_lb(n))

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_min_out_degree_is_half_minus_one(self, n):
        g = directed_strong_lb(n)
        assert g.min_degree() == n // 2 - 1
        assert g.degree(0) == n // 2 - 1

    def test_constraints(self):
        with pytest.raises(FamilyConstraintError):
            directed_strong_lb(5)
        with pytest.raises(FamilyConstraintError):
            directed_strong_lb(2)


class TestGenerateDispatch:
    def test_each_family(self):
        assert generate("path", 4).edge_count == 3
        assert generate("cycle", 4).edge_count == 4
        assert generate("star", 4).edge_count == 3
        assert generate("complete", 4).edge_count == 6
        assert generate("random", 6, seed=3, p=0.0).edge_count == 5
        assert generate("lollipop", 8).is_connected()
        assert generate("dweak", 8).edge_count == 12
        assert generate("dstrong", 4).edge_count == 9

    def test_random_needs_p(self):
        with pytest.raises(FamilyConstraintError):
            generate("random", 6)

    def test_membership_matches_the_lists_in_every_family(self):
        for family in FAMILIES:
            g = generate(family, 16, seed=5, p=0.3 if family == "random" else None)
            lists = [g.neighbors(u) for u in range(16)]
            assert sum(map(len, lists)) == g.edge_count * (2 if isinstance(g, UndirectedGraph) else 1)
            for u, out in enumerate(lists):
                assert len(out) == len(set(out))
                assert [v for v in range(16) if g.has_edge(u, v)] == sorted(out)

    def test_parameter_the_family_does_not_take_refused(self):
        # only random reads p and only lollipop reads clique_frac
        with pytest.raises(FamilyConstraintError, match="path family takes no p"):
            generate("path", 5, p=2.0)
        with pytest.raises(FamilyConstraintError, match="takes no clique_frac"):
            generate("random", 6, seed=3, p=0.1, clique_frac=0.5)
        with pytest.raises(FamilyConstraintError, match="takes no clique_frac, p"):
            generate("dstrong", 8, p=0.1, clique_frac=0.5)
        assert generate("lollipop", 10, clique_frac=0.3).edge_count == 10

    def test_families_keep_their_order(self):
        assert FAMILIES == (
            "path", "cycle", "star", "complete", "random", "lollipop", "dweak", "dstrong",
        )

    def test_unknown_family(self):
        with pytest.raises(FamilyConstraintError):
            generate("hypercube", 8)
