import random

import pytest

from gossip_sim.analysis import (
    PH_STEP_LIMIT,
    PhTable,
    RoundTrace,
    TieClass,
    TraceCollector,
    chain_span_presence,
    min_four_hop_reach,
    ph_bound_check,
    ph_constants_ok,
    ph_recurrence,
    smallest_untouched_cut,
    tie_class,
    traces_to_csv,
)
from gossip_sim.generators import (
    complete_graph,
    cycle_graph,
    directed_strong_lb,
    path_graph,
)
from gossip_sim.graph import DirectedGraph
from gossip_sim.process import (
    ProcessConfig,
    ProcessKind,
    convergence_target,
    directed_twohop_round,
    run_to_convergence,
)


class TestTieClass:
    def test_complete_graph_is_strongly_tied(self):
        g = complete_graph(4)
        assert tie_class(g, 0, {1, 2, 3}, delta0=3) is TieClass.STRONG

    def test_path_endpoint_is_weakly_tied(self):
        g = path_graph(3)
        assert tie_class(g, 0, {2}, delta0=1) is TieClass.WEAK

    def test_cycle_node_not_tied_to_its_two_hop_set(self):
        g = cycle_graph(6)
        assert g.khop_neighborhood(0, 2) == {2, 4}
        assert g.induced_degree(0, {2, 4}) == 0
        assert tie_class(g, 0, {2, 4}, delta0=2) is TieClass.WEAK
        # and the node is trivially strongly tied to its own neighbors
        assert tie_class(g, 0, {1, 5}, delta0=2) is TieClass.STRONG

    def test_threshold_is_not_rounded(self):
        # delta0 = 3 puts the cut at 1.5 edges: two edges in, one edge out
        g = complete_graph(5)
        assert tie_class(g, 0, {1, 2}, delta0=3) is TieClass.STRONG
        assert tie_class(g, 0, {1}, delta0=3) is TieClass.WEAK

    def test_flips_only_weak_to_strong_as_edges_arrive(self):
        g = path_graph(5)
        target = {3, 4}
        states = [tie_class(g, 0, target, delta0=2)]
        for edge in [(0, 3), (0, 4)]:
            g.add_edge(*edge)
            states.append(tie_class(g, 0, target, delta0=2))
        assert states == [TieClass.WEAK, TieClass.STRONG, TieClass.STRONG]

    def test_bad_delta0(self):
        with pytest.raises(ValueError):
            tie_class(path_graph(3), 0, {1}, delta0=0)


class TestFourHopReach:
    def test_cycle_bound(self):
        g = cycle_graph(6)
        assert min_four_hop_reach(g) == 5
        assert min_four_hop_reach(g) >= min(2 * g.min_degree(), g.n - 1)

    def test_long_path_bound(self):
        g = path_graph(12)
        assert min_four_hop_reach(g) >= min(2 * g.min_degree(), g.n - 1)


class TestSmallestUntouchedCut:
    @pytest.mark.parametrize("n", list(range(4, 65, 2)))
    def test_fresh_strong_lb_starts_at_half(self, n):
        g = directed_strong_lb(n)
        assert smallest_untouched_cut(g, chain_start=n // 2) == n // 2

    def test_crossing_edge_advances_the_cut(self):
        n = 8
        g = directed_strong_lb(n)
        # 1-indexed (n/2 - 1, n/2 + 1) crosses the cut at n/2
        g.add_edge(n // 2 - 2, n // 2)
        assert smallest_untouched_cut(g, chain_start=n // 2) > n // 2

    def test_complete_digraph_has_no_untouched_cut(self):
        g = DirectedGraph(5, [(u, v) for u in range(5) for v in range(5) if u != v])
        assert smallest_untouched_cut(g) is None


class TestTraceCollector:
    def test_complete_graph_run_has_empty_trace(self):
        collector = TraceCollector()
        g = complete_graph(5)
        run_to_convergence(
            g, ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=0), collector
        )
        assert len(collector) == 0

    def test_p3_successful_round_record(self):
        # find a seed whose run closes P3 in its first round, then check the record
        config = lambda s: ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=s)
        seed = next(s for s in range(50) if run_to_convergence(path_graph(3), config(s))[0] == 1)
        collector = TraceCollector()
        g = path_graph(3)
        rounds, _ = run_to_convergence(g, config(seed), collector)
        assert rounds == 1
        trace = collector.traces[0]
        assert trace.round == 0
        assert trace.min_degree == 1
        assert trace.missing_edges == 1
        assert trace.edges_added == 1

    def test_columns_are_monotone(self):
        collector = TraceCollector()
        g = cycle_graph(10)
        run_to_convergence(
            g, ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=4), collector
        )
        degrees = [t.min_degree for t in collector]
        missing = [t.missing_edges for t in collector]
        assert all(b >= a for a, b in zip(degrees, degrees[1:]))
        assert all(b <= a for a, b in zip(missing, missing[1:]))

    @pytest.mark.parametrize(
        "make, kind",
        [
            (lambda: cycle_graph(40), ProcessKind.TRIANGULATION),
            (lambda: directed_strong_lb(32), ProcessKind.TWOHOP_DIRECTED),
        ],
        ids=["cycle40-tri", "dstrong32-dtwohop"],
    )
    def test_min_degree_matches_a_scan(self, make, kind):
        collector = TraceCollector()
        scanned = []

        class Sink:
            def begin_round(self, g, index, missing):
                scanned.append(g.min_degree())
                collector.begin_round(g, index, missing)

            def end_round(self, outcome):
                collector.end_round(outcome)

        run_to_convergence(make(), ProcessConfig(kind=kind, seed=3), Sink())
        assert len(scanned) > 10
        assert [t.min_degree for t in collector] == scanned

    def test_cut_tracking_on_strong_lb(self):
        # the cut read before each round of a seeded run to convergence
        n = 8
        g = directed_strong_lb(n)
        target = convergence_target(g, ProcessKind.TWOHOP_DIRECTED)
        rng = random.Random(7)
        cuts = []
        while g.edge_count < target:
            cuts.append(smallest_untouched_cut(g, n // 2))
            directed_twohop_round(g, rng, len(cuts) - 1)
        assert cuts[0] == n // 2
        real = [c for c in cuts if c is not None]
        assert all(b >= a for a, b in zip(real, real[1:]))

    def test_csv_serialization(self):
        traces = [RoundTrace(0, 2, 5, 1), RoundTrace(1, 2, 4, 0)]
        lines = traces_to_csv(traces).splitlines()
        assert lines == [
            "round,min_degree,missing_edges,edges_added",
            "0,2,5,1",
            "1,2,4,0",
        ]


class TestPhRecurrence:
    def test_first_step_value(self):
        table = ph_recurrence(10, 1, 4)
        assert table.q(2, 1) == pytest.approx(4 / 100, abs=0)
        assert table.q(3, 1) == 0.0
        assert table.q(4, 0) == 0.0

    def test_nondecreasing_in_time(self):
        table = ph_recurrence(8, 40, 6)
        for h in range(2, 7):
            values = [table.q(h, t) for t in range(41)]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_values_pinned(self):
        # recorded from the full-table recurrence; the one-column form must
        # give the same floats
        table = ph_recurrence(100, 100, 8)
        assert table.q(2, 1) == 0.0004
        assert table.q(2, 100) == 0.04004268018886044
        assert table.q(5, 50) == 1.4657498310207186e-07
        assert table.q(8, 100) == 1.4674532685059498e-10
        table = ph_recurrence(32, 10, 3)
        assert table.q(2, 10) == 0.039091778378981104
        assert table.q(3, 10) == 0.0013743466772805856
        # at n = 8 the longer spans fill within T, so the best position's
        # increment shows in every span
        table = ph_recurrence(8, 40, 6)
        assert table.q(2, 4) == 0.2542247772216797
        assert table.q(4, 10) == 0.24038913216144503
        assert table.q(6, 15) == 0.917668278010723

    def test_values_clamp_at_one(self):
        table = ph_recurrence(4, 200, 3)
        assert table.q(2, 200) == 1.0

    def test_constants_validation(self):
        assert ph_constants_ok(9.0, 0.01)
        assert not ph_constants_ok(8.0, 0.01)  # needs >= 8.3956...
        assert not ph_constants_ok(9.0, 0.2)  # alpha * eps >= 1
        # the recurrence has no constants; the check refuses bad ones
        table = ph_recurrence(10, 5, 4)
        with pytest.raises(ValueError, match="violate"):
            ph_bound_check(table, alpha=1.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            ph_recurrence(3, 5, 2)
        with pytest.raises(ValueError):
            ph_recurrence(10, -1, 2)
        with pytest.raises(ValueError):
            ph_recurrence(10, 5, 1)

    def test_size_beyond_the_step_budget_refused(self):
        # refused before anything is allocated
        with pytest.raises(ValueError, match="recurrence steps"):
            ph_recurrence(10_000, 10**6, 8)
        with pytest.raises(ValueError, match="recurrence steps"):
            ph_recurrence(4, PH_STEP_LIMIT // 16 + 1, 2)


class TestPhBoundCheck:
    def test_reference_constants_pass(self):
        table = ph_recurrence(100, 100, 8)
        assert ph_bound_check(table)

    def test_zero_alpha_refused(self):
        table = ph_recurrence(10, 1, 2)
        with pytest.raises(ValueError, match="violate"):
            ph_bound_check(table, alpha=0.0, eps=0.01)

    def test_zero_eps_is_vacuously_true(self):
        table = ph_recurrence(10, 1, 2)
        assert ph_bound_check(table, eps=0.0)

    def test_constants_passed_to_the_check(self):
        # the looser valid pairs pass where the reference pair does
        table = ph_recurrence(100, 100, 8)
        assert ph_bound_check(table, 8.4, 0.01)
        assert ph_bound_check(table, 8.05, 0.001)

    def test_short_table_rejected(self):
        table = ph_recurrence(100, 10, 4)
        with pytest.raises(ValueError):
            ph_bound_check(table)

    def test_q_accessor_bounds(self):
        table = ph_recurrence(10, 2, 4)
        with pytest.raises(ValueError):
            table.q(1, 0)
        with pytest.raises(ValueError):
            table.q(2, 3)


class TestChainSpanPresence:
    def test_shapes_and_zero_start(self):
        freqs = chain_span_presence(8, rounds=3, trials=40, master_seed=5)
        assert set(freqs) == {(h, t) for h in (2, 3) for t in range(4)}
        for h in (2, 3):
            for t in range(4):
                mean, se = freqs[(h, t)]
                assert 0.0 <= mean <= 1.0
                assert se >= 0.0
            assert freqs[(h, 0)][0] == 0.0

    def test_values_pinned(self):
        # recorded with a fresh instance built per trial; copying one built
        # instance must give the same floats
        assert chain_span_presence(8, rounds=3, trials=40, master_seed=5) == {
            (2, 0): (0.0, 0.0),
            (2, 1): (0.03333333333333333, 0.019971489650509246),
            (2, 2): (0.058333333333333334, 0.023532422926144436),
            (2, 3): (0.08333333333333334, 0.0286197190602619),
            (3, 0): (0.0, 0.0),
            (3, 1): (0.0, 0.0),
            (3, 2): (0.0, 0.0),
            (3, 3): (0.0, 0.0),
        }

    @pytest.mark.parametrize("n, trials", [(4, 10), (8, 1)], ids=["no-span-3", "one-trial"])
    def test_refuses_inputs_without_an_estimate(self, n, trials):
        with pytest.raises(ValueError, match="n >= 6 and trials >= 2"):
            chain_span_presence(n, rounds=2, trials=trials, master_seed=5)
