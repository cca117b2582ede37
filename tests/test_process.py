import math
import random
import statistics

import pytest

from gossip_sim import process
from gossip_sim.generators import (
    complete_graph,
    cycle_graph,
    directed_strong_lb,
    directed_weak_lb,
    path_graph,
    star_graph,
)
from gossip_sim.graph import DirectedGraph, IsolatedNodeError, UndirectedGraph
from gossip_sim.process import (
    DegreeDoublingViolation,
    DisconnectedGraphError,
    ProcessConfig,
    ProcessGraphMismatchError,
    ProcessKind,
    directed_twohop_round,
    mix64,
    run_to_convergence,
    trial_seed,
    triangulation_round,
    twohop_round,
)


class TestSeedDerivation:
    def test_mixing_is_deterministic_and_pinned(self):
        # frozen so the published seed derivation cannot drift silently
        assert trial_seed(0, 0) == trial_seed(0, 0)
        assert trial_seed(0, 0) == 16294208416658607535
        assert mix64(0) == 0

    def test_trials_get_distinct_seeds(self):
        seeds = {trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)


class TestTriangulationRound:
    def test_complete_graph_adds_nothing(self):
        g = complete_graph(3)
        rng = random.Random(5)
        for _ in range(20):
            outcome = triangulation_round(g, rng)
            assert outcome.edges_added == []

    def test_p3_completion_probability_is_half(self):
        # exact law: the center's ordered pair draw is distinct w.p. 1/2
        trials = 20_000
        hits = 0
        rng = random.Random(11)
        for _ in range(trials):
            g = path_graph(3)
            outcome = triangulation_round(g, rng)
            if outcome.edges_added:
                assert outcome.edges_added == [(0, 2)]
                hits += 1
        sigma = math.sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) <= 3 * sigma

    def test_star4_leaf_pair_probability(self):
        # only the center can act; ordered distinct leaf pairs: 6 of 9
        trials = 20_000
        hits = 0
        rng = random.Random(123)
        for _ in range(trials):
            outcome = triangulation_round(star_graph(4), rng)
            hits += bool(outcome.edges_added)
        p = 2 / 3
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma

    def test_draws_use_snapshot(self):
        rng = random.Random(3)
        for _ in range(100):
            g = cycle_graph(6)
            before = [set(g.neighbors(u)) for u in range(6)]
            log: list[tuple[int, int, int]] = []
            triangulation_round(g, rng, draw_log=log)
            assert len(log) == 6
            for u, v, w in log:
                assert v in before[u] and w in before[u]

    def test_isolated_node_identified(self):
        g = UndirectedGraph(3, [(0, 1)])
        with pytest.raises(IsolatedNodeError) as err:
            triangulation_round(g, random.Random(0))
        assert err.value.node == 2

    def test_degree_at_most_doubles(self):
        rng = random.Random(17)
        for _ in range(50):
            g = cycle_graph(12)
            while not g.is_complete():
                before = [g.degree(u) for u in range(12)]
                triangulation_round(g, rng)
                for u in range(12):
                    assert g.degree(u) <= 2 * before[u]

    def test_degree_doubling_check_raises(self):
        # node 0 has degree 1 and would gain two edges
        with pytest.raises(DegreeDoublingViolation):
            process._check_degree_doubling(path_graph(4), [(0, 2), (0, 3)])

    def test_engine_rounds_pass_the_degree_doubling_check(self, monkeypatch):
        # cycle(64) reaches the tail engine, whose executed rounds are
        # checked as the kernel's are: every executed round's edges, in order
        checked, executed = [], []
        original = process._check_degree_doubling

        def recorder(g, queued):
            checked.append(list(queued))
            original(g, queued)

        class Sink:
            def begin_round(self, g, index, missing):
                pass

            def end_round(self, outcome):
                executed.append(outcome.edges_added)

        monkeypatch.setattr(process, "_check_degree_doubling", recorder)
        config = ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=trial_seed(1, 1))
        rounds, capped = run_to_convergence(cycle_graph(64), config, Sink())
        assert not capped and rounds > len(executed)
        assert checked == executed


class TestTwoHopRound:
    def test_complete_graph_adds_nothing(self):
        g = complete_graph(4)
        rng = random.Random(5)
        assert twohop_round(g, rng).edges_added == []

    def test_p3_completes_with_probability_three_quarters(self):
        trials = 20_000
        hits = 0
        rng = random.Random(29)
        for _ in range(trials):
            g = path_graph(3)
            outcome = twohop_round(g, rng)
            if outcome.edges_added:
                assert outcome.edges_added == [(0, 2)]
                hits += 1
        p = 3 / 4
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma

    def test_c4_walk_from_corner_reaches_opposite_half_the_time(self):
        trials = 20_000
        hits = 0
        rng = random.Random(31)
        for _ in range(trials):
            g = cycle_graph(4)
            log: list[tuple[int, int, int]] = []
            twohop_round(g, rng, draw_log=log)
            u, v, w = log[0]
            assert u == 0 and v in (1, 3)
            hits += w == 2
        sigma = math.sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) <= 3 * sigma

    def test_walk_reads_snapshot(self):
        rng = random.Random(37)
        for _ in range(100):
            g = path_graph(5)
            before = [set(g.neighbors(u)) for u in range(5)]
            log: list[tuple[int, int, int]] = []
            twohop_round(g, rng, draw_log=log)
            for u, v, w in log:
                assert v in before[u] and w in before[v]


class TestDirectedRound:
    def test_three_cycle_is_deterministic(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        outcome = directed_twohop_round(g, random.Random(0))
        assert set(outcome.edges_added) == {(0, 2), (1, 0), (2, 1)}

    def test_weak_lb_first_edge_probability(self):
        # walk 0 -> 1 -> 2 has probability 1/9; nobody else can add (0, 2)
        trials = 20_000
        hits = 0
        rng = random.Random(41)
        for _ in range(trials):
            g = directed_weak_lb(8)
            outcome = directed_twohop_round(g, rng)
            hits += (0, 2) in outcome.edges_added
        p = 1 / 9
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma
        assert p <= 16 / 64

    def test_sink_nodes_skip_without_error(self):
        g = DirectedGraph(2, [(0, 1)])
        outcome = directed_twohop_round(g, random.Random(0))
        assert outcome.edges_added == []


class TestRunToConvergence:
    def test_complete_inputs_take_zero_rounds(self):
        for kind in (ProcessKind.TRIANGULATION, ProcessKind.TWOHOP_UNDIRECTED):
            g = complete_graph(5)
            config = ProcessConfig(kind=kind, seed=1)
            assert run_to_convergence(g, config) == (0, False)

    def test_p3_triangulation_mean_rounds(self):
        rounds = []
        for i in range(10_000):
            g = path_graph(3)
            config = ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=trial_seed(7, i))
            r, capped = run_to_convergence(g, config)
            assert not capped
            rounds.append(r)
        assert abs(statistics.fmean(rounds) - 2.0) <= 0.05

    def test_p3_twohop_mean_rounds(self):
        rounds = []
        for i in range(10_000):
            g = path_graph(3)
            config = ProcessConfig(kind=ProcessKind.TWOHOP_UNDIRECTED, seed=trial_seed(8, i))
            r, capped = run_to_convergence(g, config)
            assert not capped
            rounds.append(r)
        assert abs(statistics.fmean(rounds) - 4 / 3) <= 0.04

    def test_deterministic_edge_history(self):
        class Recorder:
            def __init__(self):
                self.history = []

            def begin_round(self, g, index, missing):
                pass

            def end_round(self, outcome):
                self.history.append(tuple(outcome.edges_added))

        histories = []
        for _ in range(2):
            g = cycle_graph(8)
            rec = Recorder()
            config = ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=99)
            rounds, capped = run_to_convergence(g, config, trace_sink=rec)
            histories.append((rounds, capped, rec.history))
        assert histories[0] == histories[1]

    def test_disconnected_input_has_no_convergence_target(self):
        g = UndirectedGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            process.convergence_target(g, ProcessKind.TRIANGULATION)

    def test_disconnected_input_rejected_before_round_zero(self):
        g = UndirectedGraph(4, [(0, 1), (2, 3)])
        config = ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=0)
        with pytest.raises(DisconnectedGraphError):
            run_to_convergence(g, config)

    def test_kind_graph_mismatch(self):
        with pytest.raises(ProcessGraphMismatchError):
            run_to_convergence(
                path_graph(3), ProcessConfig(kind=ProcessKind.TWOHOP_DIRECTED, seed=0)
            )
        with pytest.raises(ProcessGraphMismatchError):
            run_to_convergence(
                DirectedGraph(3, [(0, 1), (1, 2)]),
                ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=0),
            )

    def test_round_cap_reports_capped(self):
        g = path_graph(4)
        config = ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=5, max_rounds=1)
        rounds, capped = run_to_convergence(g, config)
        assert rounds == 1
        assert capped

    def test_directed_terminates_exactly_at_closure(self):
        from gossip_sim.graph import transitive_closure

        for seed in range(10):
            g = directed_weak_lb(8)
            closure_edges = set(transitive_closure(g).edges())
            config = ProcessConfig(kind=ProcessKind.TWOHOP_DIRECTED, seed=trial_seed(3, seed))
            _, capped = run_to_convergence(g, config)
            assert not capped
            assert set(g.edges()) == closure_edges

    def test_monotone_growth_and_snapshot_of_trace(self):
        class MissingRecorder:
            def __init__(self):
                self.missing = []

            def begin_round(self, g, index, missing):
                self.missing.append(missing)

            def end_round(self, outcome):
                pass

        g = cycle_graph(10)
        rec = MissingRecorder()
        config = ProcessConfig(kind=ProcessKind.TWOHOP_UNDIRECTED, seed=21)
        run_to_convergence(g, config, trace_sink=rec)
        assert all(b <= a for a, b in zip(rec.missing, rec.missing[1:]))


class TestProcessConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=0, max_rounds=0)
        with pytest.raises(ValueError):
            ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=-1)
        with pytest.raises(ValueError):
            ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=2**64)


class TestReferenceStream:
    """The reference kernels' random stream, pinned across versions.

    Later engines are judged against these kernels, so a refactor that
    changes which draws are made, or in what order, must fail here.
    """

    @pytest.mark.parametrize(
        "make, kind, expected",
        [
            (lambda: cycle_graph(16), ProcessKind.TRIANGULATION, [52, 38, 51, 48, 45]),
            (lambda: cycle_graph(16), ProcessKind.TWOHOP_UNDIRECTED, [31, 41, 51, 53, 50]),
            (lambda: directed_weak_lb(8), ProcessKind.TWOHOP_DIRECTED, [15, 3, 27, 7, 3]),
        ],
    )
    def test_rounds_to_convergence(self, make, kind, expected):
        step = process.round_function(kind)
        rounds = []
        for i in range(5):
            g = make()
            target = process.convergence_target(g, kind)
            rng = random.Random(trial_seed(1, i))
            r = 0
            while g.edge_count < target:
                step(g, rng, round_index=r)
                r += 1
            rounds.append(r)
        assert rounds == expected

    def test_skipped_draws_consume_nothing(self):
        # dweak(8) has sinks and first hops onto sinks; both must skip
        # without drawing, which fixes the generator's next output
        rng = random.Random(trial_seed(1, 0))
        directed_twohop_round(directed_weak_lb(8), rng)
        assert rng.random() == 0.511103984546981


class TestKernelSeam:
    def test_directed_kernel_is_resolved_at_call_time(self, monkeypatch):
        # the kernel runs round 0 of dstrong(16); under this seed that round
        # adds fewer than TAIL_SHARE * n arcs, and the tail engine takes over
        calls = []
        original = process.directed_twohop_round
        g = directed_strong_lb(16)
        target = process.convergence_target(g, ProcessKind.TWOHOP_DIRECTED)

        def spy(g, rng, round_index=0, draw_log=None):
            outcome = original(g, rng, round_index, draw_log)
            calls.append((round_index, len(outcome.edges_added)))
            return outcome

        monkeypatch.setattr(process, "directed_twohop_round", spy)
        assert process.round_function(ProcessKind.TWOHOP_DIRECTED) is spy
        config = ProcessConfig(kind=ProcessKind.TWOHOP_DIRECTED, seed=trial_seed(1, 1))
        rounds, capped = process.run_to_convergence(g, config)
        assert len(calls) == 1 and calls[0][0] == 0 and calls[0][1] < process.TAIL_SHARE * g.n
        assert rounds > len(calls) and not capped and g.edge_count == target

    @pytest.mark.parametrize(
        "kind, name",
        [
            (ProcessKind.TRIANGULATION, "triangulation_round"),
            (ProcessKind.TWOHOP_UNDIRECTED, "twohop_round"),
        ],
    )
    def test_kernels_run_until_a_round_yields_less_than_the_share(self, kind, name, monkeypatch):
        # cycle(64) hands over at its first kernel round adding fewer than
        # TAIL_SHARE * n = 4 edges
        added = []
        original = getattr(process, name)

        def spy(g, rng, round_index=0, draw_log=None):
            outcome = original(g, rng, round_index, draw_log)
            added.append(len(outcome.edges_added))
            return outcome

        monkeypatch.setattr(process, name, spy)
        g = cycle_graph(64)
        target = process.convergence_target(g, kind)
        rounds, capped = run_to_convergence(g, ProcessConfig(kind=kind, seed=trial_seed(1, 1)))
        share = process.TAIL_SHARE * g.n
        assert min(added[:-1]) >= share > added[-1]
        assert rounds > len(added) and not capped and g.edge_count == target

    def test_nearly_complete_input_runs_one_kernel_round_then_the_engine(self, monkeypatch):
        # K30 less one edge: round 0 is a kernel round, and under this seed
        # it adds nothing, so the engine takes every later round
        calls = []
        original = process.triangulation_round

        def spy(g, rng, round_index=0, draw_log=None):
            outcome = original(g, rng, round_index, draw_log)
            calls.append((round_index, len(outcome.edges_added)))
            return outcome

        monkeypatch.setattr(process, "triangulation_round", spy)
        g = UndirectedGraph(30, [e for e in complete_graph(30).edges() if e != (0, 1)])
        rounds, capped = run_to_convergence(g, ProcessConfig(kind=ProcessKind.TRIANGULATION, seed=0))
        assert calls == [(0, 0)]
        assert rounds > 1 and not capped and g.is_complete()
