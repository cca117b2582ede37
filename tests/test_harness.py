import concurrent.futures
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from gossip_sim import analysis, cli, harness
from gossip_sim.generators import path_graph
from gossip_sim.graph import MAX_NODES, write_edge_list
from gossip_sim.oracle import single_round_distribution
from gossip_sim.process import ProcessKind


def make_spec(**overrides):
    base = dict(
        family="path",
        kind=ProcessKind.TRIANGULATION,
        sizes=[8, 16],
        trials=10,
        master_seed=5,
    )
    base.update(overrides)
    return harness.ExperimentSpec(**base)


class TestRunSweep:
    def test_row_count_and_ordering(self):
        rows = harness.run_sweep(make_spec())
        assert len(rows) == 20
        assert [(r.n, r.trial) for r in rows] == [
            (n, t) for n in (8, 16) for t in range(10)
        ]
        assert all(not r.capped for r in rows)

    def test_identical_specs_give_identical_csv(self):
        a = harness.rows_to_csv(harness.run_sweep(make_spec()))
        b = harness.rows_to_csv(harness.run_sweep(make_spec()))
        assert a == b

    def test_parallel_equals_serial(self):
        serial = harness.run_sweep(make_spec(jobs=1))
        parallel = harness.run_sweep(make_spec(jobs=2))
        assert harness.rows_to_csv(serial) == harness.rows_to_csv(parallel)

    def test_pool_is_capped_at_the_task_count(self, monkeypatch):
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        spec = make_spec(sizes=[8], trials=2, jobs=5000)
        rows = harness.run_sweep(spec)
        assert started == [2]
        serial = harness.run_sweep(make_spec(sizes=[8], trials=2))
        assert harness.rows_to_csv(rows) == harness.rows_to_csv(serial)

    def test_max_rounds_refused_before_the_pool_starts(self, monkeypatch):
        started = []

        def pool(*args, **kwargs):
            started.append(kwargs)
            raise AssertionError("the process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        with pytest.raises(ValueError, match="max_rounds"):
            harness.run_sweep(make_spec(max_rounds=0, jobs=2))
        assert started == []

    @pytest.mark.parametrize(
        "spec, rounds, digest",
        [
            (
                make_spec(family="cycle", sizes=[8, 64, 300], trials=3, master_seed=7),
                [17, 12, 21, 302, 319, 258, 1870, 1791, 2405],
                "b25c19460e37c99faf3744c2f55d6c0b1f78b90c38d5d2c8597a32a1c8d89954",
            ),
            (
                make_spec(
                    family="dstrong", kind=ProcessKind.TWOHOP_DIRECTED, sizes=[8, 32], trials=4, master_seed=5
                ),
                [58, 59, 47, 48, 758, 994, 777, 959],
                "44b3ccd22e55231101e3c15a901c15f4877dbd330af1fb013a58719d88d88d33",
            ),
        ],
        ids=["cycle-tri", "dstrong-dtwohop"],
    )
    def test_seeded_csv_bytes_pinned(self, spec, rounds, digest):
        # the same bytes on every Python version; the 300-node cells reach
        # the tail engine
        rows = harness.run_sweep(spec)
        assert [r.rounds for r in rows] == rounds
        text = harness.rows_to_csv(rows) + harness.aggregates_to_csv(harness.aggregate_rows(rows))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_cap_is_reported(self):
        # one triangulation round cannot finish P4: no single-round outcome
        # adds all three missing edges
        dist = single_round_distribution(path_graph(4), ProcessKind.TRIANGULATION)
        assert all(len(edges) < 3 for edges in dist)
        rows = harness.run_sweep(make_spec(sizes=[4], trials=5, max_rounds=1))
        assert all(r.capped and r.rounds == 1 for r in rows)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_spec(sizes=[])
        with pytest.raises(ValueError):
            make_spec(trials=0)
        with pytest.raises(ValueError):
            make_spec(jobs=0)

    @pytest.mark.parametrize("sizes", [[8, MAX_NODES + 1], [0, 8], [-1]])
    def test_sizes_outside_the_graph_bound_refused(self, sizes):
        with pytest.raises(ValueError, match=str(MAX_NODES)):
            make_spec(sizes=sizes)

    def test_cells_above_the_bound_refused(self):
        assert make_spec(sizes=[8], trials=harness.MAX_SWEEP_CELLS).trials == harness.MAX_SWEEP_CELLS
        with pytest.raises(ValueError, match="MAX_SWEEP_CELLS"):
            make_spec(sizes=[8, 16], trials=harness.MAX_SWEEP_CELLS // 2 + 1)

    def test_repeated_sizes_refused(self):
        # rows are keyed by (n, trial): a repeated size would give two
        # differently seeded rows for one key, pooled as one cell
        with pytest.raises(ValueError, match="distinct"):
            make_spec(sizes=[4, 4], trials=2)


class TestAggregation:
    def test_aggregates_match_recomputation(self):
        rows = harness.run_sweep(make_spec())
        aggs = harness.aggregate_rows(rows)
        again = harness.aggregate_rows(harness.rows_from_csv(harness.rows_to_csv(rows)))
        assert aggs == again
        assert [a.n for a in aggs] == [8, 16]
        assert aggs[0].trials == 10

    def test_normalizations(self):
        rows = [
            harness.TrialRow("path", 10, "tri", t, 0, 50, False) for t in range(4)
        ]
        (agg,) = harness.aggregate_rows(rows)
        assert agg.median == 50
        assert agg.per_n_log_n == pytest.approx(50 / (10 * math.log(10)))
        assert agg.per_n_log2_n == pytest.approx(50 / (10 * math.log(10) ** 2))
        assert agg.per_n_sq == pytest.approx(0.5)

    def test_quantiles(self):
        def p05_p95(rounds):
            rows = [
                harness.TrialRow("path", 8, "tri", t, 0, r, False)
                for t, r in enumerate(rounds)
            ]
            (agg,) = harness.aggregate_rows(rows)
            return agg.p05, agg.p95

        # one trial is every quantile of itself
        assert p05_p95([7]) == (7.0, 7.0)
        # 21 evenly spaced values put p05 and p95 on the 2nd and 20th
        assert p05_p95(range(100, 310, 10)) == (110.0, 290.0)
        # interpolating large round counts leaves no float noise to print
        p05, p95 = p05_p95(range(4200126, 4200266, 7))
        assert (repr(p05), repr(p95)) == ("4200132.65", "4200252.35")

    def test_csv_headers_pinned(self):
        # the headers follow the record fields; files already written need
        # these exact bytes
        assert harness.ROWS_CSV_HEADER == "family,n,process,trial,seed,rounds,capped"
        assert harness.aggregates_to_csv([]) == (
            "family,n,process,trials,mean,median,p05,p95,"
            "per_n_log_n,per_n_log2_n,per_n_sq,capped_trials\n"
        )

    def test_csv_cells(self):
        rows = [harness.TrialRow("path", 8, "tri", 0, 5, 12, True)]
        assert harness.rows_to_csv(rows).splitlines()[1] == "path,8,tri,0,5,12,1"
        agg = harness.AggregateRow("path", 8, "tri", 3, 1 / 3, 2.0, 1.5, 2.5, 0.1, 0.2, 0.3, 0)
        assert harness.aggregates_to_csv([agg]).splitlines()[1] == (
            "path,8,tri,3,0.333333333,2.0,1.5,2.5,0.1,0.2,0.3,0"
        )

    def test_csv_round_trip(self):
        rows = harness.run_sweep(make_spec(trials=3))
        assert harness.rows_from_csv(harness.rows_to_csv(rows)) == rows

    def test_malformed_csv_rejected(self):
        with pytest.raises(ValueError):
            harness.rows_from_csv("not,a,header\n")
        with pytest.raises(ValueError):
            harness.rows_from_csv(harness.ROWS_CSV_HEADER + "\nonly,three,cols\n")
        good = "path,8,tri,0,5,12,0"
        assert harness.rows_from_csv(f"{harness.ROWS_CSV_HEADER}\n{good}\n")
        for bad in (
            "path,1,tri,0,5,12,0",
            "path,8,tri,-1,5,12,0",
            "path,8,tri,0,5,-7,0",
            "path,8,tri,0,5,12,2",
            "path,8,tri,0,5,12,yes",
        ):
            with pytest.raises(ValueError, match="bad row"):
                harness.rows_from_csv(f"{harness.ROWS_CSV_HEADER}\n{good}\n{bad}\n")


class TestScalingReport:
    def test_constant_rounds_make_all_ratios_decrease(self):
        rows = [
            harness.TrialRow("path", n, "tri", t, 0, 100, False)
            for n in (8, 16, 32)
            for t in range(3)
        ]
        report = harness.scaling_report(rows)
        entry = report["path/tri"]
        for key in ("per_n_log_n", "per_n_log2_n", "per_n_sq"):
            values = entry[key]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_exact_n_log2_n_rounds_pin_that_ratio_to_one(self):
        rows = [
            harness.TrialRow("path", n, "tri", 0, 0, round(n * math.log(n) ** 2), False)
            for n in (64, 128, 256)
        ]
        report = harness.scaling_report(rows)
        for value in report["path/tri"]["per_n_log2_n"]:
            assert value == pytest.approx(1.0, rel=0.01)


class TestCli:
    def test_gen_cycle_header(self, tmp_path):
        out = tmp_path / "c6.el"
        assert cli.main(["gen", "--family", "cycle", "--n", "6", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "6 6 u"

    def test_gen_dstrong_header(self, tmp_path):
        out = tmp_path / "g.el"
        assert cli.main(["gen", "--family", "dstrong", "--n", "4", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "4 9 d"

    def test_gen_odd_dstrong_exits_2(self, tmp_path):
        out = tmp_path / "g.el"
        code = cli.main(["gen", "--family", "dstrong", "--n", "5", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_gen_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.el"
        assert cli.main(["gen", "--family", "cycle", "--n", "6", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_complete_graph(self, tmp_path, capsys):
        from gossip_sim.generators import complete_graph

        path = tmp_path / "k5.el"
        write_edge_list(complete_graph(5), str(path))
        argv = ["run", "--graph", str(path), "--process", "tri", "--seed", "3"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert json.loads(first) == {"rounds": 0, "capped": False, "final_edges": 10}
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_run_is_deterministic_per_seed(self, tmp_path, capsys):
        path = tmp_path / "p3.el"
        write_edge_list(path_graph(3), str(path))
        argv = ["run", "--graph", str(path), "--process", "tri", "--seed", "9"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_run_kind_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p3.el"
        write_edge_list(path_graph(3), str(path))
        assert cli.main(["run", "--graph", str(path), "--process", "dtwohop"]) == 2

    def test_run_disconnected_exits_2(self, tmp_path):
        from gossip_sim.graph import UndirectedGraph

        path = tmp_path / "dis.el"
        write_edge_list(UndirectedGraph(4, [(0, 1), (2, 3)]), str(path))
        assert cli.main(["run", "--graph", str(path), "--process", "tri"]) == 2

    @pytest.mark.parametrize(
        "family, n, process, seed, rounds, rows, digest",
        [
            ("path", 3, "twohop", 4, None, None, None),
            # all three reach the tail engine
            (
                "cycle", 300, "tri", 7, 1954, 987,
                "a80123fbce7cdb6038f7a2046edf042693c8255f428470485bb3012c1046ce25",
            ),
            (
                "cycle", 300, "twohop", 7, 1643, 1015,
                "4b83b62b1ee97a1ed4381e77a8f4ae42942ecd97e453bd59811cef297ae86995",
            ),
            (
                "dstrong", 32, "dtwohop", 5, 1137, 302,
                "9e676992afdbc1c6b47540cecd0a1dc63404465ac8f00f1b0fa1a54bfe3e7376",
            ),
        ],
        ids=["path3-twohop", "cycle300-tri", "cycle300-twohop", "dstrong32-dtwohop"],
    )
    def test_run_writes_trace(self, tmp_path, capsys, family, n, process, seed, rounds, rows, digest):
        path = tmp_path / "g.el"
        trace = tmp_path / "trace.csv"
        assert cli.main(["gen", "--family", family, "--n", str(n), "--out", str(path)]) == 0
        argv = [
            "run", "--graph", str(path), "--process", process,
            "--seed", str(seed), "--trace", str(trace),
        ]
        assert cli.main(argv) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "round,min_degree,missing_edges,edges_added"
        assert len(lines) >= 2
        if digest is not None:
            # the same bytes on every Python version
            assert json.loads(capsys.readouterr().out)["rounds"] == rounds
            assert len(lines) - 1 == rows
            assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest

    def test_sweep_writes_deterministic_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        argv = [
            "sweep", "--family", "path", "--process", "tri",
            "--sizes", "8,16", "--trials", "10", "--seed", "5",
            "--out", str(out), "--self-check",
        ]
        assert cli.main(argv) == 0
        first = out.read_bytes()
        assert len(first.decode().splitlines()) == 21
        assert cli.main(argv) == 0
        assert out.read_bytes() == first

    def test_sweep_self_check_mismatch_exits_2(self, tmp_path, monkeypatch, capsys):
        # the re-read rows have one trial's rounds changed, so their
        # aggregates differ from the written ones
        reread = harness.rows_from_csv

        def altered(text):
            rows = reread(text)
            return [dataclasses.replace(rows[0], rounds=rows[0].rounds + 1), *rows[1:]]

        monkeypatch.setattr(harness, "rows_from_csv", altered)
        argv = [
            "sweep", "--family", "path", "--process", "tri",
            "--sizes", "8", "--trials", "3", "--seed", "5",
            "--out", str(tmp_path / "r.csv"), "--self-check",
        ]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: aggregate self-check failed\n"

    def test_sweep_capped_exits_3(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        argv = [
            "sweep", "--family", "path", "--process", "tri",
            "--sizes", "4", "--trials", "3", "--seed", "5",
            "--max-rounds", "1", "--out", str(out),
        ]
        assert cli.main(argv) == 3
        rows = harness.rows_from_csv(out.read_text())
        assert all(r.capped for r in rows)

    def test_sweep_aggregate_out(self, tmp_path):
        out = tmp_path / "r.csv"
        agg = tmp_path / "agg.csv"
        argv = [
            "sweep", "--family", "cycle", "--process", "twohop",
            "--sizes", "8", "--trials", "4", "--seed", "2",
            "--out", str(out), "--aggregate-out", str(agg),
        ]
        assert cli.main(argv) == 0
        assert agg.read_text().splitlines()[0] == harness.aggregates_to_csv([]).rstrip("\n")

    def test_analyze_scaling(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cli.main([
            "sweep", "--family", "path", "--process", "tri",
            "--sizes", "8,16", "--trials", "5", "--seed", "6", "--out", str(out),
        ])
        capsys.readouterr()
        assert cli.main(["analyze", "scaling", "--in", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "path/tri" in report
        assert report["path/tri"]["sizes"] == [8, 16]
        assert set(report["path/tri"]) == {
            "sizes", "median", "per_n_log_n", "per_n_log2_n", "per_n_sq",
        }

    def test_analyze_scaling_malformed_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert cli.main(["analyze", "scaling", "--in", str(bad)]) == 2

    def test_analyze_scaling_out_of_range_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{harness.ROWS_CSV_HEADER}\npath,1,tri,0,5,12,0\n")
        assert cli.main(["analyze", "scaling", "--in", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: bad row")

    def test_analyze_ph_bound_passes(self, capsys):
        code = cli.main([
            "analyze", "ph-bound", "--n", "100", "--alpha", "9", "--eps", "0.01",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "pass"

    def test_analyze_ph_bound_fail_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "ph_bound_check", lambda table, alpha, eps: False)
        assert cli.main(["analyze", "ph-bound", "--n", "20"]) == 1
        assert capsys.readouterr().out == "fail\n"

    def test_analyze_ph_bound_bad_constants_exit_2(self, capsys):
        code = cli.main([
            "analyze", "ph-bound", "--n", "100", "--alpha", "1", "--eps", "0.5",
        ])
        assert code == 2

    @pytest.mark.parametrize("eps", ["0.05", "0.5"])
    def test_analyze_ph_bound_refuses_constants_before_the_recurrence(
        self, eps, monkeypatch, capsys
    ):
        # at eps = 0.5 the recurrence would be refused for its step budget
        # instead; at 0.05 it would run for about a second first
        def never(*args):
            raise AssertionError("the recurrence ran")

        monkeypatch.setattr(analysis, "ph_recurrence", never)
        code = cli.main(["analyze", "ph-bound", "--n", "100", "--alpha", "1", "--eps", eps])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: alpha=1.0, eps={eps} violate alpha >= 4 + 4/(1 - alpha*eps)\n"
        )

    def test_sweep_repeated_sizes_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = cli.main([
            "sweep", "--family", "path", "--process", "tri", "--sizes", "8,8",
            "--trials", "1", "--out", str(out),
        ])
        assert code == 2
        assert "distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_parameter_the_family_does_not_take_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c8.el"
        code = cli.main([
            "gen", "--family", "cycle", "--n", "8", "--p", "0.1", "--out", str(out),
        ])
        assert code == 2
        assert "takes no p" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_ph_bound_oversized_exits_2(self, capsys):
        # T = eps * n^2 = 10^8 rounds over 10^5 spans: refused, not allocated
        code = cli.main(["analyze", "ph-bound", "--n", "100000"])
        assert code == 2
        assert "recurrence steps" in capsys.readouterr().err

    def test_jobs_defaults_to_one_whatever_the_environment(self, monkeypatch):
        monkeypatch.setenv("GOSSIP_SIM_JOBS", "3")
        parser = cli._build_parser()
        args = parser.parse_args([
            "sweep", "--family", "path", "--process", "tri",
            "--sizes", "8", "--trials", "1", "--out", "x.csv",
        ])
        assert args.jobs == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "path", "--n", str(MAX_NODES + 1)],
            ["sweep", "--family", "cycle", "--process", "tri",
             "--sizes", str(MAX_NODES + 1), "--trials", "1"],
        ],
        ids=["gen", "sweep"],
    )
    def test_oversized_graph_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert str(MAX_NODES) in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_sweep_size_refused_before_the_first_trial(self, tmp_path, capsys, monkeypatch):
        # the cycle(256) trials would run before cycle(8193) failed to build
        calls = []
        monkeypatch.setattr(harness, "run_to_convergence", lambda *args: calls.append(args))
        out = tmp_path / "out"
        argv = ["sweep", "--family", "cycle", "--process", "tri",
                "--sizes", f"256,{MAX_NODES + 1}", "--trials", "10", "--out", str(out)]
        assert cli.main(argv) == 2
        assert str(MAX_NODES) in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_family_constraint_refused_before_the_first_trial(self, tmp_path, capsys, monkeypatch, jobs):
        # the dstrong(64) and dstrong(128) trials would run before dstrong(129) failed to build
        def trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_to_convergence", trial)
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--family", "dstrong", "--process", "dtwohop", "--sizes", "64,128,129",
                "--trials", "5", "--seed", "1", "--jobs", jobs, "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: dstrong needs even n >= 4, got 129\n"
        assert not out.exists()

    def test_oversized_sweep_refused_before_its_task_list(self, tmp_path, capsys, monkeypatch):
        # the task list alone would take about 100 MiB at 100 bytes a cell
        def trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_to_convergence", trial)
        out = tmp_path / "out"
        argv = ["sweep", "--family", "path", "--process", "tri", "--sizes", "8,16",
                "--trials", str(harness.MAX_SWEEP_CELLS // 2 + 1), "--out", str(out)]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        assert "MAX_SWEEP_CELLS" in capsys.readouterr().err
        assert not out.exists()

    def test_console_script_entry_point(self, tmp_path):
        out = tmp_path / "p4.el"
        result = subprocess.run(
            [sys.executable, "-m", "gossip_sim.cli",
             "gen", "--family", "path", "--n", "4", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert out.read_text().splitlines()[0] == "4 3 u"
