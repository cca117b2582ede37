import json
import math
import subprocess
import sys

import pytest

from gossip_sim import cli, harness
from gossip_sim.generators import path_graph
from gossip_sim.graph import write_edge_list
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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        spec = make_spec(sizes=[8], trials=2, jobs=5000)
        rows = harness.run_sweep(spec)
        assert started == [2]
        serial = harness.run_sweep(make_spec(sizes=[8], trials=2))
        assert harness.rows_to_csv(rows) == harness.rows_to_csv(serial)

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
        assert harness.AGGREGATES_CSV_HEADER == (
            "family,n,process,trials,mean,median,p05,p95,"
            "per_n_log_n,per_n_log2_n,per_n_sq,capped_trials"
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

    def test_run_writes_trace(self, tmp_path, capsys):
        path = tmp_path / "p3.el"
        trace = tmp_path / "trace.csv"
        write_edge_list(path_graph(3), str(path))
        argv = [
            "run", "--graph", str(path), "--process", "twohop",
            "--seed", "4", "--trace", str(trace),
        ]
        assert cli.main(argv) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "round,min_degree,missing_edges,edges_added"
        assert len(lines) >= 2

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
        assert agg.read_text().splitlines()[0] == harness.AGGREGATES_CSV_HEADER

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

    def test_analyze_ph_bound_bad_constants_exit_2(self, capsys):
        code = cli.main([
            "analyze", "ph-bound", "--n", "100", "--alpha", "1", "--eps", "0.5",
        ])
        assert code == 2

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

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv("GOSSIP_SIM_JOBS", "3")
        parser = cli._build_parser()
        args = parser.parse_args([
            "sweep", "--family", "path", "--process", "tri",
            "--sizes", "8", "--trials", "1", "--out", "x.csv",
        ])
        assert args.jobs == 3

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
