"""Tests of the benchmark itself, on the tiny inputs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

from gossip_sim import harness, process  # noqa: E402

WORKLOADS = ["converge-large", "sweep-small", "exact-anchors"]


def bench(capsys, workload: str, trace: int = 0, seed: int = 5) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, trace, kind):
    result = bench(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared(kind)
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), name
        if kind == "end_to_end":
            assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_work_exactly(capsys, workload):
    lines = []
    for _ in range(2):
        run.main(["--workload", workload, "--seed", "9", "--seconds", "0", "--size", "tiny"])
        lines.append([ln for ln in capsys.readouterr().out.splitlines() if "work per pass" in ln])
    assert lines[0] == lines[1] and lines[0]


def _wrong_edge(kernel):
    """A round that draws like ``kernel`` but adds the smallest missing
    edges instead of the ones drawn."""

    def round_(g, rng, round_index=0, draw_log=None):
        drawn = kernel(g.copy(), rng, round_index, draw_log)
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        added = missing[: len(drawn.edges_added)]
        for a, b in added:
            g.add_edge(a, b)
        return process.RoundOutcome(round_index, added, g.edge_count)

    return round_


def test_gate_catches_a_round_that_adds_the_wrong_edge(capsys, monkeypatch):
    monkeypatch.setattr(process, "triangulation_round", _wrong_edge(process.triangulation_round))
    result = bench(capsys, "exact-anchors")
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_gate_catches_a_tampered_sweep_row(capsys, monkeypatch):
    to_csv = harness.rows_to_csv

    def tampered(rows):
        lines = to_csv(rows).splitlines()
        fields = lines[1].split(",")
        fields[5] = str(int(fields[5]) + 1)  # rounds of the first trial
        lines[1] = ",".join(fields)
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(harness, "rows_to_csv", tampered)
    result = bench(capsys, "sweep-small")
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_tracer_restores_every_function(capsys):
    before = {name: getattr(process, name) for name in ("run_to_convergence", "triangulation_round")}
    bench(capsys, "converge-large", trace=1)
    assert {name: getattr(process, name) for name in before} == before
