#!/usr/bin/env python3
"""gossip-sim benchmark.

    python3 perfbench/run.py --workload converge-large --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, repeats passes over them for
about ``--seconds`` seconds (at least two, the second a determinism check),
checks every output, prints each metric with its unit, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` one pass runs under the tracer and the metrics are the
per-layer ones.  Times are in seconds on a host of fixed speed (see
``hostspeed.py``).  The package is imported from ``src/`` next to this
directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "node_steps_per_s": "1/s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def import_package() -> None:
    """Import gossip_sim from this checkout's ``src/`` or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gossip_sim
    except ImportError as exc:
        sys.exit(f"cannot import gossip_sim from {src}: {exc}")
    if not Path(gossip_sim.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"gossip_sim was imported from {gossip_sim.__file__}, not from {src}")


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def measure_setup(args, host: HostSpeed) -> float:
    """Median wall time of fresh interpreters that import the package and
    build the workload's inputs, then exit, in nominal-host seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = host.clock()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)
        times.append(host.clock() - t0)
    return statistics.median(times)


def timed_pass(run_pass, inputs, gate, host: HostSpeed):
    start = time.perf_counter()
    res = run_pass(inputs, gate, host.clock)
    res.host_factor = host.scale(start, time.perf_counter())
    return res


def repeat_passes(run_pass, inputs, gate, host, seconds: float, first=None, minimum: int = 2):
    """Run passes while the next one is expected to end within ``seconds``.

    Every pass must repeat the first one exactly (same rounds, same CSV).
    """
    passes = []
    start = time.perf_counter()
    while True:
        res = timed_pass(run_pass, inputs, gate, host)
        reference = first if first is not None else (passes[0] if passes else None)
        if reference is not None:
            gate.check(res.fingerprint == reference.fingerprint,
                       "a rerun with the same seed repeats the first pass exactly")
        passes.append(res)
        elapsed = time.perf_counter() - start
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    """Totals over every pass of the run, so that each metric averages the
    host's speed over the whole measured window."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cuts = statistics.quantiles([t for p in passes for t in p.trial_ms], n=100, method="inclusive")
    return {
        "setup_s": setup_s,
        "wall_s": sum(p.wall for p in passes) / len(passes),
        "node_steps_per_s": sum(p.node_steps for p in passes) / sum(p.sim_seconds for p in passes),
        "trials_per_s": sum(len(p.trial_ms) for p in passes) / sum(p.trial_seconds for p in passes),
        "trial_ms_p50": cuts[49],
        "trial_ms_p99": cuts[98],
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(workload, args, gate, host: HostSpeed):
    """One set-up and one pass under the tracer, then untraced passes of
    the same inputs for the rest of the time; returns per-layer metrics
    with times in nominal-host units."""
    from tracer import Tracer
    import workloads

    setup, run_pass = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    tracer = Tracer().install()
    try:
        inputs = setup(args.seed, args.size, str(OUT), gate)
        traced = timed_pass(run_pass, inputs, gate, host)
    finally:
        tracer.restore()
    factor = host.scale(start, time.perf_counter())
    plain = repeat_passes(run_pass, inputs, gate, host, args.seconds, first=traced, minimum=1)
    units = layer_units()
    metrics = {name: value * factor if units[name] in ("s", "ms", "us", "ns") else value
               for name, value in tracer.layer_metrics().items()}
    metrics["analysis.trace_collector.overhead_frac"] = (
        workloads.collector_overhead(inputs, host.clock) if workload == "converge-large" else 0.0
    )
    metrics["bench.trace_overhead_frac"] = traced.wall * len(plain) / sum(p.wall for p in plain) - 1
    tracer.write_spans(str(OUT / f"spans-{workload}.jsonl"))
    return metrics, [traced] + plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["converge-large", "sweep-small", "exact-anchors"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs every step on small inputs, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")

    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    gate = workloads.Gate()
    setup, run_pass = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        setup(args.seed, args.size, str(OUT), gate)
        return 1 if gate.failed else 0

    with HostSpeed() as host:
        if args.trace:
            metrics, passes = traced_run(args.workload, args, gate, host)
            units = layer_units()
        else:
            setup_s = measure_setup(args, host)
            inputs = setup(args.seed, args.size, str(OUT), gate)
            passes = repeat_passes(run_pass, inputs, gate, host, args.seconds)
            metrics = end_to_end(passes, setup_s)
            units = END_TO_END_UNITS

    first = passes[0]
    print(f"workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(passes)}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':48s} {gate.failed / gate.attempted:>16.6g} ratio "
          f"({gate.failed} of {gate.attempted} checks failed)")
    print(f"  work per pass: rounds={first.rounds} node_steps={first.node_steps} "
          f"edges_added={first.edges_added} oracle_states={first.oracle_states} "
          f"trials={len(first.trial_ms)} (samples for trial_ms: "
          f"{sum(len(p.trial_ms) for p in passes)})")
    print(f"  host speed: measured seconds x {statistics.fmean(p.host_factor for p in passes):.4f} "
          f"= nominal-host seconds (mean over passes; see hostspeed.py)")
    for label in gate.failures:
        print(f"FAILED CHECK: {label}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
