"""Per-layer tracing from outside the package.

The tracer replaces each public function where its caller looks it up:
``from .x import y`` binds ``y`` in the importing module, so a function
is wrapped in every module that calls it (``harness.generate`` as well as
``generators.generate``) and methods are wrapped on their class.  Calls
that happen once per sweep trial or less get a span each (name, parent,
start, end, self time); calls made per round or per edge only update
aggregate counters.

Every wrapped call costs the same fixed bookkeeping, which is measured on
a two-argument method when the tracer starts and subtracted, so that
totals and self times describe the package rather than the tracer.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

from gossip_sim import analysis, generators, graph, harness, oracle, process

TAIL_EDGE_FRAC = 0.99
KERNELS = ("triangulation_round", "twohop_round", "directed_twohop_round")


class Tracer:
    """Wraps the package's public functions (``install``) and turns what it
    records into per-layer metrics (``layer_metrics``) and spans
    (``write_spans``); ``restore`` puts every original back."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # name, parent index, start ns, end ns, self ns
        self.calls: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: Counter = Counter()
        # one frame per open call: ns in direct children, wrapped calls
        # inside, direct children, index of the innermost open span, ns in
        # the tracer's own counting hooks inside
        self._stack: list[list[int]] = [[0, 0, 0, -1, 0]]
        self._saved: list[tuple[object, str, object]] = []
        self._target: int | None = None
        self.overhead_ns = self.inner_ns = 0.0
        self._calibrate()

    # ------------------------------------------------------------ wrapping

    def _wrapper(self, fn, name: str, span: bool, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        stats = self.calls.setdefault(name, [0, 0, 0])
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0, 0, 0, parent[3], 0]
            if span:
                frame[3] = len(spans)
                spans.append([name, parent[3], 0, 0, 0])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                parent[0] += elapsed
                parent[1] += 1 + frame[1]
                parent[2] += 1
                parent[4] += frame[4]
                oh, inner = tracer.overhead_ns, tracer.inner_ns
                self_ns = elapsed - inner - frame[0] - frame[2] * (oh - inner)
                stats[0] += 1
                stats[1] += elapsed - inner - frame[1] * oh - frame[4]
                stats[2] += self_ns
                if span:
                    spans[frame[3]][2:] = [t0, t0 + elapsed, self_ns]
            if after is not None:
                t1 = clock()
                after(args, result)
                hook = clock() - t1
                parent[0] += hook
                parent[4] += hook
            return result

        return traced

    def _calibrate(self, calls: int = 20_000, reps: int = 7) -> None:
        """Per-call cost of the wrapper (``overhead_ns``) and the part of it
        that falls inside the wrapper's own clock reads (``inner_ns``),
        measured on a two-argument method like ``add_edge``, the most
        frequent wrapped call.  Each repetition times the plain and the
        wrapped call back to back; the median difference is taken, so the
        figures are those of the host's typical speed."""

        class Probe:
            def hit(self, a, b):
                return None

        probe, clock = Probe(), time.perf_counter_ns
        overheads, inners = [], []
        for _ in range(reps):
            t0 = clock()
            for _ in range(calls):
                probe.hit(1, 2)
            plain = (clock() - t0) / calls
            self.wrap(Probe, "hit", "bench.calibration", span=False)
            stats = self.calls["bench.calibration"]
            t0 = clock()
            for _ in range(calls):
                probe.hit(1, 2)
            overheads.append((clock() - t0) / calls - plain)
            inners.append(stats[1] / calls - plain)
            self.restore()
            del self.calls["bench.calibration"]
        self.overhead_ns = max(0.0, statistics.median(overheads))
        self.inner_ns = min(max(0.0, statistics.median(inners)), self.overhead_ns)
        self._stack[0] = [0, 0, 0, -1, 0]

    def wrap(self, owner, attr: str, name: str, *, span: bool = True, after=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrapper(fn, name, span, after))

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # --------------------------------------------------------------- hooks

    def _after_kernel(self, kernel: str):
        counts = self.counts

        def after(args, outcome):
            g = args[0]
            added = len(outcome.edges_added)
            counts["rounds"] += 1
            counts[f"{kernel}.node_steps"] += g.n
            counts["node_steps"] += g.n
            counts["kernel_edges"] += added
            if self._target is not None:
                counts["converge_rounds"] += 1
                counts["empty_rounds"] += added == 0
                before = outcome.new_edge_count - added
                counts["tail_rounds"] += before >= TAIL_EDGE_FRAC * self._target

        return after

    def _set_target(self, args, target) -> None:
        self._target = target

    def _clear_target(self, args, result) -> None:
        self._target = None

    def _count_states(self, args, result) -> None:
        # every superset of an undirected graph up to the complete one
        self.counts["oracle_states"] += 1 << args[0].missing_count

    def _count_trial(self, args, result) -> None:
        self.counts["harness.trials"] += 1
        self._target = None

    def install(self) -> "Tracer":
        for module in (graph, process, oracle):
            self.wrap(module, "transitive_closure", "graph.transitive_closure")
        self.wrap(graph, "read_edge_list", "graph.read_edge_list")
        self.wrap(graph.UndirectedGraph, "is_connected", "graph.is_connected")
        for cls in (graph.UndirectedGraph, graph.DirectedGraph):
            self.wrap(cls, "add_edge", "graph.add_edge", span=False)
            self.wrap(cls, "copy", "graph.copy", span=False)
        for module in (generators, harness):
            self.wrap(module, "generate", "generators.generate")
        for kernel in KERNELS:
            self.wrap(process, kernel, f"process.{kernel}", span=False,
                      after=self._after_kernel(kernel))
        self.wrap(analysis, "directed_twohop_round", "process.directed_twohop_round",
                  span=False, after=self._after_kernel("directed_twohop_round"))
        for module in (process, oracle):
            self.wrap(module, "convergence_target", "process.convergence_target",
                      after=self._set_target)
        self.wrap(process, "run_to_convergence", "process.run_to_convergence",
                  after=self._clear_target)
        self.wrap(harness, "run_to_convergence", "process.run_to_convergence",
                  after=self._count_trial)
        self.wrap(harness, "run_sweep", "harness.run_sweep")
        self.wrap(oracle, "single_round_distribution", "oracle.single_round_distribution",
                  span=False)
        self.wrap(oracle, "expected_rounds", "oracle.expected_rounds", after=self._count_states)
        for fn in ("nonmonotone_search", "connected_graphs_upto"):
            self.wrap(oracle, fn, f"oracle.{fn}")
        self.wrap(oracle, "empirical_vs_exact", "oracle.empirical_vs_exact",
                  after=self._clear_target)
        for fn in ("ph_recurrence", "ph_bound_check", "chain_span_presence"):
            self.wrap(analysis, fn, f"analysis.{fn}")
        return self

    # ------------------------------------------------------------- results

    def total_s(self, name: str) -> float:
        return self.calls.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.calls.get(name, [0, 0, 0])[2] / 1e9

    def per_call(self, name: str, scale: float) -> float:
        calls, total, _ = self.calls.get(name, [0, 0, 0])
        return total / calls / scale if calls else 0.0

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        m: dict[str, float] = {}
        for kernel in KERNELS:
            name = f"process.{kernel}"
            steps = c[f"{kernel}.node_steps"]
            m[f"{name}.ns_per_node_step"] = self.total_s(name) * 1e9 / steps if steps else 0.0
            m[f"{name}.us_per_call"] = self.per_call(name, 1e3)
        m["process.run_to_convergence.self_s"] = self.self_s("process.run_to_convergence")
        conv = c["converge_rounds"]
        m["process.empty_round_frac"] = c["empty_rounds"] / conv if conv else 0.0
        m["process.tail_round_frac"] = c["tail_rounds"] / conv if conv else 0.0
        m["process.rounds"] = c["rounds"]
        m["process.node_steps"] = c["node_steps"]
        m["process.edges_per_node_step"] = (
            c["kernel_edges"] / c["node_steps"] if c["node_steps"] else 0.0
        )
        m["process.convergence_target.s"] = self.total_s("process.convergence_target")
        m["graph.add_edge.calls"] = self.calls.get("graph.add_edge", [0])[0]
        m["graph.add_edge.ns_per_call"] = self.per_call("graph.add_edge", 1)
        m["graph.copy.us_per_call"] = self.per_call("graph.copy", 1e3)
        for name in ("graph.transitive_closure", "graph.read_edge_list", "graph.is_connected",
                     "generators.generate"):
            m[f"{name}.s"] = self.total_s(name)
        m["harness.run_sweep.self_s"] = self.self_s("harness.run_sweep")
        m["harness.trials"] = c["harness.trials"]
        srd = "oracle.single_round_distribution"
        m[f"{srd}.calls"] = self.calls.get(srd, [0])[0]
        m[f"{srd}.s"] = self.total_s(srd)
        states = c["oracle_states"]
        m["oracle.expected_rounds.states"] = states
        m["oracle.expected_rounds.us_per_state"] = (
            self.total_s("oracle.expected_rounds") * 1e6 / states if states else 0.0
        )
        for name in ("oracle.nonmonotone_search", "oracle.connected_graphs_upto",
                     "oracle.empirical_vs_exact", "analysis.ph_recurrence",
                     "analysis.chain_span_presence"):
            m[f"{name}.s"] = self.total_s(name)
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, self_ns) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_ns": start, "end_ns": end, "self_ns": self_ns}))
                fh.write("\n")
            for name, (calls, total, self_ns) in sorted(self.calls.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "total_ns": total, "self_ns": self_ns}))
                fh.write("\n")
