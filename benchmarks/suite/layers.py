"""Outside-in layer timing for ``run.py --trace``.

Nothing under ``src/`` is instrumented for the benchmark.  Instead,
while a traced op runs, :class:`LayerTrace` replaces each layer's
public entry point *at the name its caller looks up* (for example
``repro.cuda.context.block_bank_conflicts``, not the defining
``repro.sim.memsys`` one) with a timing wrapper, and puts the original
back when the op ends.

Span wrappers record one :class:`repro.obs.spans.Span` per call in a
``SpanTracer`` owned by the trace (the ambient tracer stays disabled),
tagged ``op=<id>`` and ``workload=<name>``.  Leaf wrappers sit on the
hot per-access calls (memsys classification, the timing and CPU
models); they only add their time and call count to totals and to the
enclosing span, which keeps memory bounded at tens of thousands of
calls per op.  A layer's *self time* is its span time minus the time
of the spans and leaf calls inside it; whatever the op root span
keeps for itself is ``bench.unattributed_s``.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Tuple

#: (module, attribute, layer) — each call becomes a span
SPAN_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cuda.plan", "LaunchPlan.build", "cuda.plan"),
    ("repro.trace.collector", "TraceCollector.finalize",
     "trace.collector.finalize"),
    ("repro.compile.module", "fuse_schedule", "compile.module.fuse_plan"),
    ("repro.analysis.rules", "analyze_launch_sequence", "analysis.r7"),
    ("repro.analysis.rules", "analyze_target", "analysis.lint"),
    ("repro.analysis.estimate", "estimate_target", "analysis.estimate"),
    ("repro.analysis.estimate", "census_target", "analysis.census"),
    ("repro.analysis.estimate", "estimate_registers", "analysis.registers"),
    ("repro.apps.base", "Application.run_module", "apps.host"),
)

#: (module, attribute, layer) — hot calls, aggregated without spans
LEAF_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cuda.context", "block_bank_conflicts",
     "sim.memsys.bank_conflicts"),
    ("repro.cuda.context", "coalesce_block_access", "sim.memsys.coalesce"),
    ("repro.analysis.interp", "block_bank_conflicts",
     "sim.memsys.bank_conflicts"),
    ("repro.analysis.interp", "coalesce_block_access",
     "sim.memsys.coalesce"),
    ("repro.apps.base", "estimate_kernel_time", "sim.timing"),
    ("repro.sim.timing", "estimate_kernel_time", "sim.timing"),
    ("repro.analysis.estimate", "estimate_time", "sim.timing"),
    ("repro.apps.base", "estimate_cpu_time", "sim.cpumodel"),
)

#: every name ``get_program`` is looked up under
GET_PROGRAM_SITES = ("repro.compile", "repro.compile.program",
                     "repro.compile.module")

BACKENDS = ("compiled", "sequential", "batched")

#: (metric, unit, better) of every per-layer metric, in report order;
#: times and counts are means per traced op
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("cuda.plan.build_s", "s", "lower"),
    ("cuda.plan.calls", "count", "lower"),
    *((f"cuda.executors.{b}_s", "s", "lower") for b in BACKENDS),
    ("cuda.executors.launches.compiled", "count", "higher"),
    ("cuda.executors.launches.sequential", "count", "lower"),
    ("cuda.executors.launches.batched", "count", "lower"),
    ("cuda.executors.compile_refusals", "count", "lower"),
    ("cuda.context.traced_block_s", "s", "lower"),
    ("cuda.context.traced_blocks", "count", "lower"),
    ("cuda.context.traced_block_ms_p50", "ms", "lower"),
    ("trace.collector.finalize_s", "s", "lower"),
    ("trace.collector.memo_hits", "count", "higher"),
    ("sim.memsys.bank_conflicts_s", "s", "lower"),
    ("sim.memsys.bank_conflicts_calls", "count", "lower"),
    ("sim.memsys.coalesce_s", "s", "lower"),
    ("sim.memsys.coalesce_calls", "count", "lower"),
    ("compile.get_program_s", "s", "lower"),
    ("compile.get_program_calls", "count", "lower"),
    ("compile.grid_sweep_s", "s", "lower"),
    ("compile.module.execute_s", "s", "lower"),
    ("compile.module.fuse_plan_s", "s", "lower"),
    ("compile.module.launches", "count", "lower"),
    ("compile.module.trace_replays", "count", "higher"),
    ("compile.module.fallback_launches", "count", "lower"),
    ("compile.module.replay_ratio", "ratio", "higher"),
    ("analysis.r7_s", "s", "lower"),
    ("analysis.lint_s", "s", "lower"),
    ("analysis.census_s", "s", "lower"),
    ("analysis.estimate_s", "s", "lower"),
    ("analysis.registers_s", "s", "lower"),
    ("sim.timing.estimate_s", "s", "lower"),
    ("sim.timing.estimate_calls", "count", "lower"),
    ("sim.cpumodel.estimate_s", "s", "lower"),
    ("apps.host_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.unattributed_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    # set-up and untraced ops before machine-speed scaling (see run.py)
    ("bench.raw_setup_s", "s", "lower"),
    ("bench.raw_ops_per_s", "1/s", "higher"),
    ("bench.raw_op_p50_ms", "ms", "lower"),
    ("bench.machine_slowdown", "ratio", "lower"),
)

#: layer span/leaf name -> the metric its self time reports under
_SELF_METRIC = {
    "cuda.plan": "cuda.plan.build_s",
    **{f"cuda.executors.{b}": f"cuda.executors.{b}_s" for b in BACKENDS},
    "cuda.context.traced_block": "cuda.context.traced_block_s",
    "trace.collector.finalize": "trace.collector.finalize_s",
    "sim.memsys.bank_conflicts": "sim.memsys.bank_conflicts_s",
    "sim.memsys.coalesce": "sim.memsys.coalesce_s",
    "compile.get_program": "compile.get_program_s",
    "compile.grid_sweep": "compile.grid_sweep_s",
    "compile.module.execute": "compile.module.execute_s",
    "compile.module.fuse_plan": "compile.module.fuse_plan_s",
    "analysis.r7": "analysis.r7_s",
    "analysis.lint": "analysis.lint_s",
    "analysis.census": "analysis.census_s",
    "analysis.estimate": "analysis.estimate_s",
    "analysis.registers": "analysis.registers_s",
    "sim.timing": "sim.timing.estimate_s",
    "sim.cpumodel": "sim.cpumodel.estimate_s",
    "apps.host": "apps.host_s",
    "bench.op": "bench.unattributed_s",
}

#: layer name -> call-count metric
_CALL_METRIC = {
    "cuda.plan": "cuda.plan.calls",
    "cuda.context.traced_block": "cuda.context.traced_blocks",
    "sim.memsys.bank_conflicts": "sim.memsys.bank_conflicts_calls",
    "sim.memsys.coalesce": "sim.memsys.coalesce_calls",
    "compile.get_program": "compile.get_program_calls",
    "sim.timing": "sim.timing.estimate_calls",
}


def _resolve(module: str, attr: str):
    """(owner object, attribute name) of ``module:attr``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class LayerTrace:
    """Per-layer self time and counts for the traced ops of one child."""

    def __init__(self, workload: str) -> None:
        from repro.obs.spans import SpanTracer
        self.workload = workload
        self.tracer = SpanTracer()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.block_ms: List[float] = []
        self.op_seconds: List[float] = []
        self._op = ""
        #: open spans: [node, context manager, seconds of its children]
        self._frames: List[list] = []
        self._blocks: Dict[Tuple[int, int], int] = {}
        self._compile_errors = 0
        self._patches = self._build_patches()

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> int:
        depth = len(self._frames)
        cm = self.tracer.span(name, op=self._op, workload=self.workload)
        self._frames.append([cm.__enter__(), cm, 0.0])
        return depth

    def _exit_to(self, depth: int) -> None:
        while len(self._frames) > depth:
            node, cm, inner = self._frames.pop()
            cm.__exit__(None, None, None)
            self.self_s[node.name] += node.seconds - inner
            self.counts[node.name] += 1
            if node.name == "cuda.context.traced_block":
                self.block_ms.append(node.seconds * 1e3)
            if self._frames:
                self._frames[-1][2] += node.seconds

    def _leaf(self, name: str, seconds: float) -> None:
        self.self_s[name] += seconds
        self.counts[name] += 1
        if self._frames:
            self._frames[-1][2] += seconds

    @contextmanager
    def op(self, op_id: str):
        """Trace one op: install every wrapper, time the op under a
        root ``bench.op`` span, restore the originals."""
        self._op = op_id
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)
        depth = self._enter("bench.op")
        node = self._frames[depth][0]
        try:
            yield
        finally:
            self._exit_to(depth)
            self.op_seconds.append(node.seconds)
            for owner, name, original, _wrapper in self._patches:
                setattr(owner, name, original)
            self._blocks.clear()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, fn, layer: str):
        def wrapper(*args, **kwargs):
            depth = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit_to(depth)
        return wrapper

    def _leaf_wrapper(self, fn, layer: str):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(layer, perf_counter() - t0)
        return wrapper

    def _build_patches(self) -> List[tuple]:
        """(owner, attribute, original, wrapper) for every call site."""
        from repro.apps.registry import ALL_APPS
        from repro.compile import CompileError
        from repro.compile.module import CompiledModule
        from repro.cuda.executors import Executor
        from repro.trace.collector import TraceCollector

        patches = []

        def add(owner, name, make):
            raw = owner.__dict__[name] if isinstance(owner, type) \
                else getattr(owner, name)
            wrapper = classmethod(make(raw.__func__)) \
                if isinstance(raw, classmethod) else make(raw)
            patches.append((owner, name, raw, wrapper))

        for module, attr, layer in SPAN_SITES:
            owner, name = _resolve(module, attr)
            add(owner, name, lambda fn, layer=layer:
                self._span_wrapper(fn, layer))
        for module, attr, layer in LEAF_SITES:
            owner, name = _resolve(module, attr)
            add(owner, name, lambda fn, layer=layer:
                self._leaf_wrapper(fn, layer))
        for cls in set(ALL_APPS.values()):
            if "run" in cls.__dict__:
                add(cls, "run", lambda fn: self._span_wrapper(fn, "apps.host"))

        def executor_execute(fn):
            def execute(executor, plan):
                errors = self._compile_errors
                depth = self._enter(f"cuda.executors.{executor.name}")
                try:
                    result = fn(executor, plan)
                finally:
                    self._exit_to(depth)
                self.counts[f"cuda.executors.launches.{result.executor}"] += 1
                self.counts["trace.collector.memo_hits"] += result.memo_hits
                if result.executor == "compiled" \
                        and self._compile_errors > errors:
                    self.counts["cuda.executors.compile_refusals"] += 1
                return result
            return execute
        add(Executor, "execute", executor_execute)

        def begin_block(fn):
            def begin(collector, linear):
                self._blocks[(id(collector), linear)] = self._enter(
                    "cuda.context.traced_block")
                return fn(collector, linear)
            return begin

        def finish_block(fn):
            def finish(collector, linear, ctx):
                try:
                    return fn(collector, linear, ctx)
                finally:
                    depth = self._blocks.pop((id(collector), linear), None)
                    if depth is not None:
                        self._exit_to(depth)
            return finish
        add(TraceCollector, "begin_block", begin_block)
        add(TraceCollector, "finish_block", finish_block)

        def module_execute(fn):
            def execute(module):
                try:
                    return fn(module)
                finally:
                    stats = module.stats
                    for key in ("trace_replays", "fallback_launches"):
                        self.counts[f"compile.module.{key}"] += stats[key]
                    self.counts["compile.module.launches"] += (
                        stats["fused_launches"] + stats["trace_replays"]
                        + stats["fallback_launches"])
            return self._span_wrapper(execute, "compile.module.execute")
        add(CompiledModule, "execute", module_execute)

        def timed_entry(entry):
            return self._span_wrapper(entry, "compile.grid_sweep")

        def get_program(fn):
            def wrapped(kernel, context=None):
                depth = self._enter("compile.get_program")
                try:
                    program = fn(kernel, context)
                except CompileError:
                    self._compile_errors += 1
                    raise
                finally:
                    self._exit_to(depth)
                return dataclasses.replace(
                    program, entry=timed_entry(program.entry))
            return wrapped
        for module in GET_PROGRAM_SITES:
            add(importlib.import_module(module), "get_program", get_program)
        return patches

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, object]:
        """Raw sums for the parent to pool across children."""
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "block_ms": list(self.block_ms),
                "op_seconds": list(self.op_seconds)}

    def chrome_events(self) -> List[dict]:
        return self.tracer.to_chrome_trace()["traceEvents"]


def layer_metrics(totals: List[Dict[str, object]],
                  untraced_p50_s: float) -> Dict[str, float]:
    """Per-layer metrics (per traced op) from the children's totals."""
    self_s: Dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    block_ms: List[float] = []
    op_seconds: List[float] = []
    for t in totals:
        for k, v in t["self_s"].items():
            self_s[k] += v
        counts.update(t["counts"])
        block_ms.extend(t["block_ms"])
        op_seconds.extend(t["op_seconds"])
    n = max(1, len(op_seconds))
    out = {metric: 0.0 for metric, _, _ in LAYER_METRICS}
    for layer, seconds in self_s.items():
        if layer in _SELF_METRIC:
            out[_SELF_METRIC[layer]] = seconds / n
    for layer, metric in _CALL_METRIC.items():
        out[metric] = counts[layer] / n
    for key in ("trace.collector.memo_hits", "cuda.executors.compile_refusals",
                "compile.module.launches", "compile.module.trace_replays",
                "compile.module.fallback_launches",
                *(f"cuda.executors.launches.{b}" for b in BACKENDS)):
        out[key] = counts[key] / n
    launches = counts["compile.module.launches"]
    out["compile.module.replay_ratio"] = (
        counts["compile.module.trace_replays"] / launches if launches else 0.0)
    out["cuda.context.traced_block_ms_p50"] = (
        statistics.median(block_ms) if block_ms else 0.0)
    wall = sum(op_seconds)
    out["bench.unattributed_pct"] = (
        100 * self_s["bench.op"] / wall if wall else 0.0)
    traced_p50 = statistics.median(op_seconds) if op_seconds else 0.0
    out["bench.trace_overhead_pct"] = (
        100 * (traced_p50 / untraced_p50_s - 1) if untraced_p50_s else 0.0)
    return out
