"""Trace collection — stage 3 of the execution pipeline.

A :class:`TraceCollector` owns everything that used to be inlined in
``launch()`` *after* a block ran: accumulating per-block traces,
tracking the shared-memory high-water mark, capturing the recorded
instruction stream of the first traced block, and finally scaling the
sampled trace to the full grid.

It also owns the **launch trace cache**.  The paper's methodology
reasons from the PTX of *one* block and scales, so a launch
configuration only needs tracing once.  An executor that carries a
``traces`` dict (the AOT module's, see :mod:`repro.compile.module`)
hands it to each collector, keyed by
:meth:`repro.cuda.plan.LaunchPlan.module_key`.  The first launch of a
configuration traces its sample and records the scaled trace; every
repeat classifies its sampled blocks ``MEMO`` (they still execute,
untraced, when the launch is functional) and returns a copy of the
recorded trace.  Launches that record an instruction stream or trace
no blocks bypass the cache.

The collector is deliberately executor-agnostic: backends call
:meth:`classify` / :meth:`begin_block` / :meth:`finish_block` and never
touch the merge/scale/cache machinery directly.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

from ..obs.registry import get_registry
from .trace import KernelTrace

#: block dispositions returned by :meth:`TraceCollector.classify`
TRACE, MEMO, PLAIN = "trace", "memo", "plain"


class TraceCollector:
    """Accumulates one launch's trace from per-block executions.

    With ``timed=True`` (set by the executor when a profiler or
    metrics registry is active) the collector accumulates the wall
    time of its own bookkeeping in :attr:`collect_seconds`, giving the
    pipeline's "collect" stage; untimed collectors pay nothing.
    """

    def __init__(self, plan, timed: bool = False,
                 traces: Optional[Dict[Tuple, Tuple[KernelTrace, int]]] = None
                 ) -> None:
        self.plan = plan
        self.merged = KernelTrace()
        self.smem_bytes = plan.kernel.static_smem_bytes
        self.stream: Optional[list] = None
        self.first_traced: Optional[int] = min(plan.traced) if plan.traced \
            else None
        self.memo_hits = 0
        #: classify() outcomes per disposition
        self.dispositions: Dict[str, int] = {TRACE: 0, MEMO: 0, PLAIN: 0}
        #: wall seconds spent in collector bookkeeping (timed only)
        self.collect_seconds = 0.0
        self._timed = timed
        self._registry = get_registry()
        if not plan.traced or plan.record_stream:
            traces = None
        #: launch trace cache, its key for this plan, and the recorded
        #: (trace, smem bytes) when the key was already present
        self._traces = traces
        self._key = plan.module_key() if traces is not None else None
        self._hit = traces.get(self._key) if traces is not None else None

    # ------------------------------------------------------------------
    # Per-block protocol (called by executors)
    # ------------------------------------------------------------------
    def wants_stream(self, linear: int) -> bool:
        """Should this block record its ordered instruction stream?"""
        return self.plan.record_stream and linear == self.first_traced

    def classify(self, linear: int) -> str:
        """Disposition of one block: ``TRACE`` (execute with tracing),
        ``MEMO`` (trace satisfied from the launch trace cache; execute
        untraced iff the launch is functional) or ``PLAIN`` (untraced
        functional block)."""
        if self._timed:
            t0 = perf_counter()
            mode = self._classify(linear)
            self.collect_seconds += perf_counter() - t0
        else:
            mode = self._classify(linear)
        self.dispositions[mode] += 1
        return mode

    def _classify(self, linear: int) -> str:
        if linear not in self.plan.traced_set:
            return PLAIN
        if self._hit is not None:
            self.memo_hits += 1
            if self._registry.enabled:
                self._registry.counter(
                    "collector.memo_hits",
                    kernel=self.plan.kernel.name).inc()
            return MEMO
        return TRACE

    def begin_block(self, linear: int) -> Tuple[KernelTrace, Optional[list]]:
        """Fresh trace (and stream sink, when recording) for one traced
        block's :class:`~repro.cuda.context.BlockContext`."""
        return KernelTrace(), ([] if self.wants_stream(linear) else None)

    def finish_block(self, linear: int, ctx) -> None:
        """Fold one traced block's context back into the launch trace."""
        if self._timed:
            t0 = perf_counter()
            self._finish_block(ctx)
            self.collect_seconds += perf_counter() - t0
        else:
            self._finish_block(ctx)

    def _finish_block(self, ctx) -> None:
        ctx.trace.blocks_traced = 1
        ctx.trace.threads_traced = self.plan.block.size
        block_smem = ctx.smem_bytes + self.plan.kernel.static_smem_bytes
        self.merged.merge(ctx.trace)
        self.smem_bytes = max(self.smem_bytes, block_smem)
        if ctx.stream is not None:
            self.stream = ctx.stream

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> KernelTrace:
        """Scale the sampled trace to the full grid (the paper's
        per-block-PTX extrapolation), or return the cached trace of the
        launch configuration; a first trace is recorded in the cache."""
        if self._hit is not None:
            trace, self.smem_bytes = self._hit
            return trace.scaled(1.0)
        merged = self.merged
        if merged.blocks_traced:
            scale = self.plan.grid.size / merged.blocks_traced
            merged = merged.scaled(scale)
            merged.blocks_traced = len(self.plan.traced)
        if self._traces is not None:
            self._traces[self._key] = (merged.scaled(1.0), self.smem_bytes)
        return merged
