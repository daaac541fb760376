"""Trace collection — stage 3 of the execution pipeline.

A :class:`TraceCollector` owns everything that used to be inlined in
``launch()`` *after* a block ran: accumulating per-block traces,
tracking the shared-memory high-water mark, capturing the recorded
instruction stream of the first traced block, and finally scaling the
sampled trace to the full grid.  It builds the cold caches
(:func:`repro.sim.memsys.cold_caches`) that the launch's traced blocks
read through, one set per execution, so executing a plan again charges
what its first execution charged.

It also owns the **launch trace cache**.  The paper's methodology
reasons from the PTX of *one* block and scales, so a launch
configuration only needs tracing once.  The cache lives on the
:class:`~repro.cuda.memory.Device` (``Device.traces``), which lives
for one application run; the ``"auto"`` policy and the AOT module
(:mod:`repro.compile.module`) hand it to the executor they run, and
the named executors trace every launch.  Entries are keyed by
:meth:`repro.cuda.plan.LaunchPlan.module_key`, which holds what the
memory model observes (geometry, scalars, each array's space, dtype,
size and relative base), not array names.  The first launch of a key
traces its sample and records the scaled trace.  A repeat replays it
only when :func:`repro.analysis.divergence.replay_proof` proves that
the kernel's address and control streams do not depend on loaded data
— the proof is computed on the first key hit and memoized per code
object.  A replay classifies the sampled blocks ``MEMO`` (they still
execute, untraced, when the launch is functional) and returns a copy
of the recorded trace, its ``per_array`` entries renamed to this
launch's arrays by argument position.  A refused kernel re-traces;
the reason is the outcome :attr:`TraceCollector.replay` reports, which
the executor puts on its span as the ``replay`` attribute.  Launches
that record an instruction stream or trace no blocks bypass the cache.

The collector is deliberately executor-agnostic: backends call
:meth:`classify` / :meth:`begin_block` / :meth:`finish_block` and never
touch the merge/scale/cache machinery directly.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

from ..sim.memsys import cold_caches
from .trace import KernelTrace

#: block dispositions returned by :meth:`TraceCollector.classify`
TRACE, MEMO, PLAIN = "trace", "memo", "plain"


class TraceCollector:
    """Accumulates one launch's trace from per-block executions.

    With ``timed=True`` (set by the executor when a profiler is
    active) the collector accumulates the wall time of its own
    bookkeeping in :attr:`collect_seconds`, giving the pipeline's
    "collect" stage; untimed collectors pay nothing.
    """

    def __init__(self, plan, timed: bool = False,
                 traces: Optional[Dict[Tuple, Tuple]] = None) -> None:
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
        #: the launch trace cache's outcome: ``"first trace"``,
        #: ``"replayed"`` or ``"refused: <why>"``; None without a cache
        self.replay: Optional[str] = None
        #: launch trace cache, its key for this plan, and the recorded
        #: (trace, smem bytes, array names) when the key replays
        self._traces = None
        self._key: Optional[Tuple] = None
        self._hit: Optional[Tuple] = None
        if traces is not None and plan.traced and not plan.record_stream:
            self._lookup(traces)
        #: the cold caches this execution's traced blocks read through
        #: (none when nothing is traced: no sample, or a replay)
        self.caches = cold_caches(plan.spec) \
            if plan.traced and self._hit is None else {}

    def _lookup(self, traces: Dict[Tuple, Tuple]) -> None:
        key = self.plan.module_key()
        try:
            hit = traces.get(key)
        except TypeError:           # an unhashable scalar argument
            return
        if hit is None:
            self._traces, self._key = traces, key
            self.replay = "first trace"
            return
        from ..analysis.divergence import replay_proof
        proof = replay_proof(self.plan.kernel)
        if proof.admitted:
            self._hit = hit
            self.replay = "replayed"
            return
        self.replay = f"refused: {proof.reason}"

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
        per-block-PTX extrapolation), or replay the recorded trace of
        the launch's key; a first trace is recorded in the cache."""
        if self._hit is not None:
            trace, self.smem_bytes, names = self._hit
            return _renamed(trace, names, self.plan.array_names())
        merged = self.merged
        if merged.blocks_traced:
            scale = self.plan.grid.size / merged.blocks_traced
            merged = merged.scaled(scale)
            merged.blocks_traced = len(self.plan.traced)
        if self._traces is not None:
            self._traces[self._key] = (merged.scaled(1.0), self.smem_bytes,
                                       self.plan.array_names())
        return merged


def _renamed(trace: KernelTrace, recorded: Tuple[Optional[str], ...],
             current: Tuple[Optional[str], ...]) -> KernelTrace:
    """A copy of a recorded trace whose ``per_array`` entries name the
    arrays bound at the same argument positions as in the recording."""
    out = trace.scaled(1.0)
    rename: Dict[str, str] = {}
    for old, new in zip(recorded, current):
        if old is not None:
            rename.setdefault(old, new)
    for entry in out.per_array.values():
        entry.array = rename.get(entry.array, entry.array)
    out.per_array = {entry.array: entry for entry in out.per_array.values()}
    return out
