"""Pluggable execution backends — stage 2 of the execution pipeline.

Every backend walks the blocks of a :class:`~repro.cuda.plan.LaunchPlan`
and reports per-block results to a
:class:`~repro.trace.collector.TraceCollector`:

``SequentialExecutor``
    The reference backend: one :class:`BlockContext` per block, blocks
    in linear order — exactly the semantics of the original monolithic
    ``launch()`` loop.

``CompiledExecutor``
    Runs the whole untraced functional sweep as one AOT-compiled
    NumPy program per kernel (see :mod:`repro.compile`): the kernel's
    AST is lowered once so thread loops become array axes and every
    block of a launch executes as slices of a single
    ``(blocks, tz, ty, tx)`` vector program.  Bit-identical to the
    sequential backend for batchable kernels; kernels the compiler
    refuses fall back to the sequential reference backend.

``SanitizedExecutor``
    The sequential walk through ``cuda-memcheck``-style sanitizing
    contexts (see :mod:`repro.san`).

Use :func:`resolve_executor` (or ``launch(..., executor=...)``) to go
from ``None`` / ``"sequential"`` / ``"compiled"`` / ``"sanitized"`` /
``"auto"`` / an instance to a backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import Dict, Optional

import numpy as np

from ..obs.profiler import active_profiler
from ..obs.spans import span
from ..trace.collector import TraceCollector, TRACE, MEMO, PLAIN
from .launch import LaunchResult
from .memory import CudaModelError


#: NumPy's floating-point error state for kernel code: a float op on 0
#: or a negative lane (an SFU ``rsqrt``/``rcp``, a divide) returns its
#: inf or NaN without a warning, as the device does.  Entered once per
#: block or compiled-program call (a kept ``np.errstate`` cannot be
#: entered twice).
KERNEL_ERRSTATE = {"divide": "ignore", "invalid": "ignore"}


class Executor(ABC):
    """Common interface: ``execute(plan) -> LaunchResult``.

    ``execute`` is also the pipeline's instrumentation point: it times
    the execute/collect/finalize stages onto the result's
    ``stage_seconds`` and hands the finished result to the active
    :class:`~repro.obs.profiler.LaunchProfiler` (if any), which keeps
    it as a :class:`~repro.obs.profiler.LaunchRecord`.  With
    observability disabled this adds three ``perf_counter`` calls per
    *launch* — blocks pay nothing.

    ``traces`` is the launch trace cache handed to every collector
    (see :mod:`repro.trace.collector`); ``None``, the default of every
    named executor, traces every launch.  :func:`choose_executor` sets
    it to the plan's ``Device.traces`` and ``decision`` to why it chose
    this backend.  While a span tracer is installed, the launch's
    ``executor.<name>`` span carries both decisions as its ``auto``
    and ``replay`` attributes.
    """

    name = "executor"
    traces: Optional[Dict] = None
    decision: Optional[str] = None

    def execute(self, plan) -> LaunchResult:
        profiler = active_profiler()
        collector = TraceCollector(plan, timed=profiler is not None,
                                   traces=self.traces)
        t0 = perf_counter()
        with span(f"executor.{self.name}", kernel=plan.kernel.name,
                  grid=plan.grid, block=plan.block) as node:
            if node is not None:
                if self.decision is not None:
                    node.attrs["auto"] = self.decision
                if collector.replay is not None:
                    node.attrs["replay"] = collector.replay
            executed = self._run(plan, collector)
        t1 = perf_counter()
        with span("collector.finalize", kernel=plan.kernel.name):
            trace = collector.finalize()
        t2 = perf_counter()
        result = LaunchResult(
            kernel=plan.kernel,
            grid=plan.grid,
            block=plan.block,
            trace=trace,
            smem_bytes_per_block=collector.smem_bytes,
            device=plan.device,
            blocks_executed=executed,
            blocks_traced=len(plan.traced),
            stream=collector.stream,
            executor=self.name,
            memo_hits=collector.memo_hits,
            block_dispositions=dict(collector.dispositions),
            stage_seconds={
                "plan": plan.build_seconds,
                "execute": max(0.0, (t1 - t0) - collector.collect_seconds),
                "collect": collector.collect_seconds,
                "finalize": t2 - t1,
            },
        )
        if profiler is not None:
            profiler.on_launch(result)
        return result

    @abstractmethod
    def _run(self, plan, collector: TraceCollector) -> int:
        """Execute the plan's blocks; returns how many actually ran."""


class SequentialExecutor(Executor):
    """One block at a time, in linear order (the reference backend)."""

    name = "sequential"

    def _run(self, plan, collector: TraceCollector) -> int:
        executed = 0
        for linear in plan.block_ids():
            mode = collector.classify(linear)
            if mode == MEMO and not plan.functional:
                continue
            self._run_block(plan, collector, linear, mode)
            executed += 1
        return executed

    def _run_block(self, plan, collector: TraceCollector, linear: int,
                   mode: str):
        """Run one block through a scalar context, traced when ``mode``
        is ``TRACE``, under :data:`KERNEL_ERRSTATE`; returns the
        context."""
        if mode == TRACE:
            trace, stream = collector.begin_block(linear)
            ctx = self._context(plan, linear, trace, stream,
                                collector.caches)
            with np.errstate(**KERNEL_ERRSTATE):
                plan.kernel.fn(ctx, *plan.args)
            collector.finish_block(linear, ctx)
        else:
            ctx = self._context(plan, linear, None, None, None)
            with np.errstate(**KERNEL_ERRSTATE):
                plan.kernel.fn(ctx, *plan.args)
        return ctx

    def _context(self, plan, linear: int, trace, stream, caches):
        return plan.make_context(linear, trace=trace, stream=stream,
                                 caches=caches)


# ----------------------------------------------------------------------
# Sanitized execution
# ----------------------------------------------------------------------

class SanitizedExecutor(SequentialExecutor):
    """The reference sequential walk through sanitizing contexts.

    Every block runs in a :class:`~repro.san.context.SanitizedContext`
    with all four ``cuda-memcheck``-style tools armed (memcheck,
    racecheck, synccheck, initcheck — restrict via ``tools=``).  The
    :class:`~repro.san.state.SanState` persists across launches, so
    definedness shadow bits and the per-launch dataflow log span a
    whole application run — assign an instance to ``app.executor`` to
    sanitize every launch the app makes, or use
    ``launch(..., sanitize=True)`` for a single launch.

    Clean kernels take exactly the base context's data path, so
    sanitized results are bit-identical to the sequential backend's.
    """

    name = "sanitized"

    def __init__(self, state=None, tools=None) -> None:
        from ..san.state import SanState
        self.state = state if state is not None else SanState(tools)

    def _run(self, plan, collector: TraceCollector) -> int:
        self.state.begin_launch(plan)
        return super()._run(plan, collector)

    def _run_block(self, plan, collector: TraceCollector, linear: int,
                   mode: str):
        ctx = super()._run_block(plan, collector, linear, mode)
        ctx.finish()
        return ctx

    def _context(self, plan, linear: int, trace, stream, caches):
        from ..san.context import SanitizedContext
        return SanitizedContext(self.state, plan, linear, trace=trace,
                                stream=stream, caches=caches)

    def execute(self, plan) -> LaunchResult:
        result = super().execute(plan)
        result.san = self.state
        return result


# ----------------------------------------------------------------------
# Compiled (whole-grid AOT) execution
# ----------------------------------------------------------------------

#: thread lanes per compiled-program call; larger sweeps run in chunks
MAX_LANES = 1 << 20


class CompiledExecutor(Executor):
    """Run an AOT-compiled whole-grid NumPy program per kernel.

    The grid compiler (:mod:`repro.compile`) lowers the kernel's AST
    once — thread loops become array axes, ``__syncthreads()`` becomes
    a compile-time program-point split, divergent branches become
    masked stores — and every untraced functional block then executes
    as slices of one ``(blocks, tz, ty, tx)`` NumPy program.  Lanes
    are ordered block-major, the sequential backend's block order, so
    results are bit-identical to it for every ``batchable`` kernel.

    Traced blocks split the grid into contiguous compiled segments and
    run through a scalar :class:`BlockContext` at their ordered
    position, so traces *and* outputs match sequential execution.
    Kernels the compiler refuses (or declared ``batchable=False``)
    fall back to the sequential reference backend inside a
    ``compile.fallback`` span whose ``reason`` attribute is the
    :class:`~repro.compile.CompileError` text (recorded while a span
    tracer is installed, like the ``"auto"`` policy's ``compile
    refused: …``).
    Perf-only launches (``functional=False``) only run traced blocks,
    so they go straight to the sequential walk without compiling.
    """

    name = "compiled"

    def _run(self, plan, collector: TraceCollector) -> int:
        from ..compile import (CompileError, GridRT, get_program,
                               prelude_for)
        from ..compile.program import plan_context
        reference = SequentialExecutor()
        if not plan.functional:
            return reference._run(plan, collector)
        try:
            program = get_program(plan.kernel, plan_context(plan))
        except CompileError as exc:
            with span("compile.fallback", kernel=plan.kernel.name,
                      reason=str(exc)):
                return reference._run(plan, collector)

        prelude = prelude_for(plan.grid, plan.block)
        chunk_blocks = max(1, MAX_LANES // plan.block.size)
        executed = 0

        def run_range(start: int, stop: int) -> None:
            nonlocal executed
            s = start
            while s < stop:
                e = min(stop, s + chunk_blocks)
                rt = GridRT(prelude, s, e, plan.spec, plan.kernel.name)
                with np.errstate(**KERNEL_ERRSTATE):
                    program.entry(rt, *plan.args)
                executed += e - s
                s = e

        # Only the traced sample needs per-block classification; every
        # other block is PLAIN by definition and runs inside a compiled
        # segment (walking all of block_ids() through classify() would
        # cost a Python iteration per block for a known answer).
        seg_start = 0
        for linear in sorted(plan.traced):
            mode = collector.classify(linear)
            if mode == TRACE:
                run_range(seg_start, linear)   # keep block order intact
                reference._run_block(plan, collector, linear, TRACE)
                executed += 1
                seg_start = linear + 1
            # MEMO blocks stay in the compiled segment: the launch is
            # functional, so they still execute (their trace comes from
            # the collector's launch trace cache).
        run_range(seg_start, plan.grid.size)
        collector.dispositions[PLAIN] += plan.grid.size - len(plan.traced)
        return executed


# ----------------------------------------------------------------------
# Resolution / selection policy
# ----------------------------------------------------------------------

EXECUTORS = {
    "sequential": SequentialExecutor,
    "sanitized": SanitizedExecutor,
    "compiled": CompiledExecutor,
}

#: grids with fewer untraced blocks than this go straight to the
#: sequential backend under ``"auto"`` — below the width at which
#: compilation amortizes its per-launch bookkeeping.
MIN_VECTOR_BLOCKS = 4


def choose_executor(plan) -> Executor:
    """The ``"auto"`` policy: functional sweeps of batchable kernels
    the grid compiler has (or can build, or loads from the on-disk
    artifact cache) a program for run compiled when at least
    :data:`MIN_VECTOR_BLOCKS` blocks are untraced; everything else
    runs on the sequential reference backend.  Either way the executor
    replays through the plan device's launch trace cache
    (``Device.traces``), and its ``decision`` says why it was chosen.
    """
    from ..compile import compile_status
    from ..compile.program import plan_context
    untraced = plan.num_blocks - len(plan.traced)
    if not plan.functional:
        decision = "non-functional launch"
    elif not plan.kernel.batchable:
        decision = "batchable=False"
    elif untraced < MIN_VECTOR_BLOCKS:
        decision = (f"{untraced} untraced blocks < "
                    f"MIN_VECTOR_BLOCKS ({MIN_VECTOR_BLOCKS})")
    else:
        ok, reason = compile_status(plan.kernel, plan_context(plan))
        decision = "compiled" if ok else f"compile refused: {reason}"
    executor: Executor = CompiledExecutor() if decision == "compiled" \
        else SequentialExecutor()
    executor.decision = decision
    executor.traces = plan.device.traces
    return executor


def resolve_executor(spec, plan=None) -> Executor:
    """Coerce ``None`` / name / class / instance into an executor."""
    if spec is None:
        return SequentialExecutor()
    if isinstance(spec, Executor):
        return spec
    if isinstance(spec, type) and issubclass(spec, Executor):
        return spec()
    if isinstance(spec, str):
        if spec == "auto":
            if plan is None:
                raise CudaModelError(
                    "executor='auto' needs a plan to choose from")
            return choose_executor(plan)
        cls = EXECUTORS.get(spec)
        if cls is not None:
            return cls()
    raise CudaModelError(
        f"unknown executor {spec!r}; expected one of "
        f"{sorted(EXECUTORS)} + ['auto'], an Executor class or instance")
