"""Kernel objects, launch results, and the launch facade.

A :class:`Kernel` bundles the DSL function with its *compiled resource
usage* — registers per thread and statically declared shared memory —
the two knobs the paper's occupancy arguments revolve around
("an incremental increase in the usage of registers or shared memory
per thread can result in a substantial decrease in the number of
threads that can be simultaneously executed").  Register counts play
the role of the numbers one reads out of ``nvcc``'s cubin; optimization
passes in :mod:`repro.opt` transform them the way the paper describes
(unrolling eliminates an induction variable, prefetching adds two
registers, ...).

:func:`launch` is a thin facade over the staged execution pipeline::

    plan     = LaunchPlan.build(...)   # validation + trace sample (cuda.plan)
    executor = resolve_executor(...)   # sequential/compiled (cuda.executors)
    result   = executor.execute(plan)  # traces via TraceCollector (trace.collector)

and returns a :class:`LaunchResult` carrying the scaled
:class:`~repro.trace.trace.KernelTrace`.

Tracing strategy (mirrors reasoning from per-block PTX in the paper):
a deterministic sample of blocks is executed with tracing enabled and
the trace is scaled to the full grid.  ``functional=True`` (default)
runs *every* block so device arrays hold the complete result;
``functional=False`` runs only the traced sample, which is what the
benchmark harness uses for large problem sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..arch.device import DeviceSpec
from ..trace.trace import KernelTrace
from .dim3 import Dim3, DimLike
from .memory import Device


@dataclass(frozen=True)
class Kernel:
    """A compiled kernel: DSL function + resource usage metadata."""

    fn: Callable[..., None]
    name: str
    regs_per_thread: int = 10
    static_smem_bytes: int = 0
    notes: str = ""
    #: safe for block-vectorized execution: no Python-level control
    #: flow on scalar block coordinates, no per-block thread count used
    #: in index math (use ``ctx.threads_per_block``), and no block
    #: reading global data another block of the same launch writes
    batchable: bool = True


def kernel(name: str, regs_per_thread: int = 10,
           static_smem_bytes: int = 0, notes: str = "",
           batchable: bool = True):
    """Decorator turning a DSL function into a :class:`Kernel`."""
    def wrap(fn: Callable[..., None]) -> Kernel:
        return Kernel(fn=fn, name=name, regs_per_thread=regs_per_thread,
                      static_smem_bytes=static_smem_bytes, notes=notes,
                      batchable=batchable)
    return wrap


@dataclass
class LaunchResult:
    """Everything the performance models need about one kernel launch."""

    kernel: Kernel
    grid: Dim3
    block: Dim3
    trace: KernelTrace
    smem_bytes_per_block: int
    device: Device
    blocks_executed: int
    blocks_traced: int
    #: ordered instruction stream of one block (record_stream=True)
    stream: Optional[list] = None
    #: name of the executor backend that ran the launch
    executor: str = ""
    #: traced-sample blocks satisfied from the launch trace cache
    memo_hits: int = 0
    #: block counts by disposition ("trace" / "memo" / "plain")
    block_dispositions: Dict[str, int] = field(default_factory=dict)
    #: wall time per pipeline stage (plan / execute / collect / finalize)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: the :class:`~repro.san.state.SanState` of a sanitized launch
    #: (``sanitize=True`` / ``SanitizedExecutor``), else ``None``
    san: Optional[object] = None

    @property
    def num_blocks(self) -> int:
        return self.grid.size

    @property
    def threads_per_block(self) -> int:
        return self.block.size

    @property
    def total_threads(self) -> int:
        return self.num_blocks * self.threads_per_block

    @property
    def spec(self) -> DeviceSpec:
        return self.device.spec

    def occupancy(self):
        """Occupancy of this launch (lazy import avoids a cycle)."""
        from ..sim.occupancy import occupancy_for_launch
        return occupancy_for_launch(self)

    def estimate(self):
        """Analytical timing estimate for this launch."""
        from ..sim.timing import estimate_kernel_time
        return estimate_kernel_time(self)

    def gflops(self) -> float:
        """Achieved GFLOPS under the analytical timing model."""
        est = self.estimate()
        return self.trace.flops / est.seconds / 1e9 if est.seconds else 0.0

    def profile(self):
        """Structured per-launch profile (an
        :class:`~repro.obs.profiler.LaunchRecord`)."""
        from ..obs.profiler import LaunchRecord
        return LaunchRecord.from_result(self)

    def summary(self) -> str:
        """One-line nvprof-style digest: kernel, geometry, executor,
        block accounting, modeled GFLOPS and the binding bottleneck."""
        return self.profile().digest()

    def __repr__(self) -> str:
        try:
            return f"<LaunchResult {self.summary()}>"
        except Exception:       # half-built results in tests/debugging
            return (f"<LaunchResult kernel={self.kernel.name!r} "
                    f"grid={self.grid} block={self.block}>")


def launch(
    kern: Kernel,
    grid: DimLike,
    block: DimLike,
    args: Tuple = (),
    device: Optional[Device] = None,
    functional: bool = True,
    trace_blocks: int = 4,
    trace: bool = True,
    record_stream: bool = False,
    executor=None,
    sanitize: bool = False,
) -> LaunchResult:
    """Execute ``kern`` over ``grid`` x ``block`` threads.

    Parameters
    ----------
    functional:
        Run every block (full functional result).  When ``False`` only
        the traced sample runs — performance analysis of large grids.
        ``functional=False`` with ``trace=False`` would execute
        nothing and is rejected with :class:`CudaModelError`.
    trace_blocks:
        Number of blocks to execute with tracing enabled; the trace is
        scaled by ``grid.size / traced``.  Under ``executor="auto"`` a
        launch whose key is in ``device.traces`` replays the recorded
        trace when the replay proof admits the kernel (see
        :mod:`repro.trace.collector`); the named executors trace every
        launch.
    trace:
        Disable to run purely functionally (fast path for tests).
    record_stream:
        Record the first traced block's ordered instruction stream for
        the event-driven warp simulator (:mod:`repro.sim.warpsim`).
    executor:
        Execution backend: ``None`` (reference sequential), a name
        (``"sequential"`` / ``"compiled"`` / ``"sanitized"`` /
        ``"auto"``),
        an :class:`~repro.cuda.executors.Executor` class or instance.
    sanitize:
        Run under the :class:`~repro.cuda.executors.SanitizedExecutor`
        (memcheck/racecheck/synccheck/initcheck); the result's ``san``
        attribute carries the findings.  Pass a ``SanitizedExecutor``
        instance as ``executor`` instead to share sanitizer state
        across several launches.
    """
    from .plan import LaunchPlan
    plan = LaunchPlan.build(
        kern, grid, block, args=args, device=device, functional=functional,
        trace_blocks=trace_blocks, trace=trace, record_stream=record_stream)
    if sanitize:
        from .executors import SanitizedExecutor
        if not isinstance(executor, SanitizedExecutor):
            executor = SanitizedExecutor()
    return plan.execute(executor)
