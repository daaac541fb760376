"""Launch planning — stage 1 of the execution pipeline.

A kernel launch used to be one monolithic loop inside ``launch()``;
it is now three explicit layers:

``LaunchPlan`` (this module)
    Captures and validates everything a launch needs *before* any
    block runs: grid/block geometry against the device limits, the
    deterministic traced-block sample, the per-SM read-only caches,
    and the execution/tracing switches.  A plan is inert data — it can
    be inspected, re-executed, or handed to a different backend.

:mod:`repro.cuda.executors`
    Pluggable backends that walk the plan's blocks: the reference
    ``SequentialExecutor`` (one :class:`BlockContext` per block, the
    original semantics), the ``CompiledExecutor`` (runs a whole-grid
    NumPy program lowered AOT from the kernel's AST by
    :mod:`repro.compile`, falling back to the sequential backend for
    kernels the compiler refuses) and the ``SanitizedExecutor`` (the
    sequential walk under ``cuda-memcheck``-style checking).

:class:`repro.trace.collector.TraceCollector`
    Owns trace merging, sample-to-grid scaling, stream recording and
    the launch trace cache keyed on :meth:`LaunchPlan.module_key`.

``launch()`` in :mod:`repro.cuda.launch` is a thin facade over
``LaunchPlan.build(...).execute(...)``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.device import DeviceSpec
from ..obs.spans import span
from ..sim.memsys import CacheHierarchy, DirectMappedCache
from ..trace.trace import KernelTrace
from .dim3 import Dim3, DimLike, as_dim3
from .context import BlockContext
from .memory import CudaModelError, Device
from .launch import Kernel, LaunchResult


def validate_launch(spec: DeviceSpec, grid: Dim3, block: Dim3) -> None:
    """Reject configurations the hardware cannot schedule."""
    if block.size > spec.max_threads_per_block:
        raise CudaModelError(
            f"block of {block.size} threads exceeds the "
            f"{spec.max_threads_per_block}-thread limit")
    if block.z > 64:
        raise CudaModelError("blockDim.z is limited to 64")
    if grid.x > spec.max_grid_dim or grid.y > spec.max_grid_dim:
        raise CudaModelError(
            f"grid {grid} exceeds the {spec.max_grid_dim} per-dimension limit")
    if grid.z != 1:
        raise CudaModelError("grids are two-dimensional on this device")


#: active launch observers — every plan built while an observer is
#: registered is passed to it (see :func:`observe_plans`)
_PLAN_OBSERVERS: List[Callable[["LaunchPlan"], None]] = []


@contextlib.contextmanager
def observe_plans(sink: Callable[["LaunchPlan"], None]):
    """Record every :class:`LaunchPlan` built inside the block.

    The inter-launch dataflow rule (R7 in :mod:`repro.analysis.rules`)
    uses this to capture an application's whole launch sequence —
    kernel, geometry and the real device arrays each launch binds —
    without the application cooperating.
    """
    _PLAN_OBSERVERS.append(sink)
    try:
        yield sink
    finally:
        _PLAN_OBSERVERS.remove(sink)


def sample_blocks(grid: Dim3, n: int) -> Sequence[int]:
    """Deterministic, evenly spread sample of linear block indices.

    Includes the first and last block so boundary-condition code paths
    are observed.
    """
    total = grid.size
    if total <= n:
        return list(range(total))
    idx = np.unique(np.linspace(0, total - 1, n).astype(np.int64))
    return [int(i) for i in idx]


@dataclass
class LaunchPlan:
    """Everything one kernel launch needs, decided up front.

    Build with :meth:`build` (which validates), then :meth:`execute`
    with any executor backend.  The ``traced`` sample and the cache
    objects are part of the plan so that every backend observes the
    same blocks and the same cache state evolution.
    """

    kernel: Kernel
    grid: Dim3
    block: Dim3
    args: Tuple = ()
    device: Optional[Device] = None
    functional: bool = True
    trace_enabled: bool = True
    trace_blocks: int = 4
    record_stream: bool = False
    traced: Tuple[int, ...] = ()
    #: "const"/"tex" read-only caches, plus a "global" CacheHierarchy
    #: on devices whose global loads are cached (Fermi and later)
    caches: Dict[str, object] = field(default_factory=dict)
    #: wall time spent in :meth:`build` (the pipeline's "plan" stage)
    build_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._traced_set = frozenset(self.traced)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        kern: Kernel,
        grid: DimLike,
        block: DimLike,
        args: Tuple = (),
        device: Optional[Device] = None,
        functional: bool = True,
        trace_blocks: int = 4,
        trace: bool = True,
        record_stream: bool = False,
    ) -> "LaunchPlan":
        t0 = perf_counter()
        with span("plan.build", kernel=kern.name):
            device = device if device is not None else Device()
            spec = device.spec
            grid = as_dim3(grid)
            block = as_dim3(block)
            validate_launch(spec, grid, block)
            if not functional and not trace:
                raise CudaModelError(
                    "launch(functional=False, trace=False) would execute "
                    "zero blocks and return an empty trace; enable tracing "
                    "or run functionally")
            traced = tuple(sample_blocks(grid, trace_blocks)) if trace else ()
            caches: Dict[str, object] = {
                "const": DirectMappedCache(spec.constant_cache_bytes_per_sm,
                                           space="const"),
                "tex": DirectMappedCache(spec.texture_cache_bytes_per_sm,
                                         space="tex"),
            }
            if spec.has_cached_global_loads:
                caches["global"] = CacheHierarchy(spec)
            plan = cls(kernel=kern, grid=grid, block=block, args=args,
                       device=device, functional=functional,
                       trace_enabled=trace, trace_blocks=trace_blocks,
                       record_stream=record_stream, traced=traced,
                       caches=caches)
        plan.build_seconds = perf_counter() - t0
        for sink in list(_PLAN_OBSERVERS):
            sink(plan)
        return plan

    # ------------------------------------------------------------------
    # Geometry / sample queries
    # ------------------------------------------------------------------
    @property
    def spec(self) -> DeviceSpec:
        return self.device.spec

    @property
    def num_blocks(self) -> int:
        return self.grid.size

    @property
    def traced_set(self) -> frozenset:
        return self._traced_set

    def block_ids(self) -> Sequence[int]:
        """Linear ids of the blocks this launch executes, in order."""
        if self.functional:
            return range(self.grid.size)
        return self.traced

    def arg_signature(self) -> Tuple:
        """Hashable description of the launch arguments: memory space,
        dtype and element count for device arrays, type and value for
        scalars.  Combined with the kernel name and block shape this
        keys anything cached per launch *configuration* — the artifact
        cache's program context, R7's per-launch footprints and the
        launch trace cache (:meth:`module_key`) — without holding
        references to the arrays themselves."""
        from .memory import DeviceArray
        parts = []
        for a in self.args:
            if isinstance(a, DeviceArray):
                parts.append((getattr(a, "space", "global"),
                              str(a.data.dtype), a.size))
            else:
                parts.append((type(a).__name__, a))
        return (self.kernel.name, self.block, tuple(parts))

    def module_key(self) -> Tuple:
        """Full launch-*configuration* identity, the key of the launch
        trace cache (:mod:`repro.trace.collector`): the kernel object
        itself (two kernels may share a name), :meth:`arg_signature`,
        the grid, the bound array names and every switch that changes
        what executing the plan observes.  Two plans with equal keys
        run the same kernel over the same geometry against the
        same-named device arrays — the precondition for replaying a
        recorded trace instead of re-tracing sample blocks."""
        from .memory import DeviceArray
        names = tuple(a.name if isinstance(a, DeviceArray) else None
                      for a in self.args)
        return (self.kernel, self.arg_signature(), self.grid, names,
                self.trace_enabled, self.trace_blocks,
                self.functional, self.record_stream)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def make_context(self, linear: int,
                     trace: Optional[KernelTrace] = None,
                     stream: Optional[list] = None) -> BlockContext:
        """A scalar (one-block) execution context for block ``linear``."""
        return BlockContext(
            self.spec, self.grid, self.block, self.grid.unlinear(linear),
            trace=trace, caches=self.caches, stream=stream,
            kernel_name=self.kernel.name)

    def execute(self, executor=None) -> LaunchResult:
        """Run the plan: ``None`` selects the reference sequential
        backend, ``"auto"`` picks one based on the plan, otherwise a
        backend name, class or instance."""
        from .executors import resolve_executor
        return resolve_executor(executor, self).execute(self)
