"""Launch planning — stage 1 of the execution pipeline.

A kernel launch used to be one monolithic loop inside ``launch()``;
it is now three explicit layers:

``LaunchPlan`` (this module)
    Captures and validates everything a launch needs *before* any
    block runs: grid/block geometry against the device limits, the
    deterministic traced-block sample and the execution/tracing
    switches.  A plan is inert data — it can be inspected, re-executed,
    or handed to a different backend.

:mod:`repro.cuda.executors`
    Pluggable backends that walk the plan's blocks: the reference
    ``SequentialExecutor`` (one :class:`BlockContext` per block, the
    original semantics), the ``CompiledExecutor`` (runs a whole-grid
    NumPy program lowered AOT from the kernel's AST by
    :mod:`repro.compile`, falling back to the sequential backend for
    kernels the compiler refuses) and the ``SanitizedExecutor`` (the
    sequential walk under ``cuda-memcheck``-style checking).

:class:`repro.trace.collector.TraceCollector`
    Owns trace merging, sample-to-grid scaling, stream recording, the
    cold caches one execution's traced blocks read through, and the
    launch trace cache keyed on :meth:`LaunchPlan.module_key`.

``launch()`` in :mod:`repro.cuda.launch` is a thin facade over
``LaunchPlan.build(...).execute(...)``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.device import DeviceSpec
from ..obs.spans import span
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
    with any executor backend.  The ``traced`` sample is part of the
    plan so that every backend observes the same blocks; each
    execution's collector builds cold caches for them
    (:func:`~repro.sim.memsys.cold_caches`), so every execution
    observes the same cache state evolution.
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
        with span("plan.build", kernel=kern.name):
            device = device if device is not None else Device()
            grid = as_dim3(grid)
            block = as_dim3(block)
            validate_launch(device.spec, grid, block)
            if not functional and not trace:
                raise CudaModelError(
                    "launch(functional=False, trace=False) would execute "
                    "zero blocks and return an empty trace; enable tracing "
                    "or run functionally")
            traced = tuple(sample_blocks(grid, trace_blocks)) if trace else ()
            plan = cls(kernel=kern, grid=grid, block=block, args=args,
                       device=device, functional=functional,
                       trace_enabled=trace, trace_blocks=trace_blocks,
                       record_stream=record_stream, traced=traced)
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
        cache's program context — without holding references to the
        arrays themselves."""
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
        """The key of the launch trace cache (:mod:`repro.trace.collector`):
        the kernel object itself (two kernels may share a name), the
        geometry, the switches that change what executing the plan
        observes, and the arguments as the memory model sees them — a
        scalar by type and value, an array by space, dtype, size, shape
        and base address relative to the lowest base bound in the same
        cache space (``const``, ``tex``, ``global``), never by name.

        Caches are built cold for each execution
        (:func:`~repro.sim.memsys.cold_caches`), and a direct-mapped
        cache and the coalescing classifier keep their verdicts when
        every address of a space moves by a multiple of the space's
        period: ``READ_ONLY_LINE_BYTES`` for ``const`` and ``tex``, and
        for global memory :func:`~repro.sim.memsys.coalesce_period` of
        each bound item size (the cache line on cached-line devices).
        Each space's lowest base is keyed modulo that period;
        every :class:`Device` allocation is ``Device.ALIGN``-aligned and
        the registered devices' periods divide it, so that residue is 0.
        Whether the kernel's index streams are equal is the replay
        proof's question (:func:`repro.analysis.divergence.replay_proof`),
        not the key's."""
        from ..sim.memsys import READ_ONLY_LINE_BYTES, coalesce_period
        from .memory import DeviceArray
        arrays = [a for a in self.args if isinstance(a, DeviceArray)]
        lowest: Dict[str, int] = {}
        period: Dict[str, int] = {}
        for a in arrays:
            lowest[a.space] = min(lowest.get(a.space, a.base_addr),
                                  a.base_addr)
            step = coalesce_period(a.itemsize, self.spec) \
                if a.space == "global" else READ_ONLY_LINE_BYTES
            period[a.space] = math.lcm(period.get(a.space, 1), step)
        layout = tuple(
            (a.space, str(a.data.dtype), a.size, a.shape,
             a.base_addr - lowest[a.space])
            if isinstance(a, DeviceArray) else (type(a).__name__, a)
            for a in self.args)
        residues = tuple(sorted((space, lowest[space] % period[space])
                                for space in lowest))
        return (self.kernel, self.grid, self.block, layout, residues,
                self.trace_enabled, self.trace_blocks,
                self.functional, self.record_stream)

    def array_names(self) -> Tuple[Optional[str], ...]:
        """The bound arrays' names by argument position (``None`` for a
        scalar): what a replayed trace's ``per_array`` entries are
        renamed by."""
        from .memory import DeviceArray
        return tuple(a.name if isinstance(a, DeviceArray) else None
                     for a in self.args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def make_context(self, linear: int,
                     trace: Optional[KernelTrace] = None,
                     stream: Optional[list] = None,
                     caches: Optional[Dict[str, object]] = None
                     ) -> BlockContext:
        """A scalar (one-block) execution context for block ``linear``,
        reading through ``caches`` when traced."""
        return BlockContext(
            self.spec, self.grid, self.block, self.grid.unlinear(linear),
            trace=trace, caches=caches, stream=stream,
            kernel_name=self.kernel.name)

    def execute(self, executor=None) -> LaunchResult:
        """Run the plan: ``None`` selects the reference sequential
        backend, ``"auto"`` picks one based on the plan, otherwise a
        backend name, class or instance."""
        from .executors import resolve_executor
        return resolve_executor(executor, self).execute(self)
