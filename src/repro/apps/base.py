"""Application framework: workloads, runs and Amdahl accounting.

Every application in the paper's suite (Table 2/3) is implemented as an
:class:`Application` subclass providing

* a NumPy *reference* implementation (functional ground truth),
* one or more DSL *kernels* executed through :func:`repro.cuda.launch`,
* ``default_workload`` sizes (a small ``test`` size that runs fully
  functionally, and a ``full`` size for performance analysis),
* the CPU-baseline cost parameters the paper used for that app
  (SIMD/fast-math toggles, cache behaviour).

An :class:`AppRun` aggregates the launches of one execution and derives
the paper's Table 3 columns:

* *GPU kernel time* — analytical estimates summed over launches (and
  multiplied by ``time_steps_scale`` for iterative solvers where we
  execute a few representative steps of a longer simulation);
* *CPU kernel time* — the Opteron model applied to the same traces;
* *kernel speedup* — their ratio;
* *application speedup* — Amdahl's law with the app's kernel-time
  fraction (Table 2's "% execution in kernel") and the measured
  host<->device transfer time, reproducing e.g. FDTD's 1.2X ceiling
  from its 16.4% kernel fraction.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..arch.device import DeviceSpec, DEFAULT_DEVICE
from ..cuda.launch import LaunchResult
from ..cuda.memory import Device
from ..sim.cpumodel import CpuCostParams, CpuSpec, CpuTimeEstimate, estimate_cpu_time
from ..sim.timing import KernelTimeEstimate, estimate_kernel_time
from ..trace.trace import KernelTrace


@dataclass
class AppRun:
    """One execution of an application on the simulated device."""

    app: str
    workload: Dict[str, object]
    launches: List[LaunchResult]
    device: Device
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    cpu_params: CpuCostParams = field(default_factory=CpuCostParams)
    kernel_fraction: float = 0.99
    time_steps_scale: float = 1.0
    #: the :class:`~repro.compile.module.CompiledModule` behind a
    #: :meth:`Application.run_module` execution, else ``None``
    module: Optional[object] = None

    # ------------------------------------------------------------------
    # GPU side
    # ------------------------------------------------------------------
    @property
    def merged_trace(self) -> KernelTrace:
        merged = KernelTrace()
        for l in self.launches:
            merged.merge(l.trace)
        return merged

    def kernel_estimates(self) -> List[KernelTimeEstimate]:
        return [estimate_kernel_time(l) for l in self.launches]

    @property
    def gpu_kernel_seconds(self) -> float:
        return sum(e.seconds for e in self.kernel_estimates()) \
            * self.time_steps_scale

    @property
    def gpu_gflops(self) -> float:
        secs = self.gpu_kernel_seconds
        flops = self.merged_trace.flops * self.time_steps_scale
        return flops / secs / 1e9 if secs > 0 else 0.0

    @property
    def transfer_seconds(self) -> float:
        return self.device.transfer_seconds()

    @property
    def bottleneck(self) -> str:
        """Dominant bottleneck across launches, weighted by time."""
        totals: Dict[str, float] = {}
        for e in self.kernel_estimates():
            totals[e.bound] = totals.get(e.bound, 0.0) + e.seconds
        return max(totals, key=totals.get) if totals else "n/a"

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------
    def cpu_estimate(self, cpu: Optional[CpuSpec] = None) -> CpuTimeEstimate:
        return estimate_cpu_time(self.merged_trace, self.cpu_params,
                                 cpu if cpu is not None else CpuSpec())

    @property
    def cpu_kernel_seconds(self) -> float:
        return self.cpu_estimate().seconds * self.time_steps_scale

    # ------------------------------------------------------------------
    # Paper Table 3 metrics
    # ------------------------------------------------------------------
    @property
    def kernel_speedup(self) -> float:
        gpu = self.gpu_kernel_seconds
        return self.cpu_kernel_seconds / gpu if gpu > 0 else 0.0

    @property
    def app_cpu_seconds(self) -> float:
        """Whole-application serial time implied by the kernel fraction."""
        f = max(min(self.kernel_fraction, 1.0), 1e-6)
        return self.cpu_kernel_seconds / f

    @property
    def app_gpu_seconds(self) -> float:
        """Whole-application time after porting: serial remainder +
        transfers + GPU kernel time."""
        serial = self.app_cpu_seconds * (1.0 - self.kernel_fraction)
        return serial + self.transfer_seconds + self.gpu_kernel_seconds

    @property
    def app_speedup(self) -> float:
        gpu = self.app_gpu_seconds
        return self.app_cpu_seconds / gpu if gpu > 0 else 0.0

    @property
    def gpu_exec_fraction(self) -> float:
        """Fraction of ported-app time spent executing on the GPU."""
        total = self.app_gpu_seconds
        return self.gpu_kernel_seconds / total if total > 0 else 0.0

    @property
    def transfer_fraction(self) -> float:
        total = self.app_gpu_seconds
        return self.transfer_seconds / total if total > 0 else 0.0

    @property
    def max_simultaneous_threads(self) -> int:
        """Table 3's "maximum simultaneously active threads" column."""
        best = 0
        for l in self.launches:
            occ = l.occupancy()
            best = max(best, min(occ.max_simultaneous_threads,
                                 l.total_threads))
        return best

    @property
    def registers_per_thread(self) -> int:
        return max((l.kernel.regs_per_thread for l in self.launches),
                   default=0)

    @property
    def smem_per_block(self) -> int:
        return max((l.smem_bytes_per_block for l in self.launches), default=0)

    def summary(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "max threads": self.max_simultaneous_threads,
            "regs/thread": self.registers_per_thread,
            "shared/block (B)": self.smem_per_block,
            "mem/compute ratio": round(self.merged_trace.memory_to_compute_ratio, 3),
            "GPU exec %": round(100 * self.gpu_exec_fraction, 1),
            "transfer %": round(100 * self.transfer_fraction, 1),
            "bottleneck": self.bottleneck,
            "kernel speedup": round(self.kernel_speedup, 1),
            "app speedup": round(self.app_speedup, 2),
        }


class Application(abc.ABC):
    """Base class for every ported application (see module docstring)."""

    #: unique registry key, e.g. ``"mri-q"``
    name: str = ""
    description: str = ""
    #: Table 2's "% of single-thread execution time spent in kernels"
    kernel_fraction: float = 0.99
    #: CPU-baseline parameters the paper's comparison used for this app
    cpu_params: CpuCostParams = CpuCostParams()
    #: default tolerances for :meth:`verify` (accumulation-heavy apps
    #: need looser float32 bounds)
    verify_rtol: float = 1e-4
    verify_atol: float = 1e-5
    #: execution backend for this app's launches — anything accepted by
    #: :func:`repro.cuda.executors.resolve_executor`.  ``"auto"`` picks
    #: the compiled backend for functional sweeps of batchable kernels
    #: the grid compiler lowers, and the reference sequential backend
    #: otherwise.
    executor: object = "auto"

    def __init__(self, spec: DeviceSpec = DEFAULT_DEVICE) -> None:
        self.spec = spec

    # -- interface ------------------------------------------------------
    @abc.abstractmethod
    def default_workload(self, scale: str = "test") -> Dict[str, object]:
        """Workload parameters; ``scale`` is ``"test"`` (small, fully
        functional) or ``"full"`` (paper-scale, trace-sampled)."""

    @abc.abstractmethod
    def reference(self, workload: Dict[str, object]) -> Dict[str, np.ndarray]:
        """Pure NumPy ground-truth implementation."""

    @abc.abstractmethod
    def run(self, workload: Dict[str, object],
            device: Optional[Device] = None,
            functional: bool = True) -> AppRun:
        """Execute the ported kernels on the simulated device."""

    def lint_targets(self) -> List["LintTarget"]:
        """Representative kernel launches for the static analyzer
        (:mod:`repro.analysis`).  Geometries should be small but
        structurally faithful: same tile shapes, same index math, just
        fewer blocks.  Apps that return ``[]`` are skipped by the
        linter."""
        return []

    def module_schedule(self, workload: Dict[str, object],
                        device: Optional[Device] = None):
        """Declare this app's launch sequence as a
        :class:`~repro.compile.module.ModuleSchedule` for whole-
        application AOT execution: allocate/upload the device arrays,
        build every :class:`~repro.cuda.plan.LaunchPlan` up front
        (plan construction is side-effect-free), wrap host logic
        between launches in ``HostStep`` entries, and return the
        schedule — or ``None`` (the default) when the app has no
        multi-launch structure worth fusing; :meth:`run_module` then
        falls back to :meth:`run`."""
        return None

    def run_module(self, workload: Optional[Dict[str, object]] = None,
                   device: Optional[Device] = None) -> AppRun:
        """Execute through the whole-application AOT module layer
        (:mod:`repro.compile.module`): capture the declared launch
        sequence, fuse what the R7 dataflow allows, replay traces for
        repeated launch configurations, and fall back per launch when
        fusion is refused.  Apps without a :meth:`module_schedule`
        run the ordinary functional path — the module layer is always
        transparent with respect to outputs."""
        wl = workload if workload is not None \
            else self.default_workload("test")
        schedule = self.module_schedule(wl, device)
        if schedule is None:
            return self.run(wl, device=device, functional=True)
        from ..compile.module import CompiledModule
        module = CompiledModule(schedule)
        launches = module.execute()
        outputs = schedule.outputs() if schedule.outputs else {}
        run = self._finish(wl, launches, schedule.device, outputs,
                           time_steps_scale=schedule.time_steps_scale)
        run.module = module
        return run

    # -- helpers --------------------------------------------------------
    def launch(self, kern, grid, block, args=(), executor=None,
               **kwargs) -> LaunchResult:
        """Launch ``kern`` through the staged plan pipeline using the
        app's configured backend (``executor=`` overrides per call)."""
        from ..cuda.plan import LaunchPlan
        plan = LaunchPlan.build(kern, grid, block, args=args, **kwargs)
        return plan.execute(self.executor if executor is None else executor)

    def _make_device(self, device: Optional[Device]) -> Device:
        return device if device is not None else Device(self.spec)

    def _finish(self, workload, launches, device, outputs,
                time_steps_scale: float = 1.0) -> AppRun:
        return AppRun(
            app=self.name,
            workload=workload,
            launches=launches,
            device=device,
            outputs=outputs,
            cpu_params=self.cpu_params,
            kernel_fraction=self.kernel_fraction,
            time_steps_scale=time_steps_scale,
        )

    def verify(self, workload: Optional[Dict[str, object]] = None,
               rtol: Optional[float] = None,
               atol: Optional[float] = None) -> AppRun:
        """Run functionally on a test workload and check every output
        against the NumPy reference.  Returns the run for inspection."""
        wl = workload or self.default_workload("test")
        rtol = self.verify_rtol if rtol is None else rtol
        atol = self.verify_atol if atol is None else atol
        run = self.run(wl, functional=True)
        ref = self.reference(wl)
        for key, expect in ref.items():
            got = run.outputs[key]
            np.testing.assert_allclose(
                got, expect, rtol=rtol, atol=atol,
                err_msg=f"{self.name}: output {key!r} mismatch")
        return run
