"""Whole-application AOT modules.

The per-kernel pipeline (plan → executor → collector) treats every
launch as an island: each one builds a plan, traces its sample blocks
through the scalar interpreter, and materializes its trace — even when
an application launches the *same configuration* hundreds of times in
a timestep loop.  A :class:`CompiledModule` treats the application's
declared launch sequence (:class:`ModuleSchedule`) as the compilation
unit instead:

* :func:`repro.compile.fuse.fuse_schedule` partitions the sequence
  into **fused groups** using the R7 inter-launch dataflow as the
  legality oracle — ``fusable-private`` intermediates never leave the
  device between a group's launches, ``loop-carried`` arrays stay
  device-resident across its iterations, and host steps / refused
  kernels break groups (those launches transparently fall back to the
  ordinary per-launch path).

* Every launch of a fused group runs through the module's one
  :class:`~repro.cuda.executors.CompiledExecutor`, whose launch trace
  cache (:mod:`repro.trace.collector`) is keyed by
  :meth:`~repro.cuda.plan.LaunchPlan.module_key`.  The first
  occurrence of each launch configuration traces its sample blocks;
  every repeat runs the compiled program over the whole grid and
  **replays** the recorded trace, so the dominant per-launch cost (two
  scalar traced blocks with per-operation accounting) is paid once per
  configuration, not once per launch.  Replay is sound because a
  launch configuration fixes the kernel's address and control
  streams, which for the suite's kernels are data-independent.

* Compiled programs come through the artifact-cache-aware
  :func:`repro.compile.get_program`, so a warm on-disk cache
  (``REPRO_AOT_CACHE``) lets a cold process skip lowering entirely.

What fusion does **not** do: merge two launches into one grid sweep.
The paper's time-sliced applications launch one kernel per step
precisely because a step reads neighbour cells other blocks wrote in
the previous step — the launch boundary *is* the global barrier.  A
fused group preserves it by running its launches back-to-back in
order; the win is amortization, not reordering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..cuda.executors import CompiledExecutor
from ..cuda.launch import LaunchResult
from ..obs.registry import get_registry
from .fuse import FusionPlan, fuse_schedule
# re-exported: benchmarks/suite/layers.py patches the name here
from .program import get_program  # noqa: F401

__all__ = ["CompiledModule", "HostStep", "ModuleSchedule"]


@dataclass
class HostStep:
    """Host code between launches (D2D copies, constant staging...).

    An explicit fusion barrier: the module runs ``fn()`` at the step's
    position and never fuses across it.
    """

    fn: Callable[[], None]
    note: str = ""


@dataclass
class ModuleSchedule:
    """An application's declared launch sequence.

    Built by :meth:`repro.apps.base.Application.module_schedule`:
    every :class:`~repro.cuda.plan.LaunchPlan` is constructed up front
    (plan building is side-effect-free), host logic between launches
    is declared as :class:`HostStep` entries, and ``outputs()``
    downloads the results after the last step.
    """

    app: str
    device: object                     # repro.cuda.memory.Device
    steps: List[Union[object, HostStep]] = field(default_factory=list)
    #: host-side download of the final results (runs after execution)
    outputs: Optional[Callable[[], Dict[str, np.ndarray]]] = None
    #: iterative solvers: executed steps stand for this many
    time_steps_scale: float = 1.0


class CompiledModule:
    """Executable form of one :class:`ModuleSchedule` (see module
    docstring).  ``stats`` is a local :class:`collections.Counter`
    (``fuse_applied`` / ``trace_replays`` / ``fallback_launches`` /
    ``host_steps`` / ``fused_launches``); the same events feed the
    ambient metrics registry as ``module.*`` counters when enabled.
    """

    def __init__(self, schedule: ModuleSchedule) -> None:
        self.schedule = schedule
        self.fusion: FusionPlan = fuse_schedule(
            schedule, spec=schedule.device.spec)
        self.stats: Counter = Counter()
        self._executor = CompiledExecutor()
        self._executor.traces = {}
        self._fused_steps = frozenset(
            i for g in self.fusion.groups if g.fused for i in g.steps)

    # ------------------------------------------------------------------
    def execute(self) -> List[LaunchResult]:
        """Run the whole schedule; returns one result per launch."""
        registry = get_registry()
        results: List[LaunchResult] = []
        for i, step in enumerate(self.schedule.steps):
            if isinstance(step, HostStep):
                step.fn()
                self.stats["host_steps"] += 1
                continue
            if i in self._fused_steps:
                results.append(self._run_fused(step))
            else:
                results.append(self._run_fallback(step))
        self.stats["fuse_applied"] = self.fusion.fuse_applied
        if registry.enabled:
            app = self.schedule.app
            registry.counter("module.fuse_applied", app=app).inc(
                self.fusion.fuse_applied)
            for key in ("trace_replays", "fallback_launches",
                        "fused_launches", "host_steps"):
                if self.stats[key]:
                    registry.counter(f"module.{key}", app=app).inc(
                        self.stats[key])
        return results

    # ------------------------------------------------------------------
    def _run_fallback(self, plan) -> LaunchResult:
        """Per-launch path for steps outside fused groups."""
        self.stats["fallback_launches"] += 1
        return plan.execute("auto")

    def _run_fused(self, plan) -> LaunchResult:
        """A fused-group launch: traced on its configuration's first
        occurrence, replayed from the executor's trace cache after."""
        result = self._executor.execute(plan)
        if result.memo_hits:
            self.stats["trace_replays"] += 1
        else:
            self.stats["fused_launches"] += 1
        return result
