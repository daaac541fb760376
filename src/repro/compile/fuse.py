"""Launch-sequence fusion planning — the legality pass of the AOT
module layer.

Given a :class:`~repro.compile.module.ModuleSchedule` (the launch
plans an application declares up front, interleaved with explicit
host steps), this pass decides which contiguous runs of launches may
execute as one *fused group* of the compiled module, and what each
group's intermediate arrays are allowed to do:

* The **R7 inter-launch dataflow** rule
  (:func:`repro.analysis.rules.analyze_launch_sequence`) is the
  legality oracle.  Its per-array verdicts drive the group metadata:
  an array that is ``fusable-private`` inside a group (one producing
  launch, consumed only by later launches of the same group, dead
  after it) never needs to reach the host between the group's
  launches; a ``loop-carried`` array must stay device-resident across
  the group's iterations with its carried dependence preserved —
  which back-to-back in-order execution of the group does by
  construction.

* A group is *broken* by anything whose effects the compiled program
  cannot see: an explicit :class:`~repro.compile.module.HostStep`
  (host code between launches is an opaque barrier), a kernel the
  grid compiler refuses (``compile_status``), a non-functional or
  stream-recording launch.

* Inter-launch **global synchronization is preserved**: the paper's
  time-sliced apps (LBM, FDTD) split work into one launch per step
  precisely because a step reads neighbour cells written by other
  blocks of the previous step.  Fusion therefore never merges two
  launches into one grid sweep; a fused group executes its launches
  back-to-back *inside the module* — intermediates stay
  device-resident, per-launch plan/trace overhead is paid once per
  distinct configuration — with the full-grid materialization between
  steps intact.

Groups that fail the checks fall back to per-launch execution; the
refusal reason is recorded on the group for observability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .program import compile_status, plan_context

__all__ = ["FusedGroup", "FusionPlan", "fuse_schedule"]

#: minimum run of compilable launches worth fusing into a group (a
#: "fused group" of one launch is just a launch)
MIN_FUSE_STEPS = 2


@dataclass(frozen=True)
class FusedGroup:
    """One maximal run of schedule steps with a single verdict."""

    #: indices into ``schedule.steps`` (launch steps only)
    steps: Tuple[int, ...]
    #: True when the group executes inside the compiled module
    fused: bool
    #: why fusion was refused (empty for fused groups)
    reason: str = ""
    #: arrays classified fusable-private with all defs/uses inside
    #: this group — never materialized for the host between launches
    interior: Tuple[str, ...] = ()
    #: loop-carried arrays the group keeps device-resident across its
    #: launches (the carried dependence rides on execution order)
    carried: Tuple[str, ...] = ()

    @property
    def fused_boundaries(self) -> int:
        """Launch-to-launch boundaries this group absorbs."""
        return max(0, len(self.steps) - 1) if self.fused else 0


@dataclass
class FusionPlan:
    """The whole schedule's grouping plus the R7 evidence."""

    groups: List[FusedGroup] = field(default_factory=list)
    #: R7 verdicts over the schedule's launch sequence (launch indices
    #: therein count *launches*, not schedule steps)
    dataflow: Optional[object] = None
    #: schedule-step index -> launch-sequence index
    launch_index: Dict[int, int] = field(default_factory=dict)

    @property
    def fuse_applied(self) -> int:
        return sum(g.fused_boundaries for g in self.groups)

    def group_of(self, step_index: int) -> Optional[FusedGroup]:
        for group in self.groups:
            if step_index in group.steps:
                return group
        return None


def _refusal(plan) -> str:
    """Why one launch cannot join a fused group ('' when it can)."""
    if not plan.functional:
        return "non-functional launch (trace-only)"
    if plan.record_stream:
        return "instruction-stream recording launch"
    if not plan.kernel.batchable:
        return f"kernel {plan.kernel.name!r} is batchable=False"
    ok, reason = compile_status(plan.kernel, plan_context(plan))
    if not ok:
        return f"not grid-compilable: {reason}"
    return ""


def fuse_schedule(schedule) -> FusionPlan:
    """Plan the fused execution of one :class:`ModuleSchedule`.

    Walks the schedule in order, growing a group while launches stay
    fusable, and closing it at every host step or refused launch.
    Groups shorter than :data:`MIN_FUSE_STEPS` execute per-launch
    (nothing to amortize).  R7 runs once over the whole launch
    sequence; its classifications are then scoped to each group.
    """
    from ..analysis.rules import analyze_launch_sequence
    from .module import HostStep

    plans = []
    launch_index: Dict[int, int] = {}
    for i, step in enumerate(schedule.steps):
        if not isinstance(step, HostStep):
            launch_index[i] = len(plans)
            plans.append(step)
    dataflow = analyze_launch_sequence(plans, app=schedule.app)

    plan_out = FusionPlan(dataflow=dataflow, launch_index=launch_index)
    run: List[int] = []

    def close(boundary: str = "") -> None:
        # a boundary (host step) only *caps* the run — the launches
        # before it still fuse with each other when there are enough
        # of them to amortize anything
        nonlocal run
        if not run:
            return
        if len(run) < MIN_FUSE_STEPS:
            reason = (f"group of {len(run)} launch(es) below the "
                      f"fusion threshold ({MIN_FUSE_STEPS})")
            if boundary:
                reason = f"{boundary}; {reason}"
            plan_out.groups.append(FusedGroup(
                steps=tuple(run), fused=False, reason=reason))
        else:
            interior, carried = _scope_arrays(
                dataflow, [launch_index[i] for i in run])
            plan_out.groups.append(FusedGroup(
                steps=tuple(run), fused=True,
                interior=interior, carried=carried))
        run = []

    for i, step in enumerate(schedule.steps):
        if isinstance(step, HostStep):
            close(f"host step barrier: {step.note or 'host code'}")
            continue
        refusal = _refusal(step)
        if refusal:
            # a refused launch is its own unfused group; it also caps
            # the run before it
            close()
            plan_out.groups.append(FusedGroup(
                steps=(i,), fused=False, reason=refusal))
            continue
        run.append(i)
    close()
    return plan_out


def _scope_arrays(dataflow, launch_indices: List[int]
                  ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Restrict R7's whole-sequence verdicts to one group: an array is
    *interior* (fusable-private with every def and use inside the
    group) or *carried* (loop-carried with at least one def inside)."""
    inside = set(launch_indices)
    interior: List[str] = []
    carried: List[str] = []
    for name, df in sorted(dataflow.arrays.items()):
        touches = set(df.defs) | set(df.uses)
        if not (touches & inside):
            continue
        if df.classification == "fusable-private" and touches <= inside:
            interior.append(name)
        elif df.classification == "loop-carried" \
                and set(df.defs) & inside:
            carried.append(name)
    return tuple(interior), tuple(carried)
