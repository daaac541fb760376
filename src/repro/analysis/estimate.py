"""Closed-form static performance estimates (Section 4 bounds).

The paper's optimization workflow is analytical: before running
anything, Ryoo et al. bound a kernel three ways and compare —

* **compute bound** — FP-useful issue-slot fraction times the active
  device's SP multiply-add peak (plus parallel-SFU credit up to the
  co-issue peak): on the paper's G80, ``1/8`` of peak for naive
  matmul and ``16/59`` of peak after tiling + unrolling;
* **bandwidth bound** — the off-chip traffic the kernel needs per
  flop against the device's DRAM peak: naive matmul demands roughly
  double the G80's pin bandwidth at full rate, so bandwidth halves
  its potential;
* **occupancy-capped issue bound** — issue slots on the critical SM,
  degraded by memory latency the resident warps cannot cover: the
  term that punishes a 4x4 tile (2 warps/block) or a register-pressure
  occupancy cliff.

All three derive from the static :class:`~repro.analysis.census.KernelCensus`
(no execution), registers come from the
:mod:`~repro.analysis.liveness` analysis over the kernel IR, and the
predicted time reuses :func:`repro.sim.timing.estimate_time`
unchanged — so a static
estimate and a simulated launch disagree only where the census
approximates (data-dependent indices, cache residency), which
:mod:`repro.analysis.validate` checks.

The census is the one the lint pass
(:func:`repro.analysis.rules.analyze_target`) left on the target, so
an estimate after a lint pass interprets nothing; only a target no
lint pass has seen on the device is interpreted here, by
:func:`~repro.analysis.census.census_target`.  The estimate reads the
census and never changes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..sim.bounds import BoundAnalysis, analyze_bounds
from ..sim.occupancy import Occupancy, compute_occupancy
from ..sim.timing import KernelTimeEstimate, LaunchConfigError, estimate_time
from .census import KernelCensus, census_target
from .liveness import RegisterEstimate, estimate_registers
from .targets import LintTarget


@dataclass(frozen=True)
class PerfEstimate:
    """Static performance estimate for one lint target.

    ``predicted_gflops``/``bound`` come from running the timing model
    on the static census; the three closed-form bounds are the paper's
    back-of-envelope numbers and always bracket the prediction from
    above.
    """

    kernel: str
    note: str
    census: KernelCensus
    bounds: BoundAnalysis
    registers: RegisterEstimate
    occupancy: Occupancy
    time: Optional[KernelTimeEstimate]      # None when unschedulable
    config_error: Optional[str] = None

    # -- the three Section-4 bounds ------------------------------------
    @property
    def compute_bound_gflops(self) -> float:
        """FP-useful fraction x the device's peak issue rate (SP peak,
        with SFU co-issue credit up to the combined peak)."""
        return self.bounds.potential_gflops

    @property
    def bandwidth_bound_gflops(self) -> float:
        """Compute bound degraded by off-chip bandwidth demand."""
        return self.bounds.bandwidth_limited_gflops

    @property
    def issue_bound_gflops(self) -> float:
        """Occupancy-capped issue bound: flops over critical-SM issue
        time including latency the resident warps leave exposed."""
        if self.time is None:
            return 0.0
        limit = max(self.time.issue_seconds, self.time.latency_seconds)
        if limit <= 0:
            return self.compute_bound_gflops
        return self.time.flops / limit / 1e9

    @property
    def static_bound_gflops(self) -> float:
        """The tightest of the closed-form ceilings: compute,
        bandwidth and, with a timing, issue."""
        gflops = min(self.compute_bound_gflops, self.bandwidth_bound_gflops)
        if self.time is not None:
            gflops = min(gflops, self.issue_bound_gflops)
        return gflops

    # -- divergence derate (R8) ----------------------------------------
    @property
    def divergent_branch_fraction(self) -> float:
        """Static share of branch executions whose warp lanes disagree
        (sample-block census counters, R8's quantitative side)."""
        return self.census.trace.divergent_branch_fraction

    @property
    def divergence_serialized_fraction(self) -> float:
        """Static share of warp issue slots spent on partial-mask
        warps — lanes idle under divergence but the slot is consumed."""
        return self.census.trace.divergence_serialized_fraction

    @property
    def divergence_derated_issue_gflops(self) -> float:
        """Issue bound with the divergence-serialized issue share
        removed: partial-mask warp instructions occupy issue slots
        whose idle lanes do no useful FP work, so a divergent kernel
        cannot reach the plain issue bound (advisory — the reported
        ``static_bound_gflops`` is unchanged)."""
        return self.issue_bound_gflops * (
            1.0 - self.divergence_serialized_fraction)

    # -- prediction ----------------------------------------------------
    @property
    def predicted_gflops(self) -> float:
        return self.time.gflops if self.time is not None else 0.0

    @property
    def predicted_seconds(self) -> float:
        return self.time.seconds if self.time is not None else float("inf")

    @property
    def bound(self) -> str:
        """Binding bottleneck, in the timing model's vocabulary."""
        if self.time is None:
            return "launch config"
        return self.time.bound

    @property
    def label(self) -> str:
        return self.census.label

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kernel": self.kernel,
            "note": self.note,
            "fp_useful_fraction": round(self.bounds.fma_fraction, 4),
            "compute_bound_gflops": round(self.compute_bound_gflops, 2),
            "bandwidth_demand_gbs": round(
                self.bounds.bandwidth_demand_gbs, 2),
            "bandwidth_bound_gflops": round(
                self.bandwidth_bound_gflops, 2),
            "issue_bound_gflops": round(self.issue_bound_gflops, 2),
            "divergent_branch_fraction": round(
                self.divergent_branch_fraction, 4),
            "divergence_serialized_fraction": round(
                self.divergence_serialized_fraction, 4),
            "divergence_derated_issue_gflops": round(
                self.divergence_derated_issue_gflops, 2),
            "static_bound_gflops": round(self.static_bound_gflops, 2),
            "memory_bound": self.bounds.memory_bound,
            "predicted_gflops": round(self.predicted_gflops, 2),
            "predicted_seconds": self.predicted_seconds,
            "bound": self.bound,
            "regs_static": self.registers.regs,
            "blocks_per_sm": self.occupancy.blocks_per_sm,
            "occupancy": round(self.occupancy.occupancy, 4),
            "occupancy_limited_by": self.occupancy.limiter,
        }
        if self.registers.fallback:
            out["regs_fallback"] = True
        if self.config_error:
            out["config_error"] = self.config_error
        if self.census.limits:
            out["limits"] = list(self.census.limits)
        return out


def estimate_census(census: KernelCensus,
                    registers: RegisterEstimate,
                    spec: DeviceSpec = DEFAULT_DEVICE,
                    regs_per_thread: Optional[int] = None) -> PerfEstimate:
    """Assemble a :class:`PerfEstimate` from an existing census.

    ``regs_per_thread`` overrides the liveness estimate for the
    occupancy calculation (used when cross-validating against launches
    that honour the kernel's declared register count).
    """
    bounds = analyze_bounds(census.trace, spec)
    regs = regs_per_thread if regs_per_thread is not None else registers.regs
    occ = compute_occupancy(census.threads_per_block, regs,
                            census.smem_bytes, spec)
    time: Optional[KernelTimeEstimate] = None
    config_error: Optional[str] = None
    try:
        time = estimate_time(
            census.trace, census.num_blocks, census.threads_per_block,
            regs, census.smem_bytes, spec, occupancy=occ)
    except LaunchConfigError as exc:
        config_error = str(exc)
    return PerfEstimate(
        kernel=census.kernel, note=census.note, census=census,
        bounds=bounds, registers=registers, occupancy=occ,
        time=time, config_error=config_error)


def estimate_target(target: LintTarget,
                    spec: DeviceSpec = DEFAULT_DEVICE,
                    use_declared_regs: bool = False) -> PerfEstimate:
    """Static performance estimate of one lint target: census the
    kernel (the lint pass's census when one ran on ``spec``), estimate
    registers by liveness, bound and time it."""
    census = census_target(target, spec)
    registers = estimate_registers(target.kernel)
    regs = int(target.kernel.regs_per_thread) if use_declared_regs else None
    return estimate_census(census, registers, spec, regs_per_thread=regs)


def estimate_app(app, spec: DeviceSpec = DEFAULT_DEVICE,
                 use_declared_regs: bool = False) -> List[PerfEstimate]:
    """Estimates for every lint target of an application (accepts an
    Application instance or a registry name)."""
    if isinstance(app, str):
        from ..apps.registry import get_app
        app = get_app(app)
    return [estimate_target(t, spec, use_declared_regs=use_declared_regs)
            for t in app.lint_targets()]


def format_estimate(est: PerfEstimate) -> str:
    """One-paragraph human-readable rendering (lint --estimate)."""
    lines = [f"{est.label}: predicted {est.predicted_gflops:.2f} GFLOPS "
             f"({est.bound})"]
    lines.append(
        f"  compute bound {est.compute_bound_gflops:.2f} GFLOPS "
        f"(FP-useful {est.bounds.fma_fraction:.3f}), "
        f"bandwidth bound {est.bandwidth_bound_gflops:.2f} GFLOPS "
        f"(demand {est.bounds.bandwidth_demand_gbs:.1f} GB/s), "
        f"issue bound {est.issue_bound_gflops:.2f} GFLOPS")
    if est.divergence_serialized_fraction > 0:
        lines.append(
            f"  divergence: {est.divergent_branch_fraction:.1%} of "
            f"branches divergent, {est.divergence_serialized_fraction:.1%}"
            f" of issue slots partial-mask -> derated issue bound "
            f"{est.divergence_derated_issue_gflops:.2f} GFLOPS")
    regs = est.registers
    occ = est.occupancy
    fallback = " (declared)" if regs.fallback else ""
    lines.append(
        f"  {regs.regs} regs/thread{fallback} -> {occ.blocks_per_sm} "
        f"blocks/SM, occupancy {occ.occupancy:.2f} "
        f"(limited by {occ.limiter})")
    if est.config_error:
        lines.append(f"  UNSCHEDULABLE: {est.config_error}")
    for limit in est.census.limits:
        lines.append(f"  note: {limit}")
    return "\n".join(lines)


EstimateLike = Union[PerfEstimate, KernelCensus]
