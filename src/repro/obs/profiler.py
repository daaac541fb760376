"""An nvprof-style launch profiler for the execution pipeline.

``nvprof``'s job in the paper's era was exactly what the reproduction
needs of itself: per-launch attribution — which kernel, what geometry,
how long each stage took, how many transactions each array cost, and
*which resource bound the launch*.  A :class:`LaunchProfiler` hooks
the staged pipeline (``LaunchPlan.build`` → executor → collector →
timing model) and captures one :class:`LaunchRecord` per launch:

* identity: kernel name, grid/block geometry, chosen executor backend;
* block accounting: executed / traced / memo-hit / plain dispositions;
* per-stage wall time (plan / execute / collect / finalize);
* trace-derived counters: warp instructions, flops, per-array
  transactions-per-access, bank-conflict cycles, cache hits;
* the timing model's per-bottleneck estimates with the binding
  bottleneck named (the paper's Table 3 verdict, per launch).

Usage::

    from repro.obs import LaunchProfiler

    with LaunchProfiler() as prof:
        app.run(workload)
    print(prof.report())             # nvprof-like table
    prof.records[0].to_dict()        # structured record
    prof.tracer.write_chrome_trace("trace.json")

Entering the profiler installs an *enabled* metrics registry and span
tracer as the ambient ones, so pipeline counters (cache hits, executor
block counts, bottleneck tallies) flow in for the duration.  With no
profiler active the instrumentation points reduce to an attribute
check — launches pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .registry import MetricsRegistry, set_registry
from .spans import SpanTracer, set_tracer

__all__ = ["LaunchProfiler", "LaunchRecord", "active_profiler"]

#: pipeline stages a launch record times, in order
STAGES = ("plan", "execute", "collect", "finalize")


def _dim_str(dim) -> str:
    """Compact ``Dim3`` rendering: (32, 32, 1) -> "32x32"."""
    parts = [dim.x, dim.y, dim.z]
    while len(parts) > 1 and parts[-1] == 1:
        parts.pop()
    return "x".join(str(p) for p in parts)


def _trace_fields(trace) -> Dict[str, object]:
    """A record's trace-derived counters, the same for an executed
    launch and a static census."""
    from ..trace.instr import InstrClass
    return dict(
        warp_insts=trace.total_warp_insts,
        flops=trace.flops,
        global_transactions=trace.global_transactions,
        global_warp_accesses=sum(s.warp_accesses
                                 for s in trace.per_array.values()),
        global_bus_bytes=trace.global_bus_bytes,
        transactions_per_access={
            name: round(stats.transactions_per_access, 4)
            for name, stats in sorted(trace.per_array.items())},
        # nvprof-style load/store traffic split
        io={"gld_accesses": trace.gld_accesses,
            "gld_transactions": trace.gld_transactions,
            "gld_bus_bytes": trace.gld_bus_bytes,
            "gld_useful_bytes": trace.gld_useful_bytes,
            "gst_accesses": trace.gst_accesses,
            "gst_transactions": trace.gst_transactions,
            "gst_bus_bytes": trace.gst_bus_bytes,
            "gst_useful_bytes": trace.gst_useful_bytes},
        shared_insts=float(trace.warp_insts[InstrClass.LD_SHARED]
                           + trace.warp_insts[InstrClass.ST_SHARED]),
        bank_conflict_cycles=trace.shared_conflict_cycles,
        # every cached path's hit/miss counters, L1/L2 included
        cache={"const_hits": trace.const_hits,
               "const_misses": trace.const_misses,
               "tex_hits": trace.tex_hits,
               "tex_misses": trace.tex_misses,
               "l1_hits": trace.l1_hits,
               "l1_misses": trace.l1_misses,
               "l2_hits": trace.l2_hits,
               "l2_misses": trace.l2_misses},
        syncs=trace.syncs,
        branch_warps=trace.branch_warps,
        divergent_branch_warps=trace.divergent_branch_warps,
        divergence_serialized_warp_insts=(
            trace.divergence_serialized_warp_insts),
    )


def _hit_rate(hits: float, misses: float) -> Optional[float]:
    """Hit fraction, or None when the path saw no accesses."""
    total = hits + misses
    return hits / total if total > 0 else None


@dataclass
class LaunchRecord:
    """Everything the profiler knows about one kernel launch."""

    kernel: str
    grid: str
    block: str
    executor: str
    blocks_total: int
    blocks_executed: int
    blocks_traced: int
    memo_hits: int
    #: device profile the launch ran on (``DeviceSpec.name``)
    device: str = ""
    dispositions: Dict[str, int] = field(default_factory=dict)
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    # trace-derived counters (scaled to the full grid)
    warp_insts: float = 0.0
    flops: float = 0.0
    global_transactions: float = 0.0
    global_warp_accesses: float = 0.0
    global_bus_bytes: float = 0.0
    transactions_per_access: Dict[str, float] = field(default_factory=dict)
    #: nvprof-style load/store split (gld_/gst_ accesses, transactions,
    #: request-level bus bytes, useful bytes)
    io: Dict[str, float] = field(default_factory=dict)
    shared_insts: float = 0.0
    bank_conflict_cycles: float = 0.0
    cache: Dict[str, float] = field(default_factory=dict)
    syncs: float = 0.0
    #: branch / divergence counters (R8's dynamic side)
    branch_warps: float = 0.0
    divergent_branch_warps: float = 0.0
    divergence_serialized_warp_insts: float = 0.0

    # timing-model attribution
    model_seconds: float = 0.0
    gflops: float = 0.0
    bound: str = "n/a"
    bottleneck_seconds: Dict[str, float] = field(default_factory=dict)
    bottleneck_cycles: Dict[str, float] = field(default_factory=dict)
    occupancy: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result, estimate: bool = True) -> "LaunchRecord":
        """Build a record from an executed
        :class:`~repro.cuda.launch.LaunchResult`."""
        trace = result.trace
        rec = cls(
            kernel=result.kernel.name,
            grid=_dim_str(result.grid),
            block=_dim_str(result.block),
            executor=result.executor,
            blocks_total=result.num_blocks,
            blocks_executed=result.blocks_executed,
            blocks_traced=result.blocks_traced,
            memo_hits=result.memo_hits,
            device=result.spec.name,
            dispositions=dict(result.block_dispositions),
            stage_seconds=dict(result.stage_seconds),
            **_trace_fields(trace),
        )
        rec.spec = result.spec
        if estimate and trace.total_warp_insts > 0:
            try:
                est = result.estimate()
            except Exception as exc:        # unschedulable configs etc.
                rec.bound = f"unschedulable ({type(exc).__name__})"
            else:
                rec.model_seconds = est.seconds
                rec.gflops = est.gflops
                rec.bound = est.bound
                rec.bottleneck_seconds = est.components()
                rec.bottleneck_cycles = est.cycles_components()
                rec.occupancy = est.occupancy.describe()
        return rec

    @classmethod
    def from_census(cls, census) -> "LaunchRecord":
        """Synthesize a record from a static
        :class:`~repro.analysis.census.KernelCensus` — no execution.

        This is how launches that never ran still surface nvprof-style
        counters:
        the census's grid-extrapolated trace fills the same fields a
        dynamic trace would, with the executor marked ``"census"`` and
        all stage timings zero.
        """
        return cls(
            kernel=census.label,
            grid="x".join(str(d) for d in census.grid),
            block="x".join(str(d) for d in census.block),
            executor="census",
            blocks_total=census.num_blocks,
            blocks_executed=0,
            blocks_traced=census.blocks_sampled,
            memo_hits=0,
            **_trace_fields(census.trace),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def cache_hit_rates(self) -> Dict[str, float]:
        """Hit fraction per cached path that actually saw traffic
        (const / tex / l1 / l2) — the PR-6 hierarchy counters, surfaced
        per launch."""
        out: Dict[str, float] = {}
        for space in ("const", "tex", "l1", "l2"):
            rate = _hit_rate(self.cache.get(f"{space}_hits", 0.0),
                             self.cache.get(f"{space}_misses", 0.0))
            if rate is not None:
                out[space] = rate
        return out

    @property
    def divergent_branch_fraction(self) -> float:
        """Fraction of branch executions whose warp lanes disagreed."""
        if self.branch_warps == 0:
            return 0.0
        return self.divergent_branch_warps / self.branch_warps

    @property
    def divergence_serialized_fraction(self) -> float:
        """Fraction of issued warp instructions executed under a
        partial mask — issue slots consumed while lanes idle."""
        if self.warp_insts == 0:
            return 0.0
        return self.divergence_serialized_warp_insts / self.warp_insts

    @property
    def overall_transactions_per_access(self) -> float:
        """Launch-wide transactions per coalescing-group access
        (1.0 = every group — a half-warp on CUDA 1.x devices, a full
        warp on cached ones — coalesced perfectly)."""
        if self.global_warp_accesses == 0:
            return 0.0
        return self.global_transactions / self.global_warp_accesses

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready structured record."""
        return {
            "kernel": self.kernel,
            "grid": self.grid,
            "block": self.block,
            "executor": self.executor,
            "device": self.device,
            "blocks": {
                "total": self.blocks_total,
                "executed": self.blocks_executed,
                "traced": self.blocks_traced,
                "memo_hits": self.memo_hits,
                "dispositions": dict(self.dispositions),
            },
            "stage_seconds": {s: self.stage_seconds.get(s, 0.0)
                              for s in STAGES},
            "wall_seconds": self.wall_seconds,
            "counters": {
                "warp_insts": self.warp_insts,
                "flops": self.flops,
                "global_transactions": self.global_transactions,
                "global_warp_accesses": self.global_warp_accesses,
                "global_bus_bytes": self.global_bus_bytes,
                "shared_insts": self.shared_insts,
                "bank_conflict_cycles": self.bank_conflict_cycles,
                "syncs": self.syncs,
                "branch_warps": self.branch_warps,
                "divergent_branch_warps": self.divergent_branch_warps,
                "divergence_serialized_warp_insts": (
                    self.divergence_serialized_warp_insts),
                "divergent_branch_fraction": round(
                    self.divergent_branch_fraction, 6),
                "divergence_serialized_fraction": round(
                    self.divergence_serialized_fraction, 6),
                **self.io,
                **self.cache,
            },
            "transactions_per_access": dict(self.transactions_per_access),
            "model": {
                "seconds": self.model_seconds,
                "gflops": round(self.gflops, 3),
                "bound": self.bound,
                "bottleneck_seconds": dict(self.bottleneck_seconds),
                "bottleneck_cycles": dict(self.bottleneck_cycles),
            },
            "occupancy": {str(k): v for k, v in self.occupancy.items()},
        }

    def digest(self) -> str:
        """The one-line nvprof-style summary."""
        hits = self.cache_hit_rates()
        caches = "".join(f"  {space}_hit={rate:.0%}"
                         for space, rate in hits.items())
        div = ""
        if self.divergent_branch_warps > 0:
            div = (f"  div_branch={self.divergent_branch_fraction:.0%}"
                   f"  div_serial={self.divergence_serialized_fraction:.0%}")
        return (f"{self.kernel}  grid {self.grid}  block {self.block}  "
                f"exec={self.executor}  blocks {self.blocks_executed}"
                f"/{self.blocks_total} (traced {self.blocks_traced}, "
                f"memo {self.memo_hits})  {self.gflops:.2f} GFLOPS  "
                f"bound={self.bound}{caches}{div}")


#: stack of entered profilers; the innermost one receives records
_PROFILERS: List["LaunchProfiler"] = []


def active_profiler() -> Optional["LaunchProfiler"]:
    """The innermost entered :class:`LaunchProfiler`, if any."""
    return _PROFILERS[-1] if _PROFILERS else None


class LaunchProfiler:
    """Context manager capturing a :class:`LaunchRecord` per launch.

    Parameters
    ----------
    registry, tracer:
        Pre-built sinks to install while active; fresh enabled ones are
        created by default.
    estimate:
        Run the analytical timing model on each launch to attribute its
        bottleneck (disable for functional-only workloads).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanTracer] = None,
                 estimate: bool = True) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry(enabled=True)
        self.tracer = tracer if tracer is not None \
            else SpanTracer(enabled=True)
        self.estimate = estimate
        self.records: List[LaunchRecord] = []

    def __enter__(self) -> "LaunchProfiler":
        self._prev_registry = set_registry(self.registry)
        self._prev_tracer = set_tracer(self.tracer)
        _PROFILERS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _PROFILERS.remove(self)
        set_registry(self._prev_registry)
        set_tracer(self._prev_tracer)

    # ------------------------------------------------------------------
    # Pipeline hook (called by Executor.execute)
    # ------------------------------------------------------------------
    def on_launch(self, result) -> LaunchRecord:
        record = LaunchRecord.from_result(result, estimate=self.estimate)
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, derived: bool = False, roofline: bool = False) -> str:
        """nvprof-like text table over the captured records.

        ``derived=True`` appends the named derived-metric block per
        launch (:mod:`repro.obs.derived`); ``roofline=True`` appends
        the roofline placement of every launch
        (:mod:`repro.obs.roofline`).
        """
        from ..bench.profile_report import format_records
        out = format_records(self.records)
        if derived and self.records:
            from .derived import format_derived
            out += "\n\n" + "\n\n".join(format_derived(rec)
                                        for rec in self.records)
        if roofline and self.records:
            from .roofline import (format_roofline, point_from_record,
                                   roofline_report)
            spec = getattr(self.records[0], "spec", None)
            if spec is None:
                from ..arch.device import DEFAULT_DEVICE
                spec = DEFAULT_DEVICE
            points = [point_from_record(r) for r in self.records]
            out += "\n\n" + format_roofline(roofline_report(points, spec))
        return out

    def to_dicts(self) -> List[Dict[str, object]]:
        return [r.to_dict() for r in self.records]
