"""An nvprof-style launch profiler for the execution pipeline.

``nvprof``'s job in the paper's era was exactly what the reproduction
needs of itself: per-launch attribution — which kernel, what geometry,
how long each stage took, how many transactions each array cost, and
*which resource bound the launch*.  A :class:`LaunchProfiler` hooks
the staged pipeline (``LaunchPlan.build`` → executor → collector →
timing model) and captures one :class:`LaunchRecord` per launch:

* identity: kernel name, grid/block geometry, chosen executor backend;
* block accounting: executed / traced / memo-hit / plain dispositions;
* the launch's ``executor.<name>`` span, whose wall time (and that of
  its ``collector.finalize`` child) the record's stage times read;
* the launch's own scaled trace, which holds every counter (warp
  instructions, flops, per-array transactions, bank-conflict cycles,
  cache hits);
* the launch's timing estimate, which names the binding bottleneck
  (the paper's Table 3 verdict, per launch).

Usage::

    from repro.obs import LaunchProfiler

    with LaunchProfiler() as prof:
        app.run(workload)
    print(prof.report())             # nvprof-like table
    prof.records[0].to_dict()        # structured record
    prof.tracer.write_chrome_trace("trace.json")

Entering the profiler installs a fresh *enabled* span tracer as the
ambient one, so the pipeline's spans and their decisions (executor
choice, trace replay, compile fallback) land in one tree for the
duration.  That tree is the pipeline's only clock: a record's
``stage_seconds`` and ``wall_seconds`` are views over its launch's
span.  Every record is estimated by the timing model.  With no
profiler active the instrumentation points reduce to one tracer check
— launches pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..arch.device import DeviceSpec
from ..sim.timing import KernelTimeEstimate
from ..trace.trace import KernelTrace
from .spans import Span, SpanTracer, set_tracer

__all__ = ["LaunchProfiler", "LaunchRecord", "active_profiler"]

#: the trace's nvprof-style load/store split, as a record prints it
_IO_COUNTERS = tuple(f"{op}_{part}" for op in ("gld", "gst")
                     for part in ("accesses", "transactions", "bus_bytes",
                                  "useful_bytes"))

#: every cached path's hit and miss counters, L1/L2 included
_CACHE_COUNTERS = tuple(f"{space}_{event}"
                        for space in ("const", "tex", "l1", "l2")
                        for event in ("hits", "misses"))


def _dim_str(dim) -> str:
    """Compact ``Dim3`` rendering: (32, 32, 1) -> "32x32"."""
    parts = [dim.x, dim.y, dim.z]
    while len(parts) > 1 and parts[-1] == 1:
        parts.pop()
    return "x".join(str(p) for p in parts)


@dataclass
class LaunchRecord:
    """Everything the profiler knows about one kernel launch.

    A view: it names the launch and its block accounting, and holds the
    launch's own scaled :class:`~repro.trace.trace.KernelTrace`, its
    :class:`~repro.sim.timing.KernelTimeEstimate` and its
    ``executor.<name>`` :class:`~repro.obs.spans.Span`.  Every counter
    is read from the trace, every model number from the estimate and
    every wall time from the span.
    """

    kernel: str
    grid: str
    block: str
    executor: str
    blocks_total: int
    blocks_executed: int
    blocks_traced: int
    #: device profile the launch ran on
    spec: DeviceSpec
    #: the launch's trace, scaled to the full grid
    trace: KernelTrace
    #: the timing model's estimate; None when the launch traced no
    #: instruction or cannot be scheduled
    estimate: Optional[KernelTimeEstimate] = None
    #: the exception the timing model raised on an unschedulable launch
    unschedulable: str = ""
    dispositions: Dict[str, int] = field(default_factory=dict)
    #: the launch's ``executor.<name>`` span; None without a tracer
    span: Optional[Span] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result) -> "LaunchRecord":
        """Build a record from an executed
        :class:`~repro.cuda.launch.LaunchResult`."""
        rec = cls(
            kernel=result.kernel.name,
            grid=_dim_str(result.grid),
            block=_dim_str(result.block),
            executor=result.executor,
            blocks_total=result.num_blocks,
            blocks_executed=result.blocks_executed,
            blocks_traced=result.blocks_traced,
            spec=result.spec,
            trace=result.trace,
            dispositions=dict(result.block_dispositions),
            span=result.span,
        )
        if result.trace.total_warp_insts > 0:
            try:
                rec.estimate = result.estimate()
            except Exception as exc:        # unschedulable configs etc.
                rec.unschedulable = type(exc).__name__
        return rec

    @classmethod
    def from_estimate(cls, est) -> "LaunchRecord":
        """A record of a launch that never ran: a static
        :class:`~repro.analysis.estimate.PerfEstimate`'s grid-extrapolated
        census trace and timing, with the executor marked ``"census"``
        and no stage timings."""
        census = est.census
        return cls(
            kernel=est.kernel,
            grid="x".join(str(d) for d in census.grid),
            block="x".join(str(d) for d in census.block),
            executor="census",
            blocks_total=census.num_blocks,
            blocks_executed=0,
            blocks_traced=census.blocks_sampled,
            spec=est.occupancy.spec,
            trace=census.trace,
            estimate=est.time,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def memo_hits(self) -> int:
        """Traced-sample blocks satisfied from the launch trace cache."""
        return self.dispositions.get("memo", 0)

    @property
    def wall_seconds(self) -> float:
        """The launch span's wall seconds, 0.0 without a span."""
        return self.span.seconds if self.span is not None else 0.0

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Wall seconds of ``execute`` (the span less its
        ``collector.finalize`` child) and ``finalize``, read off the
        span; they sum to :attr:`wall_seconds` (zeros without a span)."""
        children = self.span.children if self.span is not None else ()
        finalize = sum((child.seconds for child in children
                        if child.name == "collector.finalize"), 0.0)
        return {"execute": self.wall_seconds - finalize,
                "finalize": finalize}

    @property
    def gflops(self) -> float:
        """Modelled GFLOPS, 0.0 without an estimate."""
        return self.estimate.gflops if self.estimate is not None else 0.0

    @property
    def bound(self) -> str:
        """The timing model's binding bottleneck."""
        if self.estimate is not None:
            return self.estimate.bound
        if self.unschedulable:
            return f"unschedulable ({self.unschedulable})"
        return "n/a"

    def cache_hit_rates(self) -> Dict[str, float]:
        """Hit fraction per cached path that actually saw traffic
        (const / tex / l1 / l2)."""
        out: Dict[str, float] = {}
        for space in ("const", "tex", "l1", "l2"):
            hits = getattr(self.trace, f"{space}_hits")
            total = hits + getattr(self.trace, f"{space}_misses")
            if total > 0:
                out[space] = hits / total
        return out

    @property
    def transactions_per_access(self) -> Dict[str, float]:
        """Transactions per coalescing-group access of each array, by
        name, rounded to 4 decimals (1.0 = coalesced)."""
        return {name: round(stats.transactions_per_access, 4)
                for name, stats in sorted(self.trace.per_array.items())}

    @property
    def overall_transactions_per_access(self) -> float:
        """Launch-wide transactions per coalescing-group access
        (1.0 = every group — a half-warp on CUDA 1.x devices, a full
        warp on cached ones — coalesced perfectly)."""
        accesses = sum(s.warp_accesses for s in self.trace.per_array.values())
        if accesses == 0:
            return 0.0
        return self.trace.global_transactions / accesses

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready structured record."""
        t, est = self.trace, self.estimate
        return {
            "kernel": self.kernel,
            "grid": self.grid,
            "block": self.block,
            "executor": self.executor,
            "device": self.spec.name,
            "blocks": {
                "total": self.blocks_total,
                "executed": self.blocks_executed,
                "traced": self.blocks_traced,
                "memo_hits": self.memo_hits,
                "dispositions": dict(self.dispositions),
            },
            "stage_seconds": self.stage_seconds,
            "wall_seconds": self.wall_seconds,
            "counters": {
                "warp_insts": t.total_warp_insts,
                "flops": t.flops,
                "global_transactions": t.global_transactions,
                "global_warp_accesses": sum(
                    s.warp_accesses for s in t.per_array.values()),
                "global_bus_bytes": t.global_bus_bytes,
                "shared_insts": t.shared_memory_warp_insts,
                "bank_conflict_cycles": t.shared_conflict_cycles,
                "syncs": t.syncs,
                "branch_warps": t.branch_warps,
                "divergent_branch_warps": t.divergent_branch_warps,
                "divergence_serialized_warp_insts": (
                    t.divergence_serialized_warp_insts),
                "divergent_branch_fraction": round(
                    t.divergent_branch_fraction, 6),
                "divergence_serialized_fraction": round(
                    t.divergence_serialized_fraction, 6),
                **{name: getattr(t, name) for name in _IO_COUNTERS},
                **{name: getattr(t, name) for name in _CACHE_COUNTERS},
            },
            "transactions_per_access": self.transactions_per_access,
            "model": {
                "seconds": est.seconds if est is not None else 0.0,
                "gflops": round(self.gflops, 3),
                "bound": self.bound,
                "bottleneck_seconds":
                    est.components() if est is not None else {},
                "bottleneck_cycles":
                    est.cycles_components() if est is not None else {},
            },
            "occupancy": ({str(k): v for k, v
                           in est.occupancy.describe().items()}
                          if est is not None else {}),
        }

    def digest(self) -> str:
        """The one-line nvprof-style summary."""
        hits = self.cache_hit_rates()
        caches = "".join(f"  {space}_hit={rate:.0%}"
                         for space, rate in hits.items())
        div = ""
        if self.trace.divergent_branch_warps > 0:
            div = (f"  div_branch={self.trace.divergent_branch_fraction:.0%}"
                   f"  div_serial="
                   f"{self.trace.divergence_serialized_fraction:.0%}")
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
    """Context manager capturing a :class:`LaunchRecord` per launch,
    under its own enabled span :attr:`tracer`."""

    def __init__(self) -> None:
        self.tracer = SpanTracer(enabled=True)
        self.records: List[LaunchRecord] = []

    def __enter__(self) -> "LaunchProfiler":
        self._prev_tracer = set_tracer(self.tracer)
        _PROFILERS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _PROFILERS.remove(self)
        set_tracer(self._prev_tracer)

    # ------------------------------------------------------------------
    # Pipeline hook (called by Executor.execute)
    # ------------------------------------------------------------------
    def on_launch(self, result) -> LaunchRecord:
        record = LaunchRecord.from_result(result)
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
            points = [point_from_record(r) for r in self.records]
            out += "\n\n" + format_roofline(
                roofline_report(points, self.records[0].spec))
        return out
