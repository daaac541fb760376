"""Derived nvprof/Nsight-style metrics over launch records.

PR 2's profiler exports *raw* counters — warp instructions, bus bytes,
cache hits — but the paper's analysis vocabulary is *derived*:
achieved occupancy, loads-per-request efficiency, the fraction of peak
the kernel sustains.  This module closes that gap with a **metric
registry**: every metric has a stable name (matching the nvprof /
Nsight Compute counter it imitates), a unit, a formula docstring, and
a compute function over a :class:`~repro.obs.profiler.LaunchRecord`
plus the active :class:`~repro.arch.device.DeviceSpec` (so peaks are
device-aware — the same record evaluated against a G80 and a GTX 480
yields different efficiency percentages).

Every metric reads the record's :class:`~repro.trace.trace.KernelTrace`
(``rec.trace``) and timing estimate (``rec.estimate``).

Usage::

    from repro.obs.derived import derive_metrics, format_derived

    with LaunchProfiler() as prof:
        app.run(workload)
    values = derive_metrics(prof.records[0])
    print(format_derived(prof.records[0], values))

A metric that does not apply to a launch (L1 hit rate on a device
without a global cache hierarchy, model-based metrics when the timing
estimate was disabled) evaluates to ``None`` and renders as ``n/a``.

The same names are computable *statically*: the record
:meth:`LaunchRecord.from_estimate
<repro.obs.profiler.LaunchRecord.from_estimate>` builds over a
:class:`~repro.analysis.estimate.PerfEstimate` goes through
:func:`derive_metrics` like a measured one, which is what lets the
estimator-vs-measured deviation report (:func:`metric_deviation`)
speak one vocabulary for both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Union

from ..arch.device import DeviceSpec

__all__ = [
    "MetricDef", "METRICS", "register_metric", "metric",
    "derive_metrics", "metric_deviation",
    "format_derived", "format_deviation",
]

MetricValue = Union[float, Dict[str, float], None]


@dataclass(frozen=True)
class MetricDef:
    """One named derived metric.

    ``compute(record, spec)`` returns a float, a breakdown dict, or
    ``None`` when the metric does not apply to the launch.
    """

    name: str
    unit: str                    # "%", "ratio", "warp-inst/cycle", ...
    formula: str                 # human-readable definition
    compute: Callable[[object, DeviceSpec], MetricValue]


#: the metric registry, in presentation order
METRICS: Dict[str, MetricDef] = {}


def register_metric(m: MetricDef) -> MetricDef:
    if m.name in METRICS:
        raise ValueError(f"metric {m.name!r} already registered")
    METRICS[m.name] = m
    return m


def metric(name: str, unit: str, formula: str):
    """Decorator registering a compute function as a named metric."""
    def wrap(fn: Callable[[object, DeviceSpec], MetricValue]):
        register_metric(MetricDef(name, unit, formula, fn))
        return fn
    return wrap


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _model_seconds(rec) -> float:
    """Modeled kernel seconds, 0.0 without a timing estimate."""
    return rec.estimate.seconds if rec.estimate is not None else 0.0


def _model_cycles_per_sm(rec, spec: DeviceSpec) -> Optional[float]:
    """Modeled kernel cycles on one SM (wall time x clock)."""
    seconds = _model_seconds(rec)
    if seconds <= 0:
        return None
    return seconds * spec.sp_clock_ghz * 1e9


def _sms_used(rec, spec: DeviceSpec) -> int:
    return min(spec.num_sms, max(1, rec.blocks_total))


def _hit_rate_pct(rec, space: str) -> Optional[float]:
    hits = getattr(rec.trace, f"{space}_hits")
    misses = getattr(rec.trace, f"{space}_misses")
    total = hits + misses
    return 100.0 * hits / total if total > 0 else None


# ----------------------------------------------------------------------
# The metrics (registration order = report order)
# ----------------------------------------------------------------------

@metric("achieved_occupancy", "ratio",
        "active warps per SM / device max resident warps per SM")
def _achieved_occupancy(rec, spec: DeviceSpec) -> Optional[float]:
    if rec.estimate is None:
        return None
    return rec.estimate.occupancy.active_warps_per_sm / spec.max_warps_per_sm


@metric("ipc", "warp-inst/cycle",
        "warp instructions per SM / modeled kernel cycles "
        "(peak = 1 / issue_cycles_per_warp_inst)")
def _ipc(rec, spec: DeviceSpec) -> Optional[float]:
    cycles = _model_cycles_per_sm(rec, spec)
    warp_insts = rec.trace.total_warp_insts
    if cycles is None or warp_insts <= 0:
        return None
    return warp_insts / _sms_used(rec, spec) / cycles


def _efficiency_raw(rec, kind: str) -> Optional[float]:
    bus = getattr(rec.trace, f"{kind}_bus_bytes")
    if bus <= 0:
        return None
    return 100.0 * getattr(rec.trace, f"{kind}_useful_bytes") / bus


@metric("gld_efficiency", "%",
        "100 x requested global-load bytes / transaction-level bytes "
        "the load access pattern moves, capped at 100% "
        "(``gld_efficiency_raw`` keeps the uncapped ratio; "
        "``gld_broadcast`` flags the >100% duplicate-word case)")
def _gld_efficiency(rec, spec: DeviceSpec) -> Optional[float]:
    raw = _efficiency_raw(rec, "gld")
    return None if raw is None else min(100.0, raw)


@metric("gld_efficiency_raw", "%",
        "uncapped 100 x requested / bus bytes for global loads: exceeds "
        "100% when threads re-request the same words (requested bytes "
        "count per thread, duplicate segments dedupe on the bus)")
def _gld_efficiency_raw(rec, spec: DeviceSpec) -> Optional[float]:
    return _efficiency_raw(rec, "gld")


@metric("gld_broadcast", "flag",
        "1.0 when the raw load ratio exceeds 100% — multiple threads "
        "requested the same words (broadcast/overlapping access), so "
        "the capped ``gld_efficiency`` hides duplicate requests")
def _gld_broadcast(rec, spec: DeviceSpec) -> Optional[float]:
    raw = _efficiency_raw(rec, "gld")
    return None if raw is None else float(raw > 100.0)


@metric("gst_efficiency", "%",
        "100 x requested global-store bytes / transaction-level bytes "
        "the store access pattern moves, capped at 100% "
        "(``gst_efficiency_raw`` keeps the uncapped ratio)")
def _gst_efficiency(rec, spec: DeviceSpec) -> Optional[float]:
    raw = _efficiency_raw(rec, "gst")
    return None if raw is None else min(100.0, raw)


@metric("gst_efficiency_raw", "%",
        "uncapped 100 x requested / bus bytes for global stores")
def _gst_efficiency_raw(rec, spec: DeviceSpec) -> Optional[float]:
    return _efficiency_raw(rec, "gst")


@metric("gld_transactions_per_request", "ratio",
        "global-load transactions / coalescing-group load requests "
        "(1.0 = perfectly coalesced word accesses)")
def _gld_tpr(rec, spec: DeviceSpec) -> Optional[float]:
    req = rec.trace.gld_accesses
    if req <= 0:
        return None
    return rec.trace.gld_transactions / req


@metric("gst_transactions_per_request", "ratio",
        "global-store transactions / coalescing-group store requests")
def _gst_tpr(rec, spec: DeviceSpec) -> Optional[float]:
    req = rec.trace.gst_accesses
    if req <= 0:
        return None
    return rec.trace.gst_transactions / req


@metric("shared_bank_conflict_rate", "cycles/access",
        "extra serialization cycles / shared-memory warp instructions "
        "(0 = conflict-free)")
def _shared_conflict_rate(rec, spec: DeviceSpec) -> Optional[float]:
    shared_insts = rec.trace.shared_memory_warp_insts
    if shared_insts <= 0:
        return None
    return rec.trace.shared_conflict_cycles / shared_insts


@metric("l1_hit_rate", "%", "100 x L1 hits / L1 accesses "
        "(devices with a cached global path)")
def _l1_hit_rate(rec, spec: DeviceSpec) -> Optional[float]:
    return _hit_rate_pct(rec, "l1")


@metric("l2_hit_rate", "%", "100 x L2 hits / L2 accesses")
def _l2_hit_rate(rec, spec: DeviceSpec) -> Optional[float]:
    return _hit_rate_pct(rec, "l2")


@metric("const_hit_rate", "%", "100 x constant-cache hits / accesses")
def _const_hit_rate(rec, spec: DeviceSpec) -> Optional[float]:
    return _hit_rate_pct(rec, "const")


@metric("tex_hit_rate", "%", "100 x texture-cache hits / accesses")
def _tex_hit_rate(rec, spec: DeviceSpec) -> Optional[float]:
    return _hit_rate_pct(rec, "tex")


@metric("dram_throughput_pct", "%",
        "100 x (DRAM bus bytes / modeled seconds) / pin bandwidth")
def _dram_throughput(rec, spec: DeviceSpec) -> Optional[float]:
    seconds = _model_seconds(rec)
    if seconds <= 0:
        return None
    achieved = rec.trace.global_bus_bytes / seconds
    return 100.0 * achieved / (spec.dram_bandwidth_gbs * 1e9)


@metric("flop_sp_efficiency", "%",
        "100 x achieved GFLOPS / device peak multiply-add GFLOPS")
def _flop_sp_efficiency(rec, spec: DeviceSpec) -> Optional[float]:
    if _model_seconds(rec) <= 0:
        return None
    return 100.0 * rec.gflops / spec.peak_mad_gflops


@metric("warp_issue_stall_breakdown", "fraction",
        "per-bottleneck share of the timing model's cycle estimates "
        "(instruction issue / SFU / bandwidth / latency), normalized")
def _stall_breakdown(rec, spec: DeviceSpec) -> Optional[Dict[str, float]]:
    if rec.estimate is None:
        return None
    cycles = rec.estimate.cycles_components()
    total = sum(cycles.values())
    if total <= 0:
        return None
    return {name: c / total for name, c in cycles.items()}


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------

def derive_metrics(record, spec: Optional[DeviceSpec] = None,
                   names: Optional[Sequence[str]] = None,
                   ) -> Dict[str, MetricValue]:
    """Evaluate registered metrics for one launch record.

    ``spec`` defaults to the device the record was captured on.
    ``names`` restricts the evaluation; unknown names raise
    ``KeyError``.
    """
    spec = spec if spec is not None else record.spec
    selected = (METRICS.values() if names is None
                else [METRICS[n] for n in names])
    return {m.name: m.compute(record, spec) for m in selected}


def metric_deviation(measured: Dict[str, MetricValue],
                     static: Dict[str, MetricValue],
                     ) -> Dict[str, Dict[str, float]]:
    """Measured-vs-static deviation per scalar metric present in both.

    Returns ``{name: {"measured": m, "static": s, "deviation_pct": d}}``
    with ``d = 100 x (s - m) / m`` — the estimator's error in the
    metric's own unit, positive when the static model is optimistic.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, m in measured.items():
        s = static.get(name)
        if not isinstance(m, (int, float)) or not isinstance(s, (int, float)):
            continue
        dev = 100.0 * (s - m) / m if m else (0.0 if not s else float("inf"))
        out[name] = {"measured": float(m), "static": float(s),
                     "deviation_pct": dev}
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt_value(value: MetricValue) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, dict):
        return ", ".join(f"{k}={v:.2f}" for k, v in value.items())
    return f"{value:.4g}"


def format_derived(record, values: Optional[Dict[str, MetricValue]] = None,
                   spec: Optional[DeviceSpec] = None) -> str:
    """nvprof ``--metrics``-style text block for one launch."""
    if values is None:
        values = derive_metrics(record, spec)
    header = f"derived metrics: {record.kernel} ({record.grid} x {record.block})"
    width = max(len(n) for n in values) if values else 0
    lines = [header]
    for name, value in values.items():
        unit = METRICS[name].unit if name in METRICS else ""
        lines.append(f"  {name:<{width}}  {_fmt_value(value):>12}  {unit}")
    return "\n".join(lines)


def format_deviation(deviation: Dict[str, Dict[str, float]]) -> str:
    """Text table of the measured-vs-static metric deviations."""
    if not deviation:
        return "estimator deviation: (no overlapping scalar metrics)"
    width = max(len(n) for n in deviation)
    lines = ["estimator deviation (static vs measured):"]
    for name, row in deviation.items():
        lines.append(
            f"  {name:<{width}}  measured {row['measured']:>10.4g}  "
            f"static {row['static']:>10.4g}  "
            f"dev {row['deviation_pct']:>+7.1f}%")
    return "\n".join(lines)
