"""Per-launch roofline reports (arithmetic intensity vs device peaks).

The paper's Figure-type argument — "this kernel moved from
bandwidth-bound to compute-bound when tiling raised its reuse" — is a
roofline statement.  This module makes it explicit: every profiled
launch becomes a point ``(arithmetic intensity, achieved GFLOPS)``
placed under the active device's two roofs,

* the **memory roof** ``AI x effective DRAM bandwidth`` (pin bandwidth
  derated by the timing model's achievable-efficiency factor), and
* the **compute roof** ``peak multiply-add GFLOPS``,

meeting at the ridge point ``peak / bandwidth`` (flop/byte).  Every
point comes from a :class:`~repro.obs.profiler.LaunchRecord`, in one
of two kinds: ``measured`` (an executed launch's trace + timing model)
and ``static`` (the abstract-interpreter census of a
:class:`~repro.analysis.estimate.PerfEstimate`, via
:meth:`LaunchRecord.from_estimate
<repro.obs.profiler.LaunchRecord.from_estimate>`), so the estimator's
placement can be checked against the measured one on the same chart.

Output is a JSON-able dict (:func:`roofline_report`) and a terminal
rendering (:func:`format_roofline`) with an ASCII log-log chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..arch.device import DeviceSpec

__all__ = [
    "RooflinePoint", "point_from_record", "roofline_report",
    "format_roofline",
]


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel launch placed on the roofline chart."""

    label: str
    flops: float            # total single-precision flops
    bus_bytes: float        # DRAM bus bytes moved
    gflops: float           # achieved (modeled) rate
    kind: str = "measured"  # "measured" | "static"

    @property
    def intensity(self) -> float:
        """Arithmetic intensity, flop per DRAM byte."""
        return self.flops / self.bus_bytes if self.bus_bytes > 0 \
            else float("inf")


def point_from_record(rec) -> RooflinePoint:
    """Roofline point for a launch record: ``static`` for a census
    record, ``measured`` for an executed launch."""
    return RooflinePoint(
        label=rec.kernel,
        flops=rec.trace.flops,
        bus_bytes=rec.trace.global_bus_bytes,
        gflops=rec.gflops,
        kind="static" if rec.executor == "census" else "measured",
    )


def _roofs(spec: DeviceSpec) -> Dict[str, float]:
    bw_eff = spec.dram_bandwidth_gbs * spec.timing.dram_efficiency
    return {
        "peak_mad_gflops": spec.peak_mad_gflops,
        "peak_gflops_with_sfu": spec.peak_gflops_with_sfu,
        "dram_bandwidth_gbs": spec.dram_bandwidth_gbs,
        "effective_bandwidth_gbs": bw_eff,
        "ridge_flop_per_byte": spec.peak_mad_gflops / bw_eff,
    }


def attainable_gflops(intensity: float, spec: DeviceSpec) -> float:
    """The roof over a given arithmetic intensity."""
    roofs = _roofs(spec)
    if math.isinf(intensity):
        return roofs["peak_mad_gflops"]
    return min(roofs["peak_mad_gflops"],
               intensity * roofs["effective_bandwidth_gbs"])


def roofline_report(points: Sequence[RooflinePoint], spec: DeviceSpec,
                    ) -> Dict[str, object]:
    """JSON-able roofline report: device roofs + classified points."""
    roofs = _roofs(spec)
    rows = []
    for p in points:
        ai = p.intensity
        roof = attainable_gflops(ai, spec)
        rows.append({
            "label": p.label,
            "kind": p.kind,
            "flops": p.flops,
            "bus_bytes": p.bus_bytes,
            "intensity_flop_per_byte": None if math.isinf(ai) else ai,
            "gflops": p.gflops,
            "attainable_gflops": roof,
            "pct_of_roof": 100.0 * p.gflops / roof if roof > 0 else 0.0,
            "regime": ("compute-bound"
                       if ai >= roofs["ridge_flop_per_byte"]
                       else "bandwidth-bound"),
        })
    return {"device": spec.name, "roofs": roofs, "points": rows}


# ----------------------------------------------------------------------
# ASCII chart
# ----------------------------------------------------------------------

def _log_axis(lo: float, hi: float, n: int) -> List[float]:
    llo, lhi = math.log10(lo), math.log10(hi)
    return [10 ** (llo + (lhi - llo) * i / (n - 1)) for i in range(n)]


def _chart(report: Dict[str, object], width: int = 58,
           height: int = 12) -> List[str]:
    roofs = report["roofs"]
    pts = [r for r in report["points"]
           if r["intensity_flop_per_byte"] and r["gflops"] > 0]
    ridge = roofs["ridge_flop_per_byte"]
    ais = [r["intensity_flop_per_byte"] for r in pts] + [ridge]
    x_lo = min(ais) / 4 or 0.25
    x_hi = max(ais) * 4
    y_hi = roofs["peak_mad_gflops"] * 2
    y_lo = min([r["gflops"] for r in pts] + [y_hi / 4]) / 4
    xs = _log_axis(x_lo, x_hi, width)
    grid = [[" "] * width for _ in range(height)]

    def y_row(g: float) -> int:
        f = (math.log10(g) - math.log10(y_lo)) \
            / (math.log10(y_hi) - math.log10(y_lo))
        return height - 1 - max(0, min(height - 1, round(f * (height - 1))))

    for col, x in enumerate(xs):
        roof = min(roofs["peak_mad_gflops"],
                   x * roofs["effective_bandwidth_gbs"])
        if y_lo <= roof <= y_hi:
            grid[y_row(roof)][col] = "-" if x >= ridge else "/"
    for i, r in enumerate(pts):
        col = min(width - 1, max(0, round(
            (math.log10(r["intensity_flop_per_byte"]) - math.log10(x_lo))
            / (math.log10(x_hi) - math.log10(x_lo)) * (width - 1))))
        g = max(y_lo, min(y_hi, r["gflops"]))
        mark = chr(ord("a") + i) if r["kind"] == "static" \
            else chr(ord("A") + i)
        grid[y_row(g)][col] = mark
    rows = [f"{y_hi:>8.0f} |" + "".join(grid[0])]
    rows += ["         |" + "".join(row) for row in grid[1:-1]]
    rows.append(f"{y_lo:>8.1f} |" + "".join(grid[-1]))
    rows.append("  GFLOPS +" + "-" * width)
    rows.append(f"         {x_lo:<10.2g}{'AI (flop/byte)':^{width - 20}}"
                f"{x_hi:>10.3g}")
    return rows


def format_roofline(report: Dict[str, object], chart: bool = True) -> str:
    """Terminal rendering: roof summary, point table, ASCII chart."""
    roofs = report["roofs"]
    lines = [
        f"roofline: {report['device']}  "
        f"peak {roofs['peak_mad_gflops']:.1f} GFLOPS (MAD), "
        f"effective bw {roofs['effective_bandwidth_gbs']:.1f} GB/s, "
        f"ridge {roofs['ridge_flop_per_byte']:.2f} flop/B",
    ]
    pts = report["points"]
    if pts:
        w = max(len(r["label"]) for r in pts)
        for i, r in enumerate(pts):
            ai = r["intensity_flop_per_byte"]
            mark = chr(ord("a" if r["kind"] == "static" else "A") + i)
            lines.append(
                f"  {mark} {r['label']:<{w}} [{r['kind']:>8}]  "
                f"AI {'inf' if ai is None else format(ai, '7.2f')}  "
                f"{r['gflops']:8.2f} GFLOPS  "
                f"{r['pct_of_roof']:5.1f}% of roof  ({r['regime']})")
        if chart:
            lines.append("")
            lines.extend(_chart(report))
    else:
        lines.append("  (no points)")
    return "\n".join(lines)
