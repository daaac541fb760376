"""Per-SM warp scheduling timelines (Nsight-style, from the warpsim).

The event-driven simulator in :mod:`repro.sim.warpsim` already decides
*when* every resident warp issues, stalls on memory, or parks at a
barrier — it just used to throw that schedule away and keep only the
totals.  This module replays one SM wave with event recording turned
on and renders the schedule two ways:

* a **chrome://tracing JSON** file — one process per SM, one thread
  lane per resident warp, ``B``/``E`` duration pairs for ``issue`` /
  ``mem`` / ``sync`` intervals and an instant marker at retire.  Load
  it at chrome://tracing or https://ui.perfetto.dev.  The trace's time
  unit is **SM cycles rendered as microseconds** (1 cycle = 1 us) so
  the viewer's measurements read directly in cycles.
* an **ASCII occupancy strip** — runnable-warp density over time in
  one terminal line per SM, plus a stall-state summary, for quick
  "where did the latency hiding stop working" reading without leaving
  the shell.

Timelines are strictly opt-in: recording requires a launch that ran
with ``record_stream=True`` and an explicit call here, so the
zero-overhead contract of :mod:`repro.obs.profiler` is untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..arch.device import DeviceSpec
from ..sim.warpsim import WarpEvent, simulate_sm

__all__ = [
    "Timeline", "record_timeline", "timeline_for_target",
    "to_chrome_trace", "write_chrome_trace",
    "occupancy_strip", "stall_summary", "format_timeline",
]

#: stall-state density ramp, sparse -> dense
_RAMP = " .:-=+*#%@"


@dataclass
class Timeline:
    """One SM wave's warp schedule plus the context to render it."""

    kernel: str
    device: str
    events: List[WarpEvent] = field(default_factory=list)
    cycles: float = 0.0
    warps_per_block: int = 0
    blocks_per_sm: int = 0
    sm: int = 0

    @property
    def n_warps(self) -> int:
        return self.warps_per_block * self.blocks_per_sm

    def lane(self, ev: WarpEvent) -> int:
        """Stable per-SM thread-lane id for a warp."""
        return ev.block * self.warps_per_block + ev.wid


def record_timeline(result, spec: Optional[DeviceSpec] = None) -> Timeline:
    """Replay one SM wave of ``result`` with event recording.

    ``result`` is a :class:`~repro.cuda.launch.LaunchResult` produced
    with ``record_stream=True`` (same contract as
    :func:`repro.sim.warpsim.simulate_launch`).
    """
    spec = spec or result.spec
    if result.stream is None:
        raise ValueError("launch was not run with record_stream=True")
    occ = result.occupancy()
    if occ.blocks_per_sm == 0:
        raise ValueError("kernel cannot be scheduled on this device")
    events: List[WarpEvent] = []
    sim = simulate_sm(result.stream, occ.warps_per_block,
                      occ.blocks_per_sm, spec, events=events)
    return Timeline(
        kernel=result.kernel.name,
        device=spec.name,
        events=events,
        cycles=sim.cycles,
        warps_per_block=occ.warps_per_block,
        blocks_per_sm=occ.blocks_per_sm,
    )


def timeline_for_target(target, spec: DeviceSpec) -> Timeline:
    """Record a timeline for an app's :class:`LintTarget` geometry, run
    once on seeded inputs
    (:func:`repro.analysis.validate.materialized_launch`)."""
    # imported here: repro.analysis.validate imports repro.obs
    from ..analysis.validate import materialized_launch
    return record_timeline(materialized_launch(target, spec), spec)


# ----------------------------------------------------------------------
# chrome://tracing export
# ----------------------------------------------------------------------

_PHASE_ORDER = {"E": 0, "B": 1, "i": 2, "M": -1}


def to_chrome_trace(tl: Timeline) -> Dict[str, object]:
    """Render the timeline in the chrome://tracing JSON-object format.

    pid = SM index, tid = warp lane (``block * warps_per_block + wid``,
    stable for the whole trace), ts/dur in cycles-as-microseconds.
    """
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": tl.sm, "tid": 0, "ts": 0,
         "args": {"name": f"SM {tl.sm} ({tl.device})"}},
    ]
    lanes = sorted({(ev.block, ev.wid) for ev in tl.events})
    for block, wid in lanes:
        tid = block * tl.warps_per_block + wid
        events.append({"name": "thread_name", "ph": "M", "pid": tl.sm,
                       "tid": tid, "ts": 0,
                       "args": {"name": f"block {block} warp {wid}"}})
    spans: List[Dict[str, object]] = []
    for ev in tl.events:
        tid = tl.lane(ev)
        common = {"cat": "warp", "pid": tl.sm, "tid": tid,
                  "args": {"pc": ev.pc}}
        if ev.kind == "retire":
            spans.append({"name": "retire", "ph": "i", "ts": ev.start,
                          "s": "t", **common})
        else:
            spans.append({"name": ev.kind, "ph": "B", "ts": ev.start,
                          **common})
            spans.append({"name": ev.kind, "ph": "E", "ts": ev.end,
                          **common})
    spans.sort(key=lambda e: (e["ts"], _PHASE_ORDER[e["ph"]], e["tid"]))
    return {
        "traceEvents": events + spans,
        "displayTimeUnit": "ms",
        "otherData": {
            "kernel": tl.kernel,
            "device": tl.device,
            "unit": "SM cycles rendered as us",
            "warps_per_block": tl.warps_per_block,
            "blocks_per_sm": tl.blocks_per_sm,
            "cycles": tl.cycles,
        },
    }


def write_chrome_trace(tl: Timeline, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(tl), fh)
    return path


# ----------------------------------------------------------------------
# ASCII rendering
# ----------------------------------------------------------------------

def _stall_intervals(tl: Timeline) -> Dict[int, List[WarpEvent]]:
    by_lane: Dict[int, List[WarpEvent]] = {}
    for ev in tl.events:
        if ev.kind in ("mem", "sync"):
            by_lane.setdefault(tl.lane(ev), []).append(ev)
    return by_lane


def _retire_times(tl: Timeline) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for ev in tl.events:
        if ev.kind == "retire":
            out[tl.lane(ev)] = ev.start
    return out


def occupancy_strip(tl: Timeline, width: int = 72) -> str:
    """One line of runnable-warp density over the SM wave.

    Each column covers ``cycles / width``; its glyph encodes the
    average number of warps that are *runnable* (resident, not stalled
    on memory, not parked at a barrier, not yet retired) — ``@`` means
    every resident warp had work, a space means the SM had nothing to
    issue.
    """
    if not tl.events or tl.cycles <= 0 or tl.n_warps == 0:
        return "(no events)"
    stalls = _stall_intervals(tl)
    retires = _retire_times(tl)
    bucket = tl.cycles / width
    cols = []
    for i in range(width):
        lo, hi = i * bucket, (i + 1) * bucket
        runnable = 0.0
        for lane in range(tl.n_warps):
            live_until = retires.get(lane, tl.cycles)
            live = max(0.0, min(hi, live_until) - lo)
            stalled = sum(
                max(0.0, min(hi, ev.end) - max(lo, ev.start))
                for ev in stalls.get(lane, ()))
            runnable += max(0.0, live - stalled)
        frac = runnable / (bucket * tl.n_warps)
        cols.append(_RAMP[min(len(_RAMP) - 1, int(frac * len(_RAMP)))])
    return "".join(cols)


def stall_summary(tl: Timeline) -> Dict[str, float]:
    """Fractions of total warp-residency cycles per scheduling state.

    Keys: ``issue`` (owning the issue unit), ``mem`` (memory stall),
    ``sync`` (barrier park), ``eligible`` (runnable but waiting for
    the issue unit).  Sums to 1 over each warp's lifetime.
    """
    if not tl.events:
        return {}
    retires = _retire_times(tl)
    total = sum(retires.values()) or tl.cycles * tl.n_warps
    if total <= 0:
        return {}
    spent = {"issue": 0.0, "mem": 0.0, "sync": 0.0}
    for ev in tl.events:
        if ev.kind in spent:
            spent[ev.kind] += ev.duration
    out = {k: v / total for k, v in spent.items()}
    out["eligible"] = max(0.0, 1.0 - sum(out.values()))
    return out


def format_timeline(tl: Timeline, width: int = 72) -> str:
    """Terminal block: header, per-SM occupancy strip, stall summary."""
    head = (f"warp timeline: {tl.kernel} on {tl.device}  "
            f"[{tl.blocks_per_sm} block(s) x {tl.warps_per_block} warps/SM, "
            f"{tl.cycles:.0f} cycles]")
    strip = occupancy_strip(tl, width)
    scale = (f"  0{' ' * (width - 12)}{tl.cycles:>10.0f}"
             if width >= 12 else "")
    summary = stall_summary(tl)
    states = "  ".join(f"{k}={v:.0%}" for k, v in summary.items())
    return "\n".join([head, f"SM0 |{strip}|", scale,
                      f"warp-state: {states}",
                      f"legend: '{_RAMP}' = 0..all warps runnable"])
