"""Warp timelines: event recording, chrome://tracing schema, rendering.

Schema rules every chrome://tracing export must satisfy (checked here
for both the warp timeline and the span tracer's export): the payload
is valid JSON, timestamps are monotonically non-decreasing in file
order, every duration ``B`` has a matching ``E`` on the same
``(pid, tid, name)`` lane, and pid/tid lane assignments are stable
for the whole trace.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.arch.registry import device_by_name
from repro.cuda import Device, kernel, launch
from repro.obs import SpanTracer
from repro.obs.timeline import (Timeline, format_timeline,
                                occupancy_strip, record_timeline,
                                stall_summary, timeline_for_target,
                                to_chrome_trace, write_chrome_trace)
from repro.sim.warpsim import simulate_sm

G80 = device_by_name("geforce_8800_gtx")


@kernel("tl_kernel", regs_per_thread=8, static_smem_bytes=256)
def tl_kernel(ctx, src, out, n):
    i = ctx.global_tid()
    with ctx.masked(i < n):
        v = ctx.ld_global(src, i)
    ctx.sync()
    with ctx.masked(i < n):
        ctx.st_global(out, i, v * 2.0)


def _result(n=256):
    dev = Device(G80)
    src = dev.to_device(np.arange(n, dtype=np.float32), "src")
    out = dev.to_device(np.zeros(n, dtype=np.float32), "out")
    return launch(tl_kernel, (n // 64,), (64,), (src, out, n),
                  device=dev, functional=False, trace_blocks=1,
                  record_stream=True)


@pytest.fixture(scope="module")
def timeline():
    return record_timeline(_result())


# ----------------------------------------------------------------------
# Event recording in the warpsim
# ----------------------------------------------------------------------

def test_recording_is_opt_in_and_deterministic():
    result = _result()
    occ = result.occupancy()
    plain = simulate_sm(result.stream, occ.warps_per_block,
                        occ.blocks_per_sm, G80)
    events = []
    recorded = simulate_sm(result.stream, occ.warps_per_block,
                           occ.blocks_per_sm, G80, events=events)
    # recording must not perturb the simulation
    assert recorded.cycles == plain.cycles
    assert recorded.instructions_issued == plain.instructions_issued
    assert events


def test_every_warp_retires_once(timeline):
    retires = [e for e in timeline.events if e.kind == "retire"]
    assert len(retires) == timeline.n_warps
    lanes = {timeline.lane(e) for e in retires}
    assert lanes == set(range(timeline.n_warps))


def test_event_kinds_and_durations(timeline):
    kinds = {e.kind for e in timeline.events}
    assert kinds <= {"issue", "mem", "sync", "retire"}
    assert {"issue", "mem", "sync"} <= kinds   # the kernel has all three
    for ev in timeline.events:
        assert ev.end >= ev.start >= 0.0
        assert ev.end <= timeline.cycles + 1e-9


def test_issue_events_account_issue_busy():
    result = _result()
    occ = result.occupancy()
    events = []
    sim = simulate_sm(result.stream, occ.warps_per_block,
                      occ.blocks_per_sm, G80, events=events)
    issue_cycles = sum(e.duration for e in events if e.kind == "issue")
    assert issue_cycles == pytest.approx(sim.issue_busy_cycles)


def test_requires_recorded_stream():
    dev = Device(G80)
    src = dev.to_device(np.arange(64, dtype=np.float32), "src")
    out = dev.to_device(np.zeros(64, dtype=np.float32), "out")
    result = launch(tl_kernel, (1,), (64,), (src, out, 64), device=dev)
    with pytest.raises(ValueError, match="record_stream"):
        record_timeline(result)


# ----------------------------------------------------------------------
# chrome://tracing schema
# ----------------------------------------------------------------------

def _schema_check(trace_obj):
    payload = json.dumps(trace_obj)        # must be valid JSON
    events = json.loads(payload)["traceEvents"]
    spans = [e for e in events if e["ph"] in ("B", "E", "X", "i")]
    # monotonic ts in file order
    ts = [e["ts"] for e in spans]
    assert all(a <= b for a, b in zip(ts, ts[1:]))
    # matched B/E pairs per lane+name
    begins = Counter((e["pid"], e["tid"], e["name"])
                     for e in spans if e["ph"] == "B")
    ends = Counter((e["pid"], e["tid"], e["name"])
                   for e in spans if e["ph"] == "E")
    assert begins == ends
    return events, spans


def test_timeline_chrome_schema(timeline, tmp_path):
    path = tmp_path / "warps.json"
    write_chrome_trace(timeline, str(path))
    trace_obj = json.loads(path.read_text())
    events, spans = _schema_check(trace_obj)
    # pid/tid lane stability: every span sits on the one SM and on a
    # declared warp lane
    lanes = {e["tid"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert lanes == set(range(timeline.n_warps))
    assert {e["pid"] for e in spans} == {timeline.sm}
    assert {e["tid"] for e in spans} <= lanes
    meta = trace_obj["otherData"]
    assert meta["kernel"] == "tl_kernel"
    assert meta["cycles"] == timeline.cycles


def test_span_tracer_chrome_schema(tmp_path):
    tracer = SpanTracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    path = tmp_path / "spans.json"
    tracer.write_chrome_trace(str(path))
    events, spans = _schema_check(json.loads(path.read_text()))
    assert all(e["dur"] >= 0 for e in spans if e["ph"] == "X")


def test_lane_ids_stable_across_exports(timeline):
    lanes1 = sorted({e["tid"] for e in to_chrome_trace(timeline)
                     ["traceEvents"] if e["ph"] != "M"})
    lanes2 = sorted({e["tid"] for e in to_chrome_trace(timeline)
                     ["traceEvents"] if e["ph"] != "M"})
    assert lanes1 == lanes2


# ----------------------------------------------------------------------
# ASCII rendering + summaries
# ----------------------------------------------------------------------

def test_occupancy_strip_shape(timeline):
    strip = occupancy_strip(timeline, width=48)
    assert len(strip) == 48
    assert set(strip) <= set(" .:-=+*#%@")
    # the kernel does real work: some column shows runnable warps
    assert strip.strip()


def test_stall_summary_fractions(timeline):
    frac = stall_summary(timeline)
    assert set(frac) == {"issue", "mem", "sync", "eligible"}
    assert all(0.0 <= v <= 1.0 for v in frac.values())
    assert sum(frac.values()) == pytest.approx(1.0)
    assert frac["mem"] > 0          # the loads must show up


def test_format_timeline_text(timeline):
    text = format_timeline(timeline, width=40)
    assert "tl_kernel" in text and "SM0 |" in text
    assert "warp-state:" in text and "legend:" in text


def test_empty_timeline_renders():
    tl = Timeline(kernel="empty", device="dev")
    assert occupancy_strip(tl) == "(no events)"
    assert stall_summary(tl) == {}


# ----------------------------------------------------------------------
# App-target driver (what the CLI uses)
# ----------------------------------------------------------------------

def test_timeline_for_matmul_target():
    from repro.apps.fem import Fem
    from repro.apps.matmul import MatMul
    targets = [next(t for t in MatMul(G80).lint_targets()
                    if t.note == "tiled"),
               # integer column indices must stay inside the vector
               Fem(G80).lint_targets()[0]]
    for target, name in zip(targets, ("mm_tiled_16x16", "fem_spmv")):
        tl = timeline_for_target(target, G80)
        assert tl.kernel == name
        assert tl.n_warps == tl.warps_per_block * tl.blocks_per_sm > 0
        assert tl.cycles > 0
        _schema_check(to_chrome_trace(tl))
