"""Observability layer: registry, spans, profiler, pipeline wiring.

Covers the contracts the instrumented pipeline relies on: span
nesting and Chrome-trace export round-trips, labeled counter merge,
profiler record correctness against the launch plan's own block
accounting, and the zero-overhead-by-default guarantee that a
disabled registry/profiler records nothing.
"""

import json

import numpy as np
import pytest

from repro.apps.matmul import MatMul
from repro.cuda import Device, LaunchPlan, kernel, launch
from repro.obs import (
    LaunchProfiler,
    MetricsRegistry,
    NULL_METRIC,
    SpanTracer,
    active_profiler,
    get_registry,
    get_tracer,
    span,
    use_registry,
    use_tracer,
)
from repro.obs.profiler import STAGES


@kernel("obs_writer", regs_per_thread=6)
def obs_writer(ctx, out, width):
    i = ctx.global_tid()
    with ctx.masked(i < width):
        ctx.st_global(out, i, (i * 2 + 1).astype(np.float32))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

def test_span_nesting_and_tree():
    tracer = SpanTracer()
    with tracer.span("outer", kind="demo") as outer:
        with tracer.span("inner.a"):
            pass
        with tracer.span("inner.b"):
            pass
    assert [r.name for r in tracer.roots] == ["outer"]
    assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
    assert outer.seconds >= sum(c.seconds for c in outer.children) >= 0
    tree = tracer.format_tree()
    assert "outer" in tree and "inner.a" in tree and "kind=demo" in tree
    # children indent one level deeper than the root
    lines = tree.splitlines()
    assert lines[0].startswith("outer")
    assert lines[1].startswith("  inner.a")


def test_chrome_trace_round_trip(tmp_path):
    tracer = SpanTracer()
    with tracer.span("launch", kernel="mm"):
        with tracer.span("execute"):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["launch", "execute"]
    for event in events:
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["ts"] >= 0
    # child interval nests inside the parent interval
    parent, child = events
    assert parent["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-3
    assert parent["args"] == {"kernel": "mm"}


def test_ambient_span_helper_is_noop_when_disabled():
    assert not get_tracer().enabled
    with span("nothing"):
        pass
    assert get_tracer().roots == []
    tracer = SpanTracer()
    with use_tracer(tracer):
        with span("recorded"):
            pass
    assert [r.name for r in tracer.roots] == ["recorded"]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_counter_labels_and_merge():
    reg = MetricsRegistry()
    reg.counter("hits", space="const").inc(3)
    reg.counter("hits", space="tex").inc()
    reg.counter("hits", space="const").inc(2)   # same labels -> same metric
    assert reg.value("hits", space="const") == 5
    assert reg.value("hits", space="tex") == 1
    assert reg.total("hits") == 6

    reg.gauge("depth").set(7)
    reg.histogram("lat").observe(0.5)
    reg.histogram("lat").observe(1.5)
    assert reg.value("depth") == 7
    lat = reg.value("lat")
    assert lat["count"] == 2 and lat["min"] == 0.5 and lat["max"] == 1.5
    assert lat["mean"] == pytest.approx(1.0)


def test_disabled_registry_hands_out_shared_null_metric():
    reg = MetricsRegistry(enabled=False)
    assert reg.counter("x") is NULL_METRIC
    assert reg.histogram("y", k="v") is NULL_METRIC
    reg.counter("x").inc(99)
    assert len(reg) == 0
    assert reg.to_dict() == {}


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.gauge("m")


# ----------------------------------------------------------------------
# Profiler records
# ----------------------------------------------------------------------

def test_profiler_record_matches_launch_accounting():
    app = MatMul()
    with LaunchProfiler() as prof:
        run = app.run({"n": 64, "variant": "tiled", "tile": 16,
                       "trace_blocks": 2}, functional=False)
    assert len(prof.records) == 1
    rec = prof.records[0]
    result = run.launches[0]
    assert rec.kernel == result.kernel.name
    assert rec.grid == "4x4" and rec.block == "16x16"
    assert rec.executor == result.executor != ""
    assert rec.blocks_total == result.num_blocks == 16
    assert rec.blocks_executed == result.blocks_executed
    assert rec.blocks_traced == result.blocks_traced == 2
    # perf-only launches execute just the traced sample, so the
    # dispositions cover the sample rather than the whole grid
    assert sum(rec.dispositions.values()) == rec.blocks_executed == 2
    assert set(rec.stage_seconds) == set(STAGES)
    assert all(v >= 0 for v in rec.stage_seconds.values())
    assert rec.wall_seconds > 0
    assert set(rec.transactions_per_access) == {"A", "B", "C"}
    assert rec.bound != "n/a"       # the timing model named a bottleneck
    assert rec.bottleneck_seconds and rec.gflops > 0
    # the structured record is JSON-clean as-is
    doc = json.loads(json.dumps(rec.to_dict()))
    assert doc["blocks"]["executed"] == rec.blocks_executed
    assert doc["model"]["bound"] == rec.bound


def test_profiler_surfaces_memo_hits():
    dev = Device()
    out = dev.alloc(32 * 64, np.float32, "out")
    plan = LaunchPlan.build(obs_writer, (32,), (64,), (out, 32 * 64),
                            device=dev, functional=False, trace_blocks=8,
                            memoize=True)
    with LaunchProfiler() as prof:
        result = plan.execute("sequential")
    rec = prof.records[0]
    assert result.memo_hits > 0
    assert rec.memo_hits == result.memo_hits
    assert rec.dispositions["memo"] == result.memo_hits
    assert rec.blocks_executed == result.blocks_executed \
        == result.blocks_traced - result.memo_hits
    assert prof.registry.total("collector.memo_hits") == result.memo_hits


def test_launch_result_summary_digest():
    app = MatMul()
    run = app.run({"n": 32, "variant": "naive", "tile": 16,
                   "trace_blocks": 1}, functional=False)
    result = run.launches[0]
    digest = result.summary()
    assert result.kernel.name in digest
    assert "exec=" in digest and "bound=" in digest
    assert digest in repr(result)


def test_disabled_profiler_is_noop():
    assert active_profiler() is None
    assert not get_registry().enabled
    dev = Device()
    out = dev.alloc(8 * 32, np.float32, "out")
    res = launch(obs_writer, (8,), (32,), (out, 8 * 32), device=dev,
                 functional=True, trace_blocks=2)
    # nothing recorded anywhere...
    assert len(get_registry()) == 0
    assert get_tracer().roots == []
    # ...and the untimed collector reports a zero collect stage
    assert res.stage_seconds["collect"] == 0.0
    assert res.stage_seconds["execute"] > 0
    # block accounting still flows through the result
    assert res.executor and sum(res.block_dispositions.values()) == 8


def test_profiler_restores_ambient_state_and_nests():
    before_reg, before_tracer = get_registry(), get_tracer()
    with LaunchProfiler() as outer:
        assert get_registry() is outer.registry
        with LaunchProfiler() as inner:
            assert active_profiler() is inner
            assert get_registry() is inner.registry
        assert active_profiler() is outer
    assert active_profiler() is None
    assert get_registry() is before_reg
    assert get_tracer() is before_tracer


def test_profiler_estimate_off_skips_model():
    app = MatMul()
    with LaunchProfiler(estimate=False) as prof:
        app.run({"n": 32, "variant": "naive", "tile": 16,
                 "trace_blocks": 1}, functional=False)
    rec = prof.records[0]
    assert rec.bound == "n/a" and rec.gflops == 0.0
    assert rec.warp_insts > 0       # trace counters still captured


# ----------------------------------------------------------------------
# Registry-driven pipeline counters
# ----------------------------------------------------------------------

def test_registry_collects_pipeline_counters():
    reg = MetricsRegistry()
    app = MatMul()
    with use_registry(reg):
        run = app.run({"n": 64, "variant": "tiled", "tile": 16,
                       "trace_blocks": 2}, functional=False)
        run.launches[0].estimate()
    assert reg.total("launch.count") == 1
    # perf-only run: only the traced sample is classified/executed
    assert reg.total("launch.blocks") == 2
    assert reg.value("launch.blocks", disposition="trace",
                     kernel="mm_tiled_16x16") == 2
    assert reg.value("launch.seconds",
                     executor="sequential",
                     kernel="mm_tiled_16x16")["count"] == 1
    assert reg.total("timing.bound") == 1
    # constant/texture caches were not touched by this kernel, but the
    # bound tally names the launch's verdict
    bound_labels = [dict(m.labels)["bound"] for m in reg
                    if m.name == "timing.bound"]
    assert len(bound_labels) == 1
