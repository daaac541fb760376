"""Observability layer: spans, profiler, pipeline wiring.

Covers the contracts the instrumented pipeline relies on: span
nesting and Chrome-trace export round-trips, profiler record
correctness against the launch plan's own block accounting, and the
zero-overhead-by-default guarantee that a disabled tracer/profiler
records nothing.
"""

import json

import numpy as np
import pytest

from repro.apps.fdtd import Fdtd
from repro.apps.matmul import MatMul
from repro.bench import profile_report
from repro.cuda import Device, kernel, launch
from repro.obs import (
    LaunchProfiler,
    SpanTracer,
    active_profiler,
    get_tracer,
    span,
    use_tracer,
)


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
    assert set(rec.stage_seconds) == {"execute", "finalize"}
    assert all(v >= 0 for v in rec.stage_seconds.values())
    assert rec.wall_seconds > 0
    assert set(rec.transactions_per_access) == {"A", "B", "C"}
    assert rec.bound != "n/a"       # the timing model named a bottleneck
    assert rec.estimate.components() and rec.gflops > 0
    # the structured record is JSON-clean as-is
    doc = json.loads(json.dumps(rec.to_dict()))
    assert doc["blocks"]["executed"] == rec.blocks_executed
    assert doc["model"]["bound"] == rec.bound


def test_profiler_surfaces_memo_hits():
    """Module trace replays are launch trace cache hits: each replayed
    launch's whole traced sample is a memo hit, visible in its profile
    record and its launch result, and every launch is a compiled one."""
    with LaunchProfiler() as prof:
        run = Fdtd().run_module()
    replays = run.module.stats["trace_replays"]
    replayed = [rec for rec in prof.records if rec.memo_hits]
    assert replays == len(replayed) == 4
    for rec in replayed:
        assert rec.executor == "compiled"
        assert rec.memo_hits == rec.blocks_traced \
            == rec.dispositions["memo"]
    assert [launch.memo_hits for launch in run.launches] \
        == [rec.memo_hits for rec in prof.records]
    assert sum(launch.memo_hits for launch in run.launches) \
        == sum(rec.blocks_traced for rec in replayed)
    assert [rec.executor for rec in prof.records] \
        == ["compiled"] * len(run.launches)


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
    assert not get_tracer().enabled
    dev = Device()
    out = dev.alloc(8 * 32, np.float32, "out")
    res = launch(obs_writer, (8,), (32,), (out, 8 * 32), device=dev,
                 functional=True, trace_blocks=2)
    # nothing recorded anywhere...
    assert get_tracer().roots == []
    # ...and the launch kept no clock of its own
    assert res.span is None
    # block accounting still flows through the result
    assert res.executor and sum(res.block_dispositions.values()) == 8


def test_profiler_restores_ambient_state_and_nests():
    before_tracer = get_tracer()
    with LaunchProfiler() as outer:
        assert get_tracer() is outer.tracer
        with LaunchProfiler() as inner:
            assert active_profiler() is inner
            assert get_tracer() is inner.tracer
        assert active_profiler() is outer
        assert get_tracer() is outer.tracer
    assert active_profiler() is None
    assert get_tracer() is before_tracer


def test_launch_stages_are_read_off_its_span():
    """The span tree is the launch's only clock.  Under a tracer,
    ``collector.finalize`` is a child of the launch's
    ``executor.<name>`` span, which the result and its record hold: the
    record's wall time is the span's and its stages sum to it.  With
    no tracer installed the result holds no span."""
    dev = Device()
    out = dev.alloc(8 * 32, np.float32, "out")
    args = (out, 8 * 32)
    with LaunchProfiler() as prof:
        res = launch(obs_writer, (8,), (32,), args, device=dev,
                     trace_blocks=2)
    assert [root.name for root in prof.tracer.roots] \
        == ["plan.build", "executor.sequential"]
    node = prof.tracer.roots[1]
    (finalize,) = node.children
    assert finalize.name == "collector.finalize"
    (rec,) = prof.records
    assert res.span is node and rec.span is node
    assert rec.wall_seconds == node.seconds > 0
    assert rec.stage_seconds["finalize"] == finalize.seconds
    assert sum(rec.stage_seconds.values()) \
        == pytest.approx(rec.wall_seconds)

    res = launch(obs_writer, (8,), (32,), args, device=dev,
                 trace_blocks=2)
    assert res.span is None
    assert active_profiler() is None and get_tracer().roots == []
    assert res.profile().wall_seconds == 0.0


# ----------------------------------------------------------------------
# Pipeline counters on the launch record
# ----------------------------------------------------------------------

def test_registry_collects_pipeline_counters():
    """Each launch's executor, block dispositions, stage times, cache
    counters and timing verdict sit on its record."""
    app = MatMul()
    with LaunchProfiler() as prof:
        run = app.run({"n": 64, "variant": "tiled", "tile": 16,
                       "trace_blocks": 2}, functional=False)
    (rec,) = prof.records
    assert rec.kernel == "mm_tiled_16x16"
    assert rec.executor == "sequential"
    # perf-only run: only the traced sample is classified/executed
    assert rec.dispositions == {"trace": 2, "memo": 0, "plain": 0}
    assert rec.wall_seconds > 0
    # this kernel touches neither the constant nor the texture cache
    assert [getattr(rec.trace, f"{space}_{event}")
            for space in ("const", "tex")
            for event in ("hits", "misses")] == [0, 0, 0, 0]
    # the record holds the launch's own trace, and names its verdict as
    # the estimate does
    assert rec.trace is run.launches[0].trace
    est = run.launches[0].estimate()
    assert (rec.bound, rec.estimate.seconds) == (est.bound, est.seconds)


# ----------------------------------------------------------------------
# The profile_report CLI
# ----------------------------------------------------------------------

#: kernel of each launch profile_report's saxpy run makes
SAXPY_KERNELS = ["saxpy", "saxpy", "saxpy"]


def test_profile_report_spans_name_each_launch_decision(capsys):
    assert profile_report.main(["saxpy", "--spans"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("executor.")]
    assert len(lines) == len(SAXPY_KERNELS)
    replays = []
    for line in lines:
        attrs = line[line.index("[") + 1:line.rindex("]")]
        assert "auto=non-functional launch" in attrs
        replays.append(attrs[attrs.index("replay=") + len("replay="):])
    assert replays == ["first trace", "replayed", "replayed"]


def test_profile_report_json_holds_one_record_per_launch(capsys):
    assert profile_report.main(["saxpy", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["app", "scale", "device", "records"]
    assert (payload["app"], payload["scale"], payload["device"]) \
        == ("saxpy", "test", "geforce_8800_gtx")
    assert [rec["kernel"] for rec in payload["records"]] == SAXPY_KERNELS


def test_profile_report_text_shows_the_divergence_of_each_branching_launch(
        capsys):
    """fem's two launches branch: each prints R8's dynamic counters
    among its per-kernel detail lines."""
    assert profile_report.main(["fem"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "branch warps" in line]
    assert lines == ["  fem_spmv: 64 branch warps, 20 divergent (31.2%); "
                     "140 partial-mask warp insts (24.6% of issue)"] * 2


def test_profile_report_unknown_device_exits_2(capsys):
    assert profile_report.main(["saxpy", "--device", "no_such_gpu"]) == 2
    assert "no_such_gpu" in capsys.readouterr().err


def test_overhead_gate_catches_a_real_overhead(monkeypatch):
    """A profiled launch slowed by a fifth of a launch reads over the
    CI gate's 5 %, although the estimate is a median of pair ratios."""
    import time

    launch_s = profile_report.measure_overhead(n=64)["disabled_seconds"]
    on_launch = LaunchProfiler.on_launch

    def slowed(self, result):
        time.sleep(launch_s / 5)
        return on_launch(self, result)

    monkeypatch.setattr(LaunchProfiler, "on_launch", slowed)
    overhead = profile_report.measure_overhead(n=64)
    assert overhead["repeats"] == 11
    assert overhead["overhead_pct"] > 5.0
