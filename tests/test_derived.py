"""Derived-metrics engine: registry contracts and hand-computed goldens.

The nvprof-style metrics must agree with the models they summarize:
``achieved_occupancy`` with :mod:`repro.sim.occupancy`,
``gld_efficiency`` with the coalescing classifier's byte accounting,
the stall breakdown with the timing model's components.  The Section 4
matmul ladder is checked on both the paper's G80 and the Fermi-class
gtx_480, where the same kernels land on different metric values
(cached lines overfetch half of every 128 B line under 16-wide tile
rows).
"""

import numpy as np
import pytest

from repro.arch.registry import device_by_name
from repro.apps.matmul import MatMul
from repro.cuda import kernel, launch
from repro.obs import LaunchProfiler, LaunchRecord
from repro.obs.derived import (METRICS, MetricDef, derive_metrics,
                               format_derived, format_deviation,
                               metric_deviation, register_metric)

G80 = device_by_name("geforce_8800_gtx")
GTX480 = device_by_name("gtx_480")

TENTPOLE_METRICS = (
    "achieved_occupancy", "ipc", "gld_efficiency", "gst_efficiency",
    "shared_bank_conflict_rate", "l1_hit_rate", "l2_hit_rate",
    "dram_throughput_pct", "flop_sp_efficiency",
    "warp_issue_stall_breakdown",
)


def _ladder_record(spec, variant="tiled", n=64):
    app = MatMul(spec)
    prof = LaunchProfiler()
    with prof:
        app.run({"n": n, "variant": variant, "tile": 16,
                 "trace_blocks": 2}, functional=False)
    return prof.records[0]


@pytest.fixture(scope="module")
def g80_tiled():
    return _ladder_record(G80)


@pytest.fixture(scope="module")
def fermi_tiled():
    return _ladder_record(GTX480)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_has_every_tentpole_metric():
    for name in TENTPOLE_METRICS:
        assert name in METRICS
        m = METRICS[name]
        assert m.unit and m.formula and callable(m.compute)


def test_registry_rejects_duplicate_names():
    with pytest.raises(ValueError, match="already registered"):
        register_metric(MetricDef("ipc", "x", "dup", lambda r, s: None))


def test_unknown_metric_name_raises(g80_tiled):
    with pytest.raises(KeyError):
        derive_metrics(g80_tiled, names=["no_such_metric"])


def test_names_subset_selection(g80_tiled):
    vals = derive_metrics(g80_tiled, names=["ipc", "gld_efficiency"])
    assert set(vals) == {"ipc", "gld_efficiency"}


# ----------------------------------------------------------------------
# Goldens against the other models
# ----------------------------------------------------------------------

def test_achieved_occupancy_matches_occupancy_model(g80_tiled):
    from repro.sim.occupancy import compute_occupancy
    launched = g80_tiled.estimate.occupancy
    occ = compute_occupancy(threads_per_block=256, regs_per_thread=10,
                            smem_per_block=launched.smem_per_block,
                            spec=G80)
    vals = derive_metrics(g80_tiled, G80)
    assert vals["achieved_occupancy"] == pytest.approx(occ.occupancy)
    # and the launch estimate's own occupancy agrees
    assert vals["achieved_occupancy"] == pytest.approx(
        launched.active_warps_per_sm / G80.max_warps_per_sm)


def test_tiled_matmul_gld_efficiency_g80_vs_fermi(g80_tiled, fermi_tiled):
    g80 = derive_metrics(g80_tiled, G80)
    fermi = derive_metrics(fermi_tiled, GTX480)
    # G80: 16 consecutive floats fill a 64 B segment exactly
    assert g80["gld_efficiency"] == pytest.approx(100.0)
    assert g80["gst_efficiency"] == pytest.approx(100.0)
    # Fermi: a 16-wide tile row uses 64 B of each 128 B line
    assert fermi["gld_efficiency"] == pytest.approx(50.0)
    assert fermi["gld_transactions_per_request"] == pytest.approx(2.0)


def test_gld_efficiency_matches_trace_split(g80_tiled):
    vals = derive_metrics(g80_tiled, G80)
    trace = g80_tiled.trace
    raw = 100.0 * trace.gld_useful_bytes / trace.gld_bus_bytes
    assert vals["gld_efficiency_raw"] == pytest.approx(raw)
    assert vals["gld_efficiency"] == pytest.approx(min(100.0, raw))
    assert vals["gld_transactions_per_request"] == pytest.approx(
        trace.gld_transactions / trace.gld_accesses)
    # a fully coalesced kernel is not flagged as broadcast
    assert vals["gld_broadcast"] == 0.0


def test_broadcast_load_is_capped_and_flagged():
    """Every thread loads the same word: per-thread requested bytes
    exceed the deduplicated bus bytes, so the raw ratio goes past 100%.
    The headline metric caps at 100 and the broadcast flag trips."""
    @kernel("broadcast_ld", regs_per_thread=6)
    def broadcast(ctx, src, out, n):
        i = ctx.global_tid()
        v = ctx.ld_global(src, np.zeros(ctx.nthreads, dtype=np.int64))
        ctx.st_global(out, i, v)

    from repro.cuda import Device
    dev = Device(G80)
    n = 256
    src = dev.to_device(np.arange(n, dtype=np.float32), "src")
    out = dev.to_device(np.zeros(n, dtype=np.float32), "out")
    prof = LaunchProfiler()
    with prof:
        launch(broadcast, (1,), (n,), (src, out, n), device=dev)
    vals = derive_metrics(prof.records[0], G80)
    assert vals["gld_efficiency_raw"] > 100.0
    assert vals["gld_efficiency"] == pytest.approx(100.0)
    assert vals["gld_broadcast"] == 1.0
    assert vals["gst_efficiency"] <= 100.0


def test_strided_load_efficiency_hand_computed():
    """Stride-2 loads on the G80: each half-warp touches 128 B of
    segments to use 64 B -> exactly 50% load efficiency."""
    @kernel("strided_ld", regs_per_thread=6)
    def strided(ctx, src, out, n):
        i = ctx.global_tid()
        with ctx.masked(i < n):
            v = ctx.ld_global(src, i * 2)
            ctx.st_global(out, i, v)

    from repro.cuda import Device
    dev = Device(G80)
    n = 256
    src = dev.to_device(np.arange(2 * n, dtype=np.float32), "src")
    out = dev.to_device(np.zeros(n, dtype=np.float32), "out")
    prof = LaunchProfiler()
    with prof:
        launch(strided, (1,), (n,), (src, out, n), device=dev)
    vals = derive_metrics(prof.records[0], G80)
    assert vals["gld_efficiency"] == pytest.approx(50.0)
    assert vals["gst_efficiency"] == pytest.approx(100.0)


def test_cache_hit_rates_device_dependent(g80_tiled, fermi_tiled):
    g80 = derive_metrics(g80_tiled, G80)
    fermi = derive_metrics(fermi_tiled, GTX480)
    # the G80 has no global-path cache hierarchy
    assert g80["l1_hit_rate"] is None
    assert g80["l2_hit_rate"] is None
    # the Fermi part records real hit counters
    assert 0.0 <= fermi["l1_hit_rate"] <= 100.0
    assert 0.0 <= fermi["l2_hit_rate"] <= 100.0


def test_stall_breakdown_normalized(g80_tiled):
    vals = derive_metrics(g80_tiled, G80)
    breakdown = vals["warp_issue_stall_breakdown"]
    assert set(breakdown) == {"instruction issue", "SFU throughput",
                              "memory bandwidth", "memory latency"}
    assert sum(breakdown.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in breakdown.values())


def test_stall_breakdown_matches_timing_model(g80_tiled):
    cycles = g80_tiled.estimate.cycles_components()
    total = sum(cycles.values())
    vals = derive_metrics(g80_tiled, G80)
    for name, frac in vals["warp_issue_stall_breakdown"].items():
        assert frac == pytest.approx(cycles[name] / total)


def test_rate_metrics_positive_and_bounded(fermi_tiled):
    vals = derive_metrics(fermi_tiled, GTX480)
    assert 0 < vals["ipc"] <= 2.0
    assert 0 < vals["dram_throughput_pct"] <= 100.0
    assert 0 < vals["flop_sp_efficiency"] <= 100.0


# ----------------------------------------------------------------------
# Static side + deviation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", [G80, GTX480],
                         ids=["g80", "gtx_480"])
def test_static_counters_agree_with_measured(spec):
    """Counter-shaped metrics must be identical measured vs static —
    the census and the dynamic trace describe the same access
    pattern."""
    from repro.analysis.estimate import estimate_app
    rec = _ladder_record(spec)
    est = next(e for e in estimate_app("matmul", spec=spec)
               if e.kernel == rec.kernel)
    measured = derive_metrics(rec, spec)
    static = derive_metrics(LaunchRecord.from_estimate(est), spec)
    for name in ("gld_efficiency", "gst_efficiency",
                 "gld_transactions_per_request",
                 "gst_transactions_per_request", "achieved_occupancy"):
        assert static[name] == pytest.approx(measured[name]), name


def test_metric_deviation_shape_and_sign():
    measured = {"ipc": 0.2, "gld_efficiency": 100.0, "skip": None,
                "warp_issue_stall_breakdown": {"a": 1.0}}
    static = {"ipc": 0.1, "gld_efficiency": 100.0}
    dev = metric_deviation(measured, static)
    assert set(dev) == {"ipc", "gld_efficiency"}
    assert dev["ipc"]["deviation_pct"] == pytest.approx(-50.0)
    assert dev["gld_efficiency"]["deviation_pct"] == pytest.approx(0.0)
    text = format_deviation(dev)
    assert "ipc" in text and "-50.0%" in text


def test_format_derived_renders_na_and_units(g80_tiled):
    text = format_derived(g80_tiled, spec=G80)
    assert "derived metrics: mm_tiled_16x16" in text
    assert "n/a" in text            # cache rates on the G80
    assert "warp-inst/cycle" in text
