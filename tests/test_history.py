"""Perf history: manifest flattening, JSONL round trips, the gate CLI.

The regression gate is itself gated here: a clean run must exit 0 and
a synthetically injected slowdown must trip it — the property CI's
``obs-history`` job re-checks on every push.
"""

import json

import pytest

from repro.bench.history import collect_manifests, main as history_main
from repro.obs.history import (append_history, baseline_from_manifests,
                               compare_to_baseline, format_comparison,
                               load_baseline, load_history,
                               manifest_from_devices,
                               manifest_from_pipeline, run_provenance)

DEVICES_PAYLOAD = {
    "benchmark": "cross_device_retune",
    "n": 256,
    "git_sha": "abc123def4567890abc123def4567890abc123de",
    "timestamp": "2026-08-08T00:00:00+00:00",
    "devices": [
        {"device": "geforce_8800_gtx",
         "ladder_gflops": {"naive": 10.5, "tiled": 42.7},
         "autotune": {"winner": {"label": "16x16 unrolled"},
                      "winner_gflops": 87.2}},
        {"device": "gtx_480",
         "ladder_gflops": {"naive": 46.4},
         "autotune": {"winner": {"label": "24x24 unrolled"},
                      "winner_gflops": 294.7}},
    ],
}

PIPELINE_PAYLOAD = {
    "benchmark": "pipeline_perf_smoke",
    "device": "GeForce 8800 GTX",
    "git_sha": "abc123def4567890abc123def4567890abc123de",
    "timestamp": "2026-08-08T00:00:00+00:00",
    "sequential_seconds": 20.0,
    "compiled_seconds": 0.5,
    "compiled_speedup_vs_sequential": 40.0,
    "profiler_overhead": {"overhead_pct": 1.2},
}


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------

def test_devices_manifest_flattens_with_n_in_key():
    m = manifest_from_devices(DEVICES_PAYLOAD)
    assert m["source"] == "devices"
    assert m["git_sha"].startswith("abc123")
    assert m["metrics"]["devices.n256.geforce_8800_gtx.ladder.naive"] \
        == pytest.approx(10.5)
    assert m["metrics"]["devices.n256.gtx_480.winner_gflops"] \
        == pytest.approx(294.7)
    assert m["winners"]["gtx_480"] == "24x24 unrolled"


def test_pipeline_manifest_records_wallclock_metrics():
    m = manifest_from_pipeline(PIPELINE_PAYLOAD)
    assert m["source"] == "pipeline"
    assert m["device"] == "GeForce 8800 GTX"
    assert m["metrics"]["pipeline.compiled_speedup_vs_sequential"] \
        == pytest.approx(40.0)
    assert m["metrics"]["pipeline.profiler_overhead_pct"] \
        == pytest.approx(1.2)


def test_provenance_stamp_shape():
    prov = run_provenance()
    assert set(prov) == {"git_sha", "timestamp"}
    assert len(prov["git_sha"]) == 40          # runs inside the repo
    assert "T" in prov["timestamp"]


# ----------------------------------------------------------------------
# History file + baseline comparison
# ----------------------------------------------------------------------

def test_history_append_and_load_round_trip(tmp_path):
    path = tmp_path / "hist.jsonl"
    m1 = manifest_from_devices(DEVICES_PAYLOAD)
    m2 = manifest_from_pipeline(PIPELINE_PAYLOAD)
    append_history([m1], path)
    append_history([m2], path)
    loaded = load_history(path)
    assert [m["source"] for m in loaded] == ["devices", "pipeline"]
    assert loaded[0]["metrics"] == m1["metrics"]
    assert load_history(tmp_path / "absent.jsonl") == []


def test_baseline_uses_only_deterministic_metrics():
    payload = baseline_from_manifests([
        manifest_from_devices(DEVICES_PAYLOAD),
        manifest_from_pipeline(PIPELINE_PAYLOAD),
    ])
    assert all(k.startswith("devices.") for k in payload["gate_metrics"])
    assert payload["gate_metrics"]


def test_compare_statuses():
    baseline = {"m.ok": 100.0, "m.regressed": 100.0,
                "m.improved": 100.0, "m.gone": 100.0}
    manifests = [{"source": "devices",
                  "metrics": {"m.ok": 95.0, "m.regressed": 80.0,
                              "m.improved": 120.0}}]
    rows = compare_to_baseline(manifests, baseline, gate_pct=10.0)
    status = {r["metric"]: r["status"] for r in rows}
    assert status == {"m.ok": "ok", "m.regressed": "regression",
                      "m.improved": "improved", "m.gone": "missing"}
    text = format_comparison(rows, 10.0)
    assert "regression" in text and "MISSING" in text
    assert "2 failing / 4 gated" in text


# ----------------------------------------------------------------------
# CLI (the acceptance self-test)
# ----------------------------------------------------------------------

def _cli_files(tmp_path):
    devices = tmp_path / "BENCH_devices.json"
    devices.write_text(json.dumps(DEVICES_PAYLOAD))
    history = tmp_path / "BENCH_history.jsonl"
    baseline = tmp_path / "baseline.json"
    return devices, history, baseline


def _run(devices, history, baseline, *extra):
    return history_main([
        "--pipeline", "/nonexistent/BENCH_pipeline.json",
        "--devices", str(devices), "--history", str(history),
        "--baseline", str(baseline), *extra])


def test_cli_update_baseline_then_clean_gate(tmp_path, capsys):
    devices, history, baseline = _cli_files(tmp_path)
    assert _run(devices, history, baseline, "--update-baseline") == 0
    assert load_baseline(baseline)
    # real (unchanged) run passes a 10% gate and appends to history
    assert _run(devices, history, baseline, "--gate", "10") == 0
    assert len(load_history(history)) == 2
    assert "OK" in capsys.readouterr().out


def test_cli_gate_trips_on_injected_slowdown(tmp_path, capsys):
    devices, history, baseline = _cli_files(tmp_path)
    _run(devices, history, baseline, "--update-baseline")
    code = _run(devices, history, baseline, "--gate", "10",
                "--inject-slowdown", "15", "--no-append")
    assert code == 3
    out = capsys.readouterr()
    assert "regression" in out.out
    # --no-append left the history at the update run only
    assert len(load_history(history)) == 1


def test_cli_small_slowdown_stays_within_gate(tmp_path):
    devices, history, baseline = _cli_files(tmp_path)
    _run(devices, history, baseline, "--update-baseline")
    assert _run(devices, history, baseline, "--gate", "10",
                "--inject-slowdown", "5", "--no-append") == 0


def test_cli_errors(tmp_path):
    devices, history, baseline = _cli_files(tmp_path)
    # no envelopes at all
    assert history_main(["--pipeline", "/none", "--devices", "/none"]) == 2
    # gate without a baseline file
    assert _run(devices, history, tmp_path / "no_baseline.json",
                "--gate", "10") == 2


def test_collect_manifests_skips_absent(tmp_path):
    devices, _, _ = _cli_files(tmp_path)
    manifests = collect_manifests(tmp_path / "absent.json", devices)
    assert [m["source"] for m in manifests] == ["devices"]


def test_committed_baseline_matches_schema():
    """The repo's committed baseline must stay loadable and gated on
    deterministic devices metrics only."""
    from repro.bench.history import DEFAULT_BASELINE
    assert DEFAULT_BASELINE.exists()
    baseline = load_baseline(DEFAULT_BASELINE)
    assert baseline
    assert all(k.startswith("devices.n256.") for k in baseline)
