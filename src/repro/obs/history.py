"""Perf-history manifests: structured run records + regression gates.

The bench envelopes (``BENCH_pipeline.json``, ``BENCH_devices.json``)
are snapshots — each CI run overwrites the last, so a slow drift in
modelled GFLOPS or backend speedups is invisible until someone
eyeballs two artifacts.  This module gives the numbers a memory:

* :func:`manifest_from_pipeline` / :func:`manifest_from_devices`
  flatten an envelope into a **manifest** — provenance (device, git
  sha, UTC timestamp) plus a flat ``{metric_name: value}`` dict with
  dotted names (``devices.n512.gtx_480.ladder.tiled``);
* :func:`append_history` appends manifests to ``BENCH_history.jsonl``
  (one JSON object per line — trivially diffable and ``jq``-able);
* :func:`compare_to_baseline` checks a manifest against a committed
  baseline with a percentage gate.

Gating policy: only **deterministic modelled metrics** (ladder and
autotuner GFLOPS from the analytical model — identical on every
machine) belong in the committed baseline.  Wall-clock metrics
(backend speedups, stage seconds) are recorded in the history for
trend reading but are too noisy to gate merge on; the pipeline's own
floor checks in ``benchmarks/perf_smoke.py`` cover them with wide
margins.  All gated metrics are higher-is-better.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Dict, List, Sequence, Union

__all__ = [
    "run_provenance", "manifest_from_pipeline", "manifest_from_devices",
    "append_history", "load_history", "compare_to_baseline",
    "load_baseline", "baseline_from_manifests", "format_comparison",
]

SCHEMA_VERSION = 1


def run_provenance() -> Dict[str, str]:
    """Provenance stamp for bench envelopes: git sha + UTC timestamp."""
    from datetime import datetime, timezone
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except Exception:
        sha = "unknown"
    return {
        "git_sha": sha,
        "timestamp": datetime.now(timezone.utc)
        .isoformat(timespec="seconds"),
    }


def _base_manifest(payload: Dict[str, object], source: str
                   ) -> Dict[str, object]:
    return {
        "schema": SCHEMA_VERSION,
        "source": source,
        "git_sha": payload.get("git_sha", "unknown"),
        "timestamp": payload.get("timestamp", "unknown"),
    }


def manifest_from_pipeline(payload: Dict[str, object]
                           ) -> Dict[str, object]:
    """Manifest for a ``BENCH_pipeline.json`` envelope.

    Wall-clock metrics — recorded for trend reading, never gated.
    """
    m = _base_manifest(payload, "pipeline")
    m["device"] = payload.get("device", "unknown")
    metrics: Dict[str, float] = {}
    for key in ("sequential_seconds", "compiled_seconds",
                "compiled_speedup_vs_sequential"):
        if key in payload:
            metrics[f"pipeline.{key}"] = float(payload[key])
    overhead = payload.get("profiler_overhead", {})
    if isinstance(overhead, dict) and "overhead_pct" in overhead:
        metrics["pipeline.profiler_overhead_pct"] = \
            float(overhead["overhead_pct"])
    m["metrics"] = metrics
    return m


def manifest_from_devices(payload: Dict[str, object]
                          ) -> Dict[str, object]:
    """Manifest for a ``BENCH_devices.json`` envelope.

    Modelled GFLOPS — deterministic, so these are the gateable
    metrics.  Names carry the problem size (``devices.n512....``)
    because the model's numbers legitimately differ across sizes.
    """
    m = _base_manifest(payload, "devices")
    n = payload.get("n", 0)
    metrics: Dict[str, float] = {}
    for entry in payload.get("devices", ()):
        dev = entry["device"]
        prefix = f"devices.n{n}.{dev}"
        for variant, gflops in entry.get("ladder_gflops", {}).items():
            metrics[f"{prefix}.ladder.{variant}"] = float(gflops)
        tune = entry.get("autotune", {})
        if "winner_gflops" in tune:
            metrics[f"{prefix}.winner_gflops"] = \
                float(tune["winner_gflops"])
    m["metrics"] = metrics
    m["winners"] = {e["device"]: e["autotune"]["winner"]["label"]
                    for e in payload.get("devices", ())
                    if "autotune" in e}
    return m


# ----------------------------------------------------------------------
# History file (JSONL, append-only)
# ----------------------------------------------------------------------

def append_history(manifests: Sequence[Dict[str, object]],
                   path: Union[str, Path]) -> Path:
    path = Path(path)
    with path.open("a") as fh:
        for m in manifests:
            fh.write(json.dumps(m, sort_keys=True) + "\n")
    return path


def load_history(path: Union[str, Path]) -> List[Dict[str, object]]:
    path = Path(path)
    if not path.exists():
        return []
    out = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


# ----------------------------------------------------------------------
# Baseline + gate
# ----------------------------------------------------------------------

def load_baseline(path: Union[str, Path]) -> Dict[str, float]:
    """Committed baseline: ``{"gate_metrics": {name: value}}``."""
    payload = json.loads(Path(path).read_text())
    return {k: float(v) for k, v in payload.get("gate_metrics", {}).items()}


def baseline_from_manifests(manifests: Sequence[Dict[str, object]],
                            ) -> Dict[str, object]:
    """Baseline payload from the gateable metrics of ``manifests``
    (devices-source manifests only — see the gating policy above)."""
    gate: Dict[str, float] = {}
    for m in manifests:
        if m.get("source") == "devices":
            gate.update(m.get("metrics", {}))
    return {"schema": SCHEMA_VERSION, "gate_metrics": gate}


def compare_to_baseline(manifests: Sequence[Dict[str, object]],
                        baseline: Dict[str, float],
                        gate_pct: float,
                        ) -> List[Dict[str, object]]:
    """Compare current metrics against the baseline (higher-is-better).

    Returns one row per baseline metric found in the manifests, with
    ``status`` ``"ok"`` / ``"regression"`` / ``"improved"``; baseline
    metrics the run did not produce are reported as ``"missing"`` (a
    silently dropped benchmark should not pass the gate).
    """
    current: Dict[str, float] = {}
    for m in manifests:
        current.update(m.get("metrics", {}))
    rows = []
    for name, base in sorted(baseline.items()):
        if name not in current:
            rows.append({"metric": name, "baseline": base, "current": None,
                         "delta_pct": None, "status": "missing"})
            continue
        cur = current[name]
        delta = 100.0 * (cur - base) / base if base else 0.0
        if delta < -gate_pct:
            status = "regression"
        elif delta > gate_pct:
            status = "improved"
        else:
            status = "ok"
        rows.append({"metric": name, "baseline": base, "current": cur,
                     "delta_pct": round(delta, 2), "status": status})
    return rows


def format_comparison(rows: Sequence[Dict[str, object]],
                      gate_pct: float) -> str:
    if not rows:
        return "perf gate: no baseline metrics to compare"
    width = max(len(r["metric"]) for r in rows)
    lines = [f"perf gate (+/-{gate_pct:g}% on modelled metrics):"]
    for r in rows:
        if r["status"] == "missing":
            lines.append(f"  {r['metric']:<{width}}  baseline "
                         f"{r['baseline']:>9.2f}  current    MISSING")
            continue
        lines.append(
            f"  {r['metric']:<{width}}  baseline {r['baseline']:>9.2f}  "
            f"current {r['current']:>9.2f}  {r['delta_pct']:>+7.2f}%  "
            f"{r['status']}")
    bad = sum(1 for r in rows if r["status"] in ("regression", "missing"))
    lines.append(f"  -> {bad} failing / {len(rows)} gated metrics")
    return "\n".join(lines)
