"""The provenance stamp ``benchmarks/perf_smoke.py`` writes into the
``BENCH_pipeline.json`` and ``BENCH_compile.json`` envelopes."""

import importlib.util
from pathlib import Path

SMOKE_PATH = (Path(__file__).resolve().parents[1]
              / "benchmarks" / "perf_smoke.py")


def _load_smoke():
    spec = importlib.util.spec_from_file_location("perf_smoke", SMOKE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_provenance_stamp_shape(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)                # the sha is the script's
    prov = _load_smoke().run_provenance()
    assert set(prov) == {"git_sha", "timestamp"}
    assert len(prov["git_sha"]) == 40
    assert "T" in prov["timestamp"]
