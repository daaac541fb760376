"""Trace-counter golden for every application and broken kernel.

The sequential-vs-compiled bit-identity tests cannot see a change to
the trace accounting itself: both backends trace their sample blocks
through the same :class:`~repro.cuda.context.BlockContext`.  This test
pins the counters that accounting produces — ``KernelTrace.summary()``,
the per-class warp and thread instruction counts, the per-array global
traffic and the cache hit/miss counts — for

* each of the 13 applications' trace-sampled test-scale run, on the
  G80 (``geforce_8800_gtx``, strict-segment coalescing, 16 banks) and
  on Fermi (``gtx_480``, cached-line coalescing, 32 banks, L1/L2);
* each kernel of the sanitizer's broken catalogue, run sanitized.

Regenerate ``golden_traces.json`` only when a change is about model
fidelity::

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.apps.registry import app_names, get_app
from repro.arch.device import geforce_8800_gtx, gtx_480
from repro.san.broken import BROKEN

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"
DEVICES = {"geforce_8800_gtx": geforce_8800_gtx, "gtx_480": gtx_480}


def _num(value):
    """Counters to 12 significant digits, so the golden is stable
    across platforms' last-bit float formatting."""
    return float(f"{float(value):.12g}")


def trace_counters(trace) -> Dict[str, object]:
    """Every counter the accounting layer writes into one trace."""
    out: Dict[str, object] = {k: _num(v) for k, v in trace.summary().items()}
    out["warp_insts"] = {cls.value: _num(n) for cls, n in sorted(
        trace.warp_insts.items(), key=lambda kv: kv[0].value)}
    out["thread_insts"] = {cls.value: _num(n) for cls, n in sorted(
        trace.thread_insts.items(), key=lambda kv: kv[0].value)}
    out["per_array"] = {
        name: [_num(s.warp_accesses), _num(s.transactions),
               _num(s.bus_bytes), _num(s.useful_bytes),
               _num(s.coalesced_accesses)]
        for name, s in sorted(trace.per_array.items())}
    out["caches"] = [_num(getattr(trace, f)) for f in (
        "const_hits", "const_misses", "tex_hits", "tex_misses",
        "l1_hits", "l1_misses", "l2_hits", "l2_misses")]
    return out


def app_record(name: str, device: str):
    app = get_app(name, DEVICES[device]())
    run = app.run(app.default_workload("test"), functional=False)
    return [trace_counters(launch.trace) for launch in run.launches]


def broken_record(name: str):
    bk = next(b for b in BROKEN if b.name == name)
    return trace_counters(bk.run().trace)


def cases():
    for device in DEVICES:
        for name in app_names():
            yield f"app:{device}:{name}"
    for bk in BROKEN:
        yield f"broken:{bk.name}"


def record(case: str):
    kind, rest = case.split(":", 1)
    if kind == "app":
        device, name = rest.split(":", 1)
        return app_record(name, device)
    return broken_record(rest)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())
    assert len(list(cases())) == 2 * 13 + 10


@pytest.mark.parametrize("case", list(cases()))
def test_trace_counters_match_golden(case, golden):
    got = json.loads(json.dumps(record(case)))
    assert got == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_traces.py --write")
    data = {case: record(case) for case in cases()}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN_PATH}")
