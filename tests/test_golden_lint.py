"""Census, lint and register golden for every lint target.

The static analyses read a kernel's source, not its execution: the
abstract interpreter (census and rules R1–R7), the R8 uniformity
dataflow over the kernel IR, and the liveness register estimate.  A
change to how that source is fetched, parsed or cached must leave
every verdict unchanged.  This test pins, for each application's lint
targets (20 per device) on the G80 (``geforce_8800_gtx``) and on Fermi
(``gtx_480``):

* the census ``summary()`` and its trace's ``summary()``;
* ``analyze_target(...).to_dict()`` — every finding, access summary,
  occupancy, divergence and compile verdict;
* ``estimate_registers(kernel).to_dict()`` plus its value classes.

Finding lines and access sites are stored relative to the kernel's
``co_firstlineno``, so edits elsewhere in an application's file do not
move the golden.  Regenerate ``golden_lint.json`` only when a change is
about model fidelity::

    PYTHONPATH=src python tests/test_golden_lint.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis.census import census_target
from repro.analysis.liveness import estimate_registers
from repro.analysis.rules import analyze_target
from repro.apps.registry import app_names, get_app
from repro.arch.device import geforce_8800_gtx, gtx_480

GOLDEN_PATH = Path(__file__).parent / "golden_lint.json"
DEVICES = {"geforce_8800_gtx": geforce_8800_gtx, "gtx_480": gtx_480}


def target_record(target, app: str, spec) -> Dict[str, object]:
    """Every static verdict of one lint target, lines made relative."""
    base = target.kernel.fn.__code__.co_firstlineno
    census = census_target(target, spec)
    report = analyze_target(target, app=app, spec=spec).to_dict()
    for finding in report["findings"]:
        if finding["line"] is not None:
            finding["line"] -= base
    for access in report["accesses"]:
        access["sites"] = [site - base for site in access["sites"]]
    registers = estimate_registers(target.kernel)
    return {
        "census": census.summary(),
        "trace": census.trace.summary(),
        "lint": report,
        "registers": {**registers.to_dict(), "classes": registers.classes},
    }


def app_records(name: str, device: str) -> List[Dict[str, object]]:
    spec = DEVICES[device]()
    return [target_record(target, name, spec)
            for target in get_app(name, spec).lint_targets()]


def cases():
    for device in DEVICES:
        for name in app_names():
            yield f"{device}/{name}"


def record(case: str) -> List[Dict[str, object]]:
    device, name = case.split("/", 1)
    return app_records(name, device)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_lint_target(golden):
    assert sorted(golden) == sorted(cases())
    for device in DEVICES:
        assert sum(len(golden[f"{device}/{name}"])
                   for name in app_names()) == 20


@pytest.mark.parametrize("case", list(cases()))
def test_lint_verdicts_match_golden(case, golden):
    got = json.loads(json.dumps(record(case)))
    assert got == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_lint.py --write")
    data = {case: record(case) for case in cases()}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN_PATH}")
