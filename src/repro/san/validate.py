"""Cross-validation: the static analyzer against the dynamic sanitizers.

Two independent detectors look at the same kernels — the abstract
interpreter with its hazard rules (:mod:`repro.analysis`) and the
shadow-memory sanitizers running real executions (:mod:`repro.san`).
This harness demands they agree:

* **clean sweep** — every registered application's test workload must
  be flagged by *neither* side (no HIGH findings statically, none
  dynamically);
* **broken sweep** — every kernel in :data:`repro.san.broken.BROKEN`
  must be caught at HIGH by *both* sides, through the expected rule;
* **dataflow sweep** — the static inter-launch dataflow rule (R7)
  must classify every array exactly as the sanitizer's observed
  launch log does, for the multi-launch applications;
* **identity sweep** — sanitizing must not perturb results: the
  sanitized run's outputs are bit-identical to the plain run's.

Run as ``python -m repro.san.validate`` (exit 1 on any disagreement);
the CI ``san`` job gates on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.findings import Severity
from ..analysis.lint import lint_app
from ..analysis.rules import classify_dataflow, launch_dataflow
from ..analysis.validate import Check
from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from .broken import BROKEN
from .state import SanState

#: static-analyzer rules that mirror a sanitizer tool (the lint suite
#: also emits performance rules — coalescing, occupancy — that have no
#: dynamic counterpart and stay out of the verdict)
STATIC_SAN_RULES = frozenset(
    {"shared-race", "divergent-sync", "bounds", "shared-uninit",
     "divergence"})

#: multi-launch applications whose R7 classification is cross-checked
DATAFLOW_APPS = ("lbm", "fdtd", "mri-fhd")

#: applications for the bit-identity sweep (one global-only, one
#: shared-tiled, one multi-launch)
IDENTITY_APPS = ("saxpy", "matmul", "lbm")


def _static_verdict(app_name: str, spec: DeviceSpec) -> bool:
    """True when the static analyzer flags a sanitizer-class HIGH."""
    for report in lint_app(app_name, spec):
        for f in report.findings:
            if f.severity >= Severity.HIGH and f.rule in STATIC_SAN_RULES:
                return True
    return False


def _sanitized_run(app_name: str, spec: DeviceSpec):
    """Run one app's test workload under the sanitizer; returns
    (SanState, AppRun)."""
    from ..apps.registry import get_app
    from ..cuda.executors import SanitizedExecutor
    app = get_app(app_name, spec)
    ex = SanitizedExecutor()
    app.executor = ex
    run = app.run(app.default_workload("test"), functional=True)
    return ex.state, run


def _dynamic_verdict(state: SanState) -> bool:
    return bool(state.high_findings())


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def clean_checks(spec: DeviceSpec = DEFAULT_DEVICE,
                 apps: Optional[Sequence[str]] = None) -> List[Check]:
    from ..apps.registry import app_names
    checks = []
    for name in (apps if apps else app_names()):
        static = _static_verdict(name, spec)
        state, _run = _sanitized_run(name, spec)
        dynamic = _dynamic_verdict(state)
        checks.append(Check(name, "clean app unflagged by both sides",
                            static, dynamic,
                            ok=not static and not dynamic))
    return checks


def broken_checks(spec: DeviceSpec = DEFAULT_DEVICE) -> List[Check]:
    from ..analysis.rules import analyze_target
    checks = []
    for bk in BROKEN:
        report = analyze_target(bk.target(), app="broken", spec=spec)
        static_hit = {f.rule for f in report.findings
                      if f.severity >= Severity.HIGH
                      and f.rule in STATIC_SAN_RULES}
        result = bk.run()
        dynamic_hit = {f.rule for f in result.san.all_findings()
                       if f.severity >= Severity.HIGH}
        static = bool(static_hit & bk.static_rules)
        dynamic = bool(dynamic_hit & bk.dynamic_rules)
        checks.append(Check(
            bk.name, f"caught by both sides ({bk.bug}; tool={bk.tool})",
            sorted(static_hit) if static else "MISSED",
            sorted(dynamic_hit) if dynamic else "MISSED",
            ok=static and dynamic))
    return checks


def dataflow_checks(spec: DeviceSpec = DEFAULT_DEVICE) -> List[Check]:
    """R7's abstract-interpretation classification vs the launch log
    the sanitizer actually observed."""
    checks = []
    for name in DATAFLOW_APPS:
        flow = launch_dataflow(name, spec)
        state, _run = _sanitized_run(name, spec)
        observed = classify_dataflow(state.launch_accesses())
        for array in sorted(set(flow.arrays) | set(observed)):
            s = flow.arrays.get(array)
            d = observed.get(array)
            s_cls = s.classification if s else "absent"
            d_cls = d.classification if d else "absent"
            checks.append(Check(
                f"{name}/{array}", "launch-dataflow class agrees",
                s_cls, d_cls, ok=s_cls == d_cls))
    return checks


def identity_checks(spec: DeviceSpec = DEFAULT_DEVICE) -> List[Check]:
    """Sanitized execution must not perturb functional results."""
    from ..apps.registry import get_app
    checks = []
    for name in IDENTITY_APPS:
        wl = get_app(name, spec).default_workload("test")
        plain = get_app(name, spec).run(wl, functional=True)
        _state, sanitized = _sanitized_run(name, spec)
        identical = set(plain.outputs) == set(sanitized.outputs) and all(
            np.array_equal(plain.outputs[k], sanitized.outputs[k])
            for k in plain.outputs)
        checks.append(Check(name, "sanitized outputs bit-identical",
                            "reference", "identical" if identical
                            else "DIVERGED", ok=identical))
    return checks


def all_checks(spec: DeviceSpec = DEFAULT_DEVICE) -> List[Check]:
    return (clean_checks(spec) + broken_checks(spec)
            + dataflow_checks(spec) + identity_checks(spec))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.san.validate",
        description="cross-validate the static analyzer against the "
                    "dynamic sanitizers")
    parser.add_argument("--json", action="store_true",
                        help="emit checks as JSON")
    parser.add_argument("--device", metavar="NAME", default=None,
                        help="device profile to validate on")
    args = parser.parse_args(argv)
    spec = DEFAULT_DEVICE
    if args.device:
        from ..arch.registry import device_by_name
        spec = device_by_name(args.device)
    checks = all_checks(spec)
    failed = [c for c in checks if not c.ok]
    if args.json:
        json.dump({"device": spec.name,
                   "checks": [c.to_dict() for c in checks],
                   "failed": len(failed)},
                  sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        for c in checks:
            print(c.format())
        print(f"\n{len(checks)} checks, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
