"""Sanitizer CLI — the suite's ``cuda-memcheck`` front-end.

Usage::

    python -m repro.san.check                      # all apps, all tools
    python -m repro.san.check matmul lbm           # selected apps
    python -m repro.san.check --tool racecheck     # one tool (repeatable)
    python -m repro.san.check --json               # machine-readable
    python -m repro.san.check --fail-on high       # exit 1 on a HIGH
    python -m repro.san.check --device gtx_480     # another device profile

Each selected application's test workload runs to completion under a
:class:`~repro.cuda.executors.SanitizedExecutor`; like the real tool,
one run reports *every* violation (out-of-bounds accesses are clamped
and execution continues).  With ``--fail-on SEVERITY`` the process
exits non-zero when any finding at or above that severity is emitted —
the suite's test workloads run clean at ``high``.

The deliberately broken kernels of :mod:`repro.san.broken` are the
sanitizers' negative tests: the broken sweep of
``python -m repro.analysis.validate`` requires each to be caught at
HIGH by both the sanitizers and the static analyzer.

JSON output is an object ``{"schema_version": 1, "device": NAME,
"tools": [...], "reports": [...]}`` with per-app findings and the
observed launch-dataflow log, deterministically ordered.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..analysis.findings import Severity
from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from .state import SAN_RULES, SanState, TOOLS

#: version of the ``--json`` envelope; bump on shape changes
JSON_SCHEMA_VERSION = 1


def check_app(name: str, tools: Optional[Sequence[str]],
              spec: DeviceSpec) -> SanState:
    """Run one application's test workload under the sanitizer."""
    from ..apps.registry import get_app
    from ..cuda.executors import SanitizedExecutor
    app = get_app(name, spec)
    ex = SanitizedExecutor(tools=tools)
    app.executor = ex
    app.run(app.default_workload("test"), functional=True)
    return ex.state


def _format_app(name: str, state: SanState) -> str:
    findings = state.all_findings()
    if not findings:
        return f"{name}: clean"
    lines = [f"{name}: {len(findings)} finding(s)"]
    for f in findings:
        lines.append(f"    {SAN_RULES.get(f.rule, '?')}: {f.format()}")
    return "\n".join(lines)


def _run_apps(args, spec: DeviceSpec) -> int:
    from ..apps.registry import app_names
    names = args.apps if args.apps else app_names()
    tools = args.tool if args.tool else None
    reports = []
    worst = 0
    for name in names:
        state = check_app(name, tools, spec)
        findings = state.all_findings()
        worst = max(worst, max((int(f.severity) for f in findings),
                               default=0))
        reports.append((name, state))
    if args.json:
        json.dump({
            "schema_version": JSON_SCHEMA_VERSION,
            "device": spec.name,
            "tools": sorted(tools) if tools else sorted(TOOLS),
            "reports": [{"app": name, **state.to_dict()}
                        for name, state in reports],
        }, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        for name, state in reports:
            print(_format_app(name, state))
    if args.fail_on is not None and worst >= int(Severity.parse(args.fail_on)):
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.san.check",
        description="run the dynamic sanitizers over application "
                    "test workloads")
    parser.add_argument("apps", nargs="*",
                        help="application names (default: all registered)")
    parser.add_argument("--tool", action="append", choices=list(TOOLS),
                        metavar="TOOL",
                        help=f"enable one tool of {list(TOOLS)} "
                             f"(repeatable; default: all)")
    parser.add_argument("--json", action="store_true",
                        help="emit reports as JSON")
    parser.add_argument("--fail-on", metavar="SEVERITY", default=None,
                        help="exit 1 if any finding is at or above this "
                             "severity (info|medium|high)")
    parser.add_argument("--device", metavar="NAME", default=None,
                        help="device profile to sanitize on")
    args = parser.parse_args(argv)
    spec = DEFAULT_DEVICE
    if args.device:
        from ..arch.registry import device_by_name
        spec = device_by_name(args.device)
    return _run_apps(args, spec)


if __name__ == "__main__":
    sys.exit(main())
