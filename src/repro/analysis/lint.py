"""Lint CLI: run the static kernel analyzer over registered apps.

Usage::

    python -m repro.analysis.lint                  # whole suite
    python -m repro.analysis.lint matmul lbm       # selected apps
    python -m repro.analysis.lint --json           # machine-readable
    python -m repro.analysis.lint --fail-on high   # CI gate
    python -m repro.analysis.lint --estimate       # + static PerfEstimate
    python -m repro.analysis.lint --advise         # + optimization advice
    python -m repro.analysis.lint --device gtx_480 # another device profile
    python -m repro.analysis.lint --list-rules     # the R1-R8 catalogue

Each application contributes the representative launch geometries it
declares via :meth:`repro.apps.base.Application.lint_targets`; every
target is symbolically executed (:mod:`repro.analysis.interp`) and
scored by the hazard rules (:mod:`repro.analysis.rules`).  With
``--fail-on SEVERITY`` the process exits non-zero when any finding at
or above that severity is emitted — the repository gates CI on
``high`` (correctness hazards) and keeps ``medium``/``info``
advisory, since several shipped kernels intentionally exhibit the
paper's uncoalesced baselines.

``--estimate`` adds the static performance model
(:mod:`repro.analysis.estimate`): Section-4 bounds, liveness register
estimate and the predicted GFLOPS/bottleneck.  ``--advise``
additionally runs the optimization advisor
(:mod:`repro.analysis.advisor`), whose ranked transformation advice is
appended to each report's findings at ``info`` severity.

``--device NAME`` analyzes against any registered device profile
(:mod:`repro.arch.registry`) — coalescing verdicts, occupancy and
estimates all follow that device's rules.

JSON output is an object ``{"schema_version": N, "device": NAME,
"reports": [...]}`` with findings sorted by ``(kernel, line, rule)``
so CI diffs are deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from .findings import Finding, KernelReport, Severity
from .rules import RULES, analyze_target
from .targets import LintTarget

#: version of the ``--json`` envelope; bump on shape changes
#: (v3 added the top-level "device" field; v4 added the top-level
#: "rules" catalogue and per-report "divergence" summaries — R8;
#: v5 added per-report "compile" status — R6's verdict with the
#: compiler's refusal reason, mirroring ``compile_status``)
JSON_SCHEMA_VERSION = 5


def _finding_sort_key(finding: Finding):
    return (finding.kernel, finding.line or 0, finding.rule)


def linted_targets(names: Optional[Sequence[str]] = None,
                   spec: DeviceSpec = DEFAULT_DEVICE,
                   ) -> List[Tuple[LintTarget, KernelReport]]:
    """Analyze every lint target of several applications (default: all
    registered).  Each report stays with the target it came from, which
    holds the lint pass's census for the estimator."""
    from ..apps.registry import app_names, get_app
    return [(target, analyze_target(target, app=name, spec=spec))
            for name in (names if names else app_names())
            for target in get_app(name, spec).lint_targets()]


def lint_app(name: str, spec: DeviceSpec = DEFAULT_DEVICE
             ) -> List[KernelReport]:
    """Analyze every lint target one application declares."""
    return [report for _target, report in linted_targets([name], spec)]


def _format_report(report: KernelReport) -> str:
    occ = report.occupancy or {}
    lines = [
        f"{report.app}/{report.label}: grid={report.grid} "
        f"block={report.block} regs={report.regs_declared} "
        f"smem={report.smem_bytes}B "
        f"occupancy={occ.get('occupancy', 0.0):.2f} "
        f"(limiter: {occ.get('limited by', '?')})"
    ]
    for acc in report.accesses:
        verdict = acc.pattern
        if acc.space == "shared" and acc.conflict_degree is not None:
            verdict += f", {acc.conflict_degree}-way banks"
        elif acc.coalesced is True:
            verdict += ", coalesced"
        elif acc.coalesced is False:
            verdict += ", uncoalesced"
        lines.append(f"    {acc.space:6s} {acc.array:12s} {verdict}")
    for f in report.findings:
        lines.append("    " + f.format())
    if not report.findings:
        lines.append("    clean")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="static hazard analysis of the suite's kernels")
    parser.add_argument("apps", nargs="*",
                        help="application names (default: all registered)")
    parser.add_argument("--json", action="store_true",
                        help="emit reports as JSON")
    parser.add_argument("--fail-on", metavar="SEVERITY", default=None,
                        help="exit 1 if any finding is at or above this "
                             "severity (info|medium|high)")
    parser.add_argument("--estimate", action="store_true",
                        help="run the static performance estimator on "
                             "every target")
    parser.add_argument("--advise", action="store_true",
                        help="rank optimization passes by predicted "
                             "payoff (implies --estimate)")
    parser.add_argument("--device", metavar="NAME",
                        default="geforce_8800_gtx",
                        help="registered device profile to analyze "
                             "against (see repro.arch.registry)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the R1-R8 rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.name:16s} [{rule.severities:12s}] "
                  f"{rule.summary}")
        return 0

    from ..arch.registry import device_by_name
    try:
        spec = device_by_name(args.device)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    threshold = Severity.parse(args.fail_on) if args.fail_on else None
    linted = linted_targets(args.apps, spec)
    reports = [report for _target, report in linted]

    estimates = {}
    advisor_reports = {}
    if args.estimate or args.advise:
        from .advisor import advise_estimate
        from .estimate import estimate_target
        for target, report in linted:
            est = estimate_target(target, spec)
            estimates[id(report)] = est
            if args.advise:
                adv = advise_estimate(est, spec=spec)
                advisor_reports[id(report)] = adv
                report.findings.extend(adv.findings())

    for report in reports:
        report.findings.sort(key=_finding_sort_key)

    if args.json:
        payload = []
        for report in reports:
            entry = report.to_dict()
            est = estimates.get(id(report))
            if est is not None:
                entry["estimate"] = est.to_dict()
            adv = advisor_reports.get(id(report))
            if adv is not None:
                entry["advice"] = [a.to_dict() for a in adv.advice]
            payload.append(entry)
        print(json.dumps({"schema_version": JSON_SCHEMA_VERSION,
                          "device": args.device,
                          "rules": [r.to_dict() for r in RULES],
                          "reports": payload}, indent=2))
    else:
        from .advisor import format_advice
        from .estimate import format_estimate
        for report in reports:
            print(_format_report(report))
            est = estimates.get(id(report))
            if est is not None:
                print("    " + format_estimate(est).replace("\n", "\n    "))
            adv = advisor_reports.get(id(report))
            if adv is not None and adv.advice:
                print("    " + format_advice(adv).replace("\n", "\n    "))
        totals = {s: sum(r.count(s) for r in reports) for s in Severity}
        print(f"{len(reports)} kernels: "
              + ", ".join(f"{totals[s]} {s}" for s in
                          (Severity.HIGH, Severity.MEDIUM, Severity.INFO)))

    if threshold is not None:
        worst = [f for r in reports for f in r.findings
                 if f.severity >= threshold]
        if worst:
            print(f"FAIL: {len(worst)} finding(s) at or above "
                  f"{threshold}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
