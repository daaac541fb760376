"""Cross-validate static analyzer verdicts against dynamic execution.

The analyzer's value rests on its verdicts *agreeing with the
simulator*: a statically "coalesced" array must show 1.0 transactions
per coalescing-group access when the kernel actually runs, a
"conflict-free"
shared buffer must produce zero bank-conflict serialization cycles,
and the occupancy the analyzer predicts from declared resources must
match what :func:`repro.sim.occupancy.occupancy_for_launch` computes
for the executed launch.  Its hazard verdicts must agree with the
sanitizers (:mod:`repro.san`) on the same kernels.

This is the one cross-validation driver::

    python -m repro.analysis.validate            # human-readable
    python -m repro.analysis.validate --json     # the checks as JSON

Each sweep computes every expensive result once, for all the checks
that read it:

* :func:`validation_checks` — the Section 4 matmul ladder (naive →
  tiled → tiled_unrolled → prefetch) plus saxpy, each verdict against
  the trace of one trace-only run, with the app sweep's lint reports;
* :func:`app_checks` — every application, linted once, sanitized once
  and run trace-only once: R8, trace vs warpsim, the clean check, R7's
  launch dataflow and sanitized bit-identity;
* :func:`broken_checks` — :data:`repro.san.broken.BROKEN`, each
  kernel analyzed once and run once under the sanitizers;
* :func:`estimator_checks` — the static performance estimator
  (:mod:`repro.analysis.estimate`) against the timing simulator at
  n=256:

  * each kernel's statically predicted GFLOPS matches the simulated
    launch within tolerance, with matching bottleneck attribution;
  * the ladder ordering reproduces the paper's Section 4 story
    (naive < tiled < tiled+unrolled, prefetch slightly *slower* than
    unrolled, 4x4 tiles *worse* than untiled — Figure 4);
  * the closed-form anchors land where the paper computed them: naive
    is bandwidth-bound with a ~43.2 GFLOPS compute potential, the
    unrolled kernel compute-bound near 93.72 GFLOPS potential;
  * liveness register estimates reproduce the 10/9/11 regs/thread
    anecdotes and the resulting blocks/SM.

``--golden PATH`` additionally gates each kernel's
predicted/simulated ratio against a checked-in golden file, failing
on >10% drift; ``--write-golden PATH`` computes only the estimator
pairs, writes their ratios to PATH and exits.

Exit status is non-zero if any check disagrees.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..cuda.launch import LaunchResult, launch as run_launch
from ..cuda.memory import Device
from ..sim.occupancy import occupancy_for_launch
from ..sim.timing import KernelTimeEstimate, estimate_kernel_time
from ..trace.trace import KernelTrace
from .estimate import PerfEstimate, estimate_target
from .findings import KernelReport, Severity
from .rules import analyze_target
from .targets import LintArray, LintTarget

#: matmul variants in the paper's optimization order
MATMUL_LADDER = ("naive", "tiled", "tiled_unrolled", "prefetch")

#: problem size for estimator validation — large enough that the 12 µs
#: launch overhead is noise, small enough for the interpreter's loop cap
ESTIMATOR_N = 256

#: relative tolerance for static-vs-simulated GFLOPS agreement
ESTIMATOR_RTOL = 0.10

#: golden-file drift tolerance for the CI regression gate
GOLDEN_RTOL = 0.10


def _python_scalar(value: object) -> object:
    return value.item() if isinstance(value, np.generic) else value


@dataclass
class Check:
    """One static-vs-dynamic agreement check.

    ``subject`` names what was checked: a kernel, ``app/kernel``, a
    broken-catalogue entry or an application.  NumPy scalars are stored
    as the Python scalars they print as, so :meth:`to_dict` is JSON.
    """

    subject: str
    check: str                # what was compared
    static: object            # the analyzer's verdict
    dynamic: object           # the simulator's measurement
    ok: bool

    def __post_init__(self) -> None:
        self.static = _python_scalar(self.static)
        self.dynamic = _python_scalar(self.dynamic)
        self.ok = bool(self.ok)

    def format(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return (f"[{mark}] {self.subject}: {self.check}: "
                f"static={self.static} dynamic={self.dynamic}")

    def to_dict(self) -> Dict[str, object]:
        return {"subject": self.subject, "check": self.check,
                "static": self.static, "dynamic": self.dynamic,
                "ok": self.ok}


def _coalescing_checks(report: KernelReport, trace: KernelTrace,
                       tol: float = 1e-9) -> List[Check]:
    """Per-array: static coalesced ⇔ dynamic transactions/access == 1."""
    checks: List[Check] = []
    for acc in report.accesses:
        if acc.space != "global":
            continue
        stats = trace.per_array.get(acc.array)
        tpa = (round(stats.transactions_per_access, 4)
               if stats is not None else 0.0)
        if tpa == 0.0:                  # array untouched in the trace
            continue
        if acc.coalesced is True:
            ok = abs(tpa - 1.0) <= 1e-3
            checks.append(Check(report.kernel,
                                f"{acc.array} coalesced", True,
                                f"tpa={tpa}", ok))
        elif acc.coalesced is False:
            checks.append(Check(report.kernel,
                                f"{acc.array} uncoalesced ({acc.pattern})",
                                False, f"tpa={tpa}", tpa > 1.0 + tol))
        # coalesced is None (data-dependent verdict withheld): nothing
        # definite to cross-check
    return checks


def _conflict_check(report: KernelReport, trace: KernelTrace
                    ) -> List[Check]:
    """Static max bank-conflict degree ⇔ dynamic serialization cycles."""
    degrees = [acc.conflict_degree or 1 for acc in report.accesses
               if acc.space == "shared"]
    if not degrees:
        return []
    worst = max(degrees)
    cycles = trace.shared_conflict_cycles
    ok = (cycles == 0.0) if worst <= 1 else (cycles > 0.0)
    return [Check(report.kernel, "bank conflicts",
                  f"degree={worst}", f"cycles={cycles}", ok)]


def _occupancy_check(report: KernelReport, result) -> List[Check]:
    """Static resource-derived occupancy ⇔ executed-launch occupancy."""
    dyn = occupancy_for_launch(result).describe()
    sta = report.occupancy
    keys = ("blocks/SM", "threads/SM", "occupancy", "limited by")
    ok = all(sta.get(k) == dyn.get(k) for k in keys)
    return [Check(report.kernel, "occupancy",
                  {k: sta.get(k) for k in keys},
                  {k: dyn.get(k) for k in keys}, ok)]


#: lint reports by application and lint-target note
Reports = Dict[str, Dict[str, KernelReport]]


def _validate_app(name: str, workloads: Sequence[Dict[str, object]],
                  spec: DeviceSpec, reports: Dict[str, KernelReport]
                  ) -> List[Check]:
    """Each workload's launch against the lint report of the target
    noted with its variant, taken from ``reports`` when it is there."""
    from ..apps.registry import get_app
    app = get_app(name, spec)
    targets = {t.note: t for t in app.lint_targets()}
    checks: List[Check] = []
    for workload in workloads:
        note = str(workload.get("variant", ""))
        report = reports.get(note)
        if report is None:
            if note not in targets:
                raise KeyError(f"{name} has no lint target noted {note!r}")
            report = analyze_target(targets[note], app=name, spec=spec)
        result = app.run(dict(workload), functional=False).launches[0]
        assert result.kernel.name == report.kernel, \
            f"launch ran {result.kernel.name}, analyzer saw {report.kernel}"
        checks.extend(_coalescing_checks(report, result.trace))
        checks.extend(_conflict_check(report, result.trace))
        checks.extend(_occupancy_check(report, result))
    return checks


def validation_checks(spec: DeviceSpec = DEFAULT_DEVICE,
                      reports: Optional[Reports] = None) -> List[Check]:
    """All static-vs-dynamic checks for the matmul ladder and saxpy.

    ``reports`` holds lint reports already made (the app sweep's, see
    :func:`app_checks`); the ladder lints only the targets it lacks."""
    reports = reports if reports is not None else {}
    checks = _validate_app(
        "matmul",
        [{"n": 64, "variant": v, "tile": 16, "trace_blocks": 16}
         for v in MATMUL_LADDER], spec, reports.get("matmul", {}))
    checks.extend(_validate_app(
        "saxpy",
        [{"n": 4096, "a": 2.5, "iterations": 1, "trace_blocks": 16}],
        spec, reports.get("saxpy", {})))
    return checks


# ----------------------------------------------------------------------
# Static performance estimator vs timing simulator
# ----------------------------------------------------------------------

def _matmul_estimator_target(variant: str, tile: int = 16,
                             note: Optional[str] = None):
    from ..apps.matmul import build_kernel
    from .targets import garr
    n = ESTIMATOR_N
    block = 16 if variant == "naive" else tile
    args = (garr("A", n * n), garr("B", n * n), garr("C", n * n), n)
    return LintTarget(build_kernel(variant, tile),
                      (n // block, n // block), (block, block),
                      args, note=note if note is not None else variant)


def _estimator_workloads() -> List[Tuple[str, str, Dict[str, object]]]:
    """(label, app, simulated workload) for every estimator target."""
    rows: List[Tuple[str, str, Dict[str, object]]] = []
    for variant in MATMUL_LADDER:
        rows.append((f"matmul/{variant}", "matmul",
                     {"n": ESTIMATOR_N, "variant": variant, "tile": 16,
                      "trace_blocks": 2}))
    rows.append(("matmul/tiled_4x4", "matmul",
                 {"n": ESTIMATOR_N, "variant": "tiled", "tile": 4,
                  "trace_blocks": 2}))
    rows.append(("saxpy", "saxpy",
                 {"n": 4096, "a": 2.5, "iterations": 1,
                  "trace_blocks": 4}))
    return rows


def _estimator_target(label: str, spec: DeviceSpec):
    if label == "matmul/tiled_4x4":
        return _matmul_estimator_target("tiled", tile=4, note="tiled_4x4")
    if label.startswith("matmul/"):
        return _matmul_estimator_target(label.split("/", 1)[1])
    from ..apps.registry import get_app
    return get_app("saxpy", spec).lint_targets()[0]


def estimator_pairs(spec: DeviceSpec = DEFAULT_DEVICE
                    ) -> List[Tuple[str, PerfEstimate,
                                    KernelTimeEstimate]]:
    """(label, static estimate, simulated estimate) for the matmul
    ladder (+4x4 tiles) and saxpy."""
    from ..apps.registry import get_app
    pairs = []
    for label, app_name, workload in _estimator_workloads():
        static = estimate_target(_estimator_target(label, spec), spec)
        run = get_app(app_name, spec).run(dict(workload),
                                          functional=False)
        simulated = estimate_kernel_time(run.launches[0])
        pairs.append((label, static, simulated))
    return pairs


def estimator_checks(spec: DeviceSpec = DEFAULT_DEVICE,
                     pairs: Optional[List[Tuple[str, PerfEstimate,
                                                KernelTimeEstimate]]]
                     = None) -> List[Check]:
    """Static-estimator validation (see module docstring)."""
    pairs = pairs if pairs is not None else estimator_pairs(spec)
    by_label = {label: (est, sim) for label, est, sim in pairs}
    checks: List[Check] = []

    # 1. each prediction brackets the simulator within tolerance,
    #    with matching bottleneck attribution
    for label, est, sim in pairs:
        ratio = est.predicted_gflops / sim.gflops if sim.gflops else 0.0
        checks.append(Check(
            label, "predicted/simulated GFLOPS",
            f"{est.predicted_gflops:.2f}", f"{sim.gflops:.2f}",
            abs(ratio - 1.0) <= ESTIMATOR_RTOL))
        checks.append(Check(label, "binding bottleneck",
                            est.bound, sim.bound, est.bound == sim.bound))
        ceiling = max(est.compute_bound_gflops, spec.peak_gflops_with_sfu)
        checks.append(Check(
            label, "prediction under closed-form ceiling",
            f"{est.predicted_gflops:.2f}",
            f"<= {ceiling:.2f}",
            est.predicted_gflops <= ceiling + 1e-6))

    def predicted(label: str) -> float:
        return by_label[label][0].predicted_gflops

    def simulated(label: str) -> float:
        return by_label[label][1].gflops

    # 2. the paper's Section 4 / Figure 4 ordering, both statically and
    #    in the simulator (10.58 -> 46.49 -> 91.14; prefetch ~ -5%;
    #    4x4 tiles worse than untiled)
    orderings = [
        ("naive < tiled", "matmul/naive", "matmul/tiled"),
        ("tiled < tiled_unrolled", "matmul/tiled",
         "matmul/tiled_unrolled"),
        ("prefetch < tiled_unrolled", "matmul/prefetch",
         "matmul/tiled_unrolled"),
        ("tiled_4x4 < naive", "matmul/tiled_4x4", "matmul/naive"),
    ]
    for name, lo, hi in orderings:
        checks.append(Check(
            "matmul ladder", f"static ordering: {name}",
            f"{predicted(lo):.2f} < {predicted(hi):.2f}",
            f"{simulated(lo):.2f} < {simulated(hi):.2f}",
            predicted(lo) < predicted(hi)
            and simulated(lo) < simulated(hi)))

    # 3. the closed-form anchors (Section 4.1's 1/8-of-peak = 43.2 and
    #    Section 4.3's 16/59-of-peak = 93.72, paper-computed G80 numbers)
    naive = by_label["matmul/naive"][0]
    unrolled = by_label["matmul/tiled_unrolled"][0]
    checks.append(Check(
        "matmul/naive", "bandwidth-bound, compute potential ~43.2",
        f"{naive.compute_bound_gflops:.2f} GFLOPS, "
        f"demand {naive.bounds.bandwidth_demand_gbs:.1f} GB/s",
        "43.2 GFLOPS potential, 173 GB/s demand (paper)",
        naive.bounds.memory_bound
        and abs(naive.compute_bound_gflops - 43.2) <= 3.0))
    checks.append(Check(
        "matmul/tiled_unrolled", "compute-bound, potential ~93.72",
        f"{unrolled.compute_bound_gflops:.2f} GFLOPS",
        "93.72 GFLOPS potential (paper)",
        not unrolled.bounds.memory_bound
        and abs(unrolled.compute_bound_gflops - 93.72) <= 8.0))

    # 4. liveness reproduces the register anecdotes (Sections 4.3/4.4)
    #    and the blocks/SM they imply
    expected_regs = {"matmul/tiled": 10, "matmul/tiled_unrolled": 9,
                     "matmul/prefetch": 11}
    for label, expect in expected_regs.items():
        est = by_label[label][0]
        checks.append(Check(
            label, "liveness regs/thread",
            est.registers.regs, expect,
            est.registers.regs == expect
            and not est.registers.fallback))
    for label, est, sim in pairs:
        checks.append(Check(
            label, "blocks/SM from static regs",
            est.occupancy.blocks_per_sm, sim.occupancy.blocks_per_sm,
            est.occupancy.blocks_per_sm == sim.occupancy.blocks_per_sm))

    return checks


def estimator_ratios(spec: DeviceSpec = DEFAULT_DEVICE,
                     pairs: Optional[List[Tuple[str, PerfEstimate,
                                                KernelTimeEstimate]]]
                     = None) -> Dict[str, Dict[str, float]]:
    """Predicted/simulated ratios in the golden-file shape."""
    pairs = pairs if pairs is not None else estimator_pairs(spec)
    out: Dict[str, Dict[str, float]] = {}
    for label, est, sim in pairs:
        ratio = est.predicted_gflops / sim.gflops if sim.gflops else 0.0
        out[label] = {
            "predicted_gflops": round(est.predicted_gflops, 4),
            "simulated_gflops": round(sim.gflops, 4),
            "ratio": round(ratio, 6),
        }
    return out


def golden_checks(golden: Dict[str, Dict[str, float]],
                  spec: DeviceSpec = DEFAULT_DEVICE,
                  pairs: Optional[List[Tuple[str, PerfEstimate,
                                             KernelTimeEstimate]]]
                  = None,
                  tolerance: float = GOLDEN_RTOL) -> List[Check]:
    """CI regression gate: each kernel's predicted/simulated ratio must
    stay within ``tolerance`` of the checked-in golden ratio."""
    current = estimator_ratios(spec, pairs)
    checks: List[Check] = []
    for label, entry in sorted(golden.items()):
        want = float(entry["ratio"])
        now = current.get(label)
        if now is None:
            checks.append(Check(label, "golden ratio", "missing",
                                want, False))
            continue
        drift = abs(now["ratio"] / want - 1.0) if want else float("inf")
        checks.append(Check(
            label, "predicted/simulated ratio drift vs golden",
            f"{now['ratio']:.4f}", f"{want:.4f} ±{tolerance:.0%}",
            drift <= tolerance))
    for label in sorted(set(current) - set(golden)):
        checks.append(Check(label, "golden ratio",
                            f"{current[label]['ratio']:.4f}",
                            "absent from golden file", False))
    return checks


# ----------------------------------------------------------------------
# Apps and the broken catalogue: the analyzer vs trace, warpsim and the
# sanitizers
# ----------------------------------------------------------------------

#: absolute tolerance for static-vs-dynamic divergent-branch-fraction
#: agreement.  The census samples three block coordinates and scales,
#: while the profiled workload runs its own geometry (edge blocks,
#: different trace_blocks), so the fraction can shift by several
#: percentage points either way without the verdict being wrong.
#: The static fraction is additionally a *pessimistic upper bound*
#: for data-dependent branches (the census seeds loaded values as
#: worst-case thread-varying — fem's row-length loop), so the check
#: is one-sided on that axis: dynamic may undershoot static freely,
#: but must never exceed it by more than the tolerance, and both
#: sides must agree on whether the kernel diverges at all.
DIVERGENCE_ATOL = 0.15

#: minimum divergent-branch fraction that counts as "diverges at all"
DIVERGENCE_MIN_FRACTION = 0.01

#: absolute tolerance for trace-vs-warpsim serialized-fraction
#: agreement — the two denominators differ (warp instructions vs issue
#: cycles), so SFU-heavy kernels can diverge by a few percent
WARPSIM_ATOL = 0.05

#: static-analyzer rules that mirror a sanitizer tool (the lint suite
#: also emits performance rules — coalescing, occupancy — that have no
#: dynamic counterpart and stay out of the clean verdict)
STATIC_SAN_RULES = frozenset(
    {"shared-race", "divergent-sync", "bounds", "shared-uninit",
     "divergence"})

#: applications for the bit-identity check (one global-only, one
#: shared-tiled, one multi-launch)
IDENTITY_APPS = ("saxpy", "matmul", "lbm")


def materialized_launch(target: LintTarget,
                        spec: DeviceSpec) -> LaunchResult:
    """Execute a lint target once, with stream recording: its
    :class:`~repro.analysis.targets.LintArray` markers become seeded
    random device arrays of their memory space (the launch warpsim and
    :func:`repro.obs.timeline.timeline_for_target` read).  A CSR row
    pointer (an array named ``rowptr``) rises from 0 to the nonzero
    count, the largest float array (the matrix values), in seeded
    random steps, so rows differ in length as a mesh's do."""
    dev = Device(spec)
    rng = np.random.default_rng(7)
    # integer arrays are almost always indirection indices (SpMV column
    # indices, neighbour lists): keep them within the smallest float
    # array so the synthesized launch stays in bounds
    float_sizes = [a.size for a in target.args
                   if isinstance(a, LintArray) and not a.is_integer
                   and a.size]
    index_bound = min(float_sizes) if float_sizes else 1024

    def materialize(arg):
        if not isinstance(arg, LintArray):
            return arg
        n = arg.size if arg.size else 1024
        if arg.name == "rowptr":
            nnz = max(float_sizes)
            host = np.sort(rng.integers(0, nnz + 1, size=n))
            host[0], host[-1] = 0, nnz
            host = host.astype(arg.dtype)
        elif arg.is_integer:
            host = rng.integers(0, max(2, index_bound),
                                size=n).astype(arg.dtype)
        else:
            host = rng.random(n).astype(arg.dtype)
        place = {"global": dev.to_device, "const": dev.to_constant,
                 "tex": dev.to_texture}[arg.space]
        return place(host, arg.name)

    args = tuple(materialize(a) for a in target.args)
    return run_launch(target.kernel, target.grid, target.block, args,
                      device=dev, functional=False, trace_blocks=1,
                      record_stream=True)


def _r8_highs(report: KernelReport) -> int:
    """The report's R8 divergent-sync HIGH findings, counted."""
    return sum(1 for f in report.findings
               if f.rule == "divergence" and f.severity is Severity.HIGH)


def _warpsim_check(subject: str, target: LintTarget,
                   spec: DeviceSpec) -> Check:
    """The seeded launch's divergence-serialized issue share under the
    trace vs under warpsim's replay of the same recorded block stream,
    within :data:`WARPSIM_ATOL`."""
    from ..sim.warpsim import simulate_launch
    check = "trace vs warpsim serialized fraction"
    try:
        result = materialized_launch(target, spec)
        sim = simulate_launch(result, spec)
    except Exception as exc:
        return Check(subject, check, "error",
                     f"{type(exc).__name__}: {exc}", False)
    t_frac = result.trace.divergence_serialized_fraction
    w_frac = sim.divergence_serialized_fraction
    return Check(subject, check, round(t_frac, 4), round(w_frac, 4),
                 abs(t_frac - w_frac) <= WARPSIM_ATOL)


def _branch_fraction_checks(name: str, reports: Sequence[KernelReport],
                            spec: DeviceSpec) -> List[Check]:
    """Each kernel's static census divergent-branch fraction vs the
    trace-only run of the test workload (see
    :data:`DIVERGENCE_ATOL`)."""
    from ..apps.registry import get_app
    app = get_app(name, spec)
    run = app.run(app.default_workload("test"), functional=False)
    agg: Dict[str, List[float]] = {}
    for result in run.launches:
        tot = agg.setdefault(result.kernel.name, [0.0, 0.0])
        tot[0] += result.trace.branch_warps
        tot[1] += result.trace.divergent_branch_warps
    by_kernel = {rep.kernel: rep for rep in reports}
    checks: List[Check] = []
    for kernel, (branches, divergent) in sorted(agg.items()):
        rep = by_kernel.get(kernel)
        if rep is None or not rep.divergence:
            continue
        static_frac = float(rep.divergence.get(
            "static_divergent_branch_fraction", 0.0))
        dyn_frac = divergent / branches if branches else 0.0
        # one-sided: static is a pessimistic upper bound for
        # data-dependent branches; both sides must still agree on
        # whether the kernel diverges at all
        bounded = dyn_frac <= static_frac + DIVERGENCE_ATOL
        same_character = ((static_frac >= DIVERGENCE_MIN_FRACTION)
                          == (dyn_frac >= DIVERGENCE_MIN_FRACTION))
        checks.append(Check(
            f"{name}/{kernel}", "divergent-branch fraction",
            round(static_frac, 4), round(dyn_frac, 4),
            bounded and same_character))
    return checks


def _sanitized_checks(name: str, static_flagged: bool,
                      spec: DeviceSpec) -> List[Check]:
    """One sanitized functional run of the test workload: the clean
    check's dynamic side, R7's observed launch log and the outputs the
    bit-identity check compares with a plain run's."""
    from ..apps.registry import get_app
    from ..cuda.executors import SanitizedExecutor
    from ..cuda.plan import observe_plans
    from .rules import analyze_launch_sequence, classify_dataflow
    app = get_app(name, spec)
    workload = app.default_workload("test")
    executor = SanitizedExecutor()
    app.executor = executor
    plans: List[object] = []
    with observe_plans(plans.append):
        run = app.run(workload, functional=True)
    state = executor.state
    dynamic_flagged = bool(state.high_findings())
    checks = [Check(name, "clean app unflagged by both sides",
                    static_flagged, dynamic_flagged,
                    not static_flagged and not dynamic_flagged)]

    flow = analyze_launch_sequence(plans, app=name)
    observed = classify_dataflow(state.launch_accesses())
    for array in sorted(set(flow.arrays) | set(observed)):
        s = flow.arrays.get(array)
        d = observed.get(array)
        s_cls = s.classification if s else "absent"
        d_cls = d.classification if d else "absent"
        checks.append(Check(
            f"{name}/{array}", "launch-dataflow class agrees",
            s_cls, d_cls, s_cls == d_cls))

    if name in IDENTITY_APPS:
        plain = get_app(name, spec).run(workload, functional=True)
        identical = set(plain.outputs) == set(run.outputs) and all(
            np.array_equal(plain.outputs[k], run.outputs[k])
            for k in plain.outputs)
        checks.append(Check(name, "sanitized outputs bit-identical",
                            "reference",
                            "identical" if identical else "DIVERGED",
                            identical))
    return checks


def app_checks(spec: DeviceSpec = DEFAULT_DEVICE,
               apps: Optional[Sequence[str]] = None,
               reports: Optional[Reports] = None) -> List[Check]:
    """The app sweep over ``apps`` (default: every registered
    application); see the module docstring.  Each lint report is left
    in ``reports[app][target note]``, for :func:`validation_checks`."""
    from ..apps.registry import app_names, get_app
    reports = reports if reports is not None else {}
    checks: List[Check] = []
    for name in (apps if apps is not None else app_names()):
        app_reports = reports.setdefault(name, {})
        static_flagged = False
        for target in get_app(name, spec).lint_targets():
            rep = analyze_target(target, app=name, spec=spec)
            app_reports[target.note] = rep
            static_flagged = static_flagged or any(
                f.severity >= Severity.HIGH and f.rule in STATIC_SAN_RULES
                for f in rep.findings)
            subject = f"{name}/{rep.kernel}"
            highs = _r8_highs(rep)
            checks.append(Check(subject, "no R8 divergent-sync HIGH",
                                highs, 0, not highs))
            checks.append(_warpsim_check(subject, target, spec))
        checks.extend(_branch_fraction_checks(
            name, list(app_reports.values()), spec))
        checks.extend(_sanitized_checks(name, static_flagged, spec))
    return checks


def broken_checks(spec: DeviceSpec = DEFAULT_DEVICE) -> List[Check]:
    """The broken sweep: each kernel of :data:`repro.san.broken.BROKEN`
    analyzed once and run once under the sanitizers."""
    from ..san.broken import BROKEN
    from ..san.state import SanState
    checks: List[Check] = []
    for bk in BROKEN:
        report = analyze_target(bk.target(), app="broken", spec=spec)
        state = SanState()
        bk.run(state)
        static_hit = {f.rule for f in report.findings
                      if f.severity >= Severity.HIGH
                      and f.rule in STATIC_SAN_RULES}
        dynamic_hit = {f.rule for f in state.all_findings()
                       if f.severity >= Severity.HIGH}
        static = bool(static_hit & bk.static_rules)
        dynamic = bool(dynamic_hit & bk.dynamic_rules)
        checks.append(Check(
            bk.name, f"caught by both sides ({bk.bug}; tool={bk.tool})",
            sorted(static_hit) if static else "MISSED",
            sorted(dynamic_hit) if dynamic else "MISSED",
            static and dynamic))
        r8 = _r8_highs(report) > 0
        synccheck = "divergent-sync" in dynamic_hit
        checks.append(Check(
            f"broken/{bk.name}", "R8 HIGH == synccheck divergent-sync",
            r8, synccheck, r8 == synccheck))
    return checks


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.validate",
        description="cross-validate static verdicts against the "
                    "simulator's trace counters, the timing model and "
                    "the sanitizers")
    parser.add_argument("--json", action="store_true",
                        help="emit the checks as a JSON list")
    parser.add_argument("--golden", metavar="PATH", default=None,
                        help="gate predicted/simulated ratios against "
                             "this golden JSON file")
    parser.add_argument("--write-golden", metavar="PATH", default=None,
                        help="write the estimator's current ratios to "
                             "PATH and exit")
    args = parser.parse_args(argv)

    if args.write_golden:
        ratios = estimator_ratios()
        with open(args.write_golden, "w") as fh:
            json.dump(ratios, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(ratios)} golden ratios to {args.write_golden}")
        return 0
    pairs = estimator_pairs()
    reports: Reports = {}
    apps = app_checks(reports=reports)
    checks = (validation_checks(reports=reports) + apps + broken_checks()
              + estimator_checks(pairs=pairs))
    if args.golden:
        with open(args.golden) as fh:
            golden = json.load(fh)
        checks.extend(golden_checks(golden, pairs=pairs))

    if args.json:
        print(json.dumps([c.to_dict() for c in checks], indent=2))
    else:
        for check in checks:
            print(check.format())
        bad = sum(1 for c in checks if not c.ok)
        print(f"{len(checks)} checks, {bad} disagreement(s)")
    return 0 if all(c.ok for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
