"""The lint pass hands its census to the estimator.

``analyze_target`` interprets every sample block once for its rules,
assembles the target's census from those blocks and leaves it on the
target; ``census_target``, and so ``estimate_target``, reads that
census instead of interpreting the blocks again.  These tests pin the
contract for every lint target on G80 (``geforce_8800_gtx``) and on
Fermi (``gtx_480``):

* a lint pass followed by an estimate interprets each sample block
  once, also through ``lint --estimate``;
* the handed-off census equals one built from scratch, and the lint
  report and the estimate do not depend on which was built first;
* no consumer (estimate, advisor) changes the shared census.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List, NamedTuple

import pytest

import repro.analysis.estimate as estimate_module
from repro.analysis import liveness, sample_coords
from repro.analysis.advisor import advise_estimate
from repro.analysis.census import KernelCensus, census_target
from repro.analysis.estimate import PerfEstimate, estimate_target
from repro.analysis.findings import KernelReport
from repro.analysis.interp import KernelInterp
from repro.analysis.lint import main as lint_main
from repro.analysis.rules import analyze_target
from repro.analysis.targets import LintTarget
from repro.apps.registry import app_names, get_app
from repro.arch.device import geforce_8800_gtx, gtx_480
from repro.cuda.source import fingerprint

DEVICES = {"geforce_8800_gtx": geforce_8800_gtx, "gtx_480": gtx_480}


def count_interpretations(monkeypatch) -> List[LintTarget]:
    """Patch ``KernelInterp.run`` to list the target of every sample
    block interpreted from now on, in call order."""
    targets: List[LintTarget] = []
    run = KernelInterp.run

    def counted(self):
        targets.append(self.target)
        return run(self)

    monkeypatch.setattr(KernelInterp, "run", counted)
    return targets


def census_view(census: KernelCensus) -> dict:
    return {"summary": census.summary(),
            "trace": census.trace.summary(),
            "block_trace": census.block_trace.summary(),
            "limits": census.limits,
            "smem_bytes": census.smem_bytes,
            "blocks_sampled": census.blocks_sampled}


class BothOrders(NamedTuple):
    """One lint target run both ways on one device."""

    label: str
    #: a fresh target estimated before its lint pass, then linted
    estimate_before: PerfEstimate
    report_before: KernelReport
    #: its twin linted first; every census and estimate after that
    #: reads the lint pass's census
    target: LintTarget
    report_after: KernelReport
    censuses_after: List[KernelCensus]
    estimates_after: List[PerfEstimate]
    #: targets of the sample blocks interpreted from the twin's lint
    #: pass on
    interpreted: List[LintTarget]


@pytest.fixture(scope="module", params=list(DEVICES))
def both_orders(request) -> List[BothOrders]:
    spec = DEVICES[request.param]()
    runs: List[BothOrders] = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        interpreted = count_interpretations(monkeypatch)
        for name in app_names():
            app = get_app(name, spec)
            for before, after in zip(app.lint_targets(),
                                     app.lint_targets()):
                estimate_before = estimate_target(before, spec)
                report_before = analyze_target(before, app=name, spec=spec)
                interpreted.clear()
                report_after = analyze_target(after, app=name, spec=spec)
                first = estimate_target(after, spec)
                advise_estimate(first, spec=spec)
                runs.append(BothOrders(
                    f"{name}/{after.label}", estimate_before, report_before,
                    after, report_after,
                    [census_target(after, spec), census_target(after, spec)],
                    [first, estimate_target(after, spec)],
                    list(interpreted)))
    return runs


def test_lint_then_estimate_interprets_each_sample_block_once(both_orders):
    for run in both_orders:
        assert len(run.interpreted) == len(sample_coords(run.target.grid)), \
            run.label
        assert all(t is run.target for t in run.interpreted), run.label


@pytest.mark.parametrize("app", ["matmul", "lbm"])
def test_lint_estimate_cli_interprets_each_sample_block_once(
        app, monkeypatch, capsys):
    interpreted = count_interpretations(monkeypatch)
    assert lint_main([app, "--estimate", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert reports and all("estimate" in r for r in reports)
    per_target = Counter(id(target) for target in interpreted)
    assert sorted(per_target.values()) == sorted(
        len(sample_coords(t.grid)) for t in get_app(app).lint_targets())


def test_handed_off_census_equals_a_fresh_one(both_orders):
    for run in both_orders:
        fresh = run.estimate_before.census
        for census in run.censuses_after:
            assert census_view(census) == census_view(fresh), run.label
            assert census == fresh, run.label


def test_report_and_estimate_do_not_depend_on_the_order(both_orders):
    for run in both_orders:
        assert run.report_after.to_dict() == run.report_before.to_dict(), \
            run.label
        # the second estimate follows the advisor: neither changed the
        # shared census
        for estimate in run.estimates_after:
            assert estimate.to_dict() == run.estimate_before.to_dict(), \
                run.label


@pytest.mark.parametrize("device", list(DEVICES))
def test_lint_then_estimate_walks_each_kernel_once(device, monkeypatch):
    """The liveness register estimate is memoized by content: a lint
    pass (``regs_estimated``) and an estimate walk each kernel once,
    and the estimate still calls it through ``repro.analysis.estimate``
    (the suite's ``analysis.registers`` site)."""
    spec = DEVICES[device]()
    monkeypatch.setattr(liveness, "_ESTIMATES", {})
    walks: List[str] = []
    run = liveness._Liveness.run

    def counted(self):
        walks.append(self.fdef.name)
        return run(self)

    monkeypatch.setattr(liveness._Liveness, "run", counted)
    calls: List[object] = []
    estimate_registers = estimate_module.estimate_registers
    monkeypatch.setattr(estimate_module, "estimate_registers",
                        lambda kern: calls.append(kern)
                        or estimate_registers(kern))
    targets = [(name, t) for name in ("matmul", "lbm", "fdtd", "saxpy")
               for t in get_app(name, spec).lint_targets()]
    for name, target in targets:
        report = analyze_target(target, app=name, spec=spec)
        est = estimate_target(target, spec)
        assert est.registers.regs == report.regs_estimated
    kernels = {(fingerprint(t.kernel), t.kernel.name) for _, t in targets}
    assert len(walks) == len(kernels) == 10
    assert len(calls) == len(targets)
