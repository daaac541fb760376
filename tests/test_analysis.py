"""Static kernel analyzer: golden findings and dynamic agreement.

Covers the contracts of :mod:`repro.analysis`:

* deliberately-broken kernels trip exactly the rule they violate
  (coalescing, bank conflicts, shared races, divergent sync, static
  bounds, occupancy, batch safety);
* every shipped kernel lints with zero ``high`` findings — the
  analyzer must not cry wolf on the paper's own code;
* the batch-safety rule agrees with each app's declared ``batchable``
  flag (rpes/tpacf justify ``False``; matmul/saxpy are hazard-free);
* the static verdicts agree with the simulator's dynamic trace
  counters over the Section 4 matmul ladder (validation harness);
* the ``lint`` CLI gates on severity and emits parseable JSON;
* :data:`repro.cuda.context.CTX_OPS` stays in sync with the
  ``BlockContext`` surface the analyzer models.
"""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from repro.analysis import (
    KernelReport,
    LintTarget,
    Severity,
    analyze_target,
    carr,
    estimate_registers,
    garr,
)
from repro.analysis.lint import lint_app, main as lint_main
from repro.analysis.validate import main as validate_main, validation_checks
from repro.apps.registry import app_names
from repro.arch import DEFAULT_DEVICE
from repro.cuda import CudaModelError, Device, kernel, launch
from repro.cuda.context import BlockContext, CTX_OPS
from repro.opt.passes import descriptor_from_report


# ----------------------------------------------------------------------
# Deliberately broken kernels (golden findings)
# ----------------------------------------------------------------------

def strided_kernel():
    """Every thread loads x[4*i]: strided, never coalescable."""

    @kernel("bad_strided", regs_per_thread=8)
    def bad_strided(ctx, x, y, n):
        i = ctx.global_tid()
        v = ctx.ld_global(x, i * 4)
        ctx.st_global(y, i, v)

    return bad_strided


def racy_kernel():
    """Tile staging with the __syncthreads() removed."""

    @kernel("bad_race", regs_per_thread=8, batchable=False)
    def bad_race(ctx, x, n):
        buf = ctx.shared_alloc((256,), np.float32, "buf")
        v = ctx.ld_global(x, ctx.tid)
        ctx.st_shared(buf, ctx.tx, v)
        w = ctx.ld_shared(buf, (ctx.tx + 1) % 256)   # neighbour's slot
        ctx.st_global(x, ctx.tid, w)

    return bad_race


def divergent_sync_kernel():
    """__syncthreads() reachable by only part of the block."""

    @kernel("bad_divsync", regs_per_thread=8)
    def bad_divsync(ctx, x, n):
        with ctx.masked(ctx.tx < 8):
            ctx.sync()
            ctx.st_global(x, ctx.tid, 1.0)

    return bad_divsync


def oob_kernel():
    """Reads one full block past the end of its input."""

    @kernel("bad_oob", regs_per_thread=8)
    def bad_oob(ctx, x, y, n):
        v = ctx.ld_global(x, ctx.tid + n)
        ctx.st_global(y, ctx.tid, v)

    return bad_oob


def bank_conflict_kernel():
    """Stride-2 shared reads: every lane pair collides on a bank."""

    @kernel("bad_bank", regs_per_thread=8)
    def bad_bank(ctx, x, n):
        buf = ctx.shared_alloc((512,), np.float32, "buf")
        ctx.st_shared(buf, ctx.tx, ctx.ld_global(x, ctx.tid))
        ctx.sync()
        v = ctx.ld_shared(buf, ctx.tx * 2)
        ctx.st_global(x, ctx.tid, v)

    return bad_bank


def reg_hog_kernel():
    """256 threads x 64 registers: cannot fit a single block on an SM."""

    @kernel("bad_regs", regs_per_thread=64)
    def bad_regs(ctx, x, n):
        ctx.st_global(x, ctx.tid, 0.0)

    return bad_regs


def const_store_kernel():
    """Stores into a constant array, which is read-only on the device."""

    @kernel("bad_const_store", regs_per_thread=8)
    def bad_const_store(ctx, x, c, n):
        ctx.st_global(c, ctx.tid, ctx.ld_global(x, ctx.tid))

    return bad_const_store


def unbatchable_kernel():
    """Declared batchable but coerces a block coordinate to a scalar."""

    @kernel("bad_batch", regs_per_thread=8, batchable=True)
    def bad_batch(ctx, x, n):
        base = int(ctx.bx) * ctx.blockDim.x
        ctx.st_global(x, base + ctx.tx, 0.0)

    return bad_batch


def _report(kern, n=1024, grid=(2,), block=(256,),
            extra=()) -> KernelReport:
    args = (garr("x", n),) + tuple(extra) + (n,)
    target = LintTarget(kern, grid, block, args)
    return analyze_target(target, app="test")


def _rules(report: KernelReport, severity=None):
    return {f.rule for f in report.findings
            if severity is None or f.severity == severity}


class TestGoldenFindings:
    def test_strided_load_is_medium_coalescing(self):
        report = _report(strided_kernel(), n=4096,
                         extra=(garr("y", 4096),))
        bad = [f for f in report.findings
               if f.rule == "coalescing" and f.array == "x"]
        assert bad and all(f.severity == Severity.MEDIUM for f in bad)
        acc = report.access("x")
        assert acc.coalesced is False
        assert acc.pattern.startswith("strided")
        # the output stream stays clean
        assert report.access("y").coalesced is True

    def test_missing_sync_is_high_shared_race(self):
        report = _report(racy_kernel())
        races = [f for f in report.findings if f.rule == "shared-race"]
        assert races and all(f.severity == Severity.HIGH for f in races)
        assert races[0].array == "buf"

    def test_divergent_sync_is_high(self):
        report = _report(divergent_sync_kernel())
        assert "divergent-sync" in _rules(report, Severity.HIGH)

    def test_static_out_of_bounds_is_high(self):
        report = _report(oob_kernel(), extra=(garr("y", 1024),))
        oob = [f for f in report.findings if f.rule == "bounds"]
        assert oob and oob[0].severity == Severity.HIGH
        assert oob[0].array == "x"
        assert "1024" in oob[0].message      # names the declared size

    def test_store_to_a_constant_array_is_refused_as_in_execution(self):
        kern = const_store_kernel()
        target = LintTarget(kern, (1,), (64,),
                            (garr("x", 64), carr("c", 64), 64))
        report = analyze_target(target, app="test")
        refused = [f for f in report.findings if f.rule == "space"]
        assert [(f.severity, f.array) for f in refused] == [
            (Severity.HIGH, "c")]
        assert "analysis" not in _rules(report)     # not a stopped pass
        # the refused store is not charged as a global access
        assert [a.array for a in report.accesses] == ["x"]
        assert set(target.censuses[DEFAULT_DEVICE].trace.per_array) \
            == {"x"}
        dev = Device()
        args = (dev.to_device(np.zeros(64, np.float32), "x"),
                dev.to_constant(np.zeros(64, np.float32), "c"), 64)
        with pytest.raises(CudaModelError) as exc:
            launch(kern, (1,), (64,), args, device=dev)
        assert str(exc.value) == refused[0].message

    def test_stride_two_shared_read_is_bank_conflict(self):
        report = _report(bank_conflict_kernel())
        conflicts = [f for f in report.findings
                     if f.rule == "bank-conflict"]
        assert conflicts
        assert conflicts[0].severity == Severity.MEDIUM
        assert "2-way" in conflicts[0].message
        assert report.access("buf").conflict_degree == 2
        # the staged store/load is synchronized: no race finding
        assert "shared-race" not in _rules(report)

    def test_unschedulable_launch_is_high_occupancy(self):
        report = _report(reg_hog_kernel())
        occ = [f for f in report.findings if f.rule == "occupancy"]
        assert occ and occ[0].severity == Severity.HIGH
        assert report.occupancy["blocks/SM"] == 0

    def test_contradicted_batchable_flag_is_high(self):
        report = _report(unbatchable_kernel())
        batch = [f for f in report.findings if f.rule == "batch-safety"]
        assert batch and batch[0].severity == Severity.HIGH
        assert "batchable=True" in batch[0].message
        assert "scalar-coerce" in report.batch_hazards


# ----------------------------------------------------------------------
# Shipped kernels: no false alarms
# ----------------------------------------------------------------------

class TestShippedKernels:
    def test_no_high_findings_across_the_suite(self):
        for name in app_names():
            for report in lint_app(name):
                high = [f.format() for f in report.findings
                        if f.severity == Severity.HIGH]
                assert not high, f"{name}/{report.label}: {high}"

    def test_every_app_declares_lint_targets(self):
        from repro.apps.registry import get_app
        for name in app_names():
            assert get_app(name).lint_targets(), \
                f"{name} declares no lint targets"

    def test_matmul_ladder_verdicts(self):
        reports = {r.note: r for r in lint_app("matmul")}
        # naive: the A row element is broadcast across the half-warp
        naive_a = reports["naive"].access("A")
        assert naive_a.coalesced is False
        assert naive_a.pattern == "broadcast"
        assert reports["naive"].count(Severity.MEDIUM) >= 1
        # tiled variants coalesce both streams and stay conflict-free
        for note in ("tiled", "tiled_unrolled", "prefetch"):
            report = reports[note]
            for array in ("A", "B", "C"):
                assert report.access(array).coalesced is True, \
                    f"{note}/{array}"
            for array in ("As", "Bs"):
                assert report.access(array).conflict_degree == 1
        # the Section 4.4 register cost: prefetch drops to 2 blocks/SM
        assert reports["tiled"].occupancy["blocks/SM"] == 3
        assert reports["prefetch"].occupancy["blocks/SM"] == 2

    def test_lint_reports_the_liveness_register_estimate(self):
        """``lint --json`` and ``lint --estimate`` give a kernel one
        register count: Section 4's 10 / 9 / 11 on the tiled ladder."""
        from repro.apps.registry import get_app
        targets = get_app("matmul").lint_targets()
        regs = {}
        for target in targets:
            report = analyze_target(target, app="matmul")
            assert report.regs_estimated == \
                estimate_registers(target.kernel).regs, report.label
            regs[target.note] = report.regs_estimated
        assert regs == {"naive": 6, "tiled": 10, "tiled_unrolled": 9,
                        "prefetch": 11}

    def test_batch_safety_agrees_with_declared_flags(self):
        for name in ("rpes", "tpacf"):
            for report in lint_app(name):
                assert report.batchable_declared is False
                assert report.batch_hazards, report.label
                justified = [f for f in report.findings
                             if f.rule == "batch-safety"]
                assert justified
                assert justified[0].severity == Severity.INFO
        for name in ("matmul", "saxpy"):
            for report in lint_app(name):
                assert report.batchable_declared is True
                assert not report.batch_hazards, report.label


# ----------------------------------------------------------------------
# Static vs. dynamic cross-validation
# ----------------------------------------------------------------------

class TestValidation:
    def test_static_verdicts_match_trace_counters(self):
        checks = validation_checks()
        bad = [c.format() for c in checks if not c.ok]
        assert not bad, "\n".join(bad)
        # the harness exercises all three comparison families
        assert any("coalesced" in c.check for c in checks)
        assert any(c.check == "bank conflicts" for c in checks)
        assert any(c.check == "occupancy" for c in checks)

    def test_validate_cli_exits_clean(self, capsys):
        assert validate_main([]) == 0
        out = capsys.readouterr().out
        assert "0 disagreement(s)" in out

    def test_fem_materialized_launch_reads_a_valid_csr(self):
        """The seeded fem launch reads a CSR matrix: row pointers rise
        from 0 to the 4096 nonzeros over the 512 rows the target
        declares, so no row length is negative."""
        from repro.analysis.validate import materialized_launch
        from repro.apps.registry import get_app
        target, = get_app("fem").lint_targets()
        result = materialized_launch(target, DEFAULT_DEVICE)
        rowptr = result.device.arrays["rowptr"].data
        assert rowptr.size == 513
        assert rowptr[0] == 0 and rowptr[-1] == 4096
        assert (np.diff(rowptr) >= 0).all()


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------

class TestLintCli:
    def test_json_output_parses(self, capsys):
        assert lint_main(["matmul", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 5
        for report in payload["reports"]:
            assert report["compile"] == {"ok": True, "reason": None}
        assert payload["device"] == "geforce_8800_gtx"
        reports = payload["reports"]
        assert {r["note"] for r in reports} == \
            {"naive", "tiled", "tiled_unrolled", "prefetch"}
        for report in reports:
            for finding in report["findings"]:
                assert finding["severity"] in ("info", "medium", "high")
            # deterministic (kernel, line, rule) ordering for CI diffs
            keys = [(f["kernel"], f["line"] or 0, f["rule"])
                    for f in report["findings"]]
            assert keys == sorted(keys)

    def test_fail_on_high_passes_the_suite(self):
        assert lint_main(["--fail-on", "high"]) == 0

    def test_fail_on_medium_trips_on_intentional_baselines(self, capsys):
        # naive matmul's broadcast A load is a medium by design
        assert lint_main(["matmul", "--fail-on", "medium"]) == 1

    def test_unknown_severity_is_rejected(self):
        with pytest.raises(ValueError):
            lint_main(["--fail-on", "catastrophic"])


# ----------------------------------------------------------------------
# Integration points
# ----------------------------------------------------------------------

class TestIntegration:
    def test_descriptor_from_report_reproduces_the_cliff(self):
        tiled = next(r for r in lint_app("matmul") if r.note == "tiled")
        base = descriptor_from_report(tiled)
        assert base.regs_per_thread == tiled.regs_declared
        assert base.smem_bytes == tiled.smem_bytes
        assert base.occupancy().blocks_per_sm == 3
        # prefetching's +2 registers cross the Section 4.2 cliff
        prefetched = descriptor_from_report(tiled, ("prefetching",))
        assert prefetched.occupancy().blocks_per_sm == 2

    def test_ctx_ops_covers_the_blockcontext_surface(self):
        props = {name for name, member
                 in inspect.getmembers(BlockContext)
                 if isinstance(inspect.getattr_static(BlockContext, name,
                                                      None), property)}
        methods = {name for name, member
                   in inspect.getmembers(BlockContext,
                                         predicate=inspect.isfunction)
                   if not name.startswith("_")}
        uncovered = methods - props - set(CTX_OPS)
        assert not uncovered, \
            f"BlockContext methods missing from CTX_OPS: {uncovered}"
        missing = set(CTX_OPS) - methods
        assert not missing, \
            f"CTX_OPS entries with no BlockContext method: {missing}"

    def test_census_sfu_op_builds_a_new_value(self):
        """A census SFU op never hands back its operand: a data-
        dependent ``if`` merges a name bound to the very same object in
        both arms as unchanged, so ``s = sqrt(s)`` in one arm must still
        leave ``s`` thread-varying, and the constant read it indexes
        varying."""

        @kernel("rebind_sqrt")
        def rebind_sqrt(ctx, x, flag, c, n):
            s = ctx.fmul(1.5, 2.0)              # a uniform opaque float
            if ctx.ld_global(flag, 0) > 0:      # a data-dependent branch
                s = ctx.sfu_sqrt(s)
            v = ctx.ld_const(c, ctx.cvt(s, np.int32))
            ctx.st_global(x, ctx.global_tid_x(), v)

        report = _report(rebind_sqrt, n=64, grid=(1,), block=(64,),
                         extra=(garr("flag", 1), carr("c", 64)))
        assert report.access("c").pattern == "varying"
