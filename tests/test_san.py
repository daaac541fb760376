"""Tests for the dynamic sanitizer suite (repro.san)."""

import json

import numpy as np
import pytest

from repro.analysis.findings import Severity
from repro.analysis.ir import lower_kernel
from repro.analysis.rules import (
    analyze_launch_sequence,
    classify_dataflow,
    launch_dataflow,
)
from repro.apps.registry import get_app
from repro.arch.device import DEFAULT_DEVICE
from repro.cuda import Device, LaunchPlan, kernel, launch
from repro.cuda.executors import SanitizedExecutor
from repro.cuda.plan import observe_plans
from repro.san import SAN_RULES, SanState
from repro.analysis.validate import app_checks, broken_checks
from repro.san import check as san_check
from repro.san.broken import BLOCK, BROKEN, GRID, N, broken_by_name
from repro.trace.instr import InstrClass


def _high_rules(state):
    return {f.rule for f in state.all_findings()
            if f.severity >= Severity.HIGH}


def _sanitized_app_run(name):
    app = get_app(name, DEFAULT_DEVICE)
    ex = SanitizedExecutor()
    app.executor = ex
    run = app.run(app.default_workload("test"), functional=True)
    return ex.state, run


class TestBrokenCatalogue:
    """Every deliberately broken kernel is caught by its expected tool."""

    @pytest.mark.parametrize("bk", BROKEN, ids=lambda b: b.name)
    def test_bug_caught_at_high_severity(self, bk):
        result = bk.run()
        rules = _high_rules(result.san)
        hit = rules & bk.dynamic_rules
        assert hit, (f"{bk.name} ({bk.bug}) not caught; "
                     f"high rules: {sorted(rules)}")
        for rule in hit:
            assert SAN_RULES[rule] == bk.tool

    def test_findings_carry_thread_and_line_provenance(self):
        result = broken_by_name("tile_edge_oob").run()
        (f,) = [f for f in result.san.all_findings()
                if f.rule == "oob-global"]
        assert f.line is not None
        assert "thread (255,0,0) of block (0,0,0)" in f.message
        assert "256 elements" in f.message

    def test_oob_attributes_the_neighbouring_allocation(self):
        result = broken_by_name("global_oob_store").run()
        (f,) = [f for f in result.san.all_findings()
                if f.rule == "oob-global"]
        # out's stores at out[i + n] land inside whatever allocation
        # follows it in the simulated address space
        assert "landing inside allocation" in f.message or \
            f.message.endswith("affected)")

    def test_race_report_names_both_sites(self):
        result = broken_by_name("racy_reduction").run()
        races = [f for f in result.san.all_findings()
                 if f.rule == "shared-race"]
        assert races
        assert any("races the store at line" in f.message for f in races)

    def test_broken_by_name_unknown_raises(self):
        with pytest.raises(KeyError):
            broken_by_name("nope")


class TestToolGating:
    def test_memcheck_only_misses_the_race(self):
        bk = broken_by_name("racy_reduction")
        state = SanState(tools=("memcheck",))
        bk.run(state)
        assert "shared-race" not in {f.rule for f in state.all_findings()}

    def test_racecheck_only_misses_the_oob(self):
        bk = broken_by_name("global_oob_store")
        state = SanState(tools=("racecheck",))
        bk.run(state)
        rules = {f.rule for f in state.all_findings()}
        assert "oob-global" not in rules

    def test_racecheck_only_still_catches_the_race(self):
        bk = broken_by_name("racy_reduction")
        state = SanState(tools=("racecheck",))
        bk.run(state)
        assert "shared-race" in _high_rules(state)

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError):
            SanState(tools=("valgrind",))


class TestSanitizedLaunch:
    def test_launch_sanitize_flag_attaches_state(self):
        bk = broken_by_name("tile_edge_oob")
        dev = Device()
        x = dev.to_device(np.arange(N, dtype=np.float32), "x")
        out = dev.alloc(N, np.float32, "out")
        result = launch(bk.kern, GRID, BLOCK, (x, out, N),
                        device=dev, executor="sanitized")
        assert result.san is not None
        assert "oob-global" in _high_rules(result.san)

    def test_repeated_blocks_dedup_to_one_finding_per_site(self):
        bk = broken_by_name("global_oob_store")
        dev = Device()
        x = dev.to_device(np.arange(N, dtype=np.float32), "x")
        out = dev.alloc(N, np.float32, "out")
        result = launch(bk.kern, (4,), (N // 4,), (x, out, N),
                        device=dev, executor="sanitized")
        oob = [f for f in result.san.all_findings()
               if f.rule == "oob-global" and f.severity >= Severity.HIGH]
        assert len(oob) == 1

    def test_sanitized_run_is_bit_identical(self):
        app = get_app("saxpy", DEFAULT_DEVICE)
        wl = app.default_workload("test")
        plain = app.run(wl, functional=True)
        state, sanitized = _sanitized_app_run("saxpy")
        assert not state.high_findings()
        assert set(plain.outputs) == set(sanitized.outputs)
        for k in plain.outputs:
            assert np.array_equal(plain.outputs[k], sanitized.outputs[k])


class TestLaunchDataflow:
    """R7: static launch-sequence classification and its dynamic mirror."""

    def test_lbm_intermediate_is_fusable_private(self):
        flow = launch_dataflow("lbm", DEFAULT_DEVICE)
        assert flow.arrays["f_b"].classification == "fusable-private"
        assert flow.arrays["f_a"].classification == "live-out"

    def test_fdtd_fields_are_loop_carried(self):
        flow = launch_dataflow("fdtd", DEFAULT_DEVICE)
        for name in ("Hx", "Hy", "Ez"):
            assert flow.arrays[name].classification == "loop-carried"

    def test_dataflow_findings_emitted(self):
        flow = launch_dataflow("lbm", DEFAULT_DEVICE)
        assert any(f.rule == "launch-dataflow" for f in flow.findings)

    def test_dynamic_log_agrees_with_static_for_lbm(self):
        state, _run = _sanitized_app_run("lbm")
        observed = classify_dataflow(state.launch_accesses())
        assert observed["f_b"].classification == "fusable-private"
        assert observed["f_a"].classification == "live-out"

    def test_same_named_kernels_keep_their_own_footprints(self):
        """Two kernels sharing a name, signature, grid and array names
        are still two footprints: ``consume`` reads what ``produce``
        wrote."""
        dev = Device()
        a = dev.alloc(8 * 64, np.float32, "A")
        b = dev.alloc(8 * 64, np.float32, "B")
        plans = [LaunchPlan.build(k, (8,), (64,), (a, b), device=dev)
                 for k in (step_produce, step_consume)]
        flow = analyze_launch_sequence(plans)
        alone = analyze_launch_sequence(plans[1:])
        assert [(la.reads, la.writes) for la in flow.launches] == \
            [(("B",), ("A",)), (("A",), ("B",))]
        assert flow.launches[1].reads == alone.launches[0].reads
        assert flow.arrays["A"].classification == "fusable-private"
        assert flow.arrays["B"].classification == "live-out"

    def test_a_store_only_the_last_block_makes_is_seen(self):
        """``flag`` is written by ``mark_last``'s last block alone, then
        read: both R7 and the sanitizer's launch log call it
        fusable-private (block (0,0,0) never stores it)."""
        dev = Device()
        flag = dev.alloc(32, np.float32, "flag")
        out = dev.alloc(4 * 32, np.float32, "out")
        executor = SanitizedExecutor()
        plans = []
        with observe_plans(plans.append):
            launch(mark_last, (4,), (32,), (flag,), device=dev,
                   executor=executor)
            launch(read_flag, (4,), (32,), (flag, out), device=dev,
                   executor=executor)
        assert out.to_host().min() == 1.0
        static = analyze_launch_sequence(plans).arrays
        dynamic = classify_dataflow(executor.state.launch_accesses())
        for flow in (static, dynamic):
            assert flow["flag"].classification == "fusable-private"
            assert flow["out"].classification == "live-out"

    def test_one_statement_read_modify_write_reads_incoming(self):
        """Arguments run before their call: ``y`` is loaded before the
        store that encloses the load."""
        dev = Device()
        x = dev.alloc(64, np.float32, "x")
        y = dev.alloc(64, np.float32, "y")
        plan = LaunchPlan.build(axpy_in_place, (2,), (32,), (x, y, 2.0),
                                device=dev)
        (access,) = analyze_launch_sequence([plan]).launches
        assert access.reads == ("x", "y")
        assert access.writes == ("y",)
        assert access.reads_incoming == ("x", "y")

    def test_ir_lists_calls_in_the_order_they_run(self):
        ir = lower_kernel(get_app("saxpy").lint_targets()[0].kernel)
        (store,) = [i for blk in ir.blocks for i in blk.instrs
                    if "st_global" in i.ops]
        assert store.ops == ("fma", "st_global")
        (rmw,) = [i for blk in lower_kernel(axpy_in_place).blocks
                  for i in blk.instrs if "st_global" in i.ops]
        assert rmw.ops == ("global_tid", "global_tid", "ld_global",
                           "global_tid", "ld_global", "fma", "st_global")
        assert [(a.op, a.name) for a in rmw.accesses] == [
            ("ld_global", "x"), ("ld_global", "y"), ("st_global", "y")]

    def test_helpers_are_read_where_they_are_called(self):
        """A nested ``def`` reads the kernel's arrays through its
        closure; a helper that receives ``ctx`` reads the array it is
        passed; a ``try``'s ``else`` arm is read too."""
        dev = Device()
        src = dev.alloc(64, np.float32, "src")
        dst = dev.alloc(64, np.float32, "dst")
        kernels = (copy_via_nested_def, copy_via_helper, copy_in_try_else)
        plans = [LaunchPlan.build(k, (2,), (32,), (src, dst), device=dev)
                 for k in kernels]
        flow = analyze_launch_sequence(plans)
        assert [(la.reads, la.writes, la.reads_incoming)
                for la in flow.launches] == [
            (("src",), ("dst",), ("src",))] * len(kernels)
        assert not [f for f in flow.findings if "not read" in f.message]

    def test_unread_code_makes_the_footprint_conservative(self):
        dev = Device()
        src = dev.alloc(64, np.float32, "src")
        dst = dev.alloc(64, np.float32, "dst")
        plan = LaunchPlan.build(copy_via_lambda, (2,), (32,), (src, dst),
                                device=dev)
        flow = analyze_launch_sequence([plan, plan])
        for la in flow.launches:
            assert la.reads == la.writes == la.reads_incoming == (
                "src", "dst")
        (note,) = [f for f in flow.findings if "not read" in f.message]
        assert note.severity is Severity.INFO
        assert note.kernel == "copy_via_lambda"
        assert "lambda" in note.message

    def test_r7_interprets_no_block(self, monkeypatch):
        from repro.analysis.interp import KernelInterp

        def refuse(self, *args, **kwargs):
            raise AssertionError("R7 interpreted a block")

        monkeypatch.setattr(KernelInterp, "run", refuse)
        flow = launch_dataflow("fdtd", DEFAULT_DEVICE)
        assert flow.arrays["Ez"].classification == "loop-carried"


@kernel("step", regs_per_thread=4)
def step_produce(ctx, a, b):
    i = ctx.global_tid()
    ctx.st_global(a, i, ctx.ld_global(b, i))


@kernel("step", regs_per_thread=4)
def step_consume(ctx, a, b):
    i = ctx.global_tid()
    ctx.st_global(b, i, ctx.ld_global(a, i))


@kernel("mark_last", regs_per_thread=4, batchable=False)
def mark_last(ctx, flag):
    if ctx.bx == ctx.gridDim.x - 1:
        ctx.st_global(flag, ctx.tx, np.ones(ctx.nthreads, np.float32))


@kernel("read_flag", regs_per_thread=4)
def read_flag(ctx, flag, out):
    ctx.st_global(out, ctx.global_tid(), ctx.ld_global(flag, ctx.tx))


@kernel("axpy_in_place", regs_per_thread=4)
def axpy_in_place(ctx, x, y, a):
    ctx.st_global(y, ctx.global_tid(), ctx.fma(
        a, ctx.ld_global(x, ctx.global_tid()),
        ctx.ld_global(y, ctx.global_tid())))


def _load(ctx, arr, i):
    return ctx.ld_global(arr, i)


@kernel("copy_via_helper", regs_per_thread=4)
def copy_via_helper(ctx, src, dst):
    i = ctx.global_tid()
    ctx.st_global(dst, i, _load(ctx, src, i))


@kernel("copy_via_nested_def", regs_per_thread=4)
def copy_via_nested_def(ctx, src, dst):
    def load(i):
        return ctx.ld_global(src, i)

    i = ctx.global_tid()
    ctx.st_global(dst, i, load(i))


@kernel("copy_in_try_else", regs_per_thread=4)
def copy_in_try_else(ctx, src, dst):
    try:
        v = ctx.ld_global(src, ctx.global_tid())
    except IndexError:
        v = None
    else:
        ctx.st_global(dst, ctx.global_tid(), v)


@kernel("copy_via_lambda", regs_per_thread=4)
def copy_via_lambda(ctx, src, dst):
    load = lambda i: ctx.ld_global(src, i)  # noqa: E731
    i = ctx.global_tid()
    ctx.st_global(dst, i, load(i))


class TestWarpsimSynccheck:
    def _stream(self):
        from repro.sim.warpsim import StreamEvent
        return [StreamEvent(InstrClass.IALU),
                StreamEvent(InstrClass.SYNC),
                StreamEvent(InstrClass.IALU)]

    def test_clean_stream_emits_nothing(self):
        from repro.sim.warpsim import simulate_sm
        state = SanState()
        simulate_sm(self._stream(), warps_per_block=4, blocks_per_sm=1,
                    sanitizer=state, kernel_name="clean")
        assert not state.all_findings()

    def test_retired_warp_reports_barrier_mismatch(self, monkeypatch):
        # force one warp to retire without ever reaching the barrier —
        # the shape of a kernel where warps execute different numbers
        # of __syncthreads()
        import repro.sim.warpsim as ws

        class RetiredWarp(ws._Warp):
            def __init__(self, block, wid):
                super().__init__(block, wid)
                if wid == 1:
                    self.done = True

        monkeypatch.setattr(ws, "_Warp", RetiredWarp)
        state = SanState()
        with pytest.raises(RuntimeError):
            ws.simulate_sm(self._stream(), warps_per_block=2,
                           blocks_per_sm=1, sanitizer=state,
                           kernel_name="mismatched")
        findings = state.all_findings()
        assert {f.rule for f in findings} == {"barrier-mismatch"}
        assert "retired without" in findings[0].message

    def test_synccheck_gating_silences_the_report(self, monkeypatch):
        import repro.sim.warpsim as ws

        class RetiredWarp(ws._Warp):
            def __init__(self, block, wid):
                super().__init__(block, wid)
                if wid == 1:
                    self.done = True

        monkeypatch.setattr(ws, "_Warp", RetiredWarp)
        state = SanState(tools=("memcheck",))
        with pytest.raises(RuntimeError):
            ws.simulate_sm(self._stream(), warps_per_block=2,
                           blocks_per_sm=1, sanitizer=state,
                           kernel_name="mismatched")
        assert not state.all_findings()


class TestCheckCLI:
    def test_clean_app_passes_high_gate(self, capsys):
        assert san_check.main(["saxpy", "--fail-on", "high"]) == 0
        assert "saxpy: clean" in capsys.readouterr().out

    def test_json_envelope(self, capsys):
        assert san_check.main(["saxpy", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == san_check.JSON_SCHEMA_VERSION
        assert payload["tools"] == ["initcheck", "memcheck",
                                    "racecheck", "synccheck"]
        (report,) = payload["reports"]
        assert report["app"] == "saxpy"
        assert report["launches"]  # the dynamic R7 log rides along


class TestCrossValidation:
    """The sanitizer side of repro.analysis.validate's sweeps (CI runs
    the full driver)."""

    def test_broken_checks_agree(self):
        checks = broken_checks(DEFAULT_DEVICE)
        assert len(checks) == 2 * len(BROKEN)
        bad = [c.format() for c in checks if not c.ok]
        assert not bad, bad

    def test_clean_check_saxpy(self):
        checks = app_checks(DEFAULT_DEVICE, apps=["saxpy"])
        clean = [c for c in checks
                 if c.check == "clean app unflagged by both sides"]
        assert len(clean) == 1
        assert all(c.ok for c in checks)
