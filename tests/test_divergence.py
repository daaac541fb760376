"""Kernel IR, uniformity lattice and R8 divergence analysis.

Pins the PR-9 contract surface:

* the CFG/dominator IR lowers real kernels into the expected block /
  loop / reconvergence structure;
* the uniformity lattice is a join-semilattice (hypothesis: join is
  commutative, idempotent, associative and monotone) and the interp's
  mask stack always balances (push/pop under random nesting);
* R8 classifies the broken catalogue's divergent barriers HIGH and
  proven-uniform branches INFO (golden verdicts);
* the trace's divergence counters agree with the warpsim replay of
  the same launch, and a uniform kernel records zeros everywhere;
* the compiler's uniformity gate admits masked barriers the dataflow
  proves uniform (bit-identical to the sequential executor) while
  still refusing thread-varying ones;
* ``lint --list-rules`` prints the full R1–R8 catalogue and the JSON
  envelope carries it at schema v4;
* the cross-validation harness agrees on a clean app + the broken
  catalogue.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.divergence import (
    SEED_UNIFORMITY,
    Uniformity,
    analyze_divergence,
    join,
    uniform_mask_lines,
)
from repro.analysis.findings import Severity
from repro.analysis.interp import LintContext, Recorder
from repro.analysis.ir import lower_kernel
from repro.analysis.rules import RULES, analyze_target, rule_divergence
from repro.analysis.targets import LintTarget, garr
from repro.arch import DEFAULT_DEVICE
from repro.compile import CompileError, compile_kernel, compile_status
from repro.cuda import (
    CompiledExecutor,
    Device,
    Dim3,
    SequentialExecutor,
    kernel,
    launch,
)

N = 256


# ----------------------------------------------------------------------
# Kernels under test (must live in a real file for inspect.getsource)
# ----------------------------------------------------------------------

@kernel("div_half_warp", regs_per_thread=4)
def div_half_warp(ctx, x, out, n):
    """Every warp diverges: odd lanes take the branch."""
    tid = ctx.tid
    v = ctx.ld_global(x, tid)
    with ctx.masked(tid % 2 == 0):
        v = ctx.fadd(v, 1.0)
    ctx.st_global(out, tid, v)


@kernel("div_uniform", regs_per_thread=4)
def div_uniform(ctx, x, out, n):
    """Branch on a scalar parameter: provably uniform."""
    tid = ctx.tid
    v = ctx.ld_global(x, tid)
    with ctx.masked(n > 0):
        v = ctx.fadd(v, 1.0)
    ctx.st_global(out, tid, v)


@kernel("uniform_masked_sync", regs_per_thread=4)
def uniform_masked_sync(ctx, x, out, flag):
    """Barrier under a scalar-parameter mask — uniform, compilable."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N, np.float32, "buf")
    ctx.st_shared(buf, tid, ctx.ld_global(x, tid))
    with ctx.masked(flag > 0):
        ctx.sync()
    ctx.st_global(out, tid, ctx.ld_shared(buf, tid))


@kernel("block_masked_sync", regs_per_thread=4)
def block_masked_sync(ctx, x, out, n):
    """Barrier under a block-uniform mask — no thread of a false
    block reaches it, so lowering it unconditionally is sound."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N, np.float32, "buf")
    ctx.st_shared(buf, tid, ctx.ld_global(x, tid))
    with ctx.masked(ctx.bx == 0):
        ctx.sync()
    ctx.st_global(out, tid, ctx.ld_shared(buf, tid))


@kernel("varying_masked_sync", regs_per_thread=4)
def varying_masked_sync(ctx, x, out, n):
    """Barrier under a thread-varying mask — must stay refused."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N, np.float32, "buf")
    ctx.st_shared(buf, tid, ctx.ld_global(x, tid))
    with ctx.masked(tid < 8):
        ctx.sync()
    ctx.st_global(out, tid, ctx.ld_shared(buf, tid))


def _target(kern, extra=0):
    return LintTarget(kern, (1,), (N,),
                      (garr("x", N), garr("out", N), extra))


def _run(kern, executor, flag=1):
    dev = Device()
    x = dev.to_device(np.arange(N, dtype=np.float32), "x")
    out = dev.alloc(N, np.float32, "out")
    launch(kern, (2,), (N,), (x, out, flag), device=dev,
           executor=executor)
    return out.to_host()


# ----------------------------------------------------------------------
# IR structure
# ----------------------------------------------------------------------

def test_ir_lowers_branchy_kernel():
    ir = lower_kernel(div_half_warp)
    assert ir.name == "div_half_warp"
    assert len(ir.blocks) >= 3          # entry, masked body, join
    assert ir.entry in ir.reachable
    # the masked region reconverges: some block post-dominates the
    # branch head and is not inside its influence region
    heads = [b.index for b in ir.blocks if len(b.succs) > 1]
    assert heads, "branch head missing from the CFG"
    for head in heads:
        join_block = ir.reconvergence(head)
        assert join_block is not None
        assert join_block not in ir.influence_region(head)


def test_ir_is_memoized():
    assert lower_kernel(div_half_warp) is lower_kernel(div_half_warp)


# ----------------------------------------------------------------------
# Uniformity lattice (hypothesis)
# ----------------------------------------------------------------------

uniformity = st.sampled_from(list(Uniformity))


@settings(max_examples=60, deadline=None)
@given(a=uniformity, b=uniformity)
def test_join_is_commutative(a, b):
    assert join(a, b) == join(b, a)


@settings(max_examples=30, deadline=None)
@given(a=uniformity)
def test_join_is_idempotent(a):
    assert join(a, a) == a


@settings(max_examples=60, deadline=None)
@given(a=uniformity, b=uniformity, c=uniformity)
def test_join_is_associative(a, b, c):
    assert join(join(a, b), c) == join(a, join(b, c))


@settings(max_examples=60, deadline=None)
@given(a=uniformity, b=uniformity, c=uniformity)
def test_join_is_monotone(a, b, c):
    # a <= b  implies  a v c <= b v c (the dataflow only ever climbs)
    if a <= b:
        assert join(a, c) <= join(b, c)


def test_lattice_seeds_cover_thread_and_block_ids():
    assert SEED_UNIFORMITY["tid"] is Uniformity.VARYING
    assert SEED_UNIFORMITY["bx"] is Uniformity.BLOCK_UNIFORM
    assert Uniformity.UNIFORM < Uniformity.BLOCK_UNIFORM \
        < Uniformity.VARYING


# ----------------------------------------------------------------------
# Interp mask stack balance (hypothesis)
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_interp_mask_stack_balances(data):
    ctx = LintContext(DEFAULT_DEVICE, Dim3(1), Dim3(64), (0, 0, 0),
                      Recorder())
    depth = data.draw(st.integers(1, 5))
    cutoffs = [data.draw(st.integers(0, 64)) for _ in range(depth)]

    def nest(level):
        if level == len(cutoffs):
            ctx.fadd(1.0, 2.0)
            return
        with ctx.masked(ctx.tid < cutoffs[level]):
            nest(level + 1)

    nest(0)
    assert len(ctx._mask_stack) == 1        # balanced after exit
    trace = ctx.census
    assert 0 <= trace.divergent_branch_warps <= trace.branch_warps
    assert trace.divergence_serialized_warp_insts \
        <= trace.total_warp_insts
    assert 0.0 <= trace.divergent_branch_fraction <= 1.0
    assert 0.0 <= trace.divergence_serialized_fraction <= 1.0


# ----------------------------------------------------------------------
# R8 golden verdicts
# ----------------------------------------------------------------------

def test_r8_flags_divergent_sync_high():
    from repro.san.broken import broken_by_name
    for name in ("divergent_sync", "nested_divergent_sync",
                 "data_dependent_sync"):
        report = analyze_target(broken_by_name(name).target())
        highs = [f for f in report.findings
                 if f.rule == "divergence" and f.severity is Severity.HIGH]
        assert highs, f"{name}: R8 HIGH missing"
        assert "thread-varying" in highs[0].message
        assert report.divergence["divergent_syncs"] >= 1


def test_r8_proven_uniform_branch_is_info():
    findings, summary = rule_divergence(div_uniform, "div_uniform")
    assert summary["varying_branches"] == 0
    assert summary["divergent_syncs"] == 0
    infos = [f for f in findings if f.severity is Severity.INFO]
    assert infos and "uniform" in infos[0].message


def test_r8_summary_reports_static_fractions():
    report = analyze_target(_target(div_half_warp))
    frac = report.divergence["static_divergent_branch_fraction"]
    assert frac == pytest.approx(1.0)   # every warp splits on tid % 2
    assert report.divergence["static_serialized_fraction"] > 0
    assert not any(f.rule == "divergence"
                   and f.severity is Severity.HIGH
                   for f in report.findings)


def test_analysis_is_memoized_and_classifies_block_uniform():
    assert analyze_divergence(block_masked_sync) \
        is analyze_divergence(block_masked_sync)
    analysis = analyze_divergence(block_masked_sync)
    assert not analysis.divergent_syncs
    lines = uniform_mask_lines(block_masked_sync)
    assert lines        # the bx == 0 mask is provably block-uniform


# ----------------------------------------------------------------------
# Dynamic counters: trace vs warpsim
# ----------------------------------------------------------------------

def test_trace_and_warpsim_agree_on_divergent_kernel():
    from repro.sim.warpsim import simulate_launch
    dev = Device()
    x = dev.to_device(np.arange(N, dtype=np.float32), "x")
    out = dev.alloc(N, np.float32, "out")
    result = launch(div_half_warp, (2,), (N,), (x, out, N), device=dev,
                    record_stream=True)
    trace = result.trace
    assert trace.divergent_branch_warps > 0
    assert trace.divergent_branch_fraction == pytest.approx(1.0)
    sim = simulate_launch(result)
    assert sim.divergent_branches > 0
    assert sim.divergence_serialized_fraction == pytest.approx(
        trace.divergence_serialized_fraction, abs=1e-9)


def test_uniform_kernel_records_no_divergence():
    dev = Device()
    x = dev.to_device(np.arange(N, dtype=np.float32), "x")
    out = dev.alloc(N, np.float32, "out")
    result = launch(div_uniform, (2,), (N,), (x, out, 1), device=dev,
                    record_stream=True)
    trace = result.trace
    assert trace.divergent_branch_warps == 0
    assert trace.divergence_serialized_warp_insts == 0
    from repro.sim.warpsim import simulate_launch
    sim = simulate_launch(result)
    assert sim.divergent_branches == 0
    assert sim.divergence_serialized_fraction == 0.0


def test_profiler_record_carries_divergence_counters():
    from repro.obs.profiler import LaunchProfiler
    dev = Device()
    x = dev.to_device(np.arange(N, dtype=np.float32), "x")
    out = dev.alloc(N, np.float32, "out")
    with LaunchProfiler(estimate=False) as prof:
        launch(div_half_warp, (2,), (N,), (x, out, N), device=dev)
    rec = prof.records[0]
    assert rec.divergent_branch_fraction == pytest.approx(1.0)
    assert rec.divergence_serialized_fraction > 0
    counters = rec.to_dict()["counters"]
    assert counters["divergent_branch_warps"] == \
        rec.divergent_branch_warps
    assert "div_branch=" in rec.digest()


# ----------------------------------------------------------------------
# Compiler uniformity gate (the previously-refused kernels)
# ----------------------------------------------------------------------

def test_uniform_masked_sync_now_compiles_bit_identical():
    ok, reason = compile_status(uniform_masked_sync)
    assert ok, reason
    sequential = _run(uniform_masked_sync, SequentialExecutor())
    compiled = _run(uniform_masked_sync, CompiledExecutor())
    np.testing.assert_array_equal(sequential, compiled)


def test_block_uniform_masked_sync_compiles_bit_identical():
    ok, reason = compile_status(block_masked_sync)
    assert ok, reason
    sequential = _run(block_masked_sync, SequentialExecutor())
    compiled = _run(block_masked_sync, CompiledExecutor())
    np.testing.assert_array_equal(sequential, compiled)


def test_varying_masked_sync_still_refused():
    with pytest.raises(CompileError, match="divergent"):
        compile_kernel(varying_masked_sync)
    ok, reason = compile_status(varying_masked_sync)
    assert not ok and "divergent" in reason


# ----------------------------------------------------------------------
# Rule catalogue / CLI
# ----------------------------------------------------------------------

def test_rules_catalogue_lists_r1_through_r8():
    ids = [r.id for r in RULES]
    assert ids == [f"R{i}" for i in range(1, 9)]
    r8 = RULES[-1]
    assert "divergence" in r8.finding_rules
    assert "high" in r8.severities


def test_lint_list_rules_cli(capsys):
    from repro.analysis.lint import main as lint_main
    assert lint_main(["--list-rules"]) == 0
    text = capsys.readouterr().out
    for rule in RULES:
        assert rule.id in text


def test_lint_json_envelope_carries_rules(capsys):
    from repro.analysis.lint import main as lint_main
    import json
    assert lint_main(["saxpy", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 5
    assert [r["id"] for r in payload["rules"]] \
        == [r.id for r in RULES]


# ----------------------------------------------------------------------
# Cross-validation harness smoke
# ----------------------------------------------------------------------

def test_divergence_checks_agree_on_clean_app_and_broken():
    from repro.analysis.validate import divergence_checks
    checks = divergence_checks(apps=("tpacf",))
    assert checks
    bad = [c.format() for c in checks if not c.ok]
    assert not bad, "\n".join(bad)
    subjects = {c.subject for c in checks}
    assert any(s.startswith("broken/") for s in subjects)
