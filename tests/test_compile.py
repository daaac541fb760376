"""Grid compiler: lowering rules, program cache and fallback plumbing.

The AOT compiler in :mod:`repro.compile` lowers DSL kernels into
whole-grid NumPy programs.  These tests pin its contract surface: what
compiles (the matmul ladder), what is refused and why (order-sensitive
kernels, sync under divergence, nested scopes), that refusals are
cached and surfaced (lint INFO finding, obs fallback counter with its
reason) and that a static census fills the same profiler fields a
dynamic trace would.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.interp import LintContext
from repro.apps.matmul import build_kernel
from repro.compile import (
    CompileError,
    GridRT,
    LaneCount,
    NP_SHIM,
    clear_program_cache,
    compile_kernel,
    compile_status,
    get_program,
    prelude_for,
)
from repro.cuda import (
    CompiledExecutor,
    Device,
    LaunchPlan,
    SequentialExecutor,
    kernel,
    launch,
)
from repro.cuda.context import CTX_OPS, BlockContext
from repro.obs.profiler import LaunchProfiler, LaunchRecord


# ----------------------------------------------------------------------
# What compiles
# ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["naive", "tiled", "tiled_unrolled",
                                     "prefetch"])
def test_matmul_ladder_compiles(variant):
    kern = build_kernel(variant, 16)
    ok, reason = compile_status(kern)
    assert ok, reason
    program = get_program(kern)
    assert program.kernel_name == kern.name
    assert "__rt" in program.source
    if variant != "naive":
        # every tiled variant synchronizes around the shared-memory
        # staging loop; the lowerer must have found those points
        assert program.sync_points > 0


def test_program_cache_returns_same_object():
    kern = build_kernel("tiled", 16)
    assert get_program(kern) is get_program(kern)
    clear_program_cache()
    again = get_program(kern)
    assert again.source == compile_kernel(kern).source


# ----------------------------------------------------------------------
# What is refused, and how the refusal is surfaced
# ----------------------------------------------------------------------

@kernel("order_sensitive", regs_per_thread=4, batchable=False)
def order_sensitive(ctx, out):
    ctx.st_global(out, ctx.global_tid() * 0, ctx.tid.astype(np.float32))


@kernel("sync_in_branch", regs_per_thread=4)
def sync_in_branch(ctx, out):
    i = ctx.global_tid()
    with ctx.masked(i < 8):
        ctx.sync()
    ctx.st_global(out, i, i.astype(np.float32))


def test_non_batchable_is_refused_at_the_gate():
    ok, reason = compile_status(order_sensitive)
    assert not ok
    assert "batchable=False" in reason


def test_batchable_refusal_does_not_depend_on_the_program_cache():
    """``batchable`` is a property of the Kernel, not of the function
    content the program cache is keyed by: a cached program must not
    admit an order-sensitive copy of the kernel, and a refused copy
    must not refuse the batchable original."""
    kern = build_kernel("tiled", 16)
    order_sensitive = dataclasses.replace(kern, batchable=False)
    for first, second in ((kern, order_sensitive), (order_sensitive, kern)):
        clear_program_cache()
        compile_status(first)
        assert compile_status(kern) == (True, "")
        ok, reason = compile_status(order_sensitive)
        assert not ok and "batchable=False" in reason


def test_sync_inside_divergence_is_refused():
    with pytest.raises(CompileError, match="divergent"):
        compile_kernel(sync_in_branch)
    ok, reason = compile_status(sync_in_branch)
    assert not ok and "divergent" in reason


def test_refusal_is_negatively_cached():
    clear_program_cache()
    with pytest.raises(CompileError) as first:
        get_program(sync_in_branch)
    with pytest.raises(CompileError) as second:
        get_program(sync_in_branch)
    assert first.value is second.value     # cached, not re-lowered


def test_lint_reports_non_compilable_kernels():
    from repro.analysis.rules import rule_compilability
    findings = rule_compilability(compile_status(sync_in_branch),
                                  "sync_in_branch")
    assert len(findings) == 1
    assert findings[0].rule == "compile"
    assert "falls back" in findings[0].message
    assert rule_compilability(compile_status(build_kernel("tiled", 16)),
                              "matmul") == []


def test_fallback_increments_obs_counter():
    # interpreter-legal but compiler-refused: the generator expression
    # is a nested scope the lowerer will not touch
    @kernel("genexp_probe", regs_per_thread=4)
    def genexp_probe(ctx, out):
        i = ctx.global_tid()
        total = sum(x for x in (1.0, 2.0, 3.0))
        ctx.st_global(out, i, (i * 0.0 + total).astype(np.float32))

    @kernel("double_probe", regs_per_thread=4)
    def double_probe(ctx, out):
        i = ctx.global_tid()
        ctx.st_global(out, i, (i * 2).astype(np.float32))

    ok, reason = compile_status(genexp_probe)
    assert not ok and "generator" in reason

    def fallbacks(prof):
        """(launch span, fallback span attrs) of every refusal."""
        return [(root.name, root.attrs["kernel"], child.attrs)
                for root in prof.tracer.roots
                for child in root.children
                if child.name == "compile.fallback"]

    dev = Device()
    out = dev.alloc(8 * 32, np.float32, "out")
    # one executor instance across launches, as app.executor is: the
    # refusal belongs to the launch that was refused, not the instance
    executor = CompiledExecutor()
    with LaunchProfiler(estimate=False) as prof:
        launch(genexp_probe, (8,), (32,), (out,), device=dev,
               executor=executor)
        launch(double_probe, (8,), (32,), (dev.alloc(8 * 32, np.float32),),
               device=dev, executor=executor)
    assert fallbacks(prof) == [("executor.compiled", "genexp_probe",
                                {"kernel": "genexp_probe",
                                 "reason": reason})]
    # and the fallback still computed the right bits
    dev2 = Device()
    out2 = dev2.alloc(8 * 32, np.float32, "out")
    launch(genexp_probe, (8,), (32,), (out2,), device=dev2,
           executor=SequentialExecutor())
    np.testing.assert_array_equal(out.to_host(), out2.to_host())

    # a perf-only launch compiles nothing, so nothing fell back
    with LaunchProfiler(estimate=False) as prof:
        launch(genexp_probe, (8,), (32,), (out,), device=dev,
               functional=False, executor=CompiledExecutor())
    assert [root.name for root in prof.tracer.roots].count(
        "executor.compiled") == 1
    assert fallbacks(prof) == []


# ----------------------------------------------------------------------
# Runtime pieces
# ----------------------------------------------------------------------

def test_lane_allocations_become_broadcast_seeds():
    lanes = LaneCount(256)
    assert isinstance(lanes, int) and lanes == 256
    for fn in (NP_SHIM.zeros, NP_SHIM.ones, NP_SHIM.empty):
        seed = fn(lanes, dtype=np.float32)
        assert seed.shape == (1, 1, 1, 1)
        assert seed.dtype == np.float32
    assert np.all(NP_SHIM.empty(lanes) == 0.0)      # determinism
    full = NP_SHIM.full(lanes, np.float32(3.5))
    assert full.shape == (1, 1, 1, 1) and full[0, 0, 0, 0] == 3.5
    # ordinary shapes pass through untouched
    assert NP_SHIM.zeros(7).shape == (7,)
    assert NP_SHIM.sqrt(np.float32(4.0)) == 2.0


def test_grid_runtime_surface_is_the_reference_surface():
    """Every op the lowering emits as ``__rt.<op>`` (all of CTX_OPS but
    the meta ops, ``sync`` and ``masked``) resolves on GridRT, and every
    value op is the reference's own function, not a copy of it.  The
    census's LintContext runs those same functions (``merge`` and
    ``any_active`` aside, which read its lint mask) and has every
    CTX_OPS op as a class attribute."""
    lowered = {op for op, cat in CTX_OPS.items()
               if cat not in ("meta", "sync", "masked")}
    unresolved = {op for op in lowered
                  if not callable(getattr(GridRT, op, None))}
    assert not unresolved, f"lowered ops GridRT lacks: {unresolved}"
    census_ops = {op for op, cat in CTX_OPS.items()
                  if cat in ("farith", "iarith", "sfu", "cvt", "select")}
    for op in sorted(census_ops | {"merge", "any_active"}):
        assert op not in vars(GridRT) and op not in vars(BlockContext), op
        assert getattr(GridRT, op) is getattr(BlockContext, op), op
    for op in sorted(census_ops):
        assert op not in vars(LintContext), op
        assert getattr(LintContext, op) is getattr(BlockContext, op), op
    unresolved = {op for op in CTX_OPS
                  if not callable(getattr(LintContext, op, None))}
    assert not unresolved, f"CTX_OPS ops LintContext lacks: {unresolved}"


def test_prelude_cache_is_per_geometry():
    dev = Device()
    out = dev.alloc(4 * 8, np.float32, "out")
    plan = LaunchPlan.build(sync_in_branch, (4,), (8,), (out,), device=dev)
    pre = prelude_for(plan.grid, plan.block)
    assert pre is prelude_for(plan.grid, plan.block)


def test_arg_signature_is_hashable_and_stable():
    dev = Device()
    out = dev.alloc(64, np.float32, "out")
    plan = LaunchPlan.build(sync_in_branch, (2,), (32,), (out,), device=dev)
    sig = plan.arg_signature()
    assert hash(sig) == hash(plan.arg_signature())
    other = LaunchPlan.build(sync_in_branch, (2,), (32,), (out,), device=dev)
    assert other.arg_signature() == sig


# ----------------------------------------------------------------------
# Census-synthesized profiler records
# ----------------------------------------------------------------------

def test_launch_record_from_census():
    from repro.analysis.census import census_target
    from repro.analysis.targets import LintArray, LintTarget

    kern = build_kernel("tiled", 8)
    args = (LintArray("A", "global", 32 * 32, "float32"),
            LintArray("B", "global", 32 * 32, "float32"),
            LintArray("C", "global", 32 * 32, "float32"), 32)
    target = LintTarget(kernel=kern, grid=(4, 4), block=(8, 8), args=args)
    dev = Device()
    plan = LaunchPlan.build(kern, (4, 4), (8, 8),
                            (dev.alloc((32, 32), np.float32, "A"),
                             dev.alloc((32, 32), np.float32, "B"),
                             dev.alloc((32, 32), np.float32, "C"), 32),
                            device=dev)
    census = census_target(target, plan.spec)
    rec = LaunchRecord.from_census(census)
    assert rec.executor == "census"
    assert rec.blocks_executed == 0
    assert rec.blocks_traced == census.blocks_sampled
    assert rec.warp_insts > 0


# ----------------------------------------------------------------------
# Bench plumbing
# ----------------------------------------------------------------------

def test_measure_overhead_never_reports_negative():
    from repro.bench.profile_report import measure_overhead
    report = measure_overhead(n=64, repeats=5)
    assert report["repeats"] >= 5
    assert report["overhead_pct"] >= 0.0
    assert {"disabled_seconds", "profiled_seconds",
            "overhead_pct_raw"} <= set(report)
