"""Executor backends: bit-identity and the plan facade.

The pipeline's core contract is that every backend is *observationally
identical* to the reference ``SequentialExecutor``: same device-array
bits, same scaled trace statistics, same block accounting.  The
property tests here drive random grid/block shapes, every registered
application and random matmul tile sizes through the sequential and
AOT-compiled backends and compare everything exactly; the module sweep
does the same per launch, on two device generations, for the trace
replay of :meth:`Application.run_module`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.lbm import Lbm
from repro.apps.matmul import MatMul
from repro.apps.registry import ALL_APPS
from repro.apps.saxpy import Saxpy
from repro.cuda import (
    CompiledExecutor,
    CudaModelError,
    Device,
    LaunchPlan,
    SequentialExecutor,
    choose_executor,
    kernel,
    launch,
    resolve_executor,
)

from .test_golden_traces import DEVICES, trace_counters


@kernel("coords_writer", regs_per_thread=6)
def coords_writer(ctx, out, width):
    """Writes a value derived from every coordinate a kernel can see —
    any widening mistake in the compiled grid program shows up as a bit
    difference somewhere in ``out``."""
    i = ctx.global_tid()
    v = (ctx.bx * 1.0 + ctx.by * 0.5 + ctx.tx * 0.25 + ctx.ty * 0.125
         + ctx.tid * 0.0625)
    with ctx.masked(i < width):
        ctx.st_global(out, i, ctx.fma(v.astype(np.float32),
                                      np.float32(2.0),
                                      np.float32(1.0)))


@kernel("smem_reverser", regs_per_thread=8)
def smem_reverser(ctx, out):
    """Round-trips values through shared memory with a per-block
    permutation — exercises the compiled per-block smem slots."""
    tpb = ctx.threads_per_block
    sh = ctx.shared_alloc(tpb, np.float32, "stage")
    ctx.st_shared(sh, ctx.tid, (ctx.block_linear + ctx.tid).astype(np.float32))
    ctx.sync()
    rev = tpb - 1 - ctx.tid
    ctx.st_global(out, ctx.global_tid(), ctx.ld_shared(sh, rev))


def _run_pair(kern, grid, block, make_args, **kwargs):
    """Run the same launch sequentially and compiled; return both sides."""
    sides = []
    for ex in (SequentialExecutor(), CompiledExecutor()):
        dev = Device()
        args, arrays = make_args(dev)
        res = launch(kern, grid, block, args, device=dev, executor=ex,
                     **kwargs)
        sides.append((res, [a.to_host().copy() for a in arrays]))
    return sides


def _assert_identical(sides):
    r0, outs0 = sides[0]
    for r1, outs1 in sides[1:]:
        for a0, a1 in zip(outs0, outs1):
            np.testing.assert_array_equal(a0, a1)
        assert r0.trace.summary() == r1.trace.summary()
        assert r0.blocks_executed == r1.blocks_executed
        assert r0.blocks_traced == r1.blocks_traced
        assert r0.smem_bytes_per_block == r1.smem_bytes_per_block


# ----------------------------------------------------------------------
# Random-shape bit-identity
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(gx=st.integers(1, 8), gy=st.integers(1, 6),
       bx=st.integers(1, 32), by=st.integers(1, 4))
def test_compiled_identical_across_shapes(gx, gy, bx, by):
    width = gx * gy * bx * by  # full coverage, no tail

    def make(dev):
        out = dev.alloc(width, np.float32, "out")
        return (out, width), [out]

    _assert_identical(_run_pair(coords_writer, (gx, gy), (bx, by), make))


@settings(max_examples=15, deadline=None)
@given(nblocks=st.integers(1, 24), tpb=st.sampled_from([8, 32, 64]))
def test_compiled_shared_memory_identical(nblocks, tpb):
    def make(dev):
        out = dev.alloc(nblocks * tpb, np.float32, "out")
        return (out,), [out]

    _assert_identical(_run_pair(smem_reverser, (nblocks,), (tpb,), make))


# ----------------------------------------------------------------------
# Application-level bit-identity (matmul / SAXPY / LBM)
# ----------------------------------------------------------------------

def _app_outputs(app, workload, executor):
    app.executor = executor
    run = app.run(workload, functional=True)
    return run


def _launch_counters(launch):
    return (trace_counters(launch.trace), launch.smem_bytes_per_block,
            launch.blocks_traced)


def _assert_app_identical(app_cls, workload, make_spec=None):
    """Outputs, the merged trace summary and, launch by launch, every
    trace counter the golden traces pin agree between the sequential
    and the compiled executor (on ``make_spec()``, else the default
    device)."""
    def run(executor):
        app = app_cls() if make_spec is None else app_cls(make_spec())
        return _app_outputs(app, dict(workload), executor)

    ref, comp = run("sequential"), run("compiled")
    assert set(ref.outputs) == set(comp.outputs)
    for key in ref.outputs:
        np.testing.assert_array_equal(ref.outputs[key], comp.outputs[key])
    assert ref.merged_trace.summary() == comp.merged_trace.summary()
    assert [_launch_counters(launch) for launch in ref.launches] == \
        [_launch_counters(launch) for launch in comp.launches]


@settings(max_examples=10, deadline=None)
@given(k=st.integers(2, 5),
       tile=st.sampled_from([4, 8, 16]),
       variant=st.sampled_from(["naive", "tiled", "tiled_unrolled",
                                "prefetch"]))
def test_matmul_identical_across_backends(k, tile, variant):
    _assert_app_identical(
        MatMul, {"n": tile * k, "variant": variant, "tile": tile})


@settings(max_examples=8, deadline=None)
@given(n=st.integers(64, 2048), iters=st.integers(1, 3))
def test_saxpy_identical_under_compiled(n, iters):
    _assert_app_identical(Saxpy, {"n": n, "a": 2.5, "iterations": iters})


@settings(max_examples=6, deadline=None)
@given(nx=st.sampled_from([32, 64]), ny=st.sampled_from([8, 16]),
       layout=st.sampled_from(["aos", "soa", "texture"]))
def test_lbm_identical_under_compiled(nx, ny, layout):
    _assert_app_identical(
        Lbm, {"nx": nx, "ny": ny, "steps": 2, "total_steps": 2,
              "layout": layout})


@pytest.mark.parametrize("name", list(ALL_APPS))
def test_every_app_identical_under_compiled(name):
    """The full-suite bit-identity sweep: every registered application's
    test workload must produce byte-identical outputs and, launch by
    launch, identical trace counters under the compiled executor
    (whether the kernel compiles or falls back to the sequential
    reference backend), on the G80 and on Fermi."""
    app_cls = ALL_APPS[name]
    for make_spec in DEVICES.values():
        workload = app_cls(make_spec()).default_workload("test")
        _assert_app_identical(app_cls, workload, make_spec)


@pytest.mark.parametrize("name", list(ALL_APPS))
def test_every_app_identical_under_module(name):
    """The same sweep through the whole-application AOT module path
    (:meth:`Application.run_module`) on the G80 and on Fermi: fused
    execution, trace replay and per-launch fallback must all stay
    observationally identical to the sequential reference, launch by
    launch, in every trace counter the golden traces pin — apps
    without a declared schedule fall back to the ordinary functional
    run."""
    app_cls = ALL_APPS[name]
    for make_spec in DEVICES.values():
        workload = app_cls(make_spec()).default_workload("test")
        ref = _app_outputs(app_cls(make_spec()), dict(workload),
                           "sequential")
        mod = app_cls(make_spec()).run_module(dict(workload))
        assert set(ref.outputs) == set(mod.outputs)
        for key in ref.outputs:
            np.testing.assert_array_equal(ref.outputs[key],
                                          mod.outputs[key])
        assert [_launch_counters(l) for l in ref.launches] == \
            [_launch_counters(l) for l in mod.launches]


# ----------------------------------------------------------------------
# The functional=False + trace=False regression (old silent no-op)
# ----------------------------------------------------------------------

def test_no_work_launch_rejected():
    dev = Device()
    out = dev.alloc(64, np.float32, "out")
    with pytest.raises(CudaModelError, match="zero blocks"):
        launch(coords_writer, (2,), (32,), (out, 64), device=dev,
               functional=False, trace=False)


# ----------------------------------------------------------------------
# Read-only memory spaces
# ----------------------------------------------------------------------

@kernel("read_only_histogram", regs_per_thread=4)
def read_only_histogram(ctx, hist):
    ctx.atom_global_add(hist, ctx.global_tid() % 4, 1.0)


@pytest.mark.parametrize("upload", ["to_constant", "to_texture"])
@pytest.mark.parametrize("executor", ["sequential", "compiled", "sanitized"])
def test_atomics_refuse_read_only_arrays(executor, upload):
    """An atomic on a constant or texture array raises like a store
    does, on every executor, and leaves the array untouched.  Untraced,
    so the compiled launch runs every block in the grid runtime."""
    from repro.compile import compile_status
    assert compile_status(read_only_histogram)[0]
    dev = Device()
    hist = getattr(dev, upload)(np.zeros(4, np.float32), "c")
    with pytest.raises(CudaModelError, match="atom_global_add on"):
        launch(read_only_histogram, (8,), (8,), (hist,), device=dev,
               trace=False, executor=executor)
    np.testing.assert_array_equal(hist.data, np.zeros(4, np.float32))


# ----------------------------------------------------------------------
# Resolution / selection policy
# ----------------------------------------------------------------------

def test_resolve_executor_accepts_all_spellings():
    assert isinstance(resolve_executor(None), SequentialExecutor)
    assert isinstance(resolve_executor("compiled"), CompiledExecutor)
    assert isinstance(resolve_executor(CompiledExecutor), CompiledExecutor)
    inst = SequentialExecutor()
    assert resolve_executor(inst) is inst
    for gone in ("vectorized", "batched", "process"):
        with pytest.raises(CudaModelError,
                           match="unknown executor.*'compiled'"):
            resolve_executor(gone)


def test_auto_policy_prefers_compiled_for_functional_sweeps():
    dev = Device()
    out = dev.alloc(64 * 32, np.float32, "out")
    plan = LaunchPlan.build(coords_writer, (64,), (32,), (out, 64 * 32),
                            device=dev, functional=True)
    assert isinstance(choose_executor(plan), CompiledExecutor)
    perf = LaunchPlan.build(coords_writer, (64,), (32,), (out, 64 * 32),
                            device=dev, functional=False)
    assert isinstance(choose_executor(perf), SequentialExecutor)


def test_auto_policy_tiny_grids_stay_sequential():
    # a 2-block sweep is below MIN_VECTOR_BLOCKS: vectorization setup
    # costs more than it saves, so "auto" keeps the reference backend
    dev = Device()
    out = dev.alloc(2 * 32, np.float32, "out")
    plan = LaunchPlan.build(coords_writer, (2,), (32,), (out, 2 * 32),
                            device=dev, functional=True)
    assert isinstance(choose_executor(plan), SequentialExecutor)


def test_unsupported_construct_falls_back_to_sequential():
    """A kernel the lowerer refuses (a generator expression is a nested
    scope it will not touch) must still run under executor="compiled"
    via the sequential fallback and match the reference bits."""

    @kernel("generator_probe", regs_per_thread=4)
    def probe(ctx, out):
        i = ctx.global_tid()
        # generator expressions lower to a nested lambda-like scope the
        # grid compiler deliberately refuses
        total = sum(x for x in (1.0, 2.0))
        ctx.st_global(out, i, (i * 0.0 + total).astype(np.float32))

    from repro.compile import compile_status
    ok, reason = compile_status(probe)
    assert not ok and reason

    def make(dev):
        out = dev.alloc(6 * 32, np.float32, "out")
        return (out,), [out]

    _assert_identical(_run_pair(probe, (6,), (32,), make))


def test_non_batchable_kernel_falls_back_to_sequential():
    scalar_probe = coords_writer.fn

    @kernel("scalar_block_probe", regs_per_thread=6, batchable=False)
    def probe(ctx, out, width):
        # Python-level use of the scalar block coordinate: legal only
        # on the sequential backend, hence batchable=False
        _offset = int(ctx.block_linear) * 0.0
        scalar_probe(ctx, out, width)

    dev = Device()
    out = dev.alloc(8 * 32, np.float32, "out")
    res = launch(probe, (8,), (32,), (out, 8 * 32), device=dev,
                 executor=CompiledExecutor())
    dev2 = Device()
    out2 = dev2.alloc(8 * 32, np.float32, "out")
    launch(coords_writer, (8,), (32,), (out2, 8 * 32), device=dev2)
    np.testing.assert_array_equal(out.to_host(), out2.to_host())
    assert res.blocks_executed == 8
