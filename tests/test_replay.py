"""Launch trace replay: the proof, the layout key and the device cache.

``"auto"`` and the AOT module replay a repeated launch's trace from
``Device.traces`` when two things hold: the launch's
:meth:`~repro.cuda.plan.LaunchPlan.module_key` (geometry, scalars and
the arrays' memory layout, no names) was seen before, and
:func:`~repro.analysis.divergence.replay_proof` shows that the
kernel's address and control streams do not depend on loaded data.
These tests pin the proof's verdicts on the suite's kernels, what the
key tells apart, that a re-executed plan charges its first trace again,
that a refused kernel really needed refusing, and the decisions a
traced launch reports.  The replay-vs-re-trace identity
sweep over every app lives in ``tests/test_executors.py``.
"""

import numpy as np
import pytest

import repro.analysis.divergence as divergence
from repro.analysis.divergence import replay_proof
from repro.analysis.ir import lower_kernel
from repro.apps.cp import cp_kernel
from repro.apps.fdtd import fdtd_e_kernel, fdtd_h_kernel
from repro.apps.fem import Fem, build_mesh_matrix, spmv_kernel
from repro.apps.h264 import motion_search_kernel
from repro.apps.lbm import LAYOUTS, Lbm, lbm_step_kernel
from repro.apps.mri_fhd import mri_fhd_kernel
from repro.apps.mri_q import MriQ, mri_q_kernel
from repro.apps.rpes import rpes_kernel
from repro.apps.saxpy import Saxpy, saxpy_kernel
from repro.apps.tpacf import Tpacf, tpacf_kernel
from repro.arch.registry import device_by_name, device_names
from repro.cuda import Device, LaunchPlan, kernel
from repro.obs.spans import SpanTracer, use_tracer
from repro.sim.memsys import READ_ONLY_LINE_BYTES, coalesce_period

from .test_golden_traces import DEVICES, trace_counters


# ----------------------------------------------------------------------
# The proof's verdicts
# ----------------------------------------------------------------------

ADMITTED = {
    "saxpy": saxpy_kernel(), "h264": motion_search_kernel(),
    **{f"lbm-{layout}": lbm_step_kernel(layout) for layout in LAYOUTS},
    "fdtd-h": fdtd_h_kernel(), "fdtd-e": fdtd_e_kernel(),
    "mri-q": mri_q_kernel(), "mri-fhd": mri_fhd_kernel(), "cp": cp_kernel(),
}


@pytest.mark.parametrize("name", list(ADMITTED))
def test_proof_admits_data_independent_kernels(name):
    proof = replay_proof(ADMITTED[name])
    assert proof.admitted and proof.reason == ""


def test_proof_refuses_the_csr_gather():
    """fem's row loop walks ``ptr = start + k`` from a loaded row start
    and gathers ``x[col]`` with a loaded column: both are DATA."""
    proof = replay_proof(spmv_kernel())
    assert not proof.admitted
    assert proof.reason.startswith("ld_global index ptr")
    assert any(r.startswith("ld_global index col") for r in proof.refusals)
    assert any(r.startswith("while condition nnz") for r in proof.refusals)


def test_proof_refuses_the_binary_search():
    """tpacf's search reads ``sedges[mid - 1]`` with ``mid`` derived
    from loaded coordinates, and its histogram slot from the result."""
    proof = replay_proof(tpacf_kernel())
    assert proof.reason.startswith("ld_shared index mid")
    assert any(r.startswith("st_shared index slot") for r in proof.refusals)


def test_proof_refuses_what_the_ir_cannot_see():
    """rpes loads inside nested helpers; a call that receives ``ctx``
    hides its body the same way."""
    assert replay_proof(rpes_kernel()).reason.startswith(
        "nested def shell_const")

    def helper(ctx, out, i):
        ctx.st_global(out, i, ctx.ld_global(out, i))

    @kernel("calls_helper", regs_per_thread=4)
    def calls_helper(ctx, out):
        helper(ctx, out, ctx.global_tid())

    assert replay_proof(calls_helper).reason.startswith(
        "helper receives ctx")


@kernel("loaded_count", regs_per_thread=4)
def loaded_count(ctx, counts, out):
    i = ctx.global_tid()
    n = ctx.ld_global(counts, i * 0)
    ctx.address_ops(int(n[0]))
    ctx.st_global(out, i, n)


@kernel("raw_storage_index", regs_per_thread=4)
def raw_storage_index(ctx, table, out):
    i = ctx.global_tid()
    j = table.data[i % table.size]
    ctx.st_global(out, j % out.size, i)


@kernel("guarded_load", regs_per_thread=4)
def guarded_load(ctx, flags, out):
    i = ctx.global_tid()
    flag = ctx.ld_global(flags, i)
    v = ctx.ld_global(out, i) if flag.any() else i
    ctx.st_global(out, i, v)


@kernel("nested_load_index", regs_per_thread=4)
def nested_load_index(ctx, idx, out):
    i = ctx.global_tid()
    ctx.st_global(out, ctx.ld_global(idx, i), i)


@kernel("accumulated_gather", regs_per_thread=4)
def accumulated_gather(ctx, a, b, out):
    idx = np.zeros(ctx.nthreads, dtype=np.int64)
    idx[:] += ctx.ld_global(a, ctx.tid)
    v = ctx.ld_global(b, idx)
    ctx.st_global(out, ctx.tid, v)


@pytest.mark.parametrize("kern, reason", [
    (loaded_count, "address_ops count n"),
    (raw_storage_index, "st_global index j"),
    (guarded_load, "conditional expression test flag"),
    (nested_load_index, "st_global index ld_global"),
    (accumulated_gather, "ld_global index idx"),
])
def test_proof_follows_data_into_every_charged_operand(kern, reason):
    assert replay_proof(kern).reason.startswith(reason)


def test_ir_records_the_index_operand_names():
    ir = lower_kernel(spmv_kernel())
    operands = [op for blk in ir.blocks for instr in blk.instrs
                for op in instr.operands]
    assert ("ld_global index", ("col",)) in operands
    assert ("ld_global index", ("ptr",)) in operands
    assert ir.opaque == ()
    assert [what for _, what in lower_kernel(rpes_kernel()).opaque] == [
        "nested def shell_const", "nested def shell_shared"]


def test_proof_is_memoized_per_code_object():
    assert replay_proof(saxpy_kernel()) is replay_proof(saxpy_kernel())


# ----------------------------------------------------------------------
# The layout key
# ----------------------------------------------------------------------

def test_second_mri_chunk_keys_equal_to_the_first():
    steps = MriQ().module_schedule({"nvoxels": 512, "nsamples": 2048}).steps
    assert len(steps) == 2
    assert steps[0].module_key() == steps[1].module_key()
    assert steps[0].array_names()[0] == "kx"
    assert steps[1].array_names()[0] != "kx"


def _mri_plan(dev, kern, pad_after_kx=0):
    """One MRI-Q chunk launch; ``pad_after_kx`` words of global memory
    are allocated between ``kx`` and the other constant arrays."""
    chunk = []
    for name in ("kx", "ky", "kz", "phi2"):
        chunk.append(dev.to_constant(np.zeros(1024, np.float32), name))
        if name == "kx" and pad_after_kx:
            dev.alloc(pad_after_kx, np.float32, "pad")
    voxels = [dev.alloc(256, np.float32, name)
              for name in ("x", "y", "z", "Qr", "Qi")]
    dev.reset_constant_space()
    return LaunchPlan.build(kern, (1,), (256,), (*chunk, *voxels, 1024),
                            device=dev, functional=False, trace_blocks=1)


def test_moving_one_constant_array_changes_the_key():
    dev = Device()
    kern = mri_q_kernel()
    first = _mri_plan(dev, kern)
    same = _mri_plan(dev, kern)
    moved = _mri_plan(dev, kern, pad_after_kx=64)
    assert first.module_key() == same.module_key()
    assert first.module_key() != moved.module_key()


def test_lbm_ping_pong_launches_key_apart():
    steps = Lbm().module_schedule({"nx": 32, "ny": 16, "steps": 3,
                                   "layout": "soa"}).steps
    keys = [plan.module_key() for plan in steps]
    assert keys[0] != keys[1]
    assert keys[0] == keys[2]


def test_every_period_divides_the_allocation_alignment():
    """Allocations are ``Device.ALIGN``-aligned; every registered
    device's cache lines and coalescing periods divide it, so the key's
    base residues are 0 and only relative layouts matter."""
    for name in device_names():
        spec = device_by_name(name)
        periods = [READ_ONLY_LINE_BYTES, spec.cache_line_bytes or 1]
        periods += [coalesce_period(size, spec) for size in (1, 2, 4, 8, 16)]
        assert all(Device.ALIGN % p == 0 for p in periods), name
    dev = Device()
    for n in (1, 3, 100, 1000):
        assert dev.alloc(n, np.float32).base_addr % Device.ALIGN == 0


@kernel("host_table", regs_per_thread=4)
def host_table(ctx, out, table):
    i = ctx.global_tid()
    ctx.st_global(out, i, table[i % table.size])


def test_unhashable_scalar_bypasses_the_cache():
    """A host array passed as a scalar has no key: the launch traces."""
    dev = Device()
    out = dev.alloc(64, np.float32, "out")
    table = np.arange(8, dtype=np.float32)
    results = [LaunchPlan.build(host_table, (2,), (32,), (out, table),
                                device=dev).execute("auto")
               for _ in range(2)]
    assert [r.memo_hits for r in results] == [0, 0]
    assert dev.traces == {}


# ----------------------------------------------------------------------
# Re-executing a plan
# ----------------------------------------------------------------------

def test_re_executing_a_plan_reads_cold_caches():
    """Each execution builds its own cold caches, so a plan executed
    twice by the reference backend charges one trace twice: constant
    misses, the L1/L2 counters and the global fill traffic included."""
    for name, make_spec in DEVICES.items():
        schedule = MriQ(make_spec()).module_schedule(
            {"nvoxels": 512, "nsamples": 96, "trace_blocks": 2})
        plan = schedule.steps[0]
        first = plan.execute("sequential")
        again = plan.execute("sequential")
        assert first.trace.const_misses > 0, name
        assert trace_counters(again.trace) == trace_counters(first.trace), \
            name


# ----------------------------------------------------------------------
# A refused kernel must re-trace
# ----------------------------------------------------------------------

def _fem_launch(dev):
    """fem's SpMV arguments on ``dev`` and one plan over them (each
    execution reads its own cold caches)."""
    a, x0 = build_mesh_matrix(8)
    args = (dev.to_device(a.indptr, "rowptr"),
            dev.to_device(a.indices, "colidx"),
            dev.to_device(a.data, "values"),
            dev.to_device(x0, "x"), dev.alloc(a.shape[0], np.float32, "y"),
            a.shape[0])
    return args, LaunchPlan.build(spmv_kernel(), (1,), (64,), args,
                                  device=dev, functional=False)


def test_forced_fem_replay_differs_from_a_retrace(monkeypatch):
    """Two launches with equal keys whose column-index arrays hold
    different contents: replaying the first trace for the second would
    be wrong, which is why the proof refuses fem."""
    for make_spec in DEVICES.values():
        dev = Device(make_spec())
        args, plan = _fem_launch(dev)
        first = plan.execute("auto")
        colidx = args[1].data
        colidx[:] = np.random.default_rng(1).permutation(colidx)
        (key,) = dev.traces
        assert plan.module_key() == key
        retrace = plan.execute("sequential")
        monkeypatch.setattr(divergence, "replay_proof",
                            lambda fn: divergence.ReplayProof())
        forced = plan.execute("auto")
        monkeypatch.undo()
        assert forced.memo_hits == forced.blocks_traced == 1
        assert trace_counters(forced.trace) == trace_counters(first.trace)
        assert trace_counters(forced.trace) != trace_counters(retrace.trace)
        honest = plan.execute("auto")
        assert honest.memo_hits == 0
        assert trace_counters(honest.trace) == trace_counters(retrace.trace)


def test_application_run_retraces_fem():
    for make_spec in DEVICES.values():
        run = Fem(make_spec()).run(Fem().default_workload("test"))
        assert len(run.launches) == 2
        assert [launch.memo_hits for launch in run.launches] == [0, 0]


# ----------------------------------------------------------------------
# Decisions on the executor span
# ----------------------------------------------------------------------

def _executor_spans(run_app):
    tracer = SpanTracer()
    with use_tracer(tracer):
        run_app()
    return [node for node, _ in tracer.walk()
            if node.name.startswith("executor.")]


def test_spans_name_the_replay_outcome_and_the_auto_choice():
    spans = _executor_spans(
        lambda: Fem().run(Fem().default_workload("test")))
    assert len(spans) == 2
    assert spans[0].attrs["replay"] == "first trace"
    assert spans[1].attrs["replay"].startswith(
        "refused: ld_global index ptr")

    spans = _executor_spans(
        lambda: Saxpy().run(Saxpy().default_workload("test")))
    assert [s.attrs["replay"] for s in spans] == [
        "first trace", "replayed", "replayed"]
    assert {s.attrs["auto"] for s in spans} == {"compiled"}


@kernel("generator_probe", regs_per_thread=4)
def generator_probe(ctx, out):
    i = ctx.global_tid()
    total = sum(x for x in (1.0, 2.0))     # refused by the grid compiler
    ctx.st_global(out, i, (i * 0.0 + total).astype(np.float32))


def test_auto_reasons_cover_every_branch():
    def first_choice(run_app):
        spans = _executor_spans(run_app)
        return spans[0].attrs["auto"]

    assert first_choice(lambda: Saxpy().run(
        {"n": 4096, "a": 2.5, "iterations": 1}, functional=False)) \
        == "non-functional launch"
    assert first_choice(lambda: Saxpy().run(
        {"n": 512, "a": 2.5, "iterations": 1})) \
        == "0 untraced blocks < MIN_VECTOR_BLOCKS (4)"
    assert first_choice(lambda: Tpacf().run(
        Tpacf().default_workload("test"))) == "batchable=False"

    def refused():
        dev = Device()
        out = dev.alloc(8 * 32, np.float32, "out")
        LaunchPlan.build(generator_probe, (8,), (32,), (out,),
                         device=dev).execute("auto")
    assert first_choice(refused).startswith("compile refused: ")


def test_named_executors_trace_every_launch_and_record_nothing():
    app = Saxpy()
    app.executor = "sequential"
    spans = _executor_spans(
        lambda: app.run(Saxpy().default_workload("test")))
    assert len(spans) == 3
    assert all("replay" not in s.attrs and "auto" not in s.attrs
               for s in spans)


def test_replay_needs_no_tracer():
    run = Saxpy().run(Saxpy().default_workload("test"))
    assert [launch.memo_hits for launch in run.launches] == [
        0, *(launch.blocks_traced for launch in run.launches[1:])]
