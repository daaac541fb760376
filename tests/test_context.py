"""Tests for the kernel DSL: instruction accounting, divergence,
memory semantics and error checking."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEFAULT_DEVICE
from repro.arch.device import geforce_8800_gtx, gtx_480
from repro.cuda import CudaModelError, Device, Dim3, kernel, launch
from repro.cuda.context import BlockContext
from repro.sim.memsys import (DirectMappedCache, bank_conflict_degrees,
                              cold_caches, constant_broadcast_passes)
from repro.trace import InstrClass, KernelTrace


def make_ctx(block=(256,), grid=(1,), coord=(0, 0, 0), traced=True,
             caches=None):
    trace = KernelTrace() if traced else None
    return BlockContext(DEFAULT_DEVICE, Dim3(*grid), Dim3(*block), coord,
                        trace=trace, caches=caches)


class TestThreadIdentity:
    def test_1d_coordinates(self):
        ctx = make_ctx((64,))
        assert ctx.nthreads == 64
        np.testing.assert_array_equal(ctx.tx, np.arange(64))
        assert (ctx.ty == 0).all() and (ctx.tz == 0).all()

    def test_2d_coordinates_x_fastest(self):
        ctx = make_ctx((16, 16))
        assert ctx.tx[17] == 1 and ctx.ty[17] == 1
        assert ctx.tx[255] == 15 and ctx.ty[255] == 15

    def test_global_tid(self):
        ctx = make_ctx((128,), grid=(4,), coord=(2, 0, 0))
        np.testing.assert_array_equal(ctx.global_tid(),
                                      2 * 128 + np.arange(128))

    def test_global_tid_xy(self):
        ctx = make_ctx((16, 16), grid=(8, 8), coord=(3, 5, 0))
        assert ctx.global_tid_x()[0] == 3 * 16
        assert ctx.global_tid_y()[0] == 5 * 16

    def test_warp_count_rounds_up(self):
        assert make_ctx((144,)).nwarps == 5
        assert make_ctx((16,)).nwarps == 1
        assert make_ctx((256,)).nwarps == 8


class TestInstructionAccounting:
    def test_full_block_warp_count(self):
        ctx = make_ctx((256,))
        ctx.fma(1.0, 2.0, 3.0)
        assert ctx.trace.warp_insts[InstrClass.FMA] == 8
        assert ctx.trace.thread_insts[InstrClass.FMA] == 256
        assert ctx.trace.flops == 512

    def test_half_empty_warp_still_issues(self):
        # 16-thread block (4x4 tile): one warp instruction, 16 threads
        ctx = make_ctx((16,))
        ctx.fadd(1.0, 1.0)
        assert ctx.trace.warp_insts[InstrClass.FADD] == 1
        assert ctx.trace.thread_insts[InstrClass.FADD] == 16

    def test_arithmetic_values(self):
        ctx = make_ctx((8,))
        x = ctx.fma(np.full(8, 2.0, np.float32), 3.0, 1.0)
        np.testing.assert_allclose(x, 7.0)
        assert ctx.fmul(2.0, 4.0)[0] == 8.0
        assert ctx.fsub(5.0, 2.0)[0] == 3.0
        assert ctx.fdiv(1.0, 4.0)[0] == 0.25
        assert ctx.iadd(2, 3)[0] == 5
        assert ctx.ishl(1, 4)[0] == 16
        assert ctx.ixor(6, 3)[0] == 5

    def test_flop_accounting_mix(self):
        ctx = make_ctx((32,))
        ctx.fadd(1.0, 1.0)     # 1 flop/thread
        ctx.fma(1.0, 1.0, 1.0)  # 2 flops/thread
        ctx.iadd(1, 1)          # 0
        assert ctx.trace.flops == 32 * 3

    def test_sfu_ops(self):
        ctx = make_ctx((32,))
        s = ctx.sfu_sin(np.full(32, np.pi / 2, np.float32))
        np.testing.assert_allclose(s, 1.0, rtol=1e-6)
        r = ctx.sfu_rsqrt(np.full(32, 4.0, np.float32))
        np.testing.assert_allclose(r, 0.5, rtol=1e-6)
        assert ctx.trace.warp_insts[InstrClass.SFU] == 2

    def test_loop_tail_emits_three_classes(self):
        ctx = make_ctx((32,))
        ctx.loop_tail(2)
        assert ctx.trace.warp_insts[InstrClass.IALU] == 2
        assert ctx.trace.warp_insts[InstrClass.SETP] == 1
        assert ctx.trace.warp_insts[InstrClass.BRANCH] == 1

    def test_untraced_context_is_silent(self):
        ctx = make_ctx((32,), traced=False)
        ctx.fma(1.0, 1.0, 1.0)   # must not crash
        assert ctx.trace is None

    def test_select_predication(self):
        ctx = make_ctx((8,))
        out = ctx.select(ctx.tid % 2 == 0, 1.0, -1.0)
        np.testing.assert_array_equal(out[:4], [1.0, -1.0, 1.0, -1.0])
        assert ctx.trace.warp_insts[InstrClass.SETP] == 1


class TestDivergence:
    def test_masked_counts_only_active_warps(self):
        ctx = make_ctx((256,))   # 8 warps
        with ctx.masked(ctx.tid < 32):
            ctx.fma(1.0, 1.0, 1.0)
        # only warp 0 has active threads
        assert ctx.trace.warp_insts[InstrClass.FMA] == 1
        assert ctx.trace.thread_insts[InstrClass.FMA] == 32

    def test_divergent_warp_pays_both_paths(self):
        ctx = make_ctx((32,))
        cond = ctx.tid < 16
        with ctx.masked(cond):
            ctx.fadd(1.0, 1.0)
        with ctx.masked(~cond):
            ctx.fadd(1.0, 1.0)
        # one warp executes both sides: 2 warp instructions
        assert ctx.trace.warp_insts[InstrClass.FADD] == 2

    def test_nested_masks_intersect(self):
        ctx = make_ctx((64,))
        with ctx.masked(ctx.tid < 48):
            with ctx.masked(ctx.tid >= 16):
                ctx.fadd(1.0, 1.0)
                assert ctx.mask.sum() == 32
        assert ctx.mask.all()

    def test_masked_store_only_writes_active_lanes(self):
        dev = Device()
        arr = dev.alloc(32, np.float32, "out")
        ctx = make_ctx((32,))
        with ctx.masked(ctx.tid < 10):
            ctx.st_global(arr, ctx.tid, 5.0)
        host = arr.to_host()
        assert (host[:10] == 5.0).all() and (host[10:] == 0.0).all()

    def test_any_active(self):
        ctx = make_ctx((32,))
        with ctx.masked(ctx.tid < 4):
            assert ctx.any_active(ctx.tid == 3)
            assert not ctx.any_active(ctx.tid == 20)

    def test_sync_inside_divergence_raises(self):
        ctx = make_ctx((32,))
        with ctx.masked(ctx.tid < 16):
            with pytest.raises(CudaModelError, match="divergent"):
                ctx.sync()

    def test_sync_with_uniform_true_mask_allowed(self):
        ctx = make_ctx((32,))
        with ctx.masked(np.ones(32, bool)):
            ctx.sync()
        assert ctx.trace.warp_insts[InstrClass.SYNC] == 1


class TestGlobalMemory:
    def test_load_store_roundtrip(self):
        dev = Device()
        arr = dev.to_device(np.arange(64, dtype=np.float32), "x")
        ctx = make_ctx((64,))
        v = ctx.ld_global(arr, ctx.tid)
        ctx.st_global(arr, ctx.tid, v * 2)
        np.testing.assert_array_equal(arr.to_host(),
                                      np.arange(64, dtype=np.float32) * 2)

    def test_coalesced_access_recorded(self):
        dev = Device()
        arr = dev.to_device(np.zeros(256, np.float32), "x")
        ctx = make_ctx((256,))
        ctx.ld_global(arr, ctx.tid)
        t = ctx.trace
        assert t.global_transactions == 16           # 16 half-warps
        assert t.uncoalesced_transactions == 0
        assert t.global_bus_bytes == 256 * 4
        assert t.per_array["x"].transactions_per_access == 1.0

    def test_strided_access_serializes(self):
        dev = Device()
        arr = dev.to_device(np.zeros(1024, np.float32), "x")
        ctx = make_ctx((256,))
        ctx.ld_global(arr, ctx.tid * 4)
        t = ctx.trace
        assert t.coalesced_fraction == 0.0
        assert t.per_array["x"].transactions_per_access == 16.0

    def test_out_of_bounds_raises(self):
        dev = Device()
        arr = dev.to_device(np.zeros(16, np.float32), "x")
        ctx = make_ctx((32,))
        with pytest.raises(CudaModelError, match="out-of-bounds"):
            ctx.ld_global(arr, ctx.tid)

    def test_out_of_bounds_masked_off_is_fine(self):
        dev = Device()
        arr = dev.to_device(np.zeros(16, np.float32), "x")
        ctx = make_ctx((32,))
        with ctx.masked(ctx.tid < 16):
            ctx.ld_global(arr, ctx.tid)   # inactive lanes point past end

    def test_space_confusion_rejected(self):
        dev = Device()
        const = dev.to_constant(np.zeros(8, np.float32), "c")
        ctx = make_ctx((8,))
        with pytest.raises(CudaModelError):
            ctx.ld_global(const, ctx.tid)

    def test_atomic_add_accumulates_duplicates(self):
        dev = Device()
        arr = dev.alloc(4, np.float32, "hist")
        ctx = make_ctx((64,))
        ctx.atom_global_add(arr, ctx.tid % 4, 1.0)
        np.testing.assert_array_equal(arr.to_host(), [16, 16, 16, 16])
        assert ctx.trace.warp_insts[InstrClass.ATOM_GLOBAL] == 2


class TestSharedMemory:
    def test_alloc_and_roundtrip(self):
        ctx = make_ctx((64,))
        sh = ctx.shared_alloc(64, np.float32, "buf")
        ctx.st_shared(sh, ctx.tid, ctx.tid.astype(np.float32))
        v = ctx.ld_shared(sh, 63 - ctx.tid)
        np.testing.assert_array_equal(v, (63 - ctx.tid).astype(np.float32))

    def test_smem_metering(self):
        ctx = make_ctx((64,))
        ctx.shared_alloc((16, 16), np.float32)
        assert ctx.smem_bytes == 1024
        ctx.shared_alloc((16, 16), np.float32)
        assert ctx.smem_bytes == 2048

    def test_smem_overflow_raises(self):
        ctx = make_ctx((64,))
        with pytest.raises(CudaModelError, match="shared memory overflow"):
            ctx.shared_alloc(5000, np.float32)  # 20 KB > 16 KB

    def test_bank_conflicts_recorded(self):
        ctx = make_ctx((16,))
        sh = ctx.shared_alloc(256, np.float32)
        ctx.ld_shared(sh, ctx.tid * 2)    # stride 2 -> degree 2
        assert ctx.trace.shared_conflict_cycles > 0

    def test_conflict_free_access_records_nothing(self):
        ctx = make_ctx((16,))
        sh = ctx.shared_alloc(64, np.float32)
        ctx.ld_shared(sh, ctx.tid)
        assert ctx.trace.shared_conflict_cycles == 0

    def test_shared_store_oob(self):
        ctx = make_ctx((16,))
        sh = ctx.shared_alloc(8, np.float32)
        with pytest.raises(CudaModelError, match="out of bounds"):
            ctx.st_shared(sh, ctx.tid, 1.0)


class TestCachedPaths:
    def test_constant_broadcast_hits(self):
        dev = Device()
        c = dev.to_constant(np.arange(16, dtype=np.float32), "coef")
        caches = {"const": DirectMappedCache(8 * 1024)}
        ctx = make_ctx((64,), caches=caches)
        v = ctx.ld_const(c, np.zeros(64, dtype=np.int64))
        assert (v == 0.0).all()
        ctx.ld_const(c, np.zeros(64, dtype=np.int64))
        assert ctx.trace.const_hits >= 1
        assert ctx.trace.warp_insts[InstrClass.LD_CONST] == 4

    def test_texture_miss_generates_dram_traffic(self):
        dev = Device()
        t = dev.to_texture(np.zeros((64, 64), np.float32), "grid")
        caches = {"tex": DirectMappedCache(8 * 1024)}
        ctx = make_ctx((64,), caches=caches)
        ctx.ld_tex(t, ctx.tid * 64)   # 64 distinct lines -> misses
        assert ctx.trace.tex_misses > 0
        assert ctx.trace.global_bus_bytes > 0

    def test_ld_const_on_global_array_rejected(self):
        dev = Device()
        g = dev.to_device(np.zeros(8, np.float32))
        ctx = make_ctx((8,))
        with pytest.raises(CudaModelError):
            ctx.ld_const(g, ctx.tid)


# ----------------------------------------------------------------------
# The constant/texture charge against the composition it replaced
# ----------------------------------------------------------------------

def _cached_charge_reference(trace, spec, caches, arr, idx, mask, space):
    """One traced ``ld_const``/``ld_tex`` charged the way the DSL used
    to compose it: the bounds check over the gathered active lanes, the
    broadcast passes of every lane (constant only), then the cache
    access over every lane's address."""
    hot = idx[mask]
    if hot.size and (hot.min() < 0 or hot.max() >= arr.size):
        raise CudaModelError(
            f"out-of-bounds access to {arr.name!r}: "
            f"index range [{hot.min()}, {hot.max()}] vs size {arr.size}")
    if space == "const":
        passes = constant_broadcast_passes(idx, mask, spec)
        if passes:
            group_share = spec.coalesce_group / spec.warp_size
            trace.record_shared_conflict(passes * (
                spec.timing.issue_cycles_per_warp_inst * group_share))
    cache = caches[space]
    hits, misses = cache.access(arr.addresses(idx), mask)
    trace.record_cache(space, hits, misses)
    if misses:
        line = cache.line_bytes
        trace.record_global_access(
            arr.name, warp_accesses=0, transactions=misses,
            bus_bytes=misses * line, useful_bytes=misses * line,
            coalesced_accesses=0, kind="fill")


def _error_of(fn, *args):
    """The CudaModelError message ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except CudaModelError as err:
        return str(err)
    return None


def _cached_counters(trace):
    return (trace.const_hits, trace.const_misses, trace.tex_hits,
            trace.tex_misses, trace.shared_conflict_cycles,
            trace.global_transactions, trace.global_bus_bytes,
            trace.global_useful_bytes,
            {name: (s.transactions, s.bus_bytes, s.useful_bytes)
             for name, s in trace.per_array.items()})


@pytest.mark.parametrize("make_spec", [geforce_8800_gtx, gtx_480],
                         ids=["g80", "gtx480"])
def test_cached_load_charge_equals_the_reference_composition(make_spec):
    """A sequence of ``ld_const``/``ld_tex`` reads through one cold
    cache set (so its state carries from load to load) charges what the
    reference composition charges on a second cold set: hits,
    misses, fill traffic, broadcast cycles and the out-of-bounds error,
    for uniform, strided, random, few-word and out-of-range indices
    under full, partial, one-lane and empty masks."""
    spec = make_spec()
    dev = Device(spec)
    n = 72                                   # a ragged last group
    # two constant tables one cache apart, so their lines collide
    span = spec.constant_cache_bytes_per_sm // 4
    arrays = {
        "const": [dev.to_constant(np.arange(span, dtype=np.float32), "k0"),
                  dev.to_constant(np.arange(span, dtype=np.float32), "k1")],
        "tex": [dev.to_texture(np.ones((64, 64), np.float32), "tx")],
    }
    caches = [cold_caches(spec) for _ in range(2)]
    ctx = BlockContext(spec, Dim3(1), Dim3(n), (0, 0, 0),
                       trace=KernelTrace(), caches=caches[0])
    ref = KernelTrace()
    rng = np.random.default_rng(7)
    lanes = np.arange(n)

    def indices(kind, size, active):
        w = int(rng.integers(0, size))
        if kind == "uniform":
            return np.full(n, w)
        if kind == "strided":
            return (w + lanes * int(rng.integers(1, 9))) % size
        if kind == "random":
            return rng.integers(0, size, n)
        if kind == "few":
            return np.minimum(w + rng.integers(0, 3, n), size - 1)
        if kind == "active-uniform":         # inactive lanes disagree
            return np.where(active, w, rng.integers(0, size, n))
        if kind == "out-of-range":
            return np.full(n, size)
        return np.where(lanes == n - 1, -1, w)   # "one-negative"

    masks = {"full": None, "partial": rng.random(n) < 0.6,
             "one-lane": lanes == 37, "empty": np.zeros(n, bool)}
    kinds = ("uniform", "strided", "random", "few", "active-uniform",
             "out-of-range", "one-negative")
    errors = 0
    for _ in range(6):
        for kind in kinds:
            for mask_name, cond in masks.items():
                for space, candidates in arrays.items():
                    arr = candidates[int(rng.integers(len(candidates)))]
                    idx = indices(kind, arr.size,
                                  True if cond is None else cond)
                    load = ctx.ld_const if space == "const" else ctx.ld_tex
                    with (ctx.masked(cond) if cond is not None
                          else contextlib.nullcontext()):
                        got = _error_of(load, arr, idx)
                        want = _error_of(_cached_charge_reference, ref, spec,
                                         caches[1], arr, idx, ctx.mask,
                                         space)
                    assert got == want, (kind, mask_name, space)
                    errors += got is not None
                    assert _cached_counters(ctx.trace) == \
                        _cached_counters(ref), (kind, mask_name, space)
    assert errors and ctx.trace.const_misses and ctx.trace.const_hits
    assert ctx.trace.tex_misses and ctx.trace.shared_conflict_cycles


# ----------------------------------------------------------------------
# The one-word and shared fast paths against the charges they shortcut
# ----------------------------------------------------------------------

DEVICES = {"g80": geforce_8800_gtx, "gtx480": gtx_480}


@settings(max_examples=60, deadline=None)
@given(spec_name=st.sampled_from(sorted(DEVICES)), data=st.data())
def test_property_one_word_charge_equals_cache_access(spec_name, data):
    """``ld_const``/``ld_tex`` reads whose active lanes all read one word
    (the rest read anything), charged as one line probe, count the
    hits, misses, fills and broadcast cycles, and leave the cache tags,
    that the reference composition over ``DirectMappedCache.access``
    gives on a second cold cache set."""
    spec = DEVICES[spec_name]()
    dev = Device(spec)
    n = data.draw(st.integers(1, 80))
    # two constant tables one cache apart, so their lines collide
    span = spec.constant_cache_bytes_per_sm // 4
    arrays = [dev.to_constant(np.zeros(span, np.float32), "k0"),
              dev.to_constant(np.zeros(span, np.float32), "k1"),
              dev.to_texture(np.zeros((64, 64), np.float32), "tx")]
    caches = [cold_caches(spec) for _ in range(2)]
    ctx = BlockContext(spec, Dim3(1), Dim3(n), (0, 0, 0),
                       trace=KernelTrace(), caches=caches[0])
    ref = KernelTrace()
    lanes = np.arange(n)
    for _ in range(data.draw(st.integers(1, 40))):
        arr = arrays[data.draw(st.integers(0, len(arrays) - 1))]
        word = data.draw(st.integers(0, arr.size - 1))
        if data.draw(st.booleans()):          # the whole block
            active = None
            idx = np.full(n, word)
        else:
            active = np.array(data.draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool)
            active[data.draw(st.integers(0, n - 1))] = True
            idx = np.where(active, word, (lanes * 7 + word) % arr.size)
        load = ctx.ld_const if arr.space == "const" else ctx.ld_tex
        with (ctx.masked(active) if active is not None
              else contextlib.nullcontext()):
            load(arr, idx)
            _cached_charge_reference(ref, spec, caches[1], arr, idx,
                                     ctx.mask, arr.space)
    assert _cached_counters(ctx.trace) == _cached_counters(ref)
    for space in ("const", "tex"):
        got, want = caches[0][space], caches[1][space]
        assert list(got.tags) == list(want.tags)
        assert (got.hits, got.misses) == (want.hits, want.misses)


@settings(max_examples=60, deadline=None)
@given(spec_name=st.sampled_from(sorted(DEVICES)), data=st.data())
def test_property_shared_charge_equals_the_word_classifier(spec_name, data):
    """Traced ``ld_shared``/``st_shared`` charge the conflict cycles the
    per-group degrees of the arrays' word indices give: one-word
    (broadcast) accesses, one-word elements keyed by element index and
    two-word elements alike, under whole, masked and ragged blocks."""
    spec = DEVICES[spec_name]()
    n = data.draw(st.integers(1, 96))
    ctx = BlockContext(spec, Dim3(1), Dim3(n), (0, 0, 0),
                       trace=KernelTrace())
    arrays = [ctx.shared_alloc(64, np.float32, "f"),
              ctx.shared_alloc(40, np.float64, "d"),
              ctx.shared_alloc(48, np.int32, "i")]
    pass_cycles = spec.timing.issue_cycles_per_warp_inst * (
        spec.shared_access_group / spec.warp_size)
    lanes = np.arange(n)
    want = 0.0
    for _ in range(data.draw(st.integers(1, 20))):
        sh = arrays[data.draw(st.integers(0, len(arrays) - 1))]
        kind = data.draw(st.sampled_from(["one", "strided", "random"]))
        base = data.draw(st.integers(0, sh.size - 1))
        if kind == "one":
            idx = np.full(n, base)
        elif kind == "strided":
            idx = (base + lanes * data.draw(st.sampled_from(
                [1, 2, 3, 16, 17, 32]))) % sh.size
        else:
            idx = np.array(data.draw(st.lists(st.integers(
                0, sh.size - 1), min_size=n, max_size=n)))
        active = np.ones(n, bool) if data.draw(st.booleans()) else \
            np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)), dtype=bool)
        with (contextlib.nullcontext() if active.all()
              else ctx.masked(active)):
            if data.draw(st.booleans()):
                ctx.ld_shared(sh, idx)
            else:
                ctx.st_shared(sh, idx, 1)
        degrees = bank_conflict_degrees(sh.word_indices(idx), active, spec)
        want += (int(degrees.sum()) - int((degrees > 0).sum())) \
            * pass_cycles
    assert ctx.trace.shared_conflict_cycles == want


class _EagerContext(BlockContext):
    """Counts every instruction into the trace as it issues: the
    accounting before the per-level tally."""

    def _emit(self, *args, **kwargs):
        super()._emit(*args, **kwargs)
        self._flush()


def _instr_counters(trace):
    """Every field of a trace, with the classes in first-issue order."""
    return (list(trace.warp_insts.items()), list(trace.thread_insts.items()),
            vars(trace))


@pytest.mark.parametrize("record_stream", [False, True],
                         ids=["no-stream", "stream"])
def test_trace_read_after_each_op_equals_the_collected_trace(record_stream):
    """A block's ``ctx.trace``, read right after each of its ops, equals
    the trace of the same ops counted one instruction at a time, and
    after the last op equals what the collector merges, whether or not
    the block read it on the way; the recorded stream is the same
    too."""
    spec = geforce_8800_gtx()
    n = 80                                  # a ragged last warp
    reads: list = []

    @kernel("trace_reads")
    def probe(ctx, a, k):
        def read():
            if reads[-1] is not None:
                reads[-1].append(_instr_counters(ctx.trace.scaled(1.0)))
        x = ctx.ld_global(a, ctx.tid)
        read()
        y = ctx.fma(x, x, x)
        read()
        sh = ctx.shared_alloc(64, np.float32, "sh")
        ctx.st_shared(sh, ctx.tid % 64, y)
        read()
        ctx.sync()
        read()
        with ctx.masked(ctx.tid < 40):
            z = ctx.ld_shared(sh, (ctx.tid * 2) % 64)
            read()
            w = ctx.ld_const(k, ctx.tid * 0 + 3)
            read()
            with ctx.masked(ctx.tid % 3 == 0):
                y = ctx.merge(ctx.fadd(z, w), y)
                read()
                ctx.loop_tail(2)
            y = ctx.merge(ctx.sfu_rsqrt(y), y)
            read()
        with ctx.masked(ctx.tid >= n):      # no lane: nothing issues
            ctx.fmul(y, y)
        read()
        ctx.address_ops(3)
        ctx.st_global(a, ctx.tid, y)
        read()

    def arrays():
        dev = Device(spec)
        return dev, (dev.to_device(np.ones(n, np.float32), "a"),
                     dev.to_constant(np.arange(8, dtype=np.float32), "k"))

    def collected(read):
        reads.append([] if read else None)
        dev, args = arrays()
        return launch(probe, (1,), (n,), args, device=dev,
                      executor="sequential", trace_blocks=1,
                      record_stream=record_stream)

    unread, result = collected(False), collected(True)
    reads.append([])
    _dev, args = arrays()
    eager = _EagerContext(spec, Dim3(1), Dim3(n), (0, 0, 0),
                          trace=KernelTrace(), caches=cold_caches(spec),
                          stream=[] if record_stream else None)
    probe.fn(eager, *args)
    _, tallied, counted = reads
    assert len(tallied) == len(counted) == 10
    for step, (got, want) in enumerate(zip(tallied, counted)):
        assert got == want, step
    final = eager.trace.scaled(1.0)
    final.blocks_traced, final.threads_traced = 1, float(n)
    for run in (unread, result):
        assert _instr_counters(run.trace) == _instr_counters(final)
        assert run.stream == eager.stream
        assert (run.stream is None) == (not record_stream)
