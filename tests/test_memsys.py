"""Tests for the G80 coalescing, bank-conflict and cache models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.symbolic import (
    SymVal,
    classify_global,
    classify_shared,
    fresh_sym,
)
from repro.arch import DEFAULT_DEVICE
from repro.arch.device import CACHED_LINE, geforce_8800_gtx, gtx_480
from repro.sim import memsys
from repro.sim.memsys import (
    CoalesceResult,
    DirectMappedCache,
    bank_conflict_degree,
    bank_conflict_degrees,
    block_bank_conflicts,
    coalesce_block_access,
    coalesce_groups,
    coalesce_half_warp,
    coalesce_period,
    constant_broadcast_passes,
)

HW = DEFAULT_DEVICE.half_warp
ALL = np.ones(HW, dtype=bool)


def addresses(base, stride, itemsize=4, n=HW):
    return base + np.arange(n, dtype=np.int64) * stride * itemsize


class TestCoalesceHalfWarp:
    def test_contiguous_aligned_is_one_transaction(self):
        res = coalesce_half_warp(addresses(0, 1), ALL, 4)
        assert res.coalesced
        assert res.transactions == 1
        assert res.bus_bytes == 64
        assert res.useful_bytes == 64
        assert res.efficiency == 1.0

    def test_contiguous_aligned_any_segment(self):
        res = coalesce_half_warp(addresses(64 * 123, 1), ALL, 4)
        assert res.coalesced

    def test_misaligned_contiguous_serializes(self):
        # CUDA 1.x: thread k must hit word k of an *aligned* segment
        res = coalesce_half_warp(addresses(4, 1), ALL, 4)
        assert not res.coalesced
        assert res.transactions == HW

    def test_strided_serializes(self):
        res = coalesce_half_warp(addresses(0, 2), ALL, 4)
        assert not res.coalesced
        assert res.transactions == HW
        assert res.useful_bytes == 64
        assert res.bus_bytes > res.useful_bytes

    def test_permuted_serializes(self):
        addr = addresses(0, 1)[::-1].copy()
        res = coalesce_half_warp(addr, ALL, 4)
        assert not res.coalesced

    def test_broadcast_same_address_merges_bus_traffic(self):
        # the paper's footnote 4: the memory system may combine
        # simultaneous loads of the same value into one request
        addr = np.zeros(HW, dtype=np.int64)
        res = coalesce_half_warp(addr, ALL, 4)
        assert not res.coalesced
        assert res.transactions == HW            # serialized issue
        assert res.bus_bytes == 32               # but one 32 B segment
        assert res.useful_bytes == 64

    def test_partial_warp_in_order_coalesces(self):
        active = ALL.copy()
        active[5] = False
        res = coalesce_half_warp(addresses(0, 1), active, 4)
        assert res.coalesced
        assert res.useful_bytes == (HW - 1) * 4

    def test_inactive_half_warp_is_free(self):
        res = coalesce_half_warp(addresses(0, 1), np.zeros(HW, bool), 4)
        assert res.transactions == 0
        assert res.bus_bytes == 0

    def test_eight_byte_items(self):
        res = coalesce_half_warp(addresses(0, 1, itemsize=8), ALL, 8)
        assert res.coalesced
        assert res.bus_bytes == 128

    def test_wrong_lane_count_rejected(self):
        with pytest.raises(ValueError):
            coalesce_half_warp(np.zeros(8, np.int64), np.ones(8, bool), 4)


class TestCoalesceBlockAccess:
    def test_block_of_contiguous_half_warps(self):
        n = 256
        addr = np.arange(n, dtype=np.int64) * 4
        wa, txn, bus, useful, coal = coalesce_block_access(
            addr, np.ones(n, bool), 4)
        assert wa == n // HW
        assert txn == n // HW
        assert coal == n // HW
        assert bus == useful == n * 4

    def test_row_broadcast_pattern_matches_naive_matmul(self):
        # 16x16 block reading A[row][k]: every half-warp hits one address
        n = 256
        row = np.repeat(np.arange(16), 16)
        addr = (row * 4096 * 4).astype(np.int64)
        wa, txn, bus, useful, coal = coalesce_block_access(
            addr, np.ones(n, bool), 4)
        assert wa == 16
        assert coal == 0
        assert txn == 16 * HW        # fully serialized
        assert bus == 16 * 32        # one 32 B segment per half-warp

    def test_partially_active_tail_block(self):
        n = 40  # 2.5 half-warps
        addr = np.arange(n, dtype=np.int64) * 4
        active = np.ones(n, bool)
        wa, txn, bus, useful, coal = coalesce_block_access(addr, active, 4)
        assert wa == 3
        assert useful == n * 4

    def test_fast_and_slow_paths_agree(self):
        rng = np.random.default_rng(7)
        n = 128
        addr = rng.integers(0, 4096, n).astype(np.int64) * 4
        active = rng.random(n) > 0.3
        wa, txn, bus, useful, coal = coalesce_block_access(addr, active, 4)
        # recompute per half-warp with the scalar routine
        wa2 = txn2 = bus2 = useful2 = coal2 = 0
        for s in range(0, n, HW):
            a = active[s:s + HW]
            if not a.any():
                continue
            r = coalesce_half_warp(addr[s:s + HW], a, 4)
            wa2 += 1
            txn2 += r.transactions
            bus2 += r.bus_bytes
            useful2 += r.useful_bytes
            coal2 += int(r.coalesced)
        assert (wa, txn, bus, useful, coal) == (wa2, txn2, bus2, useful2, coal2)


@settings(max_examples=60, deadline=None)
@given(
    base_seg=st.integers(0, 1000),
    data=st.data(),
)
def test_property_bus_bytes_at_least_useful(base_seg, data):
    """Bus traffic can never be less than the bytes actually requested."""
    perm = data.draw(st.permutations(list(range(HW))))
    stride = data.draw(st.integers(1, 8))
    addr = (base_seg * 64 + np.array(perm, dtype=np.int64) * stride * 4)
    res = coalesce_half_warp(addr, ALL, 4)
    assert res.bus_bytes >= res.useful_bytes or res.transactions == 0


@settings(max_examples=60, deadline=None)
@given(offsets=st.lists(st.integers(0, 10 ** 6), min_size=HW, max_size=HW))
def test_property_uncoalesced_transactions_equal_active_threads(offsets):
    addr = np.array(offsets, dtype=np.int64) * 4
    res = coalesce_half_warp(addr, ALL, 4)
    if not res.coalesced:
        assert res.transactions == HW
    else:
        assert res.transactions == 1


@settings(max_examples=40, deadline=None)
@given(seg=st.integers(0, 10 ** 5))
def test_property_in_order_aligned_always_coalesces(seg):
    addr = seg * 64 + np.arange(HW, dtype=np.int64) * 4
    res = coalesce_half_warp(addr, ALL, 4)
    assert res.coalesced and res.transactions == 1


class TestBankConflicts:
    def test_stride_one_conflict_free(self):
        words = np.arange(HW, dtype=np.int64)
        assert bank_conflict_degree(words, ALL) == 1

    def test_stride_two_degree_two(self):
        words = np.arange(HW, dtype=np.int64) * 2
        assert bank_conflict_degree(words, ALL) == 2

    def test_stride_sixteen_fully_serialized(self):
        words = np.arange(HW, dtype=np.int64) * 16
        assert bank_conflict_degree(words, ALL) == 16

    def test_broadcast_is_free(self):
        words = np.full(HW, 7, dtype=np.int64)
        assert bank_conflict_degree(words, ALL) == 1

    def test_odd_stride_conflict_free(self):
        # odd strides permute the 16 banks -> conflict-free
        words = np.arange(HW, dtype=np.int64) * 3
        assert bank_conflict_degree(words, ALL) == 1

    def test_inactive_access(self):
        assert bank_conflict_degree(np.zeros(HW, np.int64),
                                    np.zeros(HW, bool)) == 0

    def test_block_level_totals(self):
        words = np.concatenate([
            np.arange(HW, dtype=np.int64),          # degree 1
            np.arange(HW, dtype=np.int64) * 2,      # degree 2
        ])
        accesses, total = block_bank_conflicts(words, np.ones(2 * HW, bool))
        assert accesses == 2
        assert total == 3

    def test_block_fast_slow_agree(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 256, 4 * HW).astype(np.int64)
        active = np.ones(4 * HW, bool)
        accesses, total = block_bank_conflicts(words, active)
        expect = sum(bank_conflict_degree(words[s:s + HW], active[s:s + HW])
                     for s in range(0, 4 * HW, HW))
        assert accesses == 4 and total == expect


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.integers(0, 4095), min_size=HW, max_size=HW))
def test_property_conflict_degree_bounds(words):
    degree = bank_conflict_degree(np.array(words, dtype=np.int64), ALL)
    assert 1 <= degree <= HW


# ----------------------------------------------------------------------
# Verdict memo: memoized classification equals the direct one
# ----------------------------------------------------------------------

#: strict-segment / 16-bank half-warp groups, and cached-line / 32-bank
#: full-warp groups with 128 B lines
MEMO_SPECS = {"g80": geforce_8800_gtx(), "fermi": gtx_480()}


def _fresh_memo():
    memsys._verdicts.clear()
    memsys._verdict_bytes = 0


@st.composite
def lane_patterns(draw, scale):
    """(values, active): a strided or scattered block-wide pattern with
    a full or partial mask and garbage in the inactive lanes."""
    n = draw(st.integers(1, 96))
    base = draw(st.integers(0, 10 ** 4)) * draw(st.sampled_from([1, 128]))
    if draw(st.booleans()):
        stride = draw(st.sampled_from([0, 1, 2, 3, 16, 17, 33]))
        values = base + np.arange(n, dtype=np.int64) * stride * scale
    else:
        values = base + np.array(draw(st.lists(
            st.integers(0, 4096), min_size=n, max_size=n)),
            dtype=np.int64) * scale
    if draw(st.booleans()):
        active = np.ones(n, bool)
    else:
        active = np.array(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)), dtype=bool)
        junk = np.array(draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                      min_size=n, max_size=n)), np.int64)
        values = np.where(active, values, junk)
    return values, active


@settings(max_examples=150, deadline=None)
@given(spec_name=st.sampled_from(sorted(MEMO_SPECS)),
       itemsize=st.sampled_from([4, 8, 16]),
       data=st.data())
def test_property_coalesce_memo_equals_direct(spec_name, itemsize, data):
    spec = MEMO_SPECS[spec_name]
    addr, active = data.draw(lane_patterns(itemsize))
    period = coalesce_period(itemsize, spec)
    assert period > 0
    _fresh_memo()
    direct = memsys._coalesce_block_direct(addr, active, itemsize, spec)
    assert coalesce_block_access(addr, active, itemsize, spec) == direct
    assert coalesce_block_access(addr, active, itemsize, spec) == direct
    # a copy moved by a multiple of the period reuses the verdict
    entries = len(memsys._verdicts)
    moved = addr + data.draw(st.integers(-50, 50)) * period
    assert coalesce_block_access(moved, active, itemsize, spec) == direct
    assert memsys._coalesce_block_direct(moved, active, itemsize,
                                         spec) == direct
    assert len(memsys._verdicts) == entries
    # any other shift is classified afresh and still matches
    shifted = addr + data.draw(st.sampled_from(
        [1, itemsize, 16, 32, 64, period // 2, period + itemsize]))
    assert (coalesce_block_access(shifted, active, itemsize, spec)
            == memsys._coalesce_block_direct(shifted, active, itemsize, spec))


def test_coalesce_period_per_rule():
    g80, fermi = MEMO_SPECS["g80"], MEMO_SPECS["fermi"]
    # strict-segment: the 16-lane segment (it is a multiple of 32 B)
    assert [coalesce_period(it, g80) for it in (4, 8, 16)] == [64, 128, 256]
    # cached-line: the 128 B line, whatever the item size
    assert [coalesce_period(it, fermi) for it in (4, 8, 16)] == [128] * 3
    # half a period off is a different verdict, never a memo hit
    _fresh_memo()
    addr = np.arange(64, dtype=np.int64) * 4
    on = np.ones(64, bool)
    for spec in (g80, fermi):
        half = coalesce_period(4, spec) // 2
        aligned = coalesce_block_access(addr, on, 4, spec)
        off = coalesce_block_access(addr + half, on, 4, spec)
        assert off == memsys._coalesce_block_direct(addr + half, on, 4, spec)
        assert off != aligned


@settings(max_examples=150, deadline=None)
@given(spec_name=st.sampled_from(sorted(MEMO_SPECS)), data=st.data())
def test_property_bank_memo_equals_direct(spec_name, data):
    """The memo and the direct verdict (its conflict-free shortcut and
    its sort) equal the per-bank loop over each access group, for
    scattered and strided lanes, whole-block one-word patterns and
    masked and ragged groups on 16- and 32-bank devices."""
    spec = MEMO_SPECS[spec_name]
    words, active = data.draw(st.one_of(
        lane_patterns(1), group_lanes(spec.shared_access_group)))
    _fresh_memo()
    direct = memsys._bank_conflicts_direct(words, active, spec)
    assert direct == _bank_conflicts_reference(words, active, spec)
    assert block_bank_conflicts(words, active, spec) == direct
    assert block_bank_conflicts(words, active, spec) == direct
    # any uniform shift renames banks only: a hit with the same verdict
    entries = len(memsys._verdicts)
    moved = words + data.draw(st.integers(-10 ** 4, 10 ** 4))
    assert block_bank_conflicts(moved, active, spec) == direct
    assert memsys._bank_conflicts_direct(moved, active, spec) == direct
    assert len(memsys._verdicts) == entries


def test_memo_key_separates_specs_and_itemsizes():
    _fresh_memo()
    addr = np.arange(32, dtype=np.int64) * 4
    on = np.ones(32, bool)
    verdicts = {(name, it): coalesce_block_access(addr, on, it, spec)
                for name, spec in MEMO_SPECS.items() for it in (4, 8)}
    for (name, it), got in verdicts.items():
        assert got == memsys._coalesce_block_direct(
            addr, on, it, MEMO_SPECS[name])
    assert len(memsys._verdicts) == 4


def test_memo_budget_clears_and_is_never_exceeded(monkeypatch):
    limit = 4096
    monkeypatch.setattr(memsys, "VERDICT_MEMO_BYTES", limit)
    _fresh_memo()
    on = np.ones(64, bool)
    cleared = False
    for k in range(200):
        words = np.arange(64, dtype=np.int64) * (k + 1)
        before = len(memsys._verdicts)
        assert (block_bank_conflicts(words, on)
                == memsys._bank_conflicts_direct(words, on, DEFAULT_DEVICE))
        cleared |= len(memsys._verdicts) < before
        assert 0 < memsys._verdict_bytes <= limit
    assert cleared
    # an entry larger than the whole budget is classified, not stored
    _fresh_memo()
    wide = np.arange(4096, dtype=np.int64)
    block_bank_conflicts(wide, np.ones(4096, bool))
    assert not memsys._verdicts and memsys._verdict_bytes == 0


# ----------------------------------------------------------------------
# Constant broadcast: the sort-based classifier equals the group loop
# ----------------------------------------------------------------------

def _broadcast_passes_reference(words, active, spec):
    """Per-group ``np.unique`` loop: distinct words among the active
    lanes of each coalescing group, minus one."""
    group = spec.coalesce_group
    passes = 0
    for start in range(0, len(words), group):
        hot = words[start:start + group][active[start:start + group]]
        if hot.size:
            passes += len(np.unique(hot)) - 1
    return passes


@st.composite
def group_lanes(draw, group):
    """(values, active): uniform (a broadcast), strided or random lanes
    around a base that may be negative, over a lane count that need not
    be a multiple of ``group``, under a full, random or group-wise
    (whole groups inactive) mask, with junk in the inactive lanes."""
    n = draw(st.integers(1, 4 * group + group // 2))
    base = draw(st.integers(-64, 64)) * draw(st.sampled_from([1, group]))
    kind = draw(st.sampled_from(["uniform", "strided", "random"]))
    if kind == "uniform":
        values = np.full(n, base, dtype=np.int64)
    elif kind == "strided":
        stride = draw(st.sampled_from([-1, 1, 2, 3, 4, 16, 17, 32, 33]))
        repeat = draw(st.sampled_from([1, 4, group]))
        values = base + np.arange(n, dtype=np.int64) // repeat * stride
    else:
        values = base + np.array(draw(st.lists(
            st.integers(-40, 40), min_size=n, max_size=n)), dtype=np.int64)
    masking = draw(st.sampled_from(["all", "random", "groups"]))
    if masking == "all":
        return values, np.ones(n, bool)
    if masking == "random":
        active = np.array(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)), dtype=bool)
    else:
        on = draw(st.lists(st.booleans(), min_size=-(-n // group),
                           max_size=-(-n // group)))
        active = np.repeat(np.array(on, dtype=bool), group)[:n]
    junk = draw(st.integers(-10 ** 6, 10 ** 6)) + np.arange(n)
    return np.where(active, values, junk), active


@settings(max_examples=200, deadline=None)
@given(spec_name=st.sampled_from(sorted(MEMO_SPECS)), data=st.data())
def test_property_broadcast_passes_equal_group_loop(spec_name, data):
    """With or without the gathered active lanes, for whole-block
    one-word, strided and scattered words under whole, masked and
    ragged groups, on 16- and 32-bank devices."""
    spec = MEMO_SPECS[spec_name]
    words, active = data.draw(st.one_of(
        group_lanes(spec.coalesce_group), lane_patterns(1)))
    want = _broadcast_passes_reference(words, active, spec)
    assert constant_broadcast_passes(words, active, spec) == want
    assert constant_broadcast_passes(words, active, spec,
                                     words[active]) == want


@pytest.mark.parametrize("spec_name", sorted(MEMO_SPECS))
def test_broadcast_passes_cases(spec_name):
    spec = MEMO_SPECS[spec_name]
    group = spec.coalesce_group
    n = 3 * group + 5                       # a ragged last group
    lanes = np.arange(n, dtype=np.int64)
    on = np.ones(n, bool)
    # one word for the whole block broadcasts: no extra pass
    assert constant_broadcast_passes(np.full(n, 7), on, spec) == 0
    # lane-distinct words: group - 1 passes per full group, 4 in the tail
    assert constant_broadcast_passes(lanes, on, spec) == 3 * (group - 1) + 4
    # inactive lanes add no word; an all-inactive group adds nothing
    active = lanes >= group
    assert constant_broadcast_passes(np.where(active, 3, lanes), active,
                                     spec) == 0
    assert constant_broadcast_passes(lanes, np.zeros(n, bool), spec) == 0
    # one word per group (uniform within, distinct across) is free
    assert constant_broadcast_passes(lanes // group, on, spec) == 0
    for words, active in ((lanes % 5, on), (lanes, lanes % 3 == 0)):
        assert constant_broadcast_passes(words, active, spec) == \
            _broadcast_passes_reference(words, active, spec)


# ----------------------------------------------------------------------
# Per-group classifiers: the vectorized rows equal the one-group loops
# ----------------------------------------------------------------------

def _bank_conflict_degree_reference(word_indices, active, spec):
    """The per-bank ``np.unique`` loop over one access group."""
    if not active.any():
        return 0
    words = word_indices[active].astype(np.int64)
    banks = words % spec.shared_mem_banks
    degree = 0
    for b in np.unique(banks):
        degree = max(degree, len(np.unique(words[banks == b])))
    return int(degree)


def _bank_conflicts_reference(words, active, spec):
    """``(accesses, total degree)`` of a block-wide access from the
    per-bank loop over each access group."""
    degrees = [_bank_conflict_degree_reference(w, a, spec)
               for w, a in _groups(words, active, spec.shared_access_group)]
    return sum(1 for d in degrees if d), sum(degrees)


def _coalesce_strict_segment_reference(addresses, active, itemsize, spec):
    """The CUDA 1.x rule: thread k must hit word k of an aligned
    segment, else one serialized transaction per active thread."""
    group = spec.coalesce_group
    n_active = int(active.sum())
    addrs = addresses[active].astype(np.int64)
    useful = n_active * itemsize
    segment = group * itemsize

    lanes = np.nonzero(active)[0]
    base = addresses[lanes[0]] - lanes[0] * itemsize
    aligned = (base % segment) == 0
    in_order = bool(np.all(addresses[lanes] == base + lanes * itemsize))
    if aligned and in_order:
        return CoalesceResult(True, 1, segment, useful)

    # Uncoalesced: one transaction per active thread (minimum-
    # granularity bus charge each); duplicate segments are merged for
    # bus accounting.
    min_txn = spec.min_transaction_bytes
    segments = np.unique(addrs // min_txn)
    bus = 0
    for seg in segments:
        lo = seg * min_txn
        hi_needed = int(np.max(addrs[addrs // min_txn == seg])) + itemsize
        span = hi_needed - lo
        bus += int(np.ceil(span / min_txn)) * min_txn
    return CoalesceResult(False, n_active, bus, useful)


def _coalesce_cached_line_reference(addresses, active, itemsize, spec):
    """The Fermi+ rule: one transaction per distinct cache line the
    warp touches.  The access is *coalesced* when it needs no more
    lines than its useful bytes occupy at best — any permutation of
    threads within those lines is free."""
    line = spec.cache_line_bytes
    n_active = int(active.sum())
    addrs = addresses[active].astype(np.int64)
    useful = n_active * itemsize
    first = addrs // line
    last = (addrs + itemsize - 1) // line
    lines = np.unique(np.concatenate([first, last]))
    transactions = int(lines.size)
    minimal = max(1, -(-useful // line))
    return CoalesceResult(transactions <= minimal, transactions,
                          transactions * line, useful)


def _coalesce_reference(addresses, active, itemsize, spec):
    """One group under the device's rule, dispatched as the scalar
    classifier did."""
    if not active.any():
        return CoalesceResult(True, 0, 0, 0)
    if spec.coalescing_rule == CACHED_LINE:
        return _coalesce_cached_line_reference(addresses, active, itemsize,
                                               spec)
    return _coalesce_strict_segment_reference(addresses, active, itemsize,
                                              spec)


def _groups(values, active, group):
    """(values, active) of each group, the last padded with inactive
    lanes."""
    for start in range(0, len(values), group):
        v = np.zeros(group, np.int64)
        a = np.zeros(group, bool)
        v[:len(values[start:start + group])] = values[start:start + group]
        a[:len(active[start:start + group])] = active[start:start + group]
        yield v, a


def _coalesce_rows(addresses, active, itemsize, spec):
    """:func:`coalesce_groups` as one tuple per group."""
    return list(zip(*(v.tolist() for v in coalesce_groups(
        addresses, active, itemsize, spec))))


def _coalesce_rows_reference(addresses, active, itemsize, spec):
    """The same tuples from the one-group loop; a group with no active
    lane counts as not coalesced."""
    rows = []
    for addrs, act in _groups(addresses, active, spec.coalesce_group):
        ref = _coalesce_reference(addrs, act, itemsize, spec)
        rows.append((bool(act.any()), ref.transactions, ref.bus_bytes,
                     ref.useful_bytes, ref.coalesced and bool(act.any())))
    return rows


def _classify_global_reference(lanes, active, itemsize, spec):
    """The per-group labelling loop: the worst group's label, the
    first of equally bad groups."""
    order = ["coalesced", "broadcast", "misaligned", "strided", "irregular"]

    def rank(p):
        return order.index(p.split("(")[0])

    worst, all_coalesced = "coalesced", True
    for addrs, act in _groups(lanes * itemsize, active,
                              spec.coalesce_group):
        if not act.any():
            continue
        result = _coalesce_reference(addrs, act, itemsize, spec)
        if result.coalesced or int(act.sum()) <= 1:
            continue
        all_coalesced = False
        vals = addrs[act] // itemsize
        if np.ptp(vals) == 0:
            label = "broadcast"
        else:
            diffs = np.diff(vals)
            if diffs.size and np.ptp(diffs) == 0:
                stride = int(diffs[0])
                label = "misaligned" if stride == 1 else f"strided({stride})"
            else:
                label = "irregular"
        if rank(label) > rank(worst):
            worst = label
    return ("coalesced", True) if all_coalesced else (worst, False)


@settings(max_examples=300, deadline=None)
@given(spec_name=st.sampled_from(sorted(MEMO_SPECS)), data=st.data())
def test_property_bank_conflict_degrees_equal_group_loop(spec_name, data):
    spec = MEMO_SPECS[spec_name]
    group = spec.shared_access_group
    words, active = data.draw(group_lanes(group))
    want = [_bank_conflict_degree_reference(w, a, spec)
            for w, a in _groups(words, active, group)]
    assert bank_conflict_degrees(words, active, spec).tolist() == want
    assert block_bank_conflicts(words, active, spec) == \
        (sum(d > 0 for d in want), sum(want))
    # the rules take the worst group, at least 1
    pattern, degree = classify_shared(words, active, len(words), spec=spec)
    assert degree == max(want + [1])
    assert pattern == ("conflict-free" if degree == 1 else f"{degree}-way")


@settings(max_examples=300, deadline=None)
@given(spec_name=st.sampled_from(sorted(MEMO_SPECS)),
       itemsize=st.sampled_from([4, 8, 16]),
       data=st.data())
def test_property_coalesce_groups_equal_group_loop(spec_name, itemsize,
                                                   data):
    spec = MEMO_SPECS[spec_name]
    lanes, active = data.draw(group_lanes(spec.coalesce_group))
    # a byte shift off the item grid makes items straddle bus buckets
    addresses = lanes * itemsize + data.draw(
        st.sampled_from([0, 0, 1, itemsize // 2, itemsize - 1]))
    want = _coalesce_rows_reference(addresses, active, itemsize, spec)
    assert _coalesce_rows(addresses, active, itemsize, spec) == want
    assert memsys._coalesce_block_direct(addresses, active, itemsize, spec) \
        == tuple(int(sum(col)) for col in zip(*want))
    assert classify_global(lanes, active, len(lanes), itemsize, spec) == \
        _classify_global_reference(lanes, active, itemsize, spec)


@pytest.mark.parametrize("spec_name", sorted(MEMO_SPECS))
def test_coalesce_groups_in_order_aligned_equals_group_loop(spec_name):
    """Fully active, in-order groups from an aligned base coalesce, as
    the group loop says."""
    spec = MEMO_SPECS[spec_name]
    for itemsize in (4, 8, 16):
        addresses = 4096 * itemsize + np.arange(
            4 * spec.coalesce_group, dtype=np.int64) * itemsize
        active = np.ones(addresses.shape[0], bool)
        got = _coalesce_rows(addresses, active, itemsize, spec)
        assert got == _coalesce_rows_reference(addresses, active, itemsize,
                                               spec)
        assert all(row[-1] for row in got)


def test_classify_global_label_precedence():
    """The highest-ranked label wins; among equal ranks, the first
    group names the stride."""
    spec = MEMO_SPECS["g80"]
    lanes = np.arange(16, dtype=np.int64)

    def labels(*rows):
        index = np.concatenate(rows)
        return classify_global(index, None, len(index), 4, spec)

    assert labels(lanes * 2, 1024 + lanes * 3) == ("strided(2)", False)
    assert labels(lanes * 3, 1024 + lanes * 2) == ("strided(3)", False)
    assert labels(1 + lanes, 1024 + lanes * 2) == ("strided(2)", False)
    assert labels(lanes * 2, 1025 + lanes) == ("strided(2)", False)
    assert labels(np.full(16, 5), (lanes * 7) % 16) == ("irregular", False)
    assert labels((lanes * 7) % 16, np.full(16, 5)) == ("irregular", False)
    assert labels(np.full(16, 5), 1025 + lanes) == ("misaligned", False)
    assert labels(lanes, 1024 + lanes) == ("coalesced", True)
    # a group with one active lane is never a hazard
    one = np.zeros(32, bool)
    one[[0, 16]] = True
    assert classify_global(np.concatenate([lanes * 2, lanes * 3]), one, 32,
                           4, spec) == ("coalesced", True)


def test_classify_shared_residue_path():
    """Unknown terms on bank-count multiples: conflict-free when the
    active lanes' residues hit distinct banks, else data-dependent."""
    spec = MEMO_SPECS["g80"]
    n = 40                                   # a ragged last group
    lanes = np.arange(n, dtype=np.int64)
    assert classify_shared(SymVal(lanes, {fresh_sym(): 16}), None, n,
                           spec=spec) == ("conflict-free", 1)
    pairs = SymVal(lanes // 2, {fresh_sym(): 16})
    assert classify_shared(pairs, None, n, spec=spec) == \
        ("data-dependent", None)
    # masking off one lane of each pair makes the banks distinct again
    assert classify_shared(pairs, lanes % 2 == 0, n, spec=spec) == \
        ("conflict-free", 1)
    # two-word items: lanes k and k + 8 of a group share a bank
    assert classify_shared(SymVal(lanes % 16, {fresh_sym(): 32}), None, n,
                           word_scale=2, spec=spec) == \
        ("data-dependent", None)
    # a coefficient off the bank count leaves the bank unknown
    assert classify_shared(SymVal(lanes, {fresh_sym(): 8}), None, n,
                           spec=spec) == ("data-dependent", None)


class TestDirectMappedCache:
    def test_first_access_misses_then_hits(self):
        c = DirectMappedCache(1024)
        addr = np.arange(8, dtype=np.int64) * 4
        h, m = c.access(addr, np.ones(8, bool))
        assert h == 0 and m == 1          # one 32 B line covers 8 words
        h, m = c.access(addr, np.ones(8, bool))
        assert h == 1 and m == 0

    def test_capacity_eviction(self):
        c = DirectMappedCache(64, line_bytes=32)  # 2 lines
        a = np.array([0], dtype=np.int64)
        b = np.array([64], dtype=np.int64)        # maps to same slot
        on = np.ones(1, bool)
        c.access(a, on)
        c.access(b, on)
        h, m = c.access(a, on)
        assert m == 1                              # evicted

    def test_duplicate_lines_counted_once(self):
        c = DirectMappedCache(1024)
        addr = np.zeros(16, dtype=np.int64)
        h, m = c.access(addr, np.ones(16, bool))
        assert h + m == 1

    def test_hit_rate_and_reset(self):
        c = DirectMappedCache(1024)
        addr = np.array([0], dtype=np.int64)
        on = np.ones(1, bool)
        c.access(addr, on)
        c.access(addr, on)
        assert c.hit_rate == pytest.approx(0.5)
        c.reset()
        assert c.hits == 0 and c.misses == 0 and c.hit_rate == 1.0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            DirectMappedCache(100, line_bytes=32)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_one_line_fast_path_equals_unique_path(data):
    """``access`` skips ``np.unique`` when every active address falls in
    one line; probing the ``np.unique`` lines directly must give the
    same (hits, misses) on every call and leave the same tags."""
    fast = DirectMappedCache(256, line_bytes=32)     # 8 lines: evictions
    slow = DirectMappedCache(256, line_bytes=32)
    for _ in range(data.draw(st.integers(1, 30))):
        n = data.draw(st.integers(1, 48))
        if data.draw(st.booleans()):                 # one line
            line = data.draw(st.integers(0, 40))
            addr = line * 32 + np.array(data.draw(st.lists(
                st.integers(0, 31), min_size=n, max_size=n)), np.int64)
        else:                                        # many lines
            addr = np.array(data.draw(st.lists(
                st.integers(0, 40 * 32), min_size=n, max_size=n)), np.int64)
        active = np.array(data.draw(st.lists(
            st.booleans(), min_size=n, max_size=n)), dtype=bool)
        got = fast.access(addr, active)
        if active.any():
            hits, misses, _ = slow.probe_lines(
                np.unique(addr[active] // slow.line_bytes))
        else:
            hits, misses = 0, 0
        assert got == (hits, misses)
        np.testing.assert_array_equal(fast.tags, slow.tags)
    assert (fast.hits, fast.misses) == (slow.hits, slow.misses)
