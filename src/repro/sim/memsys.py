"""Memory-system models: coalescing, bank conflicts, caches.

This module implements the global-memory coalescing rules as *data on
the device spec*, not as code assumptions.  Two rules exist:

**Strict-segment rule** (CUDA 1.x, the paper's Section 3.2): a
coalescing group (a half-warp) issues one memory transaction iff the
k-th active thread accesses the k-th word of an aligned segment.  Any
other pattern is *uncoalesced* and serialized into one transaction per
active thread with a minimum-granularity bus charge.  Duplicate
addresses are merged for DRAM *bus* accounting (the controller's read
combining, cf. the paper's footnote 4) but still pay per-thread
serialization in the memory pipeline.

**Cached-line rule** (Fermi and later): a full warp's accesses are
gathered into the distinct cache lines they touch — one transaction
per line, regardless of the permutation of threads within the lines.
An access is coalesced when it touches no more lines than its useful
bytes require; misaligned or strided patterns cost extra lines, not
per-thread serialization.

Which rule applies, and over how many threads, comes from
``spec.coalescing_rule`` / ``spec.coalesce_group``.

**Bank conflicts.**  Shared memory is word-interleaved over
``spec.shared_mem_banks`` banks; an access group (half-warp on
16-bank devices, full warp on 32-bank ones) serializes by the maximum
number of distinct words mapped to the same bank (conflict degree).
All threads reading the *same* word are served by a broadcast
(degree 1).

**Caches.**  Constant and texture reads go through small per-SM caches
modeled with simple direct-mapped line structures sized per
:class:`~repro.arch.device.DeviceSpec`; devices with cached global
loads additionally route them through a two-level
:class:`CacheHierarchy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..arch.device import CACHED_LINE, DeviceSpec, DEFAULT_DEVICE
from ..obs.registry import get_registry


@dataclass(frozen=True)
class CoalesceResult:
    """Outcome of one coalescing-group global access event."""

    coalesced: bool
    transactions: int          # serialized transactions issued
    bus_bytes: int             # bytes occupying the DRAM bus
    useful_bytes: int          # bytes the threads actually requested

    @property
    def efficiency(self) -> float:
        return self.useful_bytes / self.bus_bytes if self.bus_bytes else 1.0


def coalesce_half_warp(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> CoalesceResult:
    """Apply the device's coalescing rule to one group access.

    The group is a half-warp on strict-segment (CUDA 1.x) devices —
    hence the historical name — and a full warp on cached-line ones;
    the caller supplies exactly ``spec.coalesce_group`` lanes.

    Parameters
    ----------
    addresses:
        Byte addresses, one per thread slot of the group (length
        ``spec.coalesce_group``); entries for inactive threads are
        ignored.
    active:
        Boolean activity mask of the same length.
    itemsize:
        Access width in bytes (4, 8 or 16).
    """
    group = spec.coalesce_group
    if addresses.shape[0] != group or active.shape[0] != group:
        raise ValueError(f"expected a coalescing group of {group} lanes")
    n_active = int(active.sum())
    if n_active == 0:
        return CoalesceResult(True, 0, 0, 0)
    if spec.coalescing_rule == CACHED_LINE:
        return _coalesce_cached_line(addresses, active, itemsize, spec)
    return _coalesce_strict_segment(addresses, active, itemsize, spec)


#: backwards-compatible alias for the rule-dispatching entry point
coalesce_group_access = coalesce_half_warp


def _coalesce_strict_segment(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec,
) -> CoalesceResult:
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


def _coalesce_cached_line(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec,
) -> CoalesceResult:
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


def coalesce_period(itemsize: int, spec: DeviceSpec = DEFAULT_DEVICE) -> int:
    """The address shift under which the coalescing verdict is
    invariant: moving every address by a multiple of it keeps each
    quantity the device's rule reads.

    * strict-segment: segment alignment (``addr % (group * itemsize)``)
      and the ``addr // min_transaction_bytes`` bus buckets, so the
      period is the lcm of the two;
    * cached-line: the ``addr // cache_line_bytes`` lines, so the
      period is the line.
    """
    if spec.coalescing_rule == CACHED_LINE:
        return spec.cache_line_bytes
    return math.lcm(spec.coalesce_group * itemsize, spec.min_transaction_bytes)


def coalesce_block_access(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> Tuple[int, int, int, int, int]:
    """Coalesce a whole block-wide access, group by group.

    The group width and rule come from ``spec`` (half-warp strict
    segments on CUDA 1.x, full-warp cache lines on Fermi and later).
    Returns ``(warp_accesses, transactions, bus_bytes, useful_bytes,
    coalesced_accesses)`` summed over all groups that had at least one
    active thread.

    Verdicts are memoized on the lane pattern shifted by a multiple of
    :func:`coalesce_period` (see :func:`_lanes_key`), so a loop that
    walks an array by whole segments or lines classifies once.
    """
    if not active.any():
        return 0, 0, 0, 0, 0
    lanes, mask = _lanes_key(addresses, active,
                             coalesce_period(itemsize, spec))
    key = ("coalesce", spec.coalescing_rule, spec.coalesce_group, itemsize,
           spec.min_transaction_bytes, spec.cache_line_bytes, lanes, mask)
    verdict = _verdicts.get(key)
    if verdict is None:
        verdict = _coalesce_block_direct(addresses, active, itemsize, spec)
        _remember(key, len(lanes) + len(mask), verdict)
    return verdict


def _coalesce_block_direct(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec,
) -> Tuple[int, int, int, int, int]:
    """:func:`coalesce_block_access` without the memo."""
    group = spec.coalesce_group
    n = addresses.shape[0]
    pad = (-n) % group
    if pad:
        addresses = np.concatenate(
            [addresses.astype(np.int64), np.zeros(pad, dtype=np.int64)])
        active = np.concatenate([active, np.zeros(pad, dtype=bool)])
    A = addresses.reshape(-1, group).astype(np.int64)
    M = active.reshape(-1, group)
    any_active = M.any(axis=1)
    if not any_active.any():
        return 0, 0, 0, 0, 0
    segment = group * itemsize
    cached = spec.coalescing_rule == CACHED_LINE
    # a fast-path row costs segment bytes rounded up to whole lines on
    # cached devices, exactly one segment on strict ones
    if cached:
        line = spec.cache_line_bytes
        txn_per_fast = -(-segment // line)
        bus_per_fast = txn_per_fast * line
        align = line
    else:
        txn_per_fast = 1
        bus_per_fast = segment
        align = segment

    # Vectorized fast path: fully active, in-order, aligned rows.
    fully = M.all(axis=1)
    lane0 = A[:, 0]
    expected = lane0[:, None] + np.arange(group, dtype=np.int64)[None, :] * itemsize
    in_order = (A == expected).all(axis=1)
    aligned = (lane0 % align) == 0
    fast = fully & in_order & aligned
    n_fast = int(fast.sum())
    warp_accesses = int(any_active.sum())
    transactions = n_fast * txn_per_fast
    bus = n_fast * bus_per_fast
    useful = n_fast * segment
    coalesced = n_fast

    slow_rows = np.nonzero(any_active & ~fast)[0]
    for r in slow_rows:
        res = coalesce_half_warp(A[r], M[r], itemsize, spec)
        transactions += res.transactions
        bus += res.bus_bytes
        useful += res.useful_bytes
        coalesced += int(res.coalesced)
    return warp_accesses, transactions, bus, useful, coalesced


# ----------------------------------------------------------------------
# Shared-memory bank conflicts
# ----------------------------------------------------------------------

def bank_conflict_degree(
    word_indices: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> int:
    """Conflict degree of one shared-memory access group.

    The group is a half-warp on 16-bank devices and a full warp on
    32-bank ones (``spec.shared_access_group``).  ``word_indices`` are
    word (4 B) offsets into shared memory.  The degree is the maximum,
    over banks, of the number of *distinct* words accessed in that
    bank; duplicate words broadcast for free.  A degree of 1 is
    conflict-free.
    """
    if not active.any():
        return 0
    words = word_indices[active].astype(np.int64)
    banks = words % spec.shared_mem_banks
    degree = 0
    for b in np.unique(banks):
        degree = max(degree, len(np.unique(words[banks == b])))
    return int(degree)


def block_bank_conflicts(
    word_indices: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> Tuple[int, int]:
    """Sum conflict degrees over the access groups of a block-wide
    shared access.

    Returns ``(accesses, total_degree)``; ``total_degree - accesses``
    is the number of *extra* serialization passes caused by conflicts.

    Verdicts are memoized on the word pattern shifted to start at 0:
    any uniform shift only renames the banks, so every conflict
    degree is unchanged.
    """
    if not active.any():
        return 0, 0
    words, mask = _lanes_key(word_indices, active, 1)
    key = ("bank", spec.shared_access_group, spec.shared_mem_banks,
           words, mask)
    verdict = _verdicts.get(key)
    if verdict is None:
        verdict = _bank_conflicts_direct(word_indices, active, spec)
        _remember(key, len(words) + len(mask), verdict)
    return verdict


def _bank_conflicts_direct(
    word_indices: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec,
) -> Tuple[int, int]:
    """:func:`block_bank_conflicts` without the memo."""
    hw = spec.shared_access_group
    nbanks = spec.shared_mem_banks
    n = word_indices.shape[0]
    pad = (-n) % hw
    if pad:
        word_indices = np.concatenate(
            [word_indices.astype(np.int64), np.zeros(pad, dtype=np.int64)])
        active = np.concatenate([active, np.zeros(pad, dtype=bool)])
    W = word_indices.reshape(-1, hw).astype(np.int64)
    M = active.reshape(-1, hw)
    any_active = M.any(axis=1)
    if not any_active.any():
        return 0, 0
    accesses = int(any_active.sum())

    # Vectorized fast path: fully active rows whose lanes all hit
    # distinct banks (the common conflict-free stride-1 pattern), or
    # rows where every lane reads the same word (broadcast).
    fully = M.all(axis=1)
    banks = W % nbanks
    banks_sorted = np.sort(banks, axis=1)
    distinct_banks = (np.diff(banks_sorted, axis=1) != 0).all(axis=1)
    broadcast = (W == W[:, :1]).all(axis=1)
    fast = fully & (distinct_banks | broadcast)
    total = int(fast.sum())  # degree 1 each

    slow_rows = np.nonzero(any_active & ~fast)[0]
    for r in slow_rows:
        total += bank_conflict_degree(W[r], M[r], spec)
    return accesses, total


# ----------------------------------------------------------------------
# Constant-cache broadcast
# ----------------------------------------------------------------------

def constant_broadcast_passes(
    words: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> int:
    """Extra serialization passes of one block-wide constant-cache read.

    The constant cache broadcasts one word per cycle to each coalescing
    group (a half-warp on CUDA 1.x, a warp on later devices); threads
    of a group reading different words serialize (the paper's Section
    5.2 "care must be taken").  Returns, summed over the groups with an
    active lane, the number of distinct words the active lanes read
    minus one.
    """
    hot = words[active]
    if hot.size == 0 or (hot == hot[0]).all():
        return 0
    group = spec.coalesce_group
    pad = (-words.shape[0]) % group
    if pad:
        words = np.concatenate([words, np.zeros(pad, dtype=words.dtype)])
        active = np.concatenate([active, np.zeros(pad, dtype=bool)])
    W = words.reshape(-1, group)
    M = active.reshape(-1, group)
    # an inactive lane takes a word its group's active lanes already
    # read, so it adds no distinct word; an all-inactive group becomes
    # one repeated word and adds nothing either
    fill = np.where(M, W, W.max()).min(axis=1, keepdims=True)
    rows = np.sort(np.where(M, W, fill), axis=1)
    return int((rows[:, 1:] != rows[:, :-1]).sum())


# ----------------------------------------------------------------------
# Verdict memo (coalescing and bank conflicts)
# ----------------------------------------------------------------------

#: Budget of the verdict memo in bytes: key payload plus
#: ``_ENTRY_BYTES`` per entry.  An insert that would pass it clears the
#: memo first.  The largest working set measured is 0.81 MB (348
#: verdicts), held after the Section-4, Table-3 and Figure-5 paper
#: runs; the budget is ten times that, so those runs never clear it.
#: A memo filled to the budget measured 8.4 MB of resident memory.
VERDICT_MEMO_BYTES = 8 << 20
#: charge per entry for its dict slot, key tuple and verdict tuple
_ENTRY_BYTES = 256

_verdicts: Dict[tuple, tuple] = {}
_verdict_bytes = 0


def _lanes_key(values: np.ndarray, active: np.ndarray,
               period: int) -> Tuple[bytes, bytes]:
    """Key bytes of a lane pattern: ``values`` shifted down by the
    largest multiple of ``period`` not above their minimum over the
    active lanes, inactive lanes zeroed (no verdict reads them), and
    the activity mask (empty when every lane is active)."""
    values = np.asarray(values, dtype=np.int64)
    if active.all():
        low = int(values.min())
        mask = b""
    else:
        low = int(values[active].min())
        mask = np.packbits(active).tobytes()
    base = low - low % period
    if mask:
        values = np.where(active, values, base)
    return (values - base).tobytes(), mask


def _remember(key: tuple, nbytes: int, verdict: tuple) -> None:
    """Store one verdict, clearing the memo first when it would pass
    :data:`VERDICT_MEMO_BYTES` (an entry larger than the whole budget
    is not stored)."""
    global _verdict_bytes
    nbytes += _ENTRY_BYTES
    if nbytes > VERDICT_MEMO_BYTES:
        return
    if _verdict_bytes + nbytes > VERDICT_MEMO_BYTES:
        _verdicts.clear()
        _verdict_bytes = 0
    _verdicts[key] = verdict
    _verdict_bytes += nbytes


# ----------------------------------------------------------------------
# Read-only caches (constant / texture)
# ----------------------------------------------------------------------

class DirectMappedCache:
    """A small direct-mapped line cache for the constant/texture paths.

    The paper's applications use these paths for working sets that
    either fit (constant tables, MRI trajectory data) or exhibit 2D
    locality (texture-staged LBM grids); a simple line cache captures
    the hit-rate distinction that matters for the timing model.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 32,
                 space: str = "cache") -> None:
        if capacity_bytes % line_bytes:
            raise ValueError("capacity must be a multiple of the line size")
        self.line_bytes = line_bytes
        self.num_lines = capacity_bytes // line_bytes
        self.tags = np.full(self.num_lines, -1, dtype=np.int64)
        #: label under which hit/miss counters are published
        self.space = space
        self.hits = 0
        self.misses = 0

    def access(self, addresses: np.ndarray, active: np.ndarray) -> Tuple[int, int]:
        """Access a vector of byte addresses; returns (hits, misses).

        Duplicate lines within one access are counted once (warp-level
        broadcast), matching constant-cache behaviour.
        """
        lines = addresses[active] // self.line_bytes
        if lines.size == 0:
            return 0, 0
        if (lines == lines[0]).all():      # one line: nothing to sort
            lines = lines[:1]
        else:
            lines = np.unique(lines)
        hits, misses, _ = self.probe_lines(lines)
        return hits, misses

    def probe_lines(self, lines: np.ndarray
                    ) -> Tuple[int, int, np.ndarray]:
        """Probe a vector of distinct line indices; returns
        ``(hits, misses, missed_lines)`` so a backing level can be
        consulted for the misses only."""
        hits = misses = 0
        missed = []
        for line in lines:
            slot = int(line % self.num_lines)
            if self.tags[slot] == line:
                hits += 1
            else:
                self.tags[slot] = line
                misses += 1
                missed.append(line)
        self.hits += hits
        self.misses += misses
        registry = get_registry()
        if registry.enabled:
            if hits:
                registry.counter("memsys.cache_hits",
                                 space=self.space).inc(hits)
            if misses:
                registry.counter("memsys.cache_misses",
                                 space=self.space).inc(misses)
        return hits, misses, np.asarray(missed, dtype=np.int64)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def reset(self) -> None:
        self.tags[:] = -1
        self.hits = 0
        self.misses = 0


# ----------------------------------------------------------------------
# Global-load cache hierarchy (cached-line devices)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyOutcome:
    """Result of routing one global access through the L1/L2 levels."""

    lines: int          # distinct lines the access touched
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int

    @property
    def dram_lines(self) -> int:
        """Lines that had to be fetched from DRAM."""
        return self.l2_misses


class CacheHierarchy:
    """Two-level cache for the global-load path of Fermi-class devices.

    Traced blocks execute sequentially, so a single L1 stands in for
    the per-SM L1s (the same modeling convention the constant/texture
    caches use) and a single L2 for the device-wide one.  Only lines
    that miss in L2 occupy the DRAM bus; the coalescing classifier
    still decides how many *transactions* the warp issues.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        if not spec.has_cached_global_loads:
            raise ValueError(f"{spec.name} has no cached global path")
        line = spec.cache_line_bytes
        self.line_bytes = line
        self.l1: Optional[DirectMappedCache] = (
            DirectMappedCache(spec.l1_cache_bytes_per_sm, line, space="l1")
            if spec.l1_cache_bytes_per_sm else None)
        self.l2: Optional[DirectMappedCache] = (
            DirectMappedCache(spec.l2_cache_bytes, line, space="l2")
            if spec.l2_cache_bytes else None)

    def access(self, addresses: np.ndarray, active: np.ndarray,
               itemsize: int = 4) -> HierarchyOutcome:
        """Route one block-wide access through the hierarchy."""
        if not active.any():
            return HierarchyOutcome(0, 0, 0, 0, 0)
        addrs = addresses[active].astype(np.int64)
        first = addrs // self.line_bytes
        last = (addrs + itemsize - 1) // self.line_bytes
        lines = np.unique(np.concatenate([first, last]))
        l1_hits = l1_misses = l2_hits = l2_misses = 0
        missed = lines
        if self.l1 is not None:
            l1_hits, l1_misses, missed = self.l1.probe_lines(lines)
        if self.l2 is not None:
            l2_hits, l2_misses, missed = self.l2.probe_lines(missed)
        else:
            l2_misses = int(missed.size)
        return HierarchyOutcome(int(lines.size), l1_hits, l1_misses,
                                l2_hits, l2_misses)

    def reset(self) -> None:
        for level in (self.l1, self.l2):
            if level is not None:
                level.reset()
