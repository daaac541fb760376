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
    the caller supplies exactly ``spec.coalesce_group`` lanes.  This is
    :func:`coalesce_groups` for a single group.

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
    if not active.any():
        return CoalesceResult(True, 0, 0, 0)
    _, transactions, bus, useful, coalesced = coalesce_groups(
        addresses, active, itemsize, spec)
    return CoalesceResult(bool(coalesced[0]), int(transactions[0]),
                          int(bus[0]), int(useful[0]))


#: backwards-compatible alias for the rule-dispatching entry point
coalesce_group_access = coalesce_half_warp


def group_rows(values: np.ndarray, active: np.ndarray,
               group: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cut block-wide lanes into access groups: ``(values, active)`` as
    ``(groups, group)`` rows of int64 values and activity flags, the
    ragged last group padded with inactive lanes."""
    values = np.asarray(values, dtype=np.int64)
    pad = (-values.shape[0]) % group
    if pad:
        values = np.concatenate([values, np.zeros(pad, dtype=np.int64)])
        active = np.concatenate([active, np.zeros(pad, dtype=bool)])
    return values.reshape(-1, group), active.reshape(-1, group)


def _sorted_rows(values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Each row of ``values`` sorted, after its inactive entries take a
    value the row's active entries already hold (their minimum), so
    they add no distinct value; an all-inactive row becomes one
    repeated value."""
    if active.all():
        return np.sort(values, axis=1)
    fill = np.where(active, values, values.max()).min(axis=1, keepdims=True)
    return np.sort(np.where(active, values, fill), axis=1)


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in sorted
    rows."""
    first = np.ones(rows.shape, dtype=bool)
    first[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return first


def coalesce_groups(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> Tuple[np.ndarray, ...]:
    """Apply the device's coalescing rule to every group of a
    block-wide access at once.

    The lanes are cut into ``spec.coalesce_group`` groups (see
    :func:`group_rows`).  Returns per-group arrays ``(any_active,
    transactions, bus_bytes, useful_bytes, coalesced)``; a group with
    no active lane issues nothing and is not counted as coalesced.

    * strict-segment: a group whose k-th active thread reads word k of
      an aligned segment is one transaction of one segment; any other
      is one transaction per active thread, and the bus carries each
      ``min_transaction_bytes`` bucket the group touches once, from
      the bucket's start to the last byte read in it;
    * cached-line: one transaction per distinct line the group's
      first and last bytes fall in, coalesced when no more lines than
      its useful bytes need.
    """
    group = spec.coalesce_group
    A, M = group_rows(addresses, active, group)
    any_active = M.any(axis=1)
    n_active = M.sum(axis=1)
    useful = n_active * itemsize
    if spec.coalescing_rule == CACHED_LINE:
        line = spec.cache_line_bytes
        lines = _sorted_rows(
            np.concatenate([A // line, (A + itemsize - 1) // line], axis=1),
            np.concatenate([M, M], axis=1))
        transactions = _distinct(lines).sum(axis=1) * any_active
        coalesced = any_active & (
            transactions <= np.maximum(1, -(-useful // line)))
        return any_active, transactions, transactions * line, useful, \
            coalesced

    segment = group * itemsize
    first = M.argmax(axis=1)
    base = A[np.arange(A.shape[0]), first] - first * itemsize
    in_order = A == base[:, None] + np.arange(group) * itemsize
    coalesced = (any_active & (base % segment == 0)
                 & (in_order | ~M).all(axis=1))
    bus = np.where(coalesced, segment, 0)
    slow = any_active & ~coalesced
    if slow.any():
        min_txn = spec.min_transaction_bytes
        addrs = _sorted_rows(A[slow], M[slow])
        bucket = addrs // min_txn
        last = np.ones(addrs.shape, dtype=bool)
        last[:, :-1] = bucket[:, 1:] != bucket[:, :-1]
        span = addrs + itemsize - bucket * min_txn
        bus[slow] = np.where(last, -(-span // min_txn), 0).sum(axis=1) \
            * min_txn
    return (any_active, np.where(coalesced, 1, n_active), bus, useful,
            coalesced)


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

    Verdicts are memoized on the lane pattern up to a shift by a
    multiple of :func:`coalesce_period` (see :func:`_lanes_key`), so a
    loop that walks an array by whole segments or lines classifies
    once.
    """
    if not np.count_nonzero(active):
        return 0, 0, 0, 0, 0
    n, first, steps, mask = _lanes_key(addresses, active,
                                       coalesce_period(itemsize, spec))
    key = ("coalesce", spec.coalescing_rule, spec.coalesce_group, itemsize,
           spec.min_transaction_bytes, spec.cache_line_bytes, n, first,
           steps, mask)
    verdict = _verdicts.get(key)
    if verdict is None:
        verdict = _coalesce_block_direct(addresses, active, itemsize, spec)
        _remember(key, len(steps) + len(mask), verdict)
    return verdict


def _coalesce_block_direct(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec,
) -> Tuple[int, int, int, int, int]:
    """:func:`coalesce_block_access` without the memo."""
    # a block has few groups: summing Python lists beats NumPy's reduce
    return tuple(sum(v.tolist())
                 for v in coalesce_groups(addresses, active, itemsize, spec))


# ----------------------------------------------------------------------
# Shared-memory bank conflicts
# ----------------------------------------------------------------------

def bank_conflict_degree(
    word_indices: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> int:
    """Conflict degree of one shared-memory access group of exactly
    ``spec.shared_access_group`` lanes: :func:`bank_conflict_degrees`
    for a single group."""
    group = spec.shared_access_group
    if word_indices.shape[0] != group or active.shape[0] != group:
        raise ValueError(f"expected a shared access group of {group} lanes")
    return int(bank_conflict_degrees(word_indices, active, spec)[0])


def bank_conflict_degrees(
    words: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> np.ndarray:
    """Conflict degree of every access group of a block-wide shared
    access, 0 for a group with no active lane.

    The group is a half-warp on 16-bank devices and a full warp on
    32-bank ones (``spec.shared_access_group``; see :func:`group_rows`).
    ``words`` are word (4 B) offsets into shared memory.  A group's
    degree is the maximum, over banks, of the number of *distinct*
    words its active lanes access in that bank; duplicate words
    broadcast for free.  A degree of 1 is conflict-free.
    """
    nbanks = spec.shared_mem_banks
    W, M = group_rows(words, active, spec.shared_access_group)
    rows = _sorted_rows(W, M)
    # one counter per (group, bank): the distinct words that bank serves
    slots = np.arange(rows.shape[0])[:, None] * nbanks + rows % nbanks
    counts = np.bincount(slots[_distinct(rows)],
                         minlength=rows.shape[0] * nbanks)
    return counts.reshape(-1, nbanks).max(axis=1) * M.any(axis=1)


def block_bank_conflicts(
    word_indices: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> Tuple[int, int]:
    """Sum conflict degrees over the access groups of a block-wide
    shared access.

    Returns ``(accesses, total_degree)``; ``total_degree - accesses``
    is the number of *extra* serialization passes caused by conflicts.

    Verdicts are memoized on the word pattern up to a uniform shift:
    any uniform shift only renames the banks, so every conflict
    degree is unchanged.  A caller may therefore pass element indices
    for word indices when an element is one word.
    """
    if not np.count_nonzero(active):
        return 0, 0
    n, first, steps, mask = _lanes_key(word_indices, active, 1)
    key = ("bank", spec.shared_access_group, spec.shared_mem_banks, n,
           first, steps, mask)
    verdict = _verdicts.get(key)
    if verdict is None:
        verdict = _bank_conflicts_direct(word_indices, active, spec)
        _remember(key, len(steps) + len(mask), verdict)
    return verdict


def _bank_conflicts_direct(
    word_indices: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec,
) -> Tuple[int, int]:
    """:func:`block_bank_conflicts` without the memo.

    A conflict-free access is found without sorting: every active lane
    writes its word into its group's slot for its bank, and when each
    lane reads its own word back, no bank of any group serves two
    distinct words, so every active group has degree 1.  Any other
    access takes :func:`bank_conflict_degrees`.
    """
    words = np.asarray(word_indices, dtype=np.int64)
    nbanks = spec.shared_mem_banks
    group = spec.shared_access_group
    n = words.shape[0]
    slots = np.arange(n) // group * nbanks + words % nbanks
    hot = words
    partial = np.count_nonzero(active) < n
    if partial:
        slots, hot = slots[active], words[active]
    table = np.empty(-(-n // group) * nbanks, dtype=np.int64)
    table[slots] = hot
    if not np.count_nonzero(table[slots] != hot):
        groups = np.count_nonzero(np.bincount(slots // nbanks)) \
            if partial else -(-n // group)
        return groups, groups
    degrees = bank_conflict_degrees(words, active, spec).tolist()
    return len(degrees) - degrees.count(0), sum(degrees)


# ----------------------------------------------------------------------
# Constant-cache broadcast
# ----------------------------------------------------------------------

def constant_broadcast_passes(
    words: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
    hot: Optional[np.ndarray] = None,
) -> int:
    """Extra serialization passes of one block-wide constant-cache read.

    The constant cache broadcasts one word per cycle to each coalescing
    group (a half-warp on CUDA 1.x, a warp on later devices); threads
    of a group reading different words serialize (the paper's Section
    5.2 "care must be taken").  Returns, summed over the groups with an
    active lane, the number of distinct words the active lanes read
    minus one.  ``hot`` is ``words[active]`` when the caller has
    gathered it; active lanes that read one word return 0 at once.
    """
    if hot is None:
        hot = words[active]
    if not hot.size or not np.count_nonzero(hot != hot[0]):
        return 0
    rows = _sorted_rows(*group_rows(words, active, spec.coalesce_group))
    return int((rows[:, 1:] != rows[:, :-1]).sum())


# ----------------------------------------------------------------------
# Verdict memo (coalescing and bank conflicts)
# ----------------------------------------------------------------------

#: Budget of the verdict memo in bytes: key payload plus
#: ``_ENTRY_BYTES`` per entry.  An insert that would pass it clears the
#: memo first.  The largest working set measured is 0.77 MB (345
#: verdicts), held after the Section-4, Table-3 and Figure-5 paper
#: runs; the budget is ten times that, so those runs never clear it.
#: A memo filled to the budget measured 8.4 MB of resident memory.
VERDICT_MEMO_BYTES = 8 << 20
#: charge per entry for its dict slot, key tuple and verdict tuple
_ENTRY_BYTES = 256

_verdicts: Dict[tuple, tuple] = {}
_verdict_bytes = 0


def _lanes_key(values: np.ndarray, active: np.ndarray,
               period: int) -> Tuple[int, int, bytes, bytes]:
    """Key of a lane pattern with an active lane, equal for two
    patterns exactly when one is the other shifted by a multiple of
    ``period``: the lane count, the first active value modulo
    ``period``, the steps between successive active values and the
    activity mask (empty when every lane is active).  Inactive lanes
    are left out: no verdict reads them."""
    values = np.asarray(values, dtype=np.int64)
    n = values.shape[0]
    if np.count_nonzero(active) == n:
        hot, mask = values, b""
    else:
        hot, mask = values[active], np.packbits(active).tobytes()
    return n, int(hot[0]) % period, (hot[1:] - hot[:-1]).tobytes(), mask


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

#: line size of the constant and texture caches (one 32 B DRAM fill)
READ_ONLY_LINE_BYTES = 32


class DirectMappedCache:
    """A small direct-mapped line cache for the constant/texture paths.

    The paper's applications use these paths for working sets that
    either fit (constant tables, MRI trajectory data) or exhibit 2D
    locality (texture-staged LBM grids); a simple line cache captures
    the hit-rate distinction that matters for the timing model.
    """

    def __init__(self, capacity_bytes: int,
                 line_bytes: int = READ_ONLY_LINE_BYTES) -> None:
        if capacity_bytes % line_bytes:
            raise ValueError("capacity must be a multiple of the line size")
        self.line_bytes = line_bytes
        self.num_lines = capacity_bytes // line_bytes
        #: the line each slot holds, -1 for an empty slot (a list: the
        #: probes read and write one slot at a time)
        self.tags = [-1] * self.num_lines
        self.hits = 0
        self.misses = 0

    def access(self, addresses: np.ndarray,
               active: Optional[np.ndarray] = None) -> Tuple[int, int]:
        """Access the byte addresses of one block-wide read: those of
        the ``active`` lanes, or every address given when ``active`` is
        None (the caller gathered the active lanes); returns (hits,
        misses).

        Lanes reading the same line are counted once per access (the
        line is fetched once for the whole block), matching
        constant-cache behaviour.
        """
        if active is not None:
            addresses = addresses[active]
        lines = addresses // self.line_bytes
        if lines.size == 0:
            return 0, 0
        if not np.count_nonzero(lines != lines[0]):  # nothing to sort
            lines = lines[:1]
        else:
            lines = np.unique(lines)
        hits, misses, _ = self.probe_lines(lines.tolist())
        return hits, misses

    def _probe(self, line: int) -> bool:
        """Whether ``line`` is held; a miss fills its slot."""
        slot = line % self.num_lines
        if self.tags[slot] == line:
            return True
        self.tags[slot] = line
        return False

    def probe_line(self, line: int) -> bool:
        """Probe one line index (a plain integer): True on a hit."""
        hit = self._probe(line)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def probe_lines(self, lines) -> Tuple[int, int, np.ndarray]:
        """Probe a sequence of distinct line indices; returns
        ``(hits, misses, missed_lines)`` so a backing level can be
        consulted for the misses only."""
        missed = [line for line in lines if not self._probe(line)]
        hits = len(lines) - len(missed)
        self.hits += hits
        self.misses += len(missed)
        return hits, len(missed), np.asarray(missed, dtype=np.int64)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def reset(self) -> None:
        self.tags = [-1] * self.num_lines
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
            DirectMappedCache(spec.l1_cache_bytes_per_sm, line)
            if spec.l1_cache_bytes_per_sm else None)
        self.l2: Optional[DirectMappedCache] = (
            DirectMappedCache(spec.l2_cache_bytes, line)
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


def cold_caches(spec: DeviceSpec) -> Dict[str, object]:
    """A cold set of the caches one launch's traced blocks read through:
    the ``const`` and ``tex`` read-only caches, plus a ``global``
    :class:`CacheHierarchy` on devices whose global loads are cached
    (Fermi and later).  Each execution of a launch builds its own, so
    re-executing a plan charges what its first execution charged."""
    caches: Dict[str, object] = {
        "const": DirectMappedCache(spec.constant_cache_bytes_per_sm),
        "tex": DirectMappedCache(spec.texture_cache_bytes_per_sm),
    }
    if spec.has_cached_global_loads:
        caches["global"] = CacheHierarchy(spec)
    return caches
