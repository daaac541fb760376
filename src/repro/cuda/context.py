"""The kernel DSL: warp-synchronous, trace-emitting block execution.

Kernels in this reproduction are Python functions of the form::

    def kernel(ctx: BlockContext, a: DeviceArray, b: DeviceArray, ...):
        tx, ty = ctx.tx, ctx.ty
        ...

executed **once per thread block** with every per-thread quantity held
as a NumPy vector over the block's threads (SIMD within the block,
mirroring the SPMD-on-SIMD execution the paper describes in Section 3).
Every architectural event is routed through a ``ctx`` method:

* ``fma/fadd/fmul/...`` — arithmetic, counted per warp-instruction and
  computed for real on the NumPy vectors;
* ``ld_global/st_global`` — global accesses: the per-thread addresses
  go through the G80 coalescing model and the transaction statistics
  land in the :class:`~repro.trace.trace.KernelTrace`;
* ``ld_shared/st_shared`` — scratchpad accesses with bank-conflict
  detection;
* ``ld_const/ld_tex`` — cached read-only paths;
* ``sfu_sin/sfu_cos/...`` — SFU transcendentals;
* ``sync`` — ``__syncthreads``;
* ``masked(cond)`` — divergent control flow: instructions inside the
  context only issue for warps that still have an active thread, so
  SIMD divergence penalties (Section 3/5) appear in the trace.

The same execution serves two purposes: it mutates real device arrays
(functional correctness, checked against NumPy references in the test
suite) and it emits the dynamic instruction/memory trace that the
performance models consume (the paper's PTX-inspection methodology).

What each op costs is charged in one place, :class:`BlockAccounting`:
warp and lane counts under the divergence mask, the branch charge,
loop and address bookkeeping, and one charge per memory kind (bank
conflicts, constant broadcast passes, coalesced global access through
any L1/L2 hierarchy, serialized atomics).  :class:`BlockContext`
inherits it to execute a block; the static analyzer's
:class:`~repro.analysis.interp.LintContext` inherits it to interpret a
block's source, so the static census counts what execution records by
construction.

What each value op computes is defined in one place too,
:class:`LaneOps`: the arithmetic, conversion, ``select``, ``merge``,
SFU and ``any_active`` ops, each one :meth:`~LaneOps._emit` plus one
expression over the subclass's ``self._bc(...)`` operands and its
``self.xp`` array namespace, and the memory-space, shared-allocation
and shared-store checks.  Three contexts inherit it:
:class:`BlockContext` over one block's ``(nthreads,)`` lanes, charging
through :class:`BlockAccounting`; the grid compiler's
:class:`~repro.compile.runtime.GridRT` over a whole grid segment with
an ``_emit`` that charges nothing; and the census's ``LintContext``
over abstract values, charging through :class:`BlockAccounting`.  So
the compiled sweep computes what the reference computes, and the
census charges what execution charges, by construction.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..arch.device import DeviceSpec
from ..trace.instr import InstrClass
from ..trace.trace import KernelTrace
from ..sim.memsys import (
    DirectMappedCache,
    block_bank_conflicts,
    coalesce_block_access,
    constant_broadcast_passes,
)
from .dim3 import Dim3
from .memory import (
    ConstantArray,
    CudaModelError,
    DeviceArray,
    SharedArray,
    TextureArray,
)

ArrayLike = Union[np.ndarray, float, int]


# ----------------------------------------------------------------------
# Rule metadata for the ctx.* vocabulary
# ----------------------------------------------------------------------

#: every public ``ctx`` method, mapped to its category for the static
#: tooling: the IR and the dataflow passes read which ops load, charge
#: an index or vanish, and the grid compiler refuses a ``ctx`` method
#: with no entry.  Categories: farith | iarith | sfu | cvt | select |
#: merge | global_ld | global_st | global_atomic | shared_ld |
#: shared_st | const_ld | tex_ld | alloc | sync | masked | query | meta
#: | identity.  A new op needs an entry here and a method on the
#: executing contexts; unless it is a :class:`LaneOps` value op, which
#: the census inherits, it also needs a
#: :class:`~repro.analysis.interp.LintContext` method.
CTX_OPS: Dict[str, str] = {
    # arithmetic (one warp instruction each)
    **dict.fromkeys(("fma", "fadd", "fsub", "fmul", "fdiv", "fmin",
                     "fmax"), "farith"),
    **dict.fromkeys(("iadd", "isub", "imul", "iand", "ior", "ixor",
                     "ishl", "ishr"), "iarith"),
    "cvt": "cvt",
    "select": "select",
    "merge": "merge",
    # SFU transcendentals
    **dict.fromkeys(("sfu_sin", "sfu_cos", "sfu_rsqrt", "sfu_sqrt",
                     "sfu_exp", "sfu_log", "sfu_rcp"), "sfu"),
    # memory spaces
    "ld_global": "global_ld",
    "st_global": "global_st",
    "atom_global_add": "global_atomic",
    "ld_shared": "shared_ld",
    "st_shared": "shared_st",
    "ld_const": "const_ld",
    "ld_tex": "tex_ld",
    "shared_alloc": "alloc",
    # control
    "sync": "sync",
    "masked": "masked",
    "any_active": "query",
    # bookkeeping the vectorized execution performs implicitly
    "loop_tail": "meta",
    "address_ops": "meta",
    # thread-identity helpers (methods; the tx/ty/... attrs are data)
    **dict.fromkeys(("global_tid_x", "global_tid_y", "global_tid"),
                    "identity"),
}

#: data attributes of a :class:`BlockContext` that kernels may read.
#: Like :data:`CTX_OPS` for methods, this is the authoritative list the
#: static tooling works from — the grid compiler
#: (:mod:`repro.compile`) lowers each of these to the equivalent
#: whole-grid identity value and refuses kernels touching anything
#: else on ``ctx``.
CTX_ATTRS: Tuple[str, ...] = (
    "tx", "ty", "tz", "tid", "bx", "by", "bz", "block_linear",
    "nthreads", "threads_per_block", "nwarps", "blockDim", "gridDim",
    "mask", "spec", "kernel_name",
)


# ----------------------------------------------------------------------
# Warp accounting under a divergence mask
# ----------------------------------------------------------------------

def warp_lane_counts(mask: np.ndarray, warp_size: int) -> np.ndarray:
    """Active-lane count per warp (the mask padded to whole warps)."""
    pad = (-mask.shape[0]) % warp_size
    if pad:
        mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
    return mask.reshape(-1, warp_size).sum(axis=1)


def mask_counts(mask: np.ndarray, base_lane_counts: np.ndarray,
                warp_size: int) -> Tuple[int, int, int]:
    """``(active warps, partial warps, active lanes)`` under ``mask``.
    A partial warp issues with fewer active lanes than the block's base
    mask gives it (``base_lane_counts``) — the lanes a divergent branch
    idled (pure block-geometry padding is excluded)."""
    counts = warp_lane_counts(mask, warp_size)
    issuing = counts > 0
    partial = issuing & (counts < base_lane_counts)
    return (np.count_nonzero(issuing), np.count_nonzero(partial),
            np.count_nonzero(mask))


def one_word(hot: np.ndarray) -> Optional[int]:
    """The one index that all of ``hot`` (the active lanes' indices)
    hold, or None when they hold several or none.  The end lanes are
    compared first, which settles most multi-word accesses without a
    vector op."""
    if hot.size and hot[0] == hot[-1] \
            and not np.count_nonzero(hot != hot[0]):
        return int(hot[0])
    return None


def divergent_warps(parent: np.ndarray, cond: np.ndarray,
                    warp_size: int) -> int:
    """Warps whose ``parent``-active lanes disagree on ``cond`` — those
    warps execute both sides of the branch serially."""
    taken = warp_lane_counts(parent & cond, warp_size)
    skipped = warp_lane_counts(parent & ~cond, warp_size)
    return int(((taken > 0) & (skipped > 0)).sum())


class BlockAccounting:
    """Charges every ``ctx`` op of one thread block to a
    :class:`~repro.trace.trace.KernelTrace` (see module docstring).

    Subclasses own the divergence mask and enter and leave each mask
    level with :meth:`_push_level` and :meth:`_pop_level`; every charge
    reads the innermost level.  They also set the block coordinates
    ``bx``/``by`` and ``block_linear`` the identity helpers read.
    :meth:`_emit` and :meth:`_branch` do nothing without a trace; the
    ``_record_*`` memory charges expect one, so a caller skips
    computing their lanes when ``_trace`` is None.

    :meth:`_emit` only tallies the instructions issued at the innermost
    level, per class in first-issue order.  The tally is counted into
    the trace with that level's warps and lanes when the level is left,
    when another is entered, and whenever :attr:`trace` is read, so
    every reader of :attr:`trace` sees exact counts.  Every count is an
    integer, so counting a class's instructions at once adds what
    counting them one by one adds.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        grid: Dim3,
        block: Dim3,
        trace: Optional[KernelTrace],
        caches: Optional[Dict[str, DirectMappedCache]] = None,
        stream: Optional[list] = None,
    ) -> None:
        self.spec = spec
        self.gridDim = grid
        self.blockDim = block

        T = block.size
        tid = np.arange(T, dtype=np.int64)
        self.tid = tid
        self.tx = tid % block.x
        self.ty = (tid // block.x) % block.y
        self.tz = tid // (block.x * block.y)
        #: threads of ONE block — stays per-block under compiled
        #: whole-grid execution, where ``nthreads`` widens to all lanes
        #: of the segment; index math that means "block size" must use
        #: this, not ``nthreads``
        self.threads_per_block = T
        self.nwarps = -(-T // spec.warp_size)

        self._trace = trace
        #: instructions issued at the innermost mask level and not yet
        #: counted into the trace: class -> count (None: untraced)
        self._tally: Optional[Dict[InstrClass, int]] = \
            None if trace is None else {}
        self.caches = caches or {}
        #: ordered instruction stream for the event-driven warp
        #: simulator (populated when the launch records streams)
        self.stream = stream
        base = np.ones(T, dtype=bool)
        #: per-warp lane counts of the base mask (the reference for
        #: divergence-serialization accounting)
        self._base_lane_counts = warp_lane_counts(base, spec.warp_size)
        #: ``(active warps, partial warps, active lanes)`` of each mask
        #: level, computed once when the level is pushed
        self._level_counts: List[Tuple[int, int, int]] = [
            mask_counts(base, self._base_lane_counts, spec.warp_size)]
        self._smem_words = 0
        # an extra serialization pass costs one access group's share of
        # the warp issue time: a shared-memory access group (a half-warp
        # on 16-bank devices) or a constant broadcast's coalescing group
        issue = spec.timing.issue_cycles_per_warp_inst
        self._bank_pass_cycles = issue * (
            spec.shared_access_group / spec.warp_size)
        self._broadcast_pass_cycles = issue * (
            spec.coalesce_group / spec.warp_size)

    # ------------------------------------------------------------------
    # Thread identity helpers
    # ------------------------------------------------------------------
    def global_tid_x(self) -> np.ndarray:
        """``blockIdx.x * blockDim.x + threadIdx.x`` for every thread."""
        return self.bx * self.blockDim.x + self.tx

    def global_tid_y(self) -> np.ndarray:
        return self.by * self.blockDim.y + self.ty

    def global_tid(self) -> np.ndarray:
        """Grid-wide linear thread id (x fastest, matching CUDA)."""
        return self.block_linear * self.blockDim.size + self.tid

    @property
    def smem_bytes(self) -> int:
        return self._smem_words * 4

    @property
    def trace(self) -> Optional[KernelTrace]:
        """The block's trace, with every instruction issued so far."""
        self._flush()
        return self._trace

    # ------------------------------------------------------------------
    # Issue accounting
    # ------------------------------------------------------------------
    def _push_level(self, mask: Optional[np.ndarray]) -> None:
        """Enter a mask level: count its warps once for every charge
        made under it (``mask`` None: the innermost level's lanes again;
        an untraced block charges nothing, so it counts nothing)."""
        self._flush()
        self._level_counts.append(
            self._level_counts[-1] if mask is None or self._tally is None
            else mask_counts(mask, self._base_lane_counts,
                             self.spec.warp_size))

    def _pop_level(self) -> None:
        """Leave the innermost mask level."""
        self._flush()
        self._level_counts.pop()

    def _flush(self) -> None:
        """Count the tallied instructions into the trace with the
        innermost level's warps and lanes."""
        tally = self._tally
        if not tally:
            return
        warps, partial, lanes = self._level_counts[-1]
        if warps:
            trace = self._trace
            for cls, count in tally.items():
                if partial:
                    trace.record_divergent_issue(partial * count)
                trace.record_instr(cls, warps * count, lanes * count)
        tally.clear()

    def _emit(self, cls: InstrClass, count: int = 1,
              mem: Optional[Tuple[float, float]] = None,
              divergent_warps: int = 0) -> None:
        tally = self._tally
        if tally is None or not count:
            return
        tally[cls] = tally.get(cls, 0) + count
        if self.stream is not None:
            warps, partial, _lanes = self._level_counts[-1]
            if warps:
                from ..sim.warpsim import StreamEvent
                txn_w, bytes_w = mem if mem else (0.0, 0.0)
                self.stream.extend(
                    StreamEvent(cls, warps, txn_w, bytes_w,
                                divergent_warps, partial)
                    for _ in range(count))

    def _branch(self, parent: np.ndarray,
                cond: Optional[np.ndarray]) -> None:
        """Charge a branch: the warps whose ``parent``-active lanes
        disagree on ``cond`` (every active warp when ``cond`` is None, a
        predicate known only to vary per lane), then the predicate-set
        and branch instructions, issued under the parent mask before
        divergence takes effect."""
        divergent = 0
        if self._trace is not None:
            warps = self._level_counts[-1][0]
            if warps:
                divergent = warps if cond is None else divergent_warps(
                    parent, cond, self.spec.warp_size)
                self._trace.record_branch(warps, divergent)
        self._emit(InstrClass.SETP)
        self._emit(InstrClass.BRANCH, divergent_warps=divergent)

    # ------------------------------------------------------------------
    # Loop bookkeeping (the instructions unrolling removes, Section 4.3)
    # ------------------------------------------------------------------
    def loop_tail(self, induction_updates: int = 1) -> None:
        """Account the per-iteration loop overhead: ``induction_updates``
        integer increments plus the compare and backward branch.  A
        fully unrolled loop simply never calls this."""
        self._emit(InstrClass.IALU, induction_updates)
        self._emit(InstrClass.SETP)
        self._emit(InstrClass.BRANCH)

    def address_ops(self, count: int = 1) -> None:
        """Account explicit address-calculation instructions that the
        vectorized functional execution performs implicitly."""
        self._emit(InstrClass.IALU, count)

    # ------------------------------------------------------------------
    # Memory charges
    # ------------------------------------------------------------------
    def _record_bank_conflicts(self, words: np.ndarray, mask: np.ndarray,
                               hot: np.ndarray) -> None:
        """Shared memory: serialization passes beyond one per access
        group, from the shared-memory word each lane touches (``hot``
        holds the active lanes' words, or their element indices).
        Active lanes that all read one word are a broadcast, degree 1
        in every group: no pass to charge, nothing to classify."""
        if one_word(hot) is not None:
            return
        accesses, degree = block_bank_conflicts(words, mask, self.spec)
        extra = (degree - accesses) * self._bank_pass_cycles
        if extra:
            self._trace.record_shared_conflict(extra)

    def _record_broadcast(self, words: np.ndarray, mask: np.ndarray,
                          hot: Optional[np.ndarray] = None) -> None:
        """Constant memory: threads of a coalescing group reading
        different words serialize one word per pass (``hot`` is
        ``words[mask]`` when the caller has gathered it)."""
        passes = constant_broadcast_passes(words, mask, self.spec, hot)
        if passes:
            self._trace.record_shared_conflict(
                passes * self._broadcast_pass_cycles)

    def _record_global(self, arr, addresses: np.ndarray, mask: np.ndarray,
                       kind: str) -> Tuple[float, float]:
        """Global memory through the device's coalescing rule (``arr``
        needs a ``name`` and an ``itemsize``); returns the per-warp
        (transactions, bus bytes) for the warp simulator."""
        wa, txn, bus, useful, coal = coalesce_block_access(
            addresses, mask, arr.itemsize, self.spec)
        request_bus = bus
        hierarchy = self.caches.get("global")
        if hierarchy is not None:
            # Cached global path: only lines missing in every level
            # occupy the DRAM bus; the transaction count (issue-side
            # cost) is the classifier's verdict either way.
            out = hierarchy.access(addresses, mask, arr.itemsize)
            if hierarchy.l1 is not None:
                self._trace.record_cache("l1", out.l1_hits, out.l1_misses)
            if hierarchy.l2 is not None:
                self._trace.record_cache("l2", out.l2_hits, out.l2_misses)
            bus = out.dram_lines * hierarchy.line_bytes
        self._trace.record_global_access(arr.name, wa, txn, bus, useful,
                                         coal, kind=kind,
                                         request_bus_bytes=request_bus)
        warps = max(self._level_counts[-1][0], 1)
        return (txn / warps, bus / warps)

    def _record_serialized(self, arr, mask: np.ndarray, kind: str) -> None:
        """A fully serialized global access: one minimum-size
        transaction per active lane (what atomics pay)."""
        n = int(mask.sum())
        self._trace.record_global_access(
            arr.name,
            warp_accesses=-(-n // self.spec.coalesce_group),
            transactions=n,
            bus_bytes=n * self.spec.min_transaction_bytes,
            useful_bytes=n * arr.itemsize,
            coalesced_accesses=0,
            kind=kind,
        )


class LaneOps:
    """Every ``ctx`` value op, and the memory checks, of all three
    contexts (see module docstring).

    Each value op is one :meth:`_emit` plus one expression over
    ``self._bc(...)`` operands and the ``self.xp`` array namespace.  A
    subclass supplies ``_bc`` (a value as lanes of its layout, a scalar
    broadcast to every lane) and the ``mask`` property, and, for the
    memory checks, ``_where`` for error messages, ``spec``, the
    ``_smem_words`` meter with its ``smem_bytes`` and a
    ``shared_arrays`` list.  :meth:`_emit` charges nothing here;
    :class:`BlockContext` and the census's ``LintContext`` list
    :class:`BlockAccounting` first, so its charging ``_emit`` wins.
    """

    #: the array namespace the value ops call for what operators do not
    #: spell (``where``, ``minimum``/``maximum`` and the SFU functions);
    #: the census swaps in one over its abstract values.  The executors
    #: run every kernel with NumPy's divide and invalid warnings off, so
    #: an SFU op on 0 or a negative lane returns its inf or NaN quietly
    xp: Any = np

    def _emit(self, cls: InstrClass, count: int = 1,
              mem: Optional[Tuple[float, float]] = None,
              divergent_warps: int = 0) -> None:
        """Charge nothing: the values are computed, the trace is not."""

    # ------------------------------------------------------------------
    # Memory checks
    # ------------------------------------------------------------------
    @staticmethod
    def _check_space(op: str, arr, space: str) -> None:
        """Refuse ``op`` on an array of another memory space (constant
        and texture arrays are read-only: no stores, no atomics)."""
        if arr.space != space:
            raise CudaModelError(f"{op} on {arr.space!r} array {arr.name!r}")

    def _alloc_shared(self, arr):
        """Meter a new shared array against the SM's shared memory (a
        block that oversubscribes cannot launch at all) and keep it."""
        self._smem_words += max(1, arr.itemsize // 4) * arr.size
        if self.smem_bytes > self.spec.shared_mem_per_sm:
            raise CudaModelError(
                f"{self._where()}: shared memory overflow: block requests "
                f"{self.smem_bytes} B > {self.spec.shared_mem_per_sm} B "
                f"per SM")
        self.shared_arrays.append(arr)
        return arr

    def _check_shared_store(self, sh, active: np.ndarray) -> None:
        """Raise when a store's ``active`` lane indices leave ``sh``
        (shared loads clip instead)."""
        if active.size and (active.min() < 0 or active.max() >= sh.size):
            raise CudaModelError(
                f"{self._where()}: shared store out of bounds on "
                f"{sh.name!r}: indices span [{int(active.min())}, "
                f"{int(active.max())}] vs size {sh.size}")

    # ------------------------------------------------------------------
    # Divergence queries
    # ------------------------------------------------------------------
    def merge(self, new: ArrayLike, old: ArrayLike) -> np.ndarray:
        """Predicated write-back for register values inside a
        ``masked`` region: active lanes take ``new``, inactive lanes
        keep ``old``.  Free at the ISA level (results are committed
        under the active mask), hence no instruction is recorded.  Any
        accumulator updated inside divergent control flow must go
        through this — a plain assignment would clobber the inactive
        lanes with whatever the vectorized evaluation produced for
        them.
        """
        return np.where(self.mask, self._bc(new), self._bc(old))

    def any_active(self, cond: ArrayLike) -> bool:
        """True if any active thread satisfies ``cond`` (host-side loop
        control for divergent ``while`` loops)."""
        return bool((self.mask & np.asarray(cond, dtype=bool)).any())

    # ------------------------------------------------------------------
    # Arithmetic (each op = one warp instruction per active warp; float32
    # operands keep every float result float32)
    # ------------------------------------------------------------------
    def fma(self, a: ArrayLike, b: ArrayLike, c: ArrayLike) -> np.ndarray:
        """Fused multiply-add ``a * b + c`` (2 flops/thread)."""
        self._emit(InstrClass.FMA)
        return (self._bc(a, np.float32) * self._bc(b, np.float32)
                + self._bc(c, np.float32))

    def fadd(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FADD)
        return self._bc(a, np.float32) + self._bc(b, np.float32)

    def fsub(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FADD)
        return self._bc(a, np.float32) - self._bc(b, np.float32)

    def fmul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FMUL)
        return self._bc(a, np.float32) * self._bc(b, np.float32)

    def fdiv(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Floating divide — multi-cycle, executed on the SFU pipe."""
        self._emit(InstrClass.FDIV)
        return self._bc(a, np.float32) / self._bc(b, np.float32)

    def fmin(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FCMP)
        return self.xp.minimum(self._bc(a, np.float32),
                               self._bc(b, np.float32))

    def fmax(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FCMP)
        return self.xp.maximum(self._bc(a, np.float32),
                               self._bc(b, np.float32))

    def iadd(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) + self._bc(b, np.int64)

    def isub(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) - self._bc(b, np.int64)

    def imul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """32-bit integer multiply (slower than FP MAD on the G80)."""
        self._emit(InstrClass.IMUL)
        return self._bc(a, np.int64) * self._bc(b, np.int64)

    def iand(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) & self._bc(b, np.int64)

    def ior(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) | self._bc(b, np.int64)

    def ixor(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) ^ self._bc(b, np.int64)

    def ishl(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) << self._bc(b, np.int64)

    def ishr(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) >> self._bc(b, np.int64)

    def cvt(self, a: ArrayLike, dtype) -> np.ndarray:
        """Type conversion / register move."""
        self._emit(InstrClass.CVT)
        return self._bc(a).astype(dtype)

    def select(self, cond: ArrayLike, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Predicated select (no divergence — one instruction); the
        result has the operands' common type."""
        self._emit(InstrClass.SETP)
        return self.xp.where(self._bc(cond, bool), self._bc(a), self._bc(b))

    # ------------------------------------------------------------------
    # SFU transcendentals (Section 3.2: sin/cos/rsqrt on the SFUs)
    # ------------------------------------------------------------------
    def _sfu(self, fn: Callable[[np.ndarray], np.ndarray], x: ArrayLike
             ) -> np.ndarray:
        self._emit(InstrClass.SFU)
        return fn(self._bc(x, np.float32))

    def sfu_sin(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(self.xp.sin, x)

    def sfu_cos(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(self.xp.cos, x)

    def sfu_rsqrt(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(lambda v: 1.0 / self.xp.sqrt(v), x)

    def sfu_sqrt(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(self.xp.sqrt, x)

    def sfu_exp(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(self.xp.exp, x)

    def sfu_log(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(lambda v: self.xp.log(self.xp.maximum(v, 1e-30)),
                         x)

    def sfu_rcp(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(lambda v: 1.0 / v, x)


class BlockContext(BlockAccounting, LaneOps):
    """Execution context of one thread block (see module docstring)."""

    def __init__(
        self,
        spec: DeviceSpec,
        grid: Dim3,
        block: Dim3,
        block_coord: Tuple[int, int, int],
        trace: Optional[KernelTrace] = None,
        caches: Optional[Dict[str, DirectMappedCache]] = None,
        stream: Optional[list] = None,
        kernel_name: str = "",
    ) -> None:
        super().__init__(spec, grid, block, trace, caches, stream)
        self.bx, self.by, self.bz = block_coord
        #: name of the kernel this block belongs to; used to correlate
        #: runtime CudaModelErrors with static-analyzer findings
        self.kernel_name = kernel_name
        self.nthreads = block.size
        self._mask_stack: List[np.ndarray] = [np.ones(block.size, dtype=bool)]
        self.shared_arrays: List[SharedArray] = []

    def _where(self) -> str:
        """Error-message prefix naming the kernel and block geometry so
        runtime failures correlate with static-analyzer findings."""
        name = self.kernel_name or "<kernel>"
        b = self.blockDim
        return (f"{name} [block {b.x}x{b.y}x{b.z}, "
                f"blockIdx ({self.bx},{self.by},{self.bz})]")

    # ------------------------------------------------------------------
    # Thread identity helpers
    # ------------------------------------------------------------------
    @property
    def block_linear(self) -> int:
        """Linear block index within the grid."""
        return self.gridDim.linear(self.bx, self.by, self.bz)

    # ------------------------------------------------------------------
    # Mask / divergence machinery
    # ------------------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        return self._mask_stack[-1]

    @contextlib.contextmanager
    def masked(self, cond: np.ndarray):
        """Divergent branch: execute the body only where ``cond`` holds.

        Emits the predicate-set and branch instructions; instructions
        inside issue for every warp that still has an active lane, so
        a warp whose threads disagree pays for both paths when the
        kernel also executes the complementary :meth:`masked` region —
        exactly the SIMD divergence cost of Section 3.
        """
        cond = np.asarray(cond, dtype=bool)
        if cond.shape != (self.nthreads,):
            cond = np.broadcast_to(cond, (self.nthreads,))
        parent = self._mask_stack[-1]
        self._branch(parent, cond)
        mask = parent & cond
        self._mask_stack.append(mask)
        self._push_level(mask)
        try:
            yield
        finally:
            self._mask_stack.pop()
            self._pop_level()

    # ------------------------------------------------------------------
    # Lane values: the operands of every LaneOps op
    # ------------------------------------------------------------------
    def _bc(self, v: ArrayLike, dtype=None) -> np.ndarray:
        a = np.asarray(v, dtype=dtype)
        if a.ndim == 0:
            # writable lanes are safe (no op writes or returns its
            # operand) and cost a sixth of an np.broadcast_to call
            lanes = np.empty(self.nthreads, a.dtype)
            lanes.fill(a)
            return lanes
        return a

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------
    def shared_alloc(self, shape, dtype=np.float32,
                     name: str = "smem") -> SharedArray:
        """Allocate a per-block shared array, metered against the SM's
        shared memory, ``spec.shared_mem_per_sm`` (16 KB on the G80,
        48 KB on GTX 480; a block that oversubscribes cannot launch at
        all)."""
        return self._alloc_shared(SharedArray(
            name, tuple(np.atleast_1d(shape)), np.dtype(dtype),
            self._smem_words))

    def _flat_index(self, index: ArrayLike) -> np.ndarray:
        idx = np.asarray(index)
        if idx.ndim == 0:
            idx = np.broadcast_to(idx, (self.nthreads,))
        if idx.shape[0] != self.nthreads:
            raise CudaModelError(
                f"index vector has {idx.shape[0]} lanes, block has "
                f"{self.nthreads} threads")
        # no copy when the caller already passed int64 lanes — every
        # consumer treats the flat index as read-only
        return idx.astype(np.int64, copy=False)

    def _record_shared(self, sh: SharedArray, idx: np.ndarray,
                       mask: np.ndarray, hot: np.ndarray) -> None:
        """Charge a shared access's bank conflicts (``hot`` is
        ``idx[mask]``).  When an element is one word, the element
        indices stand for the words: they differ by the array's word
        offset, a uniform shift, which keeps every verdict."""
        words = idx if sh.words_per_elem == 1 else sh.word_indices(idx)
        self._record_bank_conflicts(words, mask, hot)

    def ld_shared(self, sh: SharedArray, index: ArrayLike) -> np.ndarray:
        idx = self._flat_index(index)
        mask = self.mask
        whole = len(self._mask_stack) == 1     # every lane active
        self._emit(InstrClass.LD_SHARED)
        if self._trace is not None:
            self._record_shared(sh, idx, mask, idx if whole else idx[mask])
        # raw ufuncs skip np.clip's dispatch (hot: one call per load)
        safe = np.minimum(np.maximum(idx, 0), sh.size - 1)
        return sh.data[safe if whole else np.where(mask, safe, 0)]

    def st_shared(self, sh: SharedArray, index: ArrayLike,
                  value: ArrayLike) -> None:
        idx = self._flat_index(index)
        mask = self.mask
        hot = idx[mask]
        self._emit(InstrClass.ST_SHARED)
        if self._trace is not None:
            self._record_shared(sh, idx, mask, hot)
        vals = self._bc(value, sh.data.dtype)
        self._check_shared_store(sh, hot)
        sh.data[hot] = vals[mask]

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------
    def ld_global(self, arr: DeviceArray, index: ArrayLike) -> np.ndarray:
        self._check_space("ld_global", arr, "global")
        idx = self._flat_index(index)
        mask = self.mask
        arr.check_bounds(idx[mask])
        mem = None
        if self._trace is not None:
            mem = self._record_global(arr, arr.addresses(idx), mask, "ld")
        self._emit(InstrClass.LD_GLOBAL, mem=mem)
        safe = np.where(mask, idx, 0)
        return arr.data[safe]

    def st_global(self, arr: DeviceArray, index: ArrayLike,
                  value: ArrayLike) -> None:
        self._check_space("st_global", arr, "global")
        idx = self._flat_index(index)
        mask = self.mask
        hot = idx[mask]
        arr.check_bounds(hot)
        mem = None
        if self._trace is not None:
            mem = self._record_global(arr, arr.addresses(idx), mask, "st")
        self._emit(InstrClass.ST_GLOBAL, mem=mem)
        vals = self._bc(value, arr.data.dtype)
        arr.data[hot] = vals[mask]

    def atom_global_add(self, arr: DeviceArray, index: ArrayLike,
                        value: ArrayLike) -> None:
        """Atomic add: functional via ``np.add.at``; performance-wise a
        fully serialized (uncoalesced) read-modify-write per thread."""
        self._check_space("atom_global_add", arr, "global")
        idx = self._flat_index(index)
        mask = self.mask
        hot = idx[mask]
        arr.check_bounds(hot)
        self._emit(InstrClass.ATOM_GLOBAL)
        if self._trace is not None:
            self._record_serialized(arr, mask, "atom")
        vals = self._bc(value, arr.data.dtype)
        np.add.at(arr.data, hot, vals[mask])

    # ------------------------------------------------------------------
    # Cached read-only paths
    # ------------------------------------------------------------------
    def _cached_load(self, arr: DeviceArray, index: ArrayLike,
                     space: str, cls: InstrClass) -> np.ndarray:
        idx = self._flat_index(index)
        mask = self.mask
        whole = len(self._mask_stack) == 1     # every lane active
        # the active lanes, gathered once for the bounds check and every
        # charge; when they all read one word, the check and the charges
        # take that word as a plain integer
        hot = idx if whole else idx[mask]
        word = one_word(hot)
        if word is None:
            arr.check_bounds(hot)
        else:
            arr.check_range(word, word)
        self._emit(cls)
        if self._trace is not None:
            # one word is a broadcast (no extra pass) of one line
            if word is None and space == "const":
                self._record_broadcast(idx, mask, hot)
            cache = self.caches.get(space)
            if cache is not None:
                line = cache.line_bytes
                if word is None:
                    hits, misses = cache.access(arr.addresses(hot))
                else:
                    hits = int(cache.probe_line(
                        (arr.base_addr + word * arr.itemsize) // line))
                    misses = 1 - hits
                self._trace.record_cache(space, hits, misses)
                if misses:
                    # each missed line is one 32 B fill from DRAM
                    self._trace.record_global_access(
                        arr.name,
                        warp_accesses=0,
                        transactions=misses,
                        bus_bytes=misses * line,
                        useful_bytes=misses * line,
                        coalesced_accesses=0,
                        kind="fill",
                    )
        return arr.data[idx if whole else np.where(mask, idx, 0)]

    def ld_const(self, arr: ConstantArray, index: ArrayLike) -> np.ndarray:
        self._check_space("ld_const", arr, "const")
        return self._cached_load(arr, index, "const", InstrClass.LD_CONST)

    def ld_tex(self, arr: TextureArray, index: ArrayLike) -> np.ndarray:
        self._check_space("ld_tex", arr, "tex")
        return self._cached_load(arr, index, "tex", InstrClass.LD_TEX)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """``__syncthreads()`` — block-wide barrier.

        Divergent barriers (a barrier inside a :meth:`masked` region
        that only *some* threads reach) deadlock real hardware; we
        reject them loudly instead.  A barrier under an all-false mask
        is dead code — no thread of this block reaches it (the
        block-uniform false branch), so nothing waits and nothing
        deadlocks.
        """
        if len(self._mask_stack) > 1 and not self.mask.all():
            if not self.mask.any():
                return          # unreachable for every thread: no-op
            raise CudaModelError(
                f"{self._where()}: __syncthreads() inside divergent "
                f"control flow")
        self._emit(InstrClass.SYNC)
