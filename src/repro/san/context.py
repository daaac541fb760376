"""The sanitizing execution context.

:class:`SanitizedContext` subclasses the DSL's
:class:`~repro.cuda.context.BlockContext` and interposes on every
memory operation and barrier:

* **memcheck** — bounds are checked *before* the base class would
  raise (global) or silently clip (shared loads); violations become
  findings with thread/block provenance and the neighbouring
  allocation the stray address lands in, the offending lanes are
  clamped, and execution continues — like ``cuda-memcheck``, one run
  reports every error, not just the first;
* **racecheck** — per shared-cell last-writer/last-reader logs,
  segmented into barrier intervals (reset at every ``sync()``): a
  store racing a read or write from another thread inside the same
  interval reports both access sites;
* **synccheck** — ``sync()`` under a divergent mask reports instead
  of raising, and barrier intervals keep advancing;
* **initcheck** — reads are checked against the
  :class:`~repro.san.state.SanState` definedness bits (global, shared
  across launches) or a per-allocation bitmap (shared memory).

A clean kernel takes exactly the base-class data path — same indices,
same masks, same stores — so unsanitized and sanitized results are
bit-identical.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional

import numpy as np

from ..analysis.findings import Severity
from ..cuda.context import ArrayLike, BlockContext
from ..cuda.memory import DeviceArray, SharedArray
from ..trace.instr import InstrClass
from .state import SanState

#: module paths whose frames are skipped when attributing a finding to
#: a source line — the first frame outside these is the kernel
_OWN_FILES = (__file__, sys.modules[BlockContext.__module__].__file__)


class _SharedShadow:
    """Racecheck + initcheck shadow state of one shared allocation."""

    __slots__ = ("writer", "writer_line", "reader", "reader_line",
                 "defined", "ever_written")

    def __init__(self, size: int) -> None:
        self.writer = np.full(size, -1, dtype=np.int64)
        self.writer_line = np.zeros(size, dtype=np.int64)
        self.reader = np.full(size, -1, dtype=np.int64)
        self.reader_line = np.zeros(size, dtype=np.int64)
        self.defined = np.zeros(size, dtype=bool)
        self.ever_written = np.zeros(size, dtype=bool)

    def new_interval(self) -> None:
        self.writer.fill(-1)
        self.reader.fill(-1)


class SanitizedContext(BlockContext):
    """A :class:`BlockContext` with all four sanitizer tools armed."""

    def __init__(self, san: SanState, plan, linear: int,
                 trace=None, stream=None, caches=None) -> None:
        super().__init__(
            plan.spec, plan.grid, plan.block, plan.grid.unlinear(linear),
            trace=trace, caches=caches, stream=stream,
            kernel_name=plan.kernel.name)
        self.san = san
        self._shadow: Dict[int, _SharedShadow] = {}
        #: pending uninit-shared reads of this block:
        #: {(id(sh), line): (shadow, cells)}
        self._shared_pending: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # Provenance helpers
    # ------------------------------------------------------------------
    def _san_line(self) -> Optional[int]:
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename in _OWN_FILES:
            frame = frame.f_back
        return frame.f_lineno if frame is not None else None

    def _lane_id(self, lane: int) -> str:
        return (f"thread ({int(self.tx[lane])},{int(self.ty[lane])},"
                f"{int(self.tz[lane])}) of block "
                f"({self.bx},{self.by},{self.bz})")

    # ------------------------------------------------------------------
    # memcheck: global bounds with provenance, clamp-and-continue
    # ------------------------------------------------------------------
    def _checked_global(self, arr: DeviceArray, index: ArrayLike,
                        op: str) -> np.ndarray:
        idx = self._flat_index(index)
        mask = self.mask
        bad = mask & ((idx < 0) | (idx >= arr.size))
        if bad.any() and self.san.enabled("memcheck"):
            lane = int(np.argmax(bad))
            stray = int(idx[lane])
            addr = arr.base_addr + stray * arr.itemsize
            owner = self.san.owner_of(addr)
            landing = (f", landing inside allocation {owner!r}"
                       if owner and owner != arr.name else "")
            self.san.emit(
                "oob-global", Severity.HIGH, self.kernel_name,
                f"out-of-bounds global {op} on {arr.name!r}: {self._lane_id(lane)} "
                f"accesses index {stray} (array has {arr.size} elements; "
                f"{int(bad.sum())} thread(s) affected{landing})",
                line=self._san_line(), array=arr.name)
        if bad.any():
            idx = np.where(bad, np.clip(idx, 0, arr.size - 1), idx)
        return idx

    def _initcheck_global(self, arr: DeviceArray, idx: np.ndarray,
                          op: str) -> None:
        if not self.san.enabled("initcheck"):
            return
        cells = idx[self.mask]
        if op == "ld":
            self.san.note_read(arr, cells, self._san_line(),
                               self.kernel_name)
        else:                       # st and atom both define the cells
            self.san.note_write(arr, cells)

    def ld_global(self, arr: DeviceArray, index: ArrayLike) -> np.ndarray:
        idx = self._checked_global(arr, index, "load")
        self._initcheck_global(arr, idx, "ld")
        self.san.note_global_access(arr.name, "ld")
        return super().ld_global(arr, idx)

    def st_global(self, arr: DeviceArray, index: ArrayLike,
                  value: ArrayLike) -> None:
        idx = self._checked_global(arr, index, "store")
        self._initcheck_global(arr, idx, "st")
        self.san.note_global_access(arr.name, "st")
        super().st_global(arr, idx, value)

    def atom_global_add(self, arr: DeviceArray, index: ArrayLike,
                        value: ArrayLike) -> None:
        idx = self._checked_global(arr, index, "atomic")
        self._initcheck_global(arr, idx, "st")
        self.san.note_global_access(arr.name, "atom")
        super().atom_global_add(arr, idx, value)

    # ------------------------------------------------------------------
    # Shared memory: bounds + races + definedness
    # ------------------------------------------------------------------
    def shared_alloc(self, shape, dtype=np.float32,
                     name: str = "smem") -> SharedArray:
        arr = super().shared_alloc(shape, dtype, name=name)
        self._shadow[id(arr)] = _SharedShadow(arr.size)
        return arr

    def _checked_shared(self, sh: SharedArray, index: ArrayLike,
                        op: str) -> np.ndarray:
        idx = self._flat_index(index)
        mask = self.mask
        bad = mask & ((idx < 0) | (idx >= sh.size))
        if bad.any() and self.san.enabled("memcheck"):
            lane = int(np.argmax(bad))
            clipped = (" (the model silently clips shared loads — the "
                       "kernel reads the wrong cell)" if op == "load" else "")
            self.san.emit(
                "oob-shared", Severity.HIGH, self.kernel_name,
                f"out-of-bounds shared {op} on {sh.name!r}: "
                f"{self._lane_id(lane)} accesses index {int(idx[lane])} "
                f"(buffer has {sh.size} elements; {int(bad.sum())} "
                f"thread(s) affected){clipped}",
                line=self._san_line(), array=sh.name)
        if bad.any():
            idx = np.where(bad, np.clip(idx, 0, sh.size - 1), idx)
        return idx

    def _race_store(self, sh: SharedArray, shadow: _SharedShadow,
                    cells: np.ndarray, tids: np.ndarray) -> None:
        line = self._san_line()
        # two active lanes of this very store writing one cell
        order = np.argsort(cells, kind="stable")
        srt = cells[order]
        dup = srt[1:] == srt[:-1]
        if dup.any():
            cell = int(srt[1:][dup][0])
            lanes = tids[order][np.concatenate([[False], dup]) |
                                np.concatenate([dup, [False]])]
            self.san.emit(
                "shared-race", Severity.HIGH, self.kernel_name,
                f"write-write race on shared {sh.name!r}[{cell}]: threads "
                f"{int(lanes[0])} and {int(lanes[1])} store to the same "
                f"cell in one instruction (line {line})",
                line=line, array=sh.name)
        prior_w = shadow.writer[cells]
        ww = (prior_w >= 0) & (prior_w != tids)
        if ww.any():
            i = int(np.argmax(ww))
            self.san.emit(
                "shared-race", Severity.HIGH, self.kernel_name,
                f"write-write race on shared {sh.name!r}"
                f"[{int(cells[i])}]: store at line {line} by thread "
                f"{int(tids[i])} races the store at line "
                f"{int(shadow.writer_line[cells[i]])} by thread "
                f"{int(prior_w[i])} — no barrier between them",
                line=line, array=sh.name)
        prior_r = shadow.reader[cells]
        rw = (prior_r >= 0) & (prior_r != tids)
        if rw.any():
            i = int(np.argmax(rw))
            self.san.emit(
                "shared-race", Severity.HIGH, self.kernel_name,
                f"read-write race on shared {sh.name!r}"
                f"[{int(cells[i])}]: store at line {line} by thread "
                f"{int(tids[i])} races the load at line "
                f"{int(shadow.reader_line[cells[i]])} by thread "
                f"{int(prior_r[i])} — no barrier between them",
                line=line, array=sh.name)
        shadow.writer[cells] = tids
        shadow.writer_line[cells] = line or 0

    def _race_load(self, sh: SharedArray, shadow: _SharedShadow,
                   cells: np.ndarray, tids: np.ndarray) -> None:
        line = self._san_line()
        prior_w = shadow.writer[cells]
        wr = (prior_w >= 0) & (prior_w != tids)
        if wr.any():
            i = int(np.argmax(wr))
            self.san.emit(
                "shared-race", Severity.HIGH, self.kernel_name,
                f"write-read race on shared {sh.name!r}"
                f"[{int(cells[i])}]: load at line {line} by thread "
                f"{int(tids[i])} races the store at line "
                f"{int(shadow.writer_line[cells[i]])} by thread "
                f"{int(prior_w[i])} — no barrier between them",
                line=line, array=sh.name)
        shadow.reader[cells] = tids
        shadow.reader_line[cells] = line or 0

    def ld_shared(self, sh: SharedArray, index: ArrayLike) -> np.ndarray:
        idx = self._checked_shared(sh, index, "load")
        shadow = self._shadow.get(id(sh))
        if shadow is not None:
            cells = idx[self.mask]
            tids = self.tid[self.mask]
            if self.san.enabled("racecheck"):
                self._race_load(sh, shadow, cells, tids)
            if self.san.enabled("initcheck"):
                undef = np.unique(cells[~shadow.defined[cells]])
                if undef.size:
                    key = (id(sh), self._san_line())
                    if key not in self._shared_pending:
                        self._shared_pending[key] = (sh, shadow, undef)
        return super().ld_shared(sh, idx)

    def st_shared(self, sh: SharedArray, index: ArrayLike,
                  value: ArrayLike) -> None:
        idx = self._checked_shared(sh, index, "store")
        shadow = self._shadow.get(id(sh))
        if shadow is not None:
            cells = idx[self.mask]
            tids = self.tid[self.mask]
            if self.san.enabled("racecheck"):
                self._race_store(sh, shadow, cells, tids)
            shadow.defined[cells] = True
            shadow.ever_written[cells] = True
        super().st_shared(sh, idx, value)

    # ------------------------------------------------------------------
    # synccheck: report divergent barriers, keep executing
    # ------------------------------------------------------------------
    def sync(self) -> None:
        if len(self._mask_stack) > 1 and not self.mask.all():
            if self.san.enabled("synccheck"):
                idle = int((~self.mask).sum())
                self.san.emit(
                    "divergent-sync", Severity.HIGH, self.kernel_name,
                    f"__syncthreads() inside divergent control flow in "
                    f"block ({self.bx},{self.by},{self.bz}): {idle} of "
                    f"{self.nthreads} threads never reach the barrier — "
                    f"deadlock on real hardware",
                    line=self._san_line())
        self._emit(InstrClass.SYNC)
        for shadow in self._shadow.values():
            shadow.new_interval()

    # ------------------------------------------------------------------
    # End of block: resolve pending shared uninit reads
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Triage this block's uninitialized shared reads: cells no
        store ever touched are HIGH, cells written only after the read
        are MEDIUM (zero-fill reliance)."""
        for (_sid, line), (sh, shadow, cells) in self._shared_pending.items():
            never = cells[~shadow.ever_written[cells]]
            if never.size:
                self.san.emit(
                    "uninit-shared", Severity.HIGH, self.kernel_name,
                    f"read of shared {sh.name!r} cells [{int(never.min())}, "
                    f"{int(never.max())}] never written anywhere — "
                    f"zero-filled in this model, garbage on real hardware",
                    line=line, array=sh.name)
            later = cells[shadow.ever_written[cells]]
            if later.size:
                self.san.emit(
                    "uninit-shared", Severity.MEDIUM, self.kernel_name,
                    f"read of shared {sh.name!r} cells [{int(later.min())}, "
                    f"{int(later.max())}] not yet written at this point "
                    f"(written only later) — relies on the model's "
                    f"zero-fill",
                    line=line, array=sh.name)
        self._shared_pending.clear()
