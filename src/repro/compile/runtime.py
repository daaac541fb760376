"""Whole-grid runtime for compiled kernels — the lowered ``ctx``.

A compiled kernel no longer executes once per block: the lowering in
:mod:`repro.compile.lower` rewrites every ``ctx.*`` operation into a
call on a :class:`GridRT`, whose per-thread values span *every block
of a contiguous grid segment at once*.  The representation is the key
to the speedup (Section 4's "restructure to match the wide execution
units" applied to our own interpreter):

Axes representation
    A lane value is a NumPy array broadcastable to the 4-axis lane
    shape ``(blocks, bz, by, bx)`` where the trailing three axes are
    the thread coordinates of one block.  Identity vectors keep
    size-1 axes everywhere they are constant — ``tx`` is
    ``(1, 1, 1, X)``, ``by`` is ``(blocks, 1, 1, 1)`` — so
    block-invariant index arithmetic touches a few hundred elements
    instead of ``blocks * threads`` lanes, and the first genuinely
    mixed operation (typically the FMA of an inner loop) fuses the
    broadcast into a single NumPy pass.  The C-order ravel of the
    lane shape is exactly the block-major order in which the
    sequential backend runs threads, which is what makes fancy-index
    scatters (last-writer-wins) and ``np.add.at`` atomics bit-compatible.

Shared value ops, own lane layout
    ``GridRT`` inherits every value op (arithmetic, conversion,
    ``select``, ``merge``, SFU, ``any_active``) and the memory-space,
    shared-allocation and shared-store checks from
    :class:`repro.cuda.context.LaneOps`, the code the reference
    :class:`~repro.cuda.context.BlockContext` runs, with an ``_emit``
    that charges nothing.  It keeps what its lane layout needs:
    ``_bc`` reshapes a scalar to the ``(1, 1, 1, 1)`` seed, the mask
    stack holds broadcastable masks, and the memory data paths gather
    and scatter through 4-D segment views, with the
    identity-permutation and block-invariant fast paths and the
    clip-vs-raise asymmetry of shared loads vs stores.  So compiled
    device arrays are bit-identical to the reference backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch.device import DeviceSpec
from ..cuda.context import LaneOps
from ..cuda.dim3 import Dim3
from ..cuda.memory import CudaModelError

__all__ = ["GridPrelude", "GridRT", "LaneCount", "NP_SHIM",
           "prelude_for"]


class LaneCount(int):
    """``ctx.nthreads`` after lowering: an ``int`` (total lanes of the
    segment, not one block's thread count) that
    the NumPy shim can recognize when a kernel allocates per-thread
    vectors with ``np.zeros(ctx.nthreads, ...)``."""

    __slots__ = ()


#: broadcast seed shape of a per-lane allocation (all axes size 1)
_SEED = (1, 1, 1, 1)


class _NumpyShim:
    """Stands in for the ``np`` module inside lowered kernel code.

    Per-thread allocations (``np.zeros(ctx.nthreads)`` and friends,
    including through an alias such as ``t = ctx.nthreads``) must
    produce broadcastable seeds instead of flat ``(lanes,)`` vectors;
    everything else forwards to NumPy unchanged.
    """

    def __getattr__(self, name):
        value = getattr(np, name)
        # cache plain passthroughs so the lookup cost is paid once
        if name not in ("zeros", "ones", "empty", "full"):
            object.__setattr__(self, name, value)
        return value

    @staticmethod
    def zeros(shape, dtype=float, **kw):
        if isinstance(shape, LaneCount):
            return np.zeros(_SEED, dtype=dtype)
        return np.zeros(shape, dtype=dtype, **kw)

    @staticmethod
    def ones(shape, dtype=None, **kw):
        if isinstance(shape, LaneCount):
            return np.ones(_SEED, dtype=dtype)
        return np.ones(shape, dtype=dtype, **kw)

    @staticmethod
    def empty(shape, dtype=float, **kw):
        if isinstance(shape, LaneCount):
            # zeros, not empty: lane seeds must be deterministic
            return np.zeros(_SEED, dtype=dtype)
        return np.empty(shape, dtype=dtype, **kw)

    @staticmethod
    def full(shape, fill_value, dtype=None, **kw):
        if isinstance(shape, LaneCount):
            fill = np.asarray(fill_value) if dtype is None \
                else np.asarray(fill_value, dtype=dtype)
            if fill.ndim == 0:
                return np.full(_SEED, fill_value, dtype=dtype)
            # array fill (already lane-shaped): np.full semantics are
            # "broadcast the fill over the shape" — a fresh copy
            return np.array(fill, copy=True)
        return np.full(shape, fill_value, dtype=dtype, **kw)


NP_SHIM = _NumpyShim()


class GridPrelude:
    """Identity arrays of one (grid, block) geometry, full-grid sized.

    Built once per geometry and cached; executors slice the block axis
    per contiguous segment (zero-copy views).
    """

    def __init__(self, grid: Dim3, block: Dim3) -> None:
        self.grid = grid
        self.block = block
        nb = grid.size
        lin = np.arange(nb, dtype=np.int64)
        self.lin4 = lin.reshape(nb, 1, 1, 1)
        self.bx4 = (lin % grid.x).reshape(nb, 1, 1, 1)
        self.by4 = ((lin // grid.x) % grid.y).reshape(nb, 1, 1, 1)
        self.bz4 = (lin // (grid.x * grid.y)).reshape(nb, 1, 1, 1)
        X, Y, Z = block.x, block.y, block.z
        self.tx4 = np.arange(X, dtype=np.int64).reshape(1, 1, 1, X)
        self.ty4 = np.arange(Y, dtype=np.int64).reshape(1, 1, Y, 1)
        self.tz4 = np.arange(Z, dtype=np.int64).reshape(1, Z, 1, 1)
        # flat thread id within the block, full (1, Z, Y, X)
        self.tid4 = (self.tz4 * (X * Y) + self.ty4 * X + self.tx4)


_PRELUDES: Dict[Tuple, GridPrelude] = {}


def prelude_for(grid: Dim3, block: Dim3) -> GridPrelude:
    """Cached identity prelude per (grid, block) geometry."""
    key = (grid.x, grid.y, grid.z, block.x, block.y, block.z)
    pre = _PRELUDES.get(key)
    if pre is None:
        if len(_PRELUDES) > 64:     # bound the cache; preludes are cheap
            _PRELUDES.clear()
        pre = _PRELUDES[key] = GridPrelude(grid, block)
    return pre


class _SharedTile:
    """Per-block shared scratchpad of one segment: ``data2d`` holds one
    row per block; ``size``/``shape`` keep the per-block geometry the
    DSL's bounds checks are written against."""

    __slots__ = ("name", "shape", "size", "dtype", "itemsize",
                 "data2d", "data1d", "off4", "_iota")

    def __init__(self, name: str, shape: Tuple[int, ...], dtype,
                 nblocks: int, slot4: np.ndarray) -> None:
        self.name = name
        self.shape = shape
        self.size = int(np.prod(shape))
        self.dtype = np.dtype(dtype)
        self.itemsize = self.dtype.itemsize
        self.data2d = np.zeros((nblocks, self.size), dtype=self.dtype)
        self.data1d = self.data2d.reshape(-1)
        #: absolute flat offset of each block's row, (nb, 1, 1, 1)
        self.off4 = slot4 * self.size
        self._iota = np.arange(self.size, dtype=np.int64)


class GridRT(LaneOps):
    """Lowered-``ctx`` runtime over one contiguous block segment (the
    value ops and memory checks are :class:`LaneOps`'s)."""

    def __init__(self, prelude: GridPrelude, start: int, stop: int,
                 spec: DeviceSpec, kernel_name: str = "") -> None:
        self.spec = spec
        self.kernel_name = kernel_name
        self.gridDim = prelude.grid
        self.blockDim = prelude.block
        block = prelude.block
        nb = stop - start
        self._nblocks = nb
        T = block.size
        self.threads_per_block = T
        self.nthreads = LaneCount(nb * T)
        self.nwarps = -(-T // spec.warp_size)
        self.lane_shape = (nb, block.z, block.y, block.x)
        # identity views (no copies)
        self.bx = prelude.bx4[start:stop]
        self.by = prelude.by4[start:stop]
        self.bz = prelude.bz4[start:stop]
        self.block_linear = prelude.lin4[start:stop]
        self.tx = prelude.tx4
        self.ty = prelude.ty4
        self.tz = prelude.tz4
        self.tid = prelude.tid4
        self._slot4 = np.arange(nb, dtype=np.int64).reshape(nb, 1, 1, 1)
        self._mask_stack: List[np.ndarray] = [np.ones(_SEED, dtype=bool)]
        self._smem_words = 0
        self.shared_arrays: List[_SharedTile] = []
        self._gtid = None

    # -- identity ------------------------------------------------------
    def global_tid_x(self) -> np.ndarray:
        return self.bx * self.blockDim.x + self.tx

    def global_tid_y(self) -> np.ndarray:
        return self.by * self.blockDim.y + self.ty

    def global_tid(self) -> np.ndarray:
        if self._gtid is None:
            self._gtid = self.block_linear * self.threads_per_block \
                + self.tid
        return self._gtid

    # -- masks ---------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        return self._mask_stack[-1]

    def push_mask(self, cond) -> None:
        cond = np.asarray(cond, dtype=bool)
        if cond.ndim == 0:
            cond = cond.reshape(_SEED)
        self._mask_stack.append(self._mask_stack[-1] & cond)

    def pop_mask(self) -> None:
        self._mask_stack.pop()

    def sync(self) -> None:
        """Whole-grid statements already execute at one program point
        for every thread — the barrier is trivially satisfied."""

    # -- value plumbing ------------------------------------------------
    @staticmethod
    def _bc(v, dtype=None) -> np.ndarray:
        a = np.asarray(v, dtype=dtype)
        if a.ndim == 0:
            a = a.reshape(_SEED)
        return a

    @staticmethod
    def _idx(index) -> np.ndarray:
        idx = np.asarray(index)
        if idx.ndim == 0:
            idx = idx.reshape(_SEED)
        return idx.astype(np.int64, copy=False)

    def _where(self) -> str:
        name = self.kernel_name or "<kernel>"
        b = self.blockDim
        return f"{name} [block {b.x}x{b.y}x{b.z}, compiled grid segment]"

    def _check_bounds(self, arr, idx: np.ndarray,
                      mask: Optional[np.ndarray]) -> None:
        if mask is None:
            if idx.size == 0:
                return
            lo, hi = int(idx.min()), int(idx.max())
        else:
            mb, ib = np.broadcast_arrays(mask, idx)
            act = ib[mb]
            if act.size == 0:
                return
            lo, hi = int(act.min()), int(act.max())
        if lo < 0 or hi >= arr.size:
            raise CudaModelError(
                f"out-of-bounds access to {arr.name!r}: "
                f"index range [{lo}, {hi}] vs size {arr.size}")

    def _full_flat(self, a: np.ndarray) -> np.ndarray:
        return np.broadcast_to(a, self.lane_shape).reshape(-1)

    # -- global memory -------------------------------------------------
    def ld_global(self, arr, index) -> np.ndarray:
        self._check_space("ld_global", arr, "global")
        idx = self._idx(index)
        if len(self._mask_stack) == 1:
            self._check_bounds(arr, idx, None)
            return arr.data[idx]
        mask = self.mask
        self._check_bounds(arr, idx, mask)
        return arr.data[np.where(mask, idx, 0)]

    def st_global(self, arr, index, value) -> None:
        self._check_space("st_global", arr, "global")
        idx = self._idx(index)
        vals = self._bc(value, arr.data.dtype)
        if len(self._mask_stack) == 1:
            self._check_bounds(arr, idx, None)
            arr.data[self._full_flat(idx)] = self._full_flat(vals)
            return
        mask = self.mask
        self._check_bounds(arr, idx, mask)
        mflat = self._full_flat(mask)
        arr.data[self._full_flat(idx)[mflat]] = self._full_flat(vals)[mflat]

    def atom_global_add(self, arr, index, value) -> None:
        self._check_space("atom_global_add", arr, "global")
        idx = self._idx(index)
        vals = self._bc(value, arr.data.dtype)
        if len(self._mask_stack) == 1:
            self._check_bounds(arr, idx, None)
            np.add.at(arr.data, self._full_flat(idx), self._full_flat(vals))
            return
        mask = self.mask
        self._check_bounds(arr, idx, mask)
        mflat = self._full_flat(mask)
        np.add.at(arr.data, self._full_flat(idx)[mflat],
                  self._full_flat(vals)[mflat])

    # -- cached read-only paths ----------------------------------------
    def _ld_ro(self, arr, index) -> np.ndarray:
        idx = self._idx(index)
        if len(self._mask_stack) == 1:
            self._check_bounds(arr, idx, None)
            return arr.data[idx]
        mask = self.mask
        self._check_bounds(arr, idx, mask)
        return arr.data[np.where(mask, idx, 0)]

    def ld_const(self, arr, index) -> np.ndarray:
        self._check_space("ld_const", arr, "const")
        return self._ld_ro(arr, index)

    def ld_tex(self, arr, index) -> np.ndarray:
        self._check_space("ld_tex", arr, "tex")
        return self._ld_ro(arr, index)

    # -- shared memory -------------------------------------------------
    @property
    def smem_bytes(self) -> int:
        return self._smem_words * 4

    def shared_alloc(self, shape, dtype=np.float32,
                     name: str = "smem") -> _SharedTile:
        return self._alloc_shared(_SharedTile(
            name, tuple(np.atleast_1d(shape)), np.dtype(dtype),
            self._nblocks, self._slot4))

    def ld_shared(self, sh: _SharedTile, index) -> np.ndarray:
        idx = self._idx(index)
        # clip-to-bounds like BlockContext.ld_shared; raw ufuncs skip
        # np.clip's dispatch overhead (hot: once per inner-loop load)
        safe = np.minimum(np.maximum(idx, 0), sh.size - 1)
        if len(self._mask_stack) > 1:
            safe = np.where(self.mask, safe, 0)
        if safe.shape[0] == 1:
            # block-invariant indices: a 2D column gather keeps the
            # result at (blocks,) + the index's (sub-)thread shape
            # instead of materializing absolute flat indices
            return sh.data2d[:, safe[0]]
        return sh.data1d[safe + sh.off4]

    def st_shared(self, sh: _SharedTile, index, value) -> None:
        idx = self._idx(index)
        vals = self._bc(value, sh.dtype)
        if len(self._mask_stack) == 1:
            self._check_shared_store(sh, idx)
            if idx.shape[0] == 1:
                if idx.size == sh.size \
                        and idx.size == self.threads_per_block \
                        and np.array_equal(idx.reshape(-1), sh._iota):
                    # identity permutation (e.g. st_shared(tile,
                    # ty*X+tx, v)): a contiguous row copy, no scatter
                    sh.data2d[...] = np.broadcast_to(
                        vals, self.lane_shape).reshape(sh.data2d.shape)
                    return
                # block-invariant indices: one vectorized column write
                # per block row (duplicate indices resolve in C order,
                # which IS the lane order)
                sh.data2d[:, idx[0]] = vals
                return
            sh.data1d[self._full_flat(idx + sh.off4)] = self._full_flat(vals)
            return
        mask = self.mask
        mb, ib = np.broadcast_arrays(mask, idx)
        self._check_shared_store(sh, ib[mb])
        mflat = self._full_flat(mask)
        sh.data1d[self._full_flat(idx + sh.off4)[mflat]] = \
            self._full_flat(vals)[mflat]
