"""FEM — finite element method solver kernel (sparse matrix-vector).

Table 2 lists FEM at 1874 source / 146 kernel lines with 99% of serial
time in kernels; Section 5.1 groups it with the *time-sliced* codes
whose per-step kernels "must fetch from and store back the entire
system to global memory after performing only a small amount of
computation", and names it among the bandwidth-saturated applications.

The computational heart of an implicit FEM solver is the repeated
sparse matrix-vector product with the assembled stiffness matrix.  We
build a genuine unstructured problem — the stiffness (graph Laplacian)
matrix of a triangulated planar mesh whose node numbering is shuffled,
as mesh generators produce — store it in CSR, and run the classic
row-per-thread SpMV kernel:

* the column-index and value reads of a row are *sequential per
  thread* but strided across the half-warp -> uncoalesced;
* the ``x[col]`` gather is data-dependent -> uncoalesced;
* rows have different lengths -> warp divergence in the row loop.

This is exactly the access behaviour that kept FEM at ~11X in the
paper despite its huge thread count.  One kernel is launched per
solver iteration (time-sliced global synchronization).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..cuda import Device, kernel
from ..sim.cpumodel import CpuCostParams
from .base import Application, AppRun


class CsrMatrix(NamedTuple):
    """A CSR matrix: row ``i`` holds the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, with their values
    in ``data``."""

    indptr: np.ndarray      # int32, one entry per row plus one
    indices: np.ndarray     # int32
    data: np.ndarray        # float32
    shape: Tuple[int, int]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector, accumulated in float64."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return np.bincount(rows, weights=self.data * x[self.indices],
                           minlength=self.shape[0])


def build_mesh_matrix(mesh_n: int, seed: int = 5
                      ) -> Tuple[CsrMatrix, np.ndarray]:
    """Stiffness-like CSR matrix of a shuffled triangulated grid.

    A structured ``mesh_n x mesh_n`` grid is triangulated (right
    diagonals), the element graph's Laplacian is formed, and node ids
    are randomly permuted to reproduce the irregular numbering of real
    unstructured meshes (``mesh_n >= 2``).  Every row stores its
    diagonal, the row's float32 sum of edge weights in column order,
    and its edges' negated weights.
    """
    n = mesh_n * mesh_n
    idx = np.arange(n).reshape(mesh_n, mesh_n)
    edges = []
    edges.append((idx[:, :-1].ravel(), idx[:, 1:].ravel()))     # horizontal
    edges.append((idx[:-1, :].ravel(), idx[1:, :].ravel()))     # vertical
    edges.append((idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()))  # diagonal
    rows = np.concatenate([e[0] for e in edges])
    cols = np.concatenate([e[1] for e in edges])

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    rows, cols = perm[rows], perm[cols]

    w = rng.uniform(0.5, 2.0, rows.size).astype(np.float32)
    # every stored entry (both directions of each edge, then each
    # diagonal) as one integer of row, column and entry number bits:
    # sorting them orders the entries by row, then column
    m = 2 * rows.size
    col_bits = (n - 1).bit_length()
    entry_bits = (m + n - 1).bit_length()
    if 2 * col_bits + entry_bits > 63:
        raise ValueError(f"mesh_n {mesh_n} is too large to sort")
    ids = np.arange(n)
    key = np.concatenate([rows, cols, ids]) << col_bits
    key |= np.concatenate([cols, rows, ids])
    key <<= entry_bits
    key |= np.arange(m + n)
    key.sort()
    entry = key & ((1 << entry_bits) - 1)
    indices = ((key >> entry_bits) & ((1 << col_bits) - 1)).astype(np.int32)
    off = entry < m
    weight = np.concatenate([w, w])[entry[off]]
    counts = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts + 1, out=indptr[1:])
    data = np.empty(m + n, dtype=np.float32)
    data[off] = -weight
    # Laplacian: diagonal = row sums (makes the operator well-scaled)
    data[~off] = np.add.reduceat(weight, indptr[:-1] - ids)
    x0 = rng.standard_normal(n).astype(np.float32)
    return CsrMatrix(indptr, indices, data, (n, n)), x0


def spmv_kernel():
    """CSR sparse matrix-vector product, one row per thread."""

    @kernel("fem_spmv", regs_per_thread=13,
            notes="row-per-thread CSR: strided and gather loads, "
                  "divergent row loop")
    def spmv(ctx, rowptr, colidx, values, x, y, nrows):
        row = ctx.global_tid()
        ctx.address_ops(2)
        valid = row < nrows
        safe_row = np.where(valid, row, 0)
        with ctx.masked(valid):
            start = ctx.ld_global(rowptr, safe_row)
            end = ctx.ld_global(rowptr, safe_row + 1)
            nnz = ctx.isub(end, start)
            acc = np.zeros(ctx.nthreads, dtype=np.float32)
            k = 0
            while ctx.any_active(k < nnz):
                with ctx.masked(k < nnz):
                    ptr = start + k
                    col = ctx.ld_global(colidx, ptr)     # strided
                    val = ctx.ld_global(values, ptr)     # strided
                    xv = ctx.ld_global(x, col)           # gather
                    acc = ctx.merge(ctx.fma(val, xv, acc), acc)
                    ctx.loop_tail(1)
                k += 1
            ctx.st_global(y, safe_row, acc)

    return spmv


class Fem(Application):
    """Finite element solver: unstructured-mesh SpMV iterations."""

    name = "fem"
    description = "FEM stiffness-matrix SpMV on an unstructured mesh"
    kernel_fraction = 0.99            # Table 2: 99%
    # the CPU SpMV is miss-bound on its gathers: ~10 extra cycles per
    # load (partial L2 locality after mesh renumbering)
    cpu_params = CpuCostParams(simd=False, miss_fraction=0.1, op_scale=0.8,
                               load_penalty_cycles=10.0)
    verify_rtol = 1e-3
    verify_atol = 1e-3

    BLOCK = 256

    def default_workload(self, scale: str = "test") -> Dict[str, object]:
        if scale == "full":
            return {"mesh_n": 256, "iterations": 2, "total_iterations": 100}
        return {"mesh_n": 16, "iterations": 2, "total_iterations": 2}

    def reference(self, workload: Dict[str, object]) -> Dict[str, np.ndarray]:
        a, x = build_mesh_matrix(int(workload["mesh_n"]))
        for _ in range(int(workload["iterations"])):
            x = (a @ x).astype(np.float32)
            x /= np.float32(max(np.abs(x).max(), 1e-20))  # power iteration
        return {"x": x}

    def lint_targets(self):
        from ..analysis.targets import LintTarget, garr
        nrows, nnz = 512, 4096
        return [LintTarget(
            spmv_kernel(), (-(-nrows // self.BLOCK),), (self.BLOCK,),
            (garr("rowptr", nrows + 1, "int32"),
             garr("colidx", nnz, "int32"), garr("values", nnz),
             garr("x", nrows), garr("y", nrows), nrows))]

    def run(self, workload: Dict[str, object],
            device: Optional[Device] = None,
            functional: bool = True) -> AppRun:
        mesh_n = int(workload["mesh_n"])
        iters = int(workload["iterations"])
        total = int(workload.get("total_iterations", iters))
        dev = self._make_device(device)
        a, x0 = build_mesh_matrix(mesh_n)
        n = a.shape[0]

        d_rowptr = dev.to_device(a.indptr, "rowptr")
        d_colidx = dev.to_device(a.indices, "colidx")
        d_values = dev.to_device(a.data, "values")
        d_x = dev.to_device(x0, "x")
        d_y = dev.alloc(n, np.float32, "y")
        kern = spmv_kernel()
        grid = (-(-n // self.BLOCK),)
        tb = int(workload.get("trace_blocks", 2))

        launches = []
        for _ in range(iters):
            launches.append(self.launch(kern, grid, (self.BLOCK,),
                                   (d_rowptr, d_colidx, d_values, d_x, d_y,
                                    n),
                                   device=dev, functional=functional,
                                   trace_blocks=tb))
            if functional:
                # host-side normalization between SpMV launches (the
                # solver's scalar phase, part of the 1% serial time)
                y = d_y.data
                d_x.data[:] = y / max(np.abs(y).max(), 1e-20)
            else:
                d_x, d_y = d_y, d_x

        outputs = {}
        if functional:
            outputs["x"] = d_x.to_host().copy()
        return self._finish(workload, launches, dev, outputs,
                            time_steps_scale=total / iters)
