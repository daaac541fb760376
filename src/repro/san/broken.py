"""Deliberately broken kernels — the sanitizer's negative test suite.

Each :class:`BrokenKernel` carries one classic CUDA bug in a minimal
kernel, plus everything both detection sides need: a
:class:`~repro.analysis.targets.LintTarget` for the static analyzer
and a runnable sanitized launch for the dynamic tools.  The broken
sweep of the cross-validation driver
(:func:`repro.analysis.validate.broken_checks`) requires every entry
to be caught at HIGH severity by **both** sides, and
``tests/test_san.py`` pins each entry's dynamic catch.

The bug catalogue mirrors what ``cuda-memcheck`` ships tools for:
missing barriers in a tree reduction, a barrier inside a divergent
branch, off-by-one tile edges, stores past either end of global
memory, never-initialized accumulators, and two threads electing the
same shared cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

import numpy as np

from ..analysis.targets import LintTarget, garr
from ..cuda import Device, kernel, launch
from ..cuda.launch import Kernel, LaunchResult

N = 256
GRID = (1,)
BLOCK = (N,)


# ----------------------------------------------------------------------
# The kernels
# ----------------------------------------------------------------------

@kernel("racy_reduction", regs_per_thread=8)
def racy_reduction(ctx, x, out, n):
    """Tree reduction with the in-loop ``__syncthreads()`` deleted."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N, np.float32, "buf")
    ctx.st_shared(buf, tid, ctx.ld_global(x, ctx.global_tid()))
    ctx.sync()
    for stride in (128, 64, 32, 16, 8, 4, 2, 1):
        with ctx.masked(tid < stride):
            a = ctx.ld_shared(buf, tid)
            b = ctx.ld_shared(buf, tid + stride)
            ctx.st_shared(buf, tid, a + b)
        # missing: ctx.sync() — thread t's store races t+stride's load
    with ctx.masked(tid == 0):
        ctx.st_global(out, tid * 0, ctx.ld_shared(buf, tid * 0))


@kernel("divergent_sync", regs_per_thread=6)
def divergent_sync(ctx, x, out, n):
    """``__syncthreads()`` only a few threads reach."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N, np.float32, "buf")
    ctx.st_shared(buf, tid, ctx.ld_global(x, tid))
    with ctx.masked(tid < 8):
        ctx.sync()
    ctx.st_global(out, tid, ctx.ld_shared(buf, tid))


@kernel("nested_divergent_sync", regs_per_thread=6)
def nested_divergent_sync(ctx, x, out, n):
    """Barrier under a thread-varying mask nested in a block-uniform
    one — only the R8 uniformity dataflow proves the nesting divergent
    statically."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N, np.float32, "buf")
    ctx.st_shared(buf, tid, ctx.ld_global(x, tid))
    with ctx.masked(ctx.bx == 0):
        with ctx.masked(tid < n // 2):
            ctx.sync()
    ctx.st_global(out, tid, ctx.ld_shared(buf, tid))


@kernel("data_dependent_sync", regs_per_thread=6)
def data_dependent_sync(ctx, x, out, n):
    """Barrier predicated on loaded data: lanes of a warp disagree
    whenever the data does (statically thread-varying, dynamically a
    synccheck deadlock on the canonical input)."""
    tid = ctx.tid
    v = ctx.ld_global(x, tid)
    with ctx.masked(v > 64.0):
        ctx.sync()
    ctx.st_global(out, tid, v)


@kernel("tile_edge_oob", regs_per_thread=6)
def tile_edge_oob(ctx, x, out, n):
    """Off-by-one at the tile edge: the last thread loads ``x[n]``."""
    i = ctx.global_tid()
    v = ctx.ld_global(x, i + 1)
    ctx.st_global(out, i, v)


@kernel("uninit_acc", regs_per_thread=6)
def uninit_acc(ctx, x, out, n):
    """Accumulator read before any thread ever initializes it."""
    tid = ctx.tid
    acc = ctx.shared_alloc(N, np.float32, "acc")
    v = ctx.ld_shared(acc, tid)
    ctx.st_global(out, tid, v + ctx.ld_global(x, tid))


@kernel("racy_ww", regs_per_thread=6)
def racy_ww(ctx, x, out, n):
    """Two threads elect the same shared cell in one store."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N // 2, np.float32, "buf")
    ctx.st_shared(buf, tid // 2, ctx.ld_global(x, tid))
    ctx.sync()
    ctx.st_global(out, tid, ctx.ld_shared(buf, tid // 2))


@kernel("shared_oob_store", regs_per_thread=6)
def shared_oob_store(ctx, x, out, n):
    """Shared stores shifted one past the end of the buffer."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N, np.float32, "buf")
    ctx.st_shared(buf, tid + 1, ctx.ld_global(x, tid))
    ctx.sync()
    ctx.st_global(out, tid, ctx.ld_shared(buf, tid))


@kernel("missing_sync_stage", regs_per_thread=6)
def missing_sync_stage(ctx, x, out, n):
    """Neighbour exchange through shared memory with no barrier."""
    tid = ctx.tid
    buf = ctx.shared_alloc(N, np.float32, "buf")
    ctx.st_shared(buf, tid, ctx.ld_global(x, tid))
    v = ctx.ld_shared(buf, (tid + 1) % N)
    ctx.st_global(out, tid, v)


@kernel("global_oob_store", regs_per_thread=6)
def global_oob_store(ctx, x, out, n):
    """Every store lands past the end of the output array."""
    i = ctx.global_tid()
    ctx.st_global(out, i + n, ctx.ld_global(x, i))


# ----------------------------------------------------------------------
# Catalogue
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BrokenKernel:
    """One bug: the kernel, how to detect it, what must be reported."""

    name: str
    kern: Kernel
    bug: str
    #: sanitizer tool responsible for the dynamic catch
    tool: str
    #: rules (static analyzer vocabulary) that may carry the HIGH
    static_rules: FrozenSet[str] = field(default_factory=frozenset)
    #: rules (sanitizer vocabulary) that may carry the HIGH
    dynamic_rules: FrozenSet[str] = field(default_factory=frozenset)

    def target(self) -> LintTarget:
        """The static analyzer's view of the canonical launch."""
        return LintTarget(self.kern, GRID, BLOCK,
                          (garr("x", N), garr("out", N), N),
                          note="broken")

    def run(self, state=None) -> LaunchResult:
        """Execute the canonical launch under the sanitizer."""
        from ..cuda.executors import SanitizedExecutor
        dev = Device()
        x = dev.to_device(np.arange(N, dtype=np.float32), "x")
        out = dev.alloc(N, np.float32, "out")
        return launch(self.kern, GRID, BLOCK, (x, out, N), device=dev,
                      executor=SanitizedExecutor(state))


def _bk(kern: Kernel, bug: str, tool: str, static_rules, dynamic_rules
        ) -> BrokenKernel:
    return BrokenKernel(kern.name, kern, bug, tool,
                        frozenset(static_rules), frozenset(dynamic_rules))


BROKEN: Tuple[BrokenKernel, ...] = (
    _bk(racy_reduction, "tree reduction without in-loop barriers",
        "racecheck", {"shared-race"}, {"shared-race"}),
    _bk(divergent_sync, "__syncthreads() under a divergent mask",
        "synccheck", {"divergent-sync"}, {"divergent-sync"}),
    _bk(nested_divergent_sync,
        "barrier under a varying mask nested in a uniform one",
        "synccheck", {"divergence"}, {"divergent-sync"}),
    _bk(data_dependent_sync, "barrier predicated on loaded data",
        "synccheck", {"divergence"}, {"divergent-sync"}),
    _bk(tile_edge_oob, "off-by-one global load at the tile edge",
        "memcheck", {"bounds"}, {"oob-global"}),
    _bk(uninit_acc, "shared accumulator never initialized",
        "initcheck", {"shared-uninit"}, {"uninit-shared"}),
    _bk(racy_ww, "two threads store the same shared cell",
        "racecheck", {"shared-race"}, {"shared-race"}),
    _bk(shared_oob_store, "shared store one past the buffer end",
        "memcheck", {"bounds"}, {"oob-shared"}),
    _bk(missing_sync_stage, "shared neighbour exchange with no barrier",
        "racecheck", {"shared-race"}, {"shared-race"}),
    _bk(global_oob_store, "global stores past the array end",
        "memcheck", {"bounds"}, {"oob-global"}),
)


def broken_by_name(name: str) -> BrokenKernel:
    for bk in BROKEN:
        if bk.name == name:
            return bk
    raise KeyError(f"unknown broken kernel {name!r}; "
                   f"known: {[b.name for b in BROKEN]}")
