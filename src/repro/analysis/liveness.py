"""Def-use liveness over the kernel IR: static registers-per-thread.

Section 4.2 of the paper turns on register pressure: 10 registers per
thread let three 256-thread matmul blocks share an SM (the full 768
thread contexts), one more register would drop that to two, and the
prefetching variant's 11 registers actually do.  This module estimates
a kernel's register demand the way that anecdote reasons: the peak
number of *per-thread* values simultaneously live at any program
point.

The analysis runs on the kernel's IR (:func:`repro.analysis.ir.lower_kernel`,
the CFG the uniformity lattice and the replay proof walk) with the
closure environment resolved (tile size, ``unrolled``/``prefetch``
flags), so an ``if`` whose test the closure decides keeps one arm.
Values are classified from the IR's names and seed tokens,
flow-insensitively:

* **varying** — derived from thread identity (``ctx.tx``,
  ``ctx.global_tid*``), loaded data or a new ``np.zeros``-style array:
  needs a register per thread;
* **uniform** — derived only from kernel parameters and constants
  (``ntiles = n // tile``): kept in shared/constant storage or
  rematerialized by the compiler, no per-thread register;
* **induction** — a ``for`` target whose loop survives at the ISA
  level.  The DSL marks that explicitly: a loop body that calls
  ``ctx.loop_tail`` pays per-iteration bookkeeping, so its induction
  variable occupies a register; a fully unrolled loop (no
  ``loop_tail``) folds the index into immediates — exactly the
  Section 4.3 "frees the induction register" effect;
* **shared** — handles from ``ctx.shared_alloc``: compile-time base
  addresses, no register.

Liveness walks the CFG backward in source nesting: a branch's arms end
at its reconvergence point, a loop's body at its header, and a loop
iterates to a fixpoint.  A ``ctx.masked`` body is straight-line code
(a value it defines is not live before it), so its masked-off edge is
not a path.  The estimate is a *lower bound* (compiler temporaries for
address arithmetic are not modeled), but it reproduces the ladder
anecdotes exactly: tiled 10, +unroll 9, +prefetch 11 registers — and
therefore the 3/3/2 blocks-per-SM occupancy the paper derives from
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..cuda.context import CTX_ATTRS, CTX_OPS
from ..cuda.source import SOURCE_ERRORS, closure_env, fingerprint
from .divergence import SEED_UNIFORMITY, Uniformity
from .ir import Branch, KernelIR, lower_kernel

#: ctx methods whose result is per-thread regardless of arguments:
#: thread identities, loads from every memory space, global atomics
VARYING_CALLS = frozenset(
    op for op, cat in CTX_OPS.items()
    if cat in ("identity", "global_atomic") or cat.endswith("_ld"))

#: ctx attributes that are per-thread lane vectors: the thread-varying
#: identity seeds (``mask`` is the active-lane predicate, not a value
#: a kernel keeps in a register)
VARYING_ATTRS = frozenset(
    name for name, u in SEED_UNIFORMITY.items()
    if u is Uniformity.VARYING and name in CTX_ATTRS and name != "mask")

#: IR seed tokens and ops whose statement binds a per-thread value
_VARYING = VARYING_CALLS | VARYING_ATTRS | {"array"}

#: fixpoint iteration cap for loop liveness
_MAX_PASSES = 8


@dataclass(frozen=True)
class RegisterEstimate:
    """Static register-pressure estimate for one kernel."""

    kernel: str
    regs: int                       # peak simultaneously-live values
    peak_names: Tuple[str, ...]     # the values live at the peak
    classes: Dict[str, str] = field(default_factory=dict)
    fallback: bool = False          # source unreadable; regs is the
    #                                 kernel's declared count

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "regs": self.regs,
            "peak_names": list(self.peak_names),
            "fallback": self.fallback,
        }


class _Liveness:
    """Backward liveness over the IR with flow-insensitive value classes."""

    def __init__(self, ir: KernelIR, env: Dict[str, object]) -> None:
        self.ir = ir
        self.env = env
        self.varying: Set[str] = set()
        self.shared: Set[str] = set()
        self.induction: Set[str] = set()     # materialized for targets
        self.peak = 0
        self.peak_names: Tuple[str, ...] = ()

    # -- classification (flow-insensitive, to fixpoint) -------------------
    def classify(self) -> None:
        blocks = list(self.ir.source_order(self.env))
        instrs = [i for idx, _ in blocks for i in self.ir.blocks[idx].instrs]
        self.shared = {n for i in instrs if "shared_alloc" in i.ops
                       for n in i.binds}
        for idx, loop in blocks:        # loop_tail in a loop's own body
            if loop is not None and any("loop_tail" in i.ops
                                        for i in self.ir.blocks[idx].instrs):
                self.induction.update(
                    n for i in self.ir.blocks[loop].instrs for n in i.binds)
        changed = True
        while changed:
            changed = False
            for i in instrs:
                new = set(i.binds) - self.shared - self.varying
                if new and (_VARYING.intersection(i.seeds + i.ops)
                            or self.varying.intersection(i.srcs)):
                    self.varying |= new
                    changed = True

    # -- liveness (backward, loops to fixpoint) --------------------------
    def _note(self, live: Set[str]) -> None:
        counted = {n for n in live
                   if n in self.varying or n in self.induction}
        if len(counted) > self.peak:
            self.peak = len(counted)
            self.peak_names = tuple(sorted(counted))

    def _live(self, start: int, stop: Optional[int],
              live: Set[str]) -> Set[str]:
        """Live-in of the region from ``start`` to ``stop``, given its
        live-out."""
        for idx in reversed(list(self.ir.region(start, stop))):
            blk = self.ir.blocks[idx]
            branch = blk.branch
            if branch is not None and branch.is_loop:
                live = self._loop(idx, branch, live)
                self._note(live)
                continue          # the header binds only the loop target
            if branch is not None:
                arms = self.ir.kept_arms(idx, self.env)
                end = self.ir.arm_end(idx)
                live = set().union(*(self._live(arm, end, set(live))
                                     for arm in arms))
                if len(arms) > 1 or branch.kind == "masked":
                    live |= set(branch.srcs)
                self._note(live)
            for instr in reversed(blk.instrs):
                live = (live - set(instr.binds)) | set(instr.srcs)
                self._note(live)
        return live

    def _loop(self, idx: int, branch: Branch,
              live_after: Set[str]) -> Set[str]:
        blk = self.ir.blocks[idx]
        targets = {n for i in blk.instrs for n in i.binds}
        head = set(branch.srcs)
        # a materialized induction variable is live for the whole
        # iteration (it is incremented at the loop tail), so it joins
        # the body's live-out, not just the range of its last use
        carried = targets & self.induction
        cur = set(live_after)
        for _ in range(_MAX_PASSES):
            body_in = self._live(blk.succs[0], idx, cur | carried)
            new = (body_in | live_after | head) - targets
            if new <= cur:
                break
            cur |= new
        return cur | head

    # -- entry -----------------------------------------------------------
    def run(self) -> Tuple[int, Tuple[str, ...], Dict[str, str]]:
        self.classify()
        self._live(self.ir.entry, self.ir.exit_index, set())
        classes: Dict[str, str] = {}
        for name in sorted(self.varying):
            classes[name] = "varying"
        for name in sorted(self.shared):
            classes[name] = "shared"
        for name in sorted(self.induction):
            classes[name] = "induction"
        return max(1, self.peak), self.peak_names, classes


#: estimates by (content fingerprint, name, declared count); entries
#: kept before the memo starts over
_ESTIMATES: Dict[Tuple[str, str, int], RegisterEstimate] = {}
_MAX_ESTIMATES = 1024


def estimate_registers(kernel) -> RegisterEstimate:
    """Estimate registers/thread for a DSL kernel (see module docs).

    Falls back to the kernel's declared ``regs_per_thread`` when its
    source is unavailable (:data:`~repro.cuda.source.SOURCE_ERRORS`) —
    the estimate then carries ``fallback=True``.  Memoized by
    content (:func:`repro.cuda.source.fingerprint`: source plus closure
    values), so the lint pass and the estimator walk a kernel once; a
    kernel without a fingerprint is walked on every call.
    """
    name = getattr(kernel, "name", "<kernel>")
    declared = int(getattr(kernel, "regs_per_thread", 10))
    content = fingerprint(kernel)
    key = (content, name, declared) if content is not None else None
    if key is not None and key in _ESTIMATES:
        return _ESTIMATES[key]
    try:
        analysis = _Liveness(lower_kernel(kernel), closure_env(kernel))
        regs, peak_names, classes = analysis.run()
        estimate = RegisterEstimate(name, regs, peak_names, classes)
    except SOURCE_ERRORS:
        estimate = RegisterEstimate(name, declared, (), {}, fallback=True)
    if key is not None:
        if len(_ESTIMATES) >= _MAX_ESTIMATES:
            _ESTIMATES.clear()
        _ESTIMATES[key] = estimate
    return estimate
