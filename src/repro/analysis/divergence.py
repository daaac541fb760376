"""Uniformity & divergence dataflow over the kernel IR — rule R8.

The Section 4 issue-rate story depends on control flow: a branch whose
condition differs *within* a warp serializes both paths, and a
``__syncthreads`` reached under such a mask deadlocks real hardware
(the DSL raises; ``san.synccheck`` reports).  Everything the repo
had so far observes this dynamically.  This module proves it
statically, in the style of classic GPU divergence analyses: a
three-point **uniformity lattice**

    UNIFORM  <  BLOCK_UNIFORM  <  VARYING

(``uniform``: one value per grid; ``block-uniform``: one value per
block — e.g. anything derived from ``ctx.bx``; ``thread-varying``:
lanes may disagree — anything derived from ``ctx.tid``), and a
monotone forward dataflow to fixpoint over the
:class:`~repro.analysis.ir.KernelIR` CFG.  Control uniformity is
propagated through branch *influence regions* (the blocks between a
branch and its reconvergence point, i.e. its immediate
post-dominator), so a value assigned under a thread-varying branch is
itself thread-varying at the join.

The lattice seeds mirror the PR-3 ``SymVal`` taints: ``block-coord``
tainted values are what BLOCK_UNIFORM covers, per-lane identity
vectors are VARYING, and scalars with neither taint are UNIFORM.

Consumers:

* :func:`repro.analysis.rules.rule_divergence` turns verdicts into R8
  findings (HIGH divergent sync, MEDIUM hot divergent branch, INFO
  provably-uniform predication);
* :mod:`repro.compile.lower` queries :func:`uniform_mask_lines` to
  lower ``__syncthreads`` under *proven-uniform* ``ctx.masked``
  regions instead of refusing the kernel.

Next to the lattice runs a second forward dataflow over the same CFG,
the **data taint** behind :func:`replay_proof`: a value is DATA when
it derives from a load (any ``ld_*``, or a raw ``arr.data`` read).  A
kernel none of whose charged operands — memory-op indices,
``shared_alloc`` shapes, bookkeeping counts, mask conditions — nor
branch conditions is DATA charges the same trace for any contents of
its arrays, so the launch trace cache (:mod:`repro.trace.collector`)
may replay a recorded trace for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (AbstractSet, Callable, Dict, FrozenSet, List, Set,
                    Tuple)

from ..cuda.context import CTX_OPS
from ..cuda.source import SOURCE_ERRORS, kernel_source
from .ir import KernelIR, lower_kernel

__all__ = ["Uniformity", "join", "BranchVerdict", "SyncVerdict",
           "DivergenceAnalysis", "analyze_divergence",
           "uniform_mask_lines", "ReplayProof", "replay_proof"]


class Uniformity(enum.IntEnum):
    """The lattice; ``join`` is ``max`` (VARYING is top)."""

    UNIFORM = 0
    BLOCK_UNIFORM = 1
    VARYING = 2

    def __str__(self) -> str:
        return {Uniformity.UNIFORM: "uniform",
                Uniformity.BLOCK_UNIFORM: "block-uniform",
                Uniformity.VARYING: "thread-varying"}[self]


def join(a: Uniformity, b: Uniformity) -> Uniformity:
    """Least upper bound of two lattice points."""
    return a if a >= b else b


#: lattice seeding of the ``ctx`` identity surface (attribute reads
#: and query calls surfaced as IR seed tokens); anything absent —
#: ``nthreads``, ``blockDim``, ``spec``, ... — is grid-constant
SEED_UNIFORMITY: Dict[str, Uniformity] = {
    "tx": Uniformity.VARYING, "ty": Uniformity.VARYING,
    "tz": Uniformity.VARYING, "tid": Uniformity.VARYING,
    "global_tid": Uniformity.VARYING,
    "global_tid_x": Uniformity.VARYING,
    "global_tid_y": Uniformity.VARYING,
    "mask": Uniformity.VARYING,
    "bx": Uniformity.BLOCK_UNIFORM, "by": Uniformity.BLOCK_UNIFORM,
    "bz": Uniformity.BLOCK_UNIFORM,
    "block_linear": Uniformity.BLOCK_UNIFORM,
}


@dataclass(frozen=True)
class BranchVerdict:
    """One classified branch."""

    line: int
    kind: str                  # "masked" | "if" | "loop" | "while"
    uniformity: Uniformity
    in_loop: bool
    block: int


@dataclass(frozen=True)
class SyncVerdict:
    """One ``ctx.sync()`` site with its control uniformity."""

    line: int
    control: Uniformity
    block: int

    @property
    def divergent(self) -> bool:
        return self.control is Uniformity.VARYING


@dataclass
class DivergenceAnalysis:
    """Fixpoint result: per-name uniformity, branch and sync verdicts."""

    ir: KernelIR
    var_uniformity: Dict[str, Uniformity]
    branches: List[BranchVerdict]
    syncs: List[SyncVerdict]

    @property
    def divergent_syncs(self) -> List[SyncVerdict]:
        return [s for s in self.syncs if s.divergent]

    @property
    def varying_branches(self) -> List[BranchVerdict]:
        return [b for b in self.branches
                if b.uniformity is Uniformity.VARYING]

    def uniform_masked_lines(self) -> FrozenSet[int]:
        """Absolute lines of ``ctx.masked`` branches whose condition is
        proven uniform or block-uniform (all lanes of any block agree)."""
        return frozenset(b.line for b in self.branches
                         if b.kind == "masked"
                         and b.uniformity is not Uniformity.VARYING)

    def summary(self) -> Dict[str, object]:
        counts = {u: 0 for u in Uniformity}
        for b in self.branches:
            counts[b.uniformity] += 1
        return {
            "branches": len(self.branches),
            "uniform_branches": counts[Uniformity.UNIFORM],
            "block_uniform_branches": counts[Uniformity.BLOCK_UNIFORM],
            "varying_branches": counts[Uniformity.VARYING],
            "divergent_syncs": len(self.divergent_syncs),
        }


# ----------------------------------------------------------------------
# The dataflow
# ----------------------------------------------------------------------

def _expr_uniformity(srcs: Tuple[str, ...], seeds: Tuple[str, ...],
                     env: Dict[str, Uniformity]) -> Uniformity:
    u = Uniformity.UNIFORM
    for s in srcs:
        u = join(u, env.get(s, Uniformity.UNIFORM))
    for seed in seeds:
        u = join(u, SEED_UNIFORMITY.get(seed, Uniformity.UNIFORM))
    return u


def _run_dataflow(ir: KernelIR, param_seed: Uniformity
                  ) -> DivergenceAnalysis:
    # params other than ctx start at the seed (UNIFORM for kernel
    # entries: scalar launch arguments are one value per grid)
    entry_env: Dict[str, Uniformity] = {
        p: param_seed for p in ir.params[1:]}
    out_env: Dict[int, Dict[str, Uniformity]] = {
        b: {} for b in ir.reachable}
    ctrl: Dict[int, Uniformity] = {
        b: Uniformity.UNIFORM for b in ir.reachable}
    regions = {b.index: ir.influence_region(b.index)
               for b in ir.branch_blocks()}

    for _ in range(64):                       # fixpoint (lattice is tiny)
        changed = False
        # 1) propagate values block by block in reverse post-order
        for idx in ir.rpo:
            blk = ir.blocks[idx]
            preds = [p for p in blk.preds if p in ir.reachable]
            if idx == ir.entry:
                env = dict(entry_env)
            else:
                env = {}
                for p in preds:
                    for name, u in out_env[p].items():
                        env[name] = join(env.get(name, Uniformity.UNIFORM),
                                         u) if name in env else u
            c = ctrl[idx]
            for instr in blk.instrs:
                u = join(_expr_uniformity(instr.srcs, instr.seeds, env), c)
                for d in instr.dests:
                    env[d] = u
            if env != out_env[idx]:
                out_env[idx] = env
                changed = True
        # 2) recompute control uniformity from branch conditions
        new_ctrl = {b: Uniformity.UNIFORM for b in ir.reachable}
        for bidx, region in regions.items():
            blk = ir.blocks[bidx]
            u = join(_expr_uniformity(blk.branch.srcs, blk.branch.seeds,
                                      out_env[bidx]),
                     ctrl[bidx])
            for n in region:
                if n in new_ctrl:
                    new_ctrl[n] = join(new_ctrl[n], u)
        if new_ctrl != ctrl:
            ctrl = new_ctrl
            changed = True
        if not changed:
            break

    branches = []
    for blk in ir.branch_blocks():
        u = _expr_uniformity(blk.branch.srcs, blk.branch.seeds,
                             out_env[blk.index])
        branches.append(BranchVerdict(blk.branch.line, blk.branch.kind,
                                      u, ir.in_loop(blk.index), blk.index))
    syncs = [SyncVerdict(line, ctrl[block], block)
             for block, line in ir.sync_sites()]

    final_env: Dict[str, Uniformity] = {}
    for env in out_env.values():
        for name, u in env.items():
            final_env[name] = join(final_env.get(name, Uniformity.UNIFORM),
                                   u)
    return DivergenceAnalysis(ir, final_env,
                              sorted(branches, key=lambda b: b.line),
                              sorted(syncs, key=lambda s: s.line))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def analyze_divergence(fn: Callable,
                       param_seed: Uniformity = Uniformity.UNIFORM
                       ) -> DivergenceAnalysis:
    """Run the uniformity/divergence dataflow on a kernel function (or
    :class:`~repro.cuda.launch.Kernel`); memoized per code object, like
    the IR it runs on.

    ``param_seed`` is the lattice point assumed for the non-``ctx``
    parameters — UNIFORM for kernel entries (launch arguments are
    grid constants); pass VARYING when analyzing a helper that may be
    called with per-lane arguments.
    """
    return kernel_source(fn).derive(
        ("divergence", param_seed),
        lambda: _run_dataflow(lower_kernel(fn), param_seed))


def uniform_mask_lines(fn: Callable) -> FrozenSet[int]:
    """Absolute source lines of ``ctx.masked`` branches the analysis
    proves uniform/block-uniform — the grid compiler's license to keep
    a ``__syncthreads`` under such a mask (every lane of a block
    agrees on the condition, so the barrier is never divergent)."""
    try:
        return analyze_divergence(fn).uniform_masked_lines()
    except SOURCE_ERRORS:
        return frozenset()


# ----------------------------------------------------------------------
# The data taint: may a recorded trace be replayed?
# ----------------------------------------------------------------------

#: seed tokens of loaded values: every load op, and ``"data"``, a raw
#: read of an array's storage that bypasses them
DATA_SEEDS: FrozenSet[str] = frozenset(
    [op for op, cat in CTX_OPS.items() if cat.endswith("_ld")]
    + ["data"])


@dataclass(frozen=True)
class ReplayProof:
    """The verdict of :func:`replay_proof` on one kernel.

    ``refusals`` lists what stops the proof, most telling first:
    constructs the IR cannot see into, then DATA memory-op indices,
    then every other DATA operand or branch condition, each in source
    order and naming the DATA values it reads.  Empty when admitted.
    """

    refusals: Tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return not self.refusals

    @property
    def reason(self) -> str:
        return self.refusals[0] if self.refusals else ""


def _data_in(names: Tuple[str, ...], env: AbstractSet[str]) -> List[str]:
    return [n for n in names if n in env or n in DATA_SEEDS]


def _taint(ir: KernelIR) -> ReplayProof:
    out: Dict[int, FrozenSet[str]] = {}      # DATA names out of a block
    indices: List[Tuple[int, str]] = []
    others: List[Tuple[int, str]] = []

    def report(line: int, role: str, hit: List[str]) -> None:
        (indices if role.endswith(" index") else others).append(
            (line, f"{role} {', '.join(hit)} (line {line})"))

    def walk(idx: int, check: bool) -> FrozenSet[str]:
        """The DATA names out of block ``idx`` (assignments only add
        taint); with ``check``, report every DATA operand on the way."""
        blk = ir.blocks[idx]
        env: Set[str] = set()
        for p in blk.preds:
            env |= out.get(p, frozenset())
        for instr in blk.instrs:
            for role, names in instr.operands:
                hit = _data_in(names, env) if check else []
                if hit:
                    report(instr.line, role, hit)
            if _data_in(instr.srcs + instr.seeds, env):
                env.update(instr.dests)
        if check and blk.branch is not None:
            hit = _data_in(blk.branch.srcs + blk.branch.seeds, env)
            if hit:
                report(blk.branch.line, f"{blk.branch.kind} condition", hit)
        return frozenset(env)

    changed = True
    while changed:                  # a union grows to its fixpoint
        changed = False
        for idx in ir.rpo:
            env = walk(idx, check=False)
            if env != out.get(idx):
                out[idx] = env
                changed = True
    for idx in ir.rpo:
        walk(idx, check=True)
    opaque = [f"{what} (line {line})" for line, what in ir.opaque]
    return ReplayProof(tuple(opaque + [r for _, r in sorted(set(indices))]
                             + [r for _, r in sorted(set(others))]))


def replay_proof(fn: Callable) -> ReplayProof:
    """May a recorded trace of ``fn`` (a kernel function or
    :class:`~repro.cuda.launch.Kernel`) stand for another launch with
    the same :meth:`~repro.cuda.plan.LaunchPlan.module_key`?

    Yes when the data taint (module docstring) proves every charged
    operand and branch condition free of DATA and the IR sees the whole
    body — no nested ``def``/``lambda``, no call that receives ``ctx``.
    Then the address and control streams depend only on what the key
    holds: geometry, scalar arguments and the arrays' layout.  Memoized
    per code object, like the IR; a kernel without readable source is
    refused.  CSR SpMV (fem) is refused for its gathered column index,
    tpacf for its binary search over staged bin edges."""
    try:
        return kernel_source(fn).derive(
            "replay", lambda: _taint(lower_kernel(fn)))
    except SOURCE_ERRORS as exc:
        return ReplayProof((f"source unavailable: {exc}",))
