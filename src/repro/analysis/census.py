"""Static instruction census: per-kernel counts without execution.

Section 4.1 of the paper reasons from the *instruction mix* of the
compiled PTX — "with the configuration shown in Fig. 3(a), only 1 out
of 8 operations is a fused multiply-add" — before any kernel runs.
This module produces that mix statically: the abstract interpreter
(:mod:`repro.analysis.interp`) already re-executes a kernel's source
for sample blocks, and its :class:`LintContext` charges every DSL
operation to a :class:`~repro.trace.trace.KernelTrace` through the
accounting execution itself uses
(:class:`~repro.cuda.context.BlockAccounting`: divergence-aware warp
counts, the device's coalescing rule for concrete indices,
bank-conflict and broadcast serialization, serialized atomics).  A
:class:`KernelCensus` averages the sampled blocks and extrapolates to
the full grid, so every downstream consumer of a dynamic trace —
:func:`repro.sim.bounds.analyze_bounds`,
:func:`repro.sim.timing.estimate_time` — works unchanged on the static
census.

The lint pass (:func:`repro.analysis.rules.analyze_target`) is the
census's one producer: it interprets every sample block for its rules
anyway, assembles the census from those blocks with
:func:`census_from_blocks` and leaves it on the target
(``LintTarget.censuses``, one per device).  :func:`census_target`
returns that census, and interprets the blocks itself, through the same
assembly, only for a target no lint pass has seen on that device.

Approximations (documented in DESIGN.md):

* data-dependent global indices are charged one transaction per
  active thread (the gather/scatter worst case, what atomics pay);
* data-dependent shared or constant indices charge no conflicts, and
  a data-dependent per-lane branch counts every active warp divergent;
* constant/texture loads are assumed cache-resident (no DRAM bytes);
* a data-dependent ``while`` contributes two iterations, and both
  arms of a data-dependent Python ``if`` are counted — the SIMD cost
  a divergent warp actually pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..cuda.dim3 import as_dim3
from ..trace.trace import KernelTrace
from .interp import interpret
from .targets import LintTarget


@dataclass
class KernelCensus:
    """Static instruction census of one lint target.

    ``block_trace`` is the mean per-block trace over the sampled block
    coordinates; ``trace`` is the same extrapolated to the full grid —
    the shape :func:`repro.sim.timing.estimate_time` expects.
    """

    kernel: str
    note: str
    grid: Tuple[int, ...]
    block: Tuple[int, ...]
    num_blocks: int
    threads_per_block: int
    block_trace: KernelTrace
    trace: KernelTrace
    smem_bytes: int = 0
    blocks_sampled: int = 0
    limits: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.kernel}[{self.note}]" if self.note else self.kernel

    @property
    def fp_useful_fraction(self) -> float:
        """The paper's Section 4.1 metric: fraction of issue slots
        doing useful FP work (FMA slots; 1/8 naive, 16/59 unrolled)."""
        return self.trace.fma_fraction

    @property
    def flop_fraction(self) -> float:
        return self.trace.flop_fraction

    def counts(self) -> Dict[str, float]:
        """Grid-total warp-instruction counts keyed by class name."""
        return {cls.value: float(n)
                for cls, n in sorted(self.trace.warp_insts.items(),
                                     key=lambda kv: kv[0].value)}

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kernel": self.kernel,
            "note": self.note,
            "num_blocks": self.num_blocks,
            "threads_per_block": self.threads_per_block,
            "warp_insts": self.trace.total_warp_insts,
            "fp_useful_fraction": round(self.fp_useful_fraction, 4),
            "flops": self.trace.flops,
            "global_useful_bytes": self.trace.global_useful_bytes,
            "global_bus_bytes": self.trace.global_bus_bytes,
            "syncs": self.trace.syncs,
            "smem_bytes": self.smem_bytes,
            "counts": self.counts(),
        }
        if self.limits:
            out["limits"] = list(self.limits)
        return out


def sample_coords(grid) -> List[Tuple[int, int, int]]:
    """First, middle and last block in grid-linear order (deduped)."""
    grid = as_dim3(grid)
    total = grid.size
    ids = sorted({0, total // 2, total - 1})
    return [grid.unlinear(i) for i in ids]


#: what the census keeps of one interpreted sample block:
#: ``(ctx.trace, ctx.smem_bytes, recorder.notes)`` — no events
SampleBlock = Tuple[KernelTrace, int, List[Tuple[int, str]]]


def census_from_blocks(target: LintTarget, blocks: Sequence[SampleBlock],
                       ) -> Tuple[KernelCensus, KernelTrace]:
    """Assemble ``target``'s census from its interpreted sample blocks:
    average them, extrapolate to the full grid.  Also returns the
    blocks' unscaled sum, whose divergence fractions R8 reports.  The
    blocks' traces are left as they are."""
    kernel = target.kernel
    grid = as_dim3(tuple(target.grid))
    block = as_dim3(tuple(target.block))
    static_smem = getattr(kernel, "static_smem_bytes", 0)

    merged = KernelTrace()
    smem_bytes = static_smem
    limits: List[str] = []
    for trace, smem, notes in blocks:
        merged.merge(trace)
        smem_bytes = max(smem_bytes, smem + static_smem)
        for _line, message in notes:
            if message.startswith("analysis stopped") \
                    and message not in limits:
                limits.append(message)
    sampled = len(blocks)
    merged.blocks_traced = sampled
    merged.threads_traced = float(block.size * sampled)

    block_trace = merged.scaled(1.0 / sampled)
    block_trace.blocks_traced = 1
    census = KernelCensus(
        kernel=getattr(kernel, "name", "<kernel>"), note=target.note,
        grid=tuple(target.grid), block=tuple(target.block),
        num_blocks=grid.size, threads_per_block=block.size,
        block_trace=block_trace, trace=merged.scaled(grid.size / sampled),
        smem_bytes=smem_bytes, blocks_sampled=sampled, limits=limits)
    return census, merged


def census_target(target: LintTarget,
                  spec: DeviceSpec = DEFAULT_DEVICE) -> KernelCensus:
    """The census a lint pass left on ``target`` for ``spec``; for a
    target no lint pass has seen on ``spec``, interpret its sample
    blocks and assemble the census the same way."""
    census = target.censuses.get(spec)
    if census is not None:
        return census
    blocks: List[SampleBlock] = []
    for coord in sample_coords(target.grid):
        recorder, ctx = interpret(target, coord, spec)
        blocks.append((ctx.trace, ctx.smem_bytes, recorder.notes))
    return census_from_blocks(target, blocks)[0]
