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
from typing import Dict, List, Tuple

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..cuda.dim3 import as_dim3
from ..trace.trace import KernelTrace
from .interp import interpret
from .rules import sample_coords
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


def census_target(target: LintTarget,
                  spec: DeviceSpec = DEFAULT_DEVICE) -> KernelCensus:
    """Census a lint target: sample representative blocks (first,
    middle, last in grid-linear order), average, extrapolate to the
    full grid."""
    kernel = target.kernel
    name = getattr(kernel, "name", "<kernel>")
    grid = as_dim3(tuple(target.grid))
    block = as_dim3(tuple(target.block))

    merged = KernelTrace()
    smem_bytes = getattr(kernel, "static_smem_bytes", 0)
    limits: List[str] = []
    coords = sample_coords(grid)
    for coord in coords:
        recorder, ctx = interpret(target, coord, spec)
        per_block = ctx.trace
        per_block.blocks_traced = 1
        per_block.threads_traced = float(ctx.threads_per_block)
        merged.merge(per_block)
        smem_bytes = max(smem_bytes, ctx.smem_bytes
                         + getattr(kernel, "static_smem_bytes", 0))
        for _line, message in recorder.notes:
            if message.startswith("analysis stopped") \
                    and message not in limits:
                limits.append(message)

    block_trace = merged.scaled(1.0 / len(coords))
    block_trace.blocks_traced = 1
    full = merged.scaled(grid.size / len(coords))
    full.blocks_traced = len(coords)

    return KernelCensus(
        kernel=name, note=target.note,
        grid=tuple(target.grid), block=tuple(target.block),
        num_blocks=grid.size, threads_per_block=block.size,
        block_trace=block_trace, trace=full,
        smem_bytes=smem_bytes, blocks_sampled=len(coords),
        limits=limits)
