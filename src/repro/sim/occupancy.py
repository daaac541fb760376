"""Occupancy: how many blocks and warps fit on an SM.

Section 3.2 of the paper: *"The number of thread blocks that are
simultaneously resident on an SM is limited by whichever limit of
registers, shared memory, threads, or thread blocks is reached first."*

This module computes that limit and names the binding resource, which
is exactly the information the paper's running example uses:

* 256-thread matmul blocks at 10 registers/thread -> 3 blocks/SM
  (768 threads, the maximum);
* the same blocks at 11 registers/thread would need
  3 x 256 x 11 = 8448 > 8192 registers -> only 2 blocks/SM
  (the Section 4.2 anecdote);
* 4x4 tiles (16 threads/block) hit the 8-block limit at 128
  threads/SM — one sixth of capacity (Section 4.2's tile-size study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..arch.device import DeviceSpec, DEFAULT_DEVICE

if TYPE_CHECKING:  # pragma: no cover
    from ..cuda.launch import LaunchResult


@dataclass(frozen=True)
class Occupancy:
    """Resident-thread accounting for one kernel configuration."""

    threads_per_block: int
    regs_per_thread: int
    smem_per_block: int
    blocks_per_sm: int
    #: "registers" | "shared" | "threads" | "warps" | "blocks" | "launch"
    limiter: str
    spec: DeviceSpec = DEFAULT_DEVICE

    @property
    def warps_per_block(self) -> int:
        return -(-self.threads_per_block // self.spec.warp_size)

    @property
    def active_threads_per_sm(self) -> int:
        return self.blocks_per_sm * self.threads_per_block

    @property
    def active_warps_per_sm(self) -> int:
        return self.blocks_per_sm * self.warps_per_block

    @property
    def occupancy(self) -> float:
        """Fraction of the SM's thread contexts in use."""
        return self.active_threads_per_sm / self.spec.max_threads_per_sm

    @property
    def max_simultaneous_threads(self) -> int:
        """Device-wide simultaneously active threads (Table 3 column)."""
        return self.active_threads_per_sm * self.spec.num_sms

    def describe(self) -> Dict[str, object]:
        return {
            "threads/block": self.threads_per_block,
            "regs/thread": self.regs_per_thread,
            "shared/block (B)": self.smem_per_block,
            "blocks/SM": self.blocks_per_sm,
            "warps/SM": self.active_warps_per_sm,
            "threads/SM": self.active_threads_per_sm,
            "occupancy": round(self.occupancy, 4),
            "limited by": self.limiter,
        }


def compute_occupancy(
    threads_per_block: int,
    regs_per_thread: int,
    smem_per_block: int = 0,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> Occupancy:
    """Blocks per SM under the device's limit table, with the binding
    limit named.

    The classic CUDA 1.x table has four entries (blocks, threads,
    registers, shared memory); later devices add a resident-warp
    ceiling and warp-granular register allocation.  The table itself
    travels with the spec — see
    :meth:`repro.arch.device.DeviceSpec.occupancy_limit_table` — so
    this function contains no per-generation arithmetic.
    """
    if threads_per_block < 1:
        raise ValueError("threads_per_block must be positive")
    if threads_per_block > spec.max_threads_per_block:
        return Occupancy(threads_per_block, regs_per_thread, smem_per_block,
                         0, "launch", spec)

    limits = spec.occupancy_limit_table(threads_per_block, regs_per_thread,
                                        smem_per_block)
    blocks = min(limits.values())
    if blocks <= 0:
        # A single block exceeds an SM's resources: the launch fails.
        return Occupancy(threads_per_block, regs_per_thread, smem_per_block,
                         0, "launch", spec)
    # Name the binding limit.  Ties go to the thread-context limit
    # first — the paper narrates a full SM as "the maximum of 768
    # threads" even when the register file is exactly exhausted too —
    # and then to shared memory (its LBM discussion attributes a
    # register/shared tie to shared-memory capacity).
    limiter = "blocks"
    for name in ("threads", "warps", "shared", "registers", "blocks"):
        if limits.get(name) == blocks:
            limiter = name
            break
    return Occupancy(threads_per_block, regs_per_thread, smem_per_block,
                     blocks, limiter, spec)


def occupancy_for_launch(result: "LaunchResult") -> Occupancy:
    """Occupancy of an executed launch (resource data from the kernel
    metadata and the measured shared-memory footprint)."""
    return compute_occupancy(
        threads_per_block=result.threads_per_block,
        regs_per_thread=result.kernel.regs_per_thread,
        smem_per_block=result.smem_bytes_per_block,
        spec=result.spec,
    )
