"""Analytical kernel timing model.

The model turns a scaled :class:`~repro.trace.trace.KernelTrace` plus
the launch's :class:`~repro.sim.occupancy.Occupancy` into an execution
time, exposing the four bottlenecks the paper's Table 3 names:

``instruction issue``
    SP issue slots: every warp instruction occupies
    ``issue_cycles_per_warp_inst`` (4) cycles of its SM's issue unit;
    shared-memory bank conflicts and barrier overhead add cycles, and
    each serialized transaction of an uncoalesced access *replays*
    through the load/store unit, also consuming issue cycles (the
    CUDA 1.x "16 separate transactions" behaviour).

``SFU throughput``
    Transcendentals occupy the 2-SFU pipe for 16 cycles per warp
    instruction; the pipe runs in parallel with the SP pipe, so it only
    binds when trigonometry dominates (the MRI applications).

``memory bandwidth``
    Bus bytes (after coalescing / read-combining) over the calibrated
    effective DRAM bandwidth.

``memory latency``
    A warp stalls ``global_latency_cycles`` per global access unless
    other resident warps cover the wait.  Coverage follows the paper's
    occupancy reasoning: warps of *other* blocks always help; warps of
    the same block only help when the kernel is not barrier-phased
    (after a tile-load ``__syncthreads`` the whole block waits
    together).  This is the term that punishes low-occupancy
    configurations (4x4 tiles, register-pressure cliffs).

The kernel time is the max of the four, plus launch overhead —
a bound-and-bottleneck model in the spirit of the paper's own analysis
rather than a cycle-accurate simulation (see DESIGN.md for the
cross-check against the event-driven warp simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..arch.device import DeviceSpec, DEFAULT_DEVICE
from ..trace.trace import KernelTrace
from .occupancy import Occupancy, compute_occupancy

if TYPE_CHECKING:  # pragma: no cover
    from ..cuda.launch import LaunchResult


class LaunchConfigError(RuntimeError):
    """The kernel cannot be scheduled (occupancy of zero blocks/SM)."""


@dataclass(frozen=True)
class KernelTimeEstimate:
    """Execution-time estimate with its per-bottleneck components."""

    seconds: float
    issue_seconds: float
    sfu_seconds: float
    bandwidth_seconds: float
    latency_seconds: float
    launch_overhead_seconds: float
    bound: str                      # name of the binding bottleneck
    occupancy: Occupancy
    flops: float

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    def components(self) -> Dict[str, float]:
        return {
            "instruction issue": self.issue_seconds,
            "SFU throughput": self.sfu_seconds,
            "memory bandwidth": self.bandwidth_seconds,
            "memory latency": self.latency_seconds,
        }

    def cycles_components(self) -> Dict[str, float]:
        """Per-bottleneck estimates in SP clock cycles — the unit the
        paper's Table 3 reasoning works in."""
        clock = self.occupancy.spec.sp_clock_ghz * 1e9
        return {name: seconds * clock
                for name, seconds in self.components().items()}


def estimate_time(
    trace: KernelTrace,
    num_blocks: int,
    threads_per_block: int,
    regs_per_thread: int,
    smem_per_block: int = 0,
    spec: DeviceSpec = DEFAULT_DEVICE,
    occupancy: Optional[Occupancy] = None,
) -> KernelTimeEstimate:
    """Estimate execution time of a traced launch (see module docs)."""
    t = spec.timing
    occ = occupancy or compute_occupancy(
        threads_per_block, regs_per_thread, smem_per_block, spec)
    if occ.blocks_per_sm == 0:
        raise LaunchConfigError(
            f"kernel cannot launch: {threads_per_block} threads/block, "
            f"{regs_per_thread} regs/thread, {smem_per_block} B shared "
            f"exceed per-SM resources")

    clock = spec.sp_clock_ghz * 1e9
    n_sms_used = min(spec.num_sms, max(1, num_blocks))

    # Per-SM issue units are serial, so an SM's time is proportional to
    # the number of blocks it is assigned.  The critical SM gets
    # ceil(blocks / SMs) of them — this also captures tail-wave
    # quantization (49 blocks take 4/3 the time of 48 on 16 SMs).
    critical_share = -(-num_blocks // n_sms_used) / num_blocks

    # --- instruction issue ------------------------------------------------
    issue_cycles = trace.total_warp_insts * t.issue_cycles_per_warp_inst
    issue_cycles += trace.shared_conflict_cycles
    issue_cycles += trace.syncs * t.sync_cycles
    replay_cycles = (trace.uncoalesced_transactions
                     * t.uncoalesced_replay_cycles)
    replay_seconds = replay_cycles * critical_share / clock
    issue_seconds = issue_cycles * critical_share / clock + replay_seconds

    # --- SFU pipe -----------------------------------------------------------
    sfu_cycles = trace.sfu_warp_insts * t.sfu_cycles_per_warp_inst
    sfu_seconds = sfu_cycles * critical_share / clock

    # --- DRAM bandwidth -----------------------------------------------------
    effective_bw = spec.dram_bandwidth_gbs * 1e9 * t.dram_efficiency
    bandwidth_seconds = trace.global_bus_bytes / effective_bw

    # --- latency exposure -----------------------------------------------------
    latency_seconds = issue_seconds
    mem_insts = trace.global_memory_warp_insts
    total_warps = trace.threads_traced / spec.warp_size if trace.threads_traced \
        else num_blocks * (-(-threads_per_block // spec.warp_size))
    total_warps = max(total_warps, 1.0)
    if mem_insts > 0:
        mem_per_warp = mem_insts / total_warps
        # issue cycles a covering warp contributes between two of its
        # own global accesses (its whole instruction stream counts)
        cycles_per_warp = (trace.total_warp_insts
                           * t.issue_cycles_per_warp_inst / total_warps)
        interval = cycles_per_warp / mem_per_warp if mem_per_warp else 0.0
        barrier_phased = trace.syncs > 0
        if barrier_phased:
            covering_warps = (occ.blocks_per_sm - 1) * occ.warps_per_block
        else:
            covering_warps = occ.active_warps_per_sm - 1
        exposed = max(0.0, t.global_latency_cycles
                      - covering_warps * interval)
        if exposed > 0:
            active = max(occ.active_warps_per_sm, 1)
            stall_cycles = mem_insts / active * exposed
            latency_seconds = issue_seconds + (
                stall_cycles * critical_share / clock)

    components = {
        "instruction issue": issue_seconds,
        "SFU throughput": sfu_seconds,
        "memory bandwidth": bandwidth_seconds,
        "memory latency": latency_seconds,
    }
    bound = max(components, key=components.get)
    seconds = components[bound] + t.kernel_launch_overhead_s
    # When load/store replays of uncoalesced accesses dominate the
    # issue term, the real culprit is the memory system — report it the
    # way the paper's Table 3 does.
    if bound in ("instruction issue", "memory latency") \
            and replay_seconds > 0.5 * issue_seconds:
        bound = "memory bandwidth"

    return KernelTimeEstimate(
        seconds=seconds,
        issue_seconds=issue_seconds,
        sfu_seconds=sfu_seconds,
        bandwidth_seconds=bandwidth_seconds,
        latency_seconds=latency_seconds,
        launch_overhead_seconds=t.kernel_launch_overhead_s,
        bound=bound,
        occupancy=occ,
        flops=trace.flops,
    )


def estimate_kernel_time(result: "LaunchResult") -> KernelTimeEstimate:
    """Timing estimate for an executed :class:`LaunchResult`."""
    return estimate_time(
        trace=result.trace,
        num_blocks=result.num_blocks,
        threads_per_block=result.threads_per_block,
        regs_per_thread=result.kernel.regs_per_thread,
        smem_per_block=result.smem_bytes_per_block,
        spec=result.spec,
    )
