"""Kernel execution traces.

A :class:`KernelTrace` is the bridge between the functional layer (the
kernel DSL in :mod:`repro.cuda.context`, which executes kernels on real
NumPy data) and the performance layer (:mod:`repro.sim`).  While a
kernel runs, the DSL records

* dynamic warp-instruction counts per :class:`~repro.trace.instr.InstrClass`
  (divergence-aware: a warp instruction is counted whenever *any* thread
  of the warp is active);
* thread-instruction counts (for flop accounting);
* global-memory transaction statistics from the device's coalescing
  rule (strict half-warp segments or cached full-warp lines, per the
  active :class:`~repro.arch.device.DeviceSpec`), broken down per
  named array so that access-pattern figures such as the paper's
  Figure 5 can be regenerated;
* shared-memory bank-conflict serialization cycles;
* constant/texture (and, on cached-global devices, L1/L2) cache hit
  statistics and barrier counts.

Traces are collected on a *sample* of thread blocks and scaled to the
full grid with :meth:`KernelTrace.scaled`, mirroring how one reasons
from per-block PTX in the paper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from .instr import (
    FLOPS_PER_THREAD,
    GLOBAL_MEMORY_CLASSES,
    SFU_CLASSES,
    InstrClass,
)

#: the class groups in declaration order, so that a float sum over a
#: group adds in one order in every process (a set of members iterates
#: in hash order, which follows their addresses)
_GLOBAL_MEMORY_ORDER = tuple(c for c in InstrClass
                             if c in GLOBAL_MEMORY_CLASSES)
_SFU_ORDER = tuple(c for c in InstrClass if c in SFU_CLASSES)


@dataclass
class ArrayAccessStats:
    """Per-array global-memory access statistics (drives Figure 5)."""

    array: str
    warp_accesses: float = 0.0      # coalescing-group access events
    transactions: float = 0.0       # memory transactions issued
    bus_bytes: float = 0.0          # bytes occupying the DRAM bus
    useful_bytes: float = 0.0       # bytes actually requested by threads
    coalesced_accesses: float = 0.0  # access events at minimal transactions

    @property
    def transactions_per_access(self) -> float:
        """Average transactions per coalescing-group access (1.0 =
        perfectly coalesced for word-sized accesses)."""
        if self.warp_accesses == 0:
            return 0.0
        return self.transactions / self.warp_accesses

    @property
    def bus_efficiency(self) -> float:
        """Fraction of bus traffic that was actually requested data."""
        if self.bus_bytes == 0:
            return 1.0
        return self.useful_bytes / self.bus_bytes

    def merge(self, other: "ArrayAccessStats") -> None:
        self.warp_accesses += other.warp_accesses
        self.transactions += other.transactions
        self.bus_bytes += other.bus_bytes
        self.useful_bytes += other.useful_bytes
        self.coalesced_accesses += other.coalesced_accesses

    def scaled(self, factor: float) -> "ArrayAccessStats":
        return ArrayAccessStats(
            array=self.array,
            warp_accesses=self.warp_accesses * factor,
            transactions=self.transactions * factor,
            bus_bytes=self.bus_bytes * factor,
            useful_bytes=self.useful_bytes * factor,
            coalesced_accesses=self.coalesced_accesses * factor,
        )


@dataclass
class KernelTrace:
    """Aggregated dynamic statistics of (part of) a kernel launch."""

    warp_insts: Counter = field(default_factory=Counter)
    thread_insts: Counter = field(default_factory=Counter)
    flops: float = 0.0

    # global memory
    global_transactions: float = 0.0
    global_bus_bytes: float = 0.0
    global_useful_bytes: float = 0.0
    uncoalesced_transactions: float = 0.0
    per_array: Dict[str, ArrayAccessStats] = field(default_factory=dict)

    # load/store split of the global traffic (nvprof's gld_*/gst_*
    # vocabulary; atomics and cache-fill refills stay out of the split
    # and only appear in the combined totals above)
    gld_accesses: float = 0.0
    gld_transactions: float = 0.0
    gld_bus_bytes: float = 0.0
    gld_useful_bytes: float = 0.0
    gst_accesses: float = 0.0
    gst_transactions: float = 0.0
    gst_bus_bytes: float = 0.0
    gst_useful_bytes: float = 0.0

    # shared memory
    shared_conflict_cycles: float = 0.0   # extra serialization cycles

    # cached read-only paths
    const_hits: float = 0.0
    const_misses: float = 0.0
    tex_hits: float = 0.0
    tex_misses: float = 0.0

    # cached global path (devices with an L1/L2 hierarchy)
    l1_hits: float = 0.0
    l1_misses: float = 0.0
    l2_hits: float = 0.0
    l2_misses: float = 0.0

    # branch divergence (warps whose active lanes disagree on a branch
    # condition, and the warp-instructions issued under the resulting
    # partial masks — the serialized-path cost of Section 4's
    # control-flow discussion)
    branch_warps: float = 0.0
    divergent_branch_warps: float = 0.0
    divergence_serialized_warp_insts: float = 0.0

    syncs: float = 0.0
    blocks_traced: int = 0
    threads_traced: float = 0.0

    # ------------------------------------------------------------------
    # Recording API (called by the kernel DSL)
    # ------------------------------------------------------------------
    def record_instr(self, cls: InstrClass, warps: float, threads: float) -> None:
        """Record ``warps`` warp-instructions covering ``threads`` active
        threads of class ``cls``."""
        # no Python-level call: hot, one per traced warp instruction
        self.warp_insts[cls] += warps
        self.thread_insts[cls] += threads
        self.flops += FLOPS_PER_THREAD.get(cls, 0) * threads
        if cls is InstrClass.SYNC:
            self.syncs += warps

    def record_global_access(
        self,
        array: str,
        warp_accesses: float,
        transactions: float,
        bus_bytes: float,
        useful_bytes: float,
        coalesced_accesses: float,
        kind: str = "ld",
        request_bus_bytes: Optional[float] = None,
    ) -> None:
        """Record the coalescing outcome of global load/store events.

        ``kind`` names the access class: ``"ld"`` and ``"st"`` feed the
        nvprof-style load/store split (``gld_*`` / ``gst_*``); ``"atom"``
        (serialized atomics) and ``"fill"`` (const/tex cache refills)
        count only toward the combined totals.

        ``request_bus_bytes`` is the transaction-level traffic the
        access *pattern* requires (the coalescing classifier's verdict
        before any global cache absorbs it); on cached devices
        ``bus_bytes`` is the post-cache DRAM occupancy, so the split —
        which measures access-pattern quality — keeps the request-level
        number.  Defaults to ``bus_bytes`` (uncached path).
        """
        if request_bus_bytes is None:
            request_bus_bytes = bus_bytes
        self.global_transactions += transactions
        self.global_bus_bytes += bus_bytes
        self.global_useful_bytes += useful_bytes
        self.uncoalesced_transactions += transactions - coalesced_accesses
        if kind == "ld":
            self.gld_accesses += warp_accesses
            self.gld_transactions += transactions
            self.gld_bus_bytes += request_bus_bytes
            self.gld_useful_bytes += useful_bytes
        elif kind == "st":
            self.gst_accesses += warp_accesses
            self.gst_transactions += transactions
            self.gst_bus_bytes += request_bus_bytes
            self.gst_useful_bytes += useful_bytes
        elif kind not in ("atom", "fill"):  # pragma: no cover - defensive
            raise ValueError(f"unknown global access kind {kind!r}")
        stats = self.per_array.get(array)
        if stats is None:
            stats = self.per_array[array] = ArrayAccessStats(array)
        stats.warp_accesses += warp_accesses
        stats.transactions += transactions
        stats.bus_bytes += bus_bytes
        stats.useful_bytes += useful_bytes
        stats.coalesced_accesses += coalesced_accesses

    def record_branch(self, warps: float, divergent_warps: float) -> None:
        """Record a branch executed by ``warps`` warps of which
        ``divergent_warps`` had active lanes disagreeing on the
        condition (both sides of the branch serialize for them)."""
        self.branch_warps += warps
        self.divergent_branch_warps += divergent_warps

    def record_divergent_issue(self, partial_warps: float) -> None:
        """Record ``partial_warps`` warp-instruction issues whose mask
        excluded lanes that are active at full reconvergence — the
        per-instruction serialization overhead of a divergent region."""
        self.divergence_serialized_warp_insts += partial_warps

    def record_shared_conflict(self, extra_cycles: float) -> None:
        self.shared_conflict_cycles += extra_cycles

    def record_cache(self, space: str, hits: float, misses: float) -> None:
        if space == "const":
            self.const_hits += hits
            self.const_misses += misses
        elif space == "tex":
            self.tex_hits += hits
            self.tex_misses += misses
        elif space == "l1":
            self.l1_hits += hits
            self.l1_misses += misses
        elif space == "l2":
            self.l2_hits += hits
            self.l2_misses += misses
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown cached space {space!r}")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, other: "KernelTrace") -> None:
        """Accumulate another trace (e.g. from another traced block)."""
        self.warp_insts.update(other.warp_insts)
        self.thread_insts.update(other.thread_insts)
        self.flops += other.flops
        self.global_transactions += other.global_transactions
        self.global_bus_bytes += other.global_bus_bytes
        self.global_useful_bytes += other.global_useful_bytes
        self.uncoalesced_transactions += other.uncoalesced_transactions
        self.gld_accesses += other.gld_accesses
        self.gld_transactions += other.gld_transactions
        self.gld_bus_bytes += other.gld_bus_bytes
        self.gld_useful_bytes += other.gld_useful_bytes
        self.gst_accesses += other.gst_accesses
        self.gst_transactions += other.gst_transactions
        self.gst_bus_bytes += other.gst_bus_bytes
        self.gst_useful_bytes += other.gst_useful_bytes
        for name, stats in other.per_array.items():
            self.per_array.setdefault(name, ArrayAccessStats(name)).merge(stats)
        self.shared_conflict_cycles += other.shared_conflict_cycles
        self.const_hits += other.const_hits
        self.const_misses += other.const_misses
        self.tex_hits += other.tex_hits
        self.tex_misses += other.tex_misses
        self.l1_hits += other.l1_hits
        self.l1_misses += other.l1_misses
        self.l2_hits += other.l2_hits
        self.l2_misses += other.l2_misses
        self.branch_warps += other.branch_warps
        self.divergent_branch_warps += other.divergent_branch_warps
        self.divergence_serialized_warp_insts += \
            other.divergence_serialized_warp_insts
        self.syncs += other.syncs
        self.blocks_traced += other.blocks_traced
        self.threads_traced += other.threads_traced

    def scaled(self, factor: float) -> "KernelTrace":
        """Return this trace scaled by ``factor`` (sampled blocks ->
        full grid extrapolation)."""
        out = KernelTrace()
        out.warp_insts = Counter({k: v * factor for k, v in self.warp_insts.items()})
        out.thread_insts = Counter({k: v * factor for k, v in self.thread_insts.items()})
        out.flops = self.flops * factor
        out.global_transactions = self.global_transactions * factor
        out.global_bus_bytes = self.global_bus_bytes * factor
        out.global_useful_bytes = self.global_useful_bytes * factor
        out.uncoalesced_transactions = self.uncoalesced_transactions * factor
        out.gld_accesses = self.gld_accesses * factor
        out.gld_transactions = self.gld_transactions * factor
        out.gld_bus_bytes = self.gld_bus_bytes * factor
        out.gld_useful_bytes = self.gld_useful_bytes * factor
        out.gst_accesses = self.gst_accesses * factor
        out.gst_transactions = self.gst_transactions * factor
        out.gst_bus_bytes = self.gst_bus_bytes * factor
        out.gst_useful_bytes = self.gst_useful_bytes * factor
        out.per_array = {k: v.scaled(factor) for k, v in self.per_array.items()}
        out.shared_conflict_cycles = self.shared_conflict_cycles * factor
        out.const_hits = self.const_hits * factor
        out.const_misses = self.const_misses * factor
        out.tex_hits = self.tex_hits * factor
        out.tex_misses = self.tex_misses * factor
        out.l1_hits = self.l1_hits * factor
        out.l1_misses = self.l1_misses * factor
        out.l2_hits = self.l2_hits * factor
        out.l2_misses = self.l2_misses * factor
        out.branch_warps = self.branch_warps * factor
        out.divergent_branch_warps = self.divergent_branch_warps * factor
        out.divergence_serialized_warp_insts = \
            self.divergence_serialized_warp_insts * factor
        out.syncs = self.syncs * factor
        out.blocks_traced = self.blocks_traced  # identity of the sample
        out.threads_traced = self.threads_traced * factor
        return out

    # ------------------------------------------------------------------
    # Derived metrics (the paper's analysis vocabulary)
    # ------------------------------------------------------------------
    @property
    def total_warp_insts(self) -> float:
        return float(sum(self.warp_insts.values()))

    @property
    def fma_fraction(self) -> float:
        """Fraction of dynamic instructions that are fused multiply-adds
        — the paper's "1 out of 8" / "16 out of 59" metric."""
        total = self.total_warp_insts
        if total == 0:
            return 0.0
        return self.warp_insts[InstrClass.FMA] / total

    @property
    def flop_fraction(self) -> float:
        """Fraction of instructions contributing flops (FMA/FADD/FMUL/SFU)."""
        total = self.total_warp_insts
        if total == 0:
            return 0.0
        n = sum(self.warp_insts[c] for c in
                (InstrClass.FMA, InstrClass.FADD, InstrClass.FMUL, InstrClass.SFU))
        return n / total

    @property
    def global_memory_warp_insts(self) -> float:
        return float(sum(self.warp_insts[c] for c in _GLOBAL_MEMORY_ORDER))

    @property
    def sfu_warp_insts(self) -> float:
        return float(sum(self.warp_insts[c] for c in _SFU_ORDER))

    @property
    def memory_to_compute_ratio(self) -> float:
        """Global-memory warp instructions per non-memory warp
        instruction — the paper Table 3 "ratio of global memory cycles
        to computation cycles" analogue."""
        mem = self.global_memory_warp_insts
        comp = self.total_warp_insts - mem
        if comp <= 0:
            return float("inf") if mem > 0 else 0.0
        return mem / comp

    @property
    def gld_efficiency(self) -> float:
        """Requested over delivered global-load bytes (nvprof's
        ``gld_efficiency``): 1.0 when every bus byte a load transaction
        moves was asked for by some thread."""
        if self.gld_bus_bytes == 0:
            return 1.0
        return self.gld_useful_bytes / self.gld_bus_bytes

    @property
    def gst_efficiency(self) -> float:
        """Requested over delivered global-store bytes (nvprof's
        ``gst_efficiency``)."""
        if self.gst_bus_bytes == 0:
            return 1.0
        return self.gst_useful_bytes / self.gst_bus_bytes

    @property
    def divergent_branch_fraction(self) -> float:
        """Fraction of branch warp-executions whose active lanes
        disagreed on the condition (0.0 when no branches ran)."""
        if self.branch_warps == 0:
            return 0.0
        return self.divergent_branch_warps / self.branch_warps

    @property
    def divergence_serialized_fraction(self) -> float:
        """Fraction of all warp-instruction issues executed under a
        divergence-narrowed mask — issue slots whose idle lanes are
        the serialized other path."""
        total = self.total_warp_insts
        if total == 0:
            return 0.0
        return self.divergence_serialized_warp_insts / total

    @property
    def coalesced_fraction(self) -> float:
        """Fraction of global transactions that came from fully
        coalesced access groups."""
        if self.global_transactions == 0:
            return 1.0
        return 1.0 - self.uncoalesced_transactions / self.global_transactions

    def instruction_mix(self) -> Dict[str, float]:
        """Normalized dynamic instruction mix (for reports)."""
        total = self.total_warp_insts
        if total == 0:
            return {}
        return {cls.value: count / total
                for cls, count in sorted(self.warp_insts.items(),
                                         key=lambda kv: -kv[1])}

    def summary(self) -> Dict[str, float]:
        return {
            "warp_insts": self.total_warp_insts,
            "flops": self.flops,
            "fma_fraction": self.fma_fraction,
            "global_transactions": self.global_transactions,
            "global_bus_bytes": self.global_bus_bytes,
            "coalesced_fraction": self.coalesced_fraction,
            "gld_efficiency": self.gld_efficiency,
            "gst_efficiency": self.gst_efficiency,
            "memory_to_compute_ratio": self.memory_to_compute_ratio,
            "shared_conflict_cycles": self.shared_conflict_cycles,
            "branch_warps": self.branch_warps,
            "divergent_branch_warps": self.divergent_branch_warps,
            "divergent_branch_fraction": self.divergent_branch_fraction,
            "divergence_serialized_warp_insts":
                self.divergence_serialized_warp_insts,
            "syncs": self.syncs,
        }
