"""Hazard rules: replay a kernel's event stream into typed findings.

Each rule is a pure function over the event list one sample block
produced (:mod:`repro.analysis.interp`); :func:`analyze_target` runs
the interpreter for up to three representative block coordinates
(first, middle, last in grid-linear order), applies every rule, and
merges the results into one :class:`KernelReport`.

The rules mirror the paper's optimization checklist:

* **R1 barriers** — ``__syncthreads`` under divergent control flow,
  and shared-memory store→load pairs with no intervening barrier
  whose lanes can alias (Section 5.1 / correctness).
* **R2 coalescing** — global-memory index shape per coalescing group
  against the device's rule: aligned segments on CUDA 1.x
  (Section 3.2 / 4.1), cache lines on Fermi and later.
* **R3 shared memory** — bank-conflict degree mod the device's bank
  count (Section 5.1)
  and static bounds violations; accesses execution refuses for the
  array's memory space (a store to a constant array); constant reads
  with a varying index (serialized broadcast).
* **R4 resources** — occupancy from register/shared pressure, cliff
  and low-occupancy advisories (Section 4.2).
* **R5 batch safety** — constructs that break the grid compiler's
  all-blocks-at-once widening, cross-checked against the kernel's
  declared ``batchable`` flag (which gates compilation).
* **R6 compilability** — whether the grid compiler
  (:mod:`repro.compile`) can lower the kernel to a whole-grid
  program; failures are INFO findings naming the construct so the
  ``compiled`` executor's fallback to the sequential reference
  backend is visible in reports.
* **R7 launch dataflow** — cross-launch def-use chains over the
  application's recorded launch sequence (fusion legality), each
  launch's global footprint read off its kernel's IR, not
  interpreted.
* **R8 divergence** — the uniformity/divergence dataflow over the
  kernel IR (:mod:`repro.analysis.divergence`): barriers under
  thread-varying control flow (the static twin of synccheck), hot
  divergent branches, and proven-uniform predication.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..cuda.dim3 import as_dim3
from ..cuda.source import SOURCE_ERRORS, closure_env
from ..sim.occupancy import compute_occupancy
from ..trace.trace import KernelTrace
from .census import SampleBlock, census_from_blocks, sample_coords
from .findings import AccessSummary, Finding, KernelReport, Severity
from .interp import HazardEvent, MemEvent, SpaceEvent, SyncEvent, interpret
from .ir import Access, KernelIR, lower_kernel
from .liveness import estimate_registers
from .symbolic import (
    as_lanes,
    classify_global,
    classify_shared,
    cross_lane_disjoint,
    is_varying,
)
from .targets import LintTarget

_PATTERN_RANK = ("coalesced", "broadcast", "data-dependent", "misaligned",
                 "strided", "irregular")

_HAZARD_LABELS = {
    "scalar-coerce": "block-varying scalar coerced to a host scalar",
    "scalar-range": "Python loop bound derived from block-varying state",
    "python-if-coord": "Python branch on block coordinates",
    "nthreads-index": "ctx.nthreads used in an access index",
    "nthreads-shared-shape": "shared array sized by ctx.nthreads",
    "shared-data": "raw .data access on a shared array",
}


def _rank(pattern: str) -> int:
    base = pattern.split("(")[0]
    return _PATTERN_RANK.index(base) if base in _PATTERN_RANK else 0


# ----------------------------------------------------------------------
# Rule catalogue — the source of truth for README's table and
# ``python -m repro.analysis.lint --list-rules``
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RuleInfo:
    """One analyzer rule family: id, finding vocabulary, severity span."""

    id: str
    name: str
    #: ``Finding.rule`` strings this family emits
    finding_rules: Tuple[str, ...]
    #: severity range, e.g. "medium-high"
    severities: str
    summary: str

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.id, "name": self.name,
                "finding_rules": list(self.finding_rules),
                "severities": self.severities, "summary": self.summary}


RULES: Tuple[RuleInfo, ...] = (
    RuleInfo("R1", "barriers",
             ("divergent-sync", "shared-race", "shared-uninit"),
             "medium-high",
             "shared-memory races across barrier intervals, divergent "
             "__syncthreads, reads of never-written shared cells"),
    RuleInfo("R2", "coalescing", ("coalescing",), "info-medium",
             "global access shape per coalescing group vs the device "
             "rule (segments on CUDA 1.x, cache lines on Fermi+)"),
    RuleInfo("R3", "shared memory", ("bank-conflict", "bounds", "space"),
             "info-high",
             "bank-conflict degree mod the bank count, static bounds "
             "violations, ops on the wrong memory space, serialized "
             "constant broadcasts"),
    RuleInfo("R4", "resources", ("occupancy",), "info-high",
             "occupancy from register/shared pressure, cliffs and "
             "low-occupancy advisories"),
    RuleInfo("R5", "batch safety", ("batch-safety",), "info-high",
             "constructs that break grid-compiler widening, checked "
             "against the kernel's declared batchable flag"),
    RuleInfo("R6", "compilability", ("compile",), "info",
             "whether the grid compiler can lower the kernel; failures "
             "name the construct behind the sequential fallback"),
    RuleInfo("R7", "launch dataflow", ("launch-dataflow",), "info",
             "cross-launch global def-use chains: fusable-private vs "
             "loop-carried intermediates (fusion legality)"),
    RuleInfo("R8", "divergence", ("divergence",), "info-high",
             "uniformity dataflow over the kernel IR: barriers under "
             "thread-varying control flow, hot divergent branches, "
             "proven-uniform predication"),
)


# ----------------------------------------------------------------------
# R1: barriers — happens-before over barrier intervals
# ----------------------------------------------------------------------
#
# Every ``__syncthreads()`` closes a *barrier interval*; two shared
# accesses in the same interval have no happens-before edge between
# different threads.  A write racing a read or write from another lane
# in the same interval is a HIGH finding — the generalization of the
# old store→load pair heuristic to all three hazard directions
# (st→ld, ld→st, st→st), mirroring the dynamic racecheck tool in
# :mod:`repro.san`.  The same pass tracks cell definedness: shared
# reads of cells never stored anywhere in the stream are HIGH
# (garbage on real hardware), reads of cells stored only *later* are
# MEDIUM (reliance on this model's zero-fill).


def _concrete_cells(ev: MemEvent, nthreads: int) -> Optional[np.ndarray]:
    """Active-lane index values of an event, or None when symbolic
    or under an inexactly-known mask."""
    if not ev.mask_exact:
        return None
    from .symbolic import as_sym
    value = as_sym(ev.index).concrete_value()
    if value is None:
        return None
    lanes = as_lanes(value, (nthreads,))
    mask = np.asarray(ev.mask, dtype=bool) if ev.mask is not None \
        else np.ones(nthreads, dtype=bool)
    if mask.shape[0] != lanes.shape[0]:
        return None
    return lanes[mask]


def _intra_write_conflict(ev: MemEvent, nthreads: int) -> bool:
    """True when one vectorized store hits the same cell from two
    different active lanes (a W-W race inside a single site)."""
    from .symbolic import as_sym
    value = as_sym(ev.index).concrete_value()
    if value is None or not ev.mask_exact:
        return False
    lanes = as_lanes(value, (nthreads,))
    mask = np.asarray(ev.mask, dtype=bool) if ev.mask is not None \
        else np.ones(nthreads, dtype=bool)
    if mask.shape[0] != lanes.shape[0]:
        return False
    active = lanes[mask]
    return active.size != np.unique(active).size


def _event_fingerprint(ev: MemEvent) -> object:
    """Collapse identical loop-repeated events before pair checking."""
    from .symbolic import as_sym
    sym = as_sym(ev.index)
    value = sym.concrete_value()
    mask_key = ev.mask.tobytes() if ev.mask is not None else b""
    if value is not None:
        return (ev.line, np.asarray(value, dtype=np.int64).tobytes(),
                mask_key)
    return (ev.line, id(ev.index), mask_key)


def _pair_races(a: MemEvent, b: MemEvent, nthreads: int) -> bool:
    """Can lane i's access in ``a`` alias a *different* lane's in ``b``?"""
    a_mask = a.mask if a.mask_exact else None
    b_mask = b.mask if b.mask_exact else None
    return not cross_lane_disjoint(a.index, a_mask, b.index, b_mask,
                                   nthreads)


def rule_barriers(events: List[object], nthreads: int,
                  kernel: str) -> List[Finding]:
    findings: List[Finding] = []
    seen: set = set()

    def add(rule: str, severity: Severity, message: str, line: int,
            array: str = "") -> None:
        key = (rule, array, line, message)
        if key not in seen:
            seen.add(key)
            findings.append(Finding(rule, severity, kernel, message,
                                    line, array=array))

    # -- divergent barriers + interval grouping ------------------------
    intervals: Dict[Tuple[int, str], List[MemEvent]] = {}
    for ev in events:
        if isinstance(ev, SyncEvent):
            if ev.divergent:
                add("divergent-sync", Severity.HIGH,
                    "__syncthreads() reachable under divergent control "
                    "flow (deadlocks on hardware)", ev.line)
        elif isinstance(ev, MemEvent) and ev.space == "shared":
            intervals.setdefault((ev.interval, ev.array), []).append(ev)

    # -- happens-before: pairwise hazards inside each interval ---------
    for (_interval, array), evs in intervals.items():
        # collapse loop-repeated duplicates of one site
        reps: Dict[object, MemEvent] = {}
        for ev in evs:
            reps.setdefault(_event_fingerprint(ev), ev)
        uniq = list(reps.values())
        stores = [e for e in uniq if e.op == "st"]
        loads = [e for e in uniq if e.op == "ld"]
        for i, st in enumerate(stores):
            if _intra_write_conflict(st, nthreads):
                add("shared-race", Severity.HIGH,
                    f"two lanes store the same shared {array!r} cell in "
                    f"one access (last writer wins nondeterministically)",
                    st.line, array)
            for other in stores[i + 1:]:
                if _pair_races(st, other, nthreads):
                    add("shared-race", Severity.HIGH,
                        f"shared {array!r} store may race another lane's "
                        f"store (line {st.line}) in the same barrier "
                        f"interval", other.line, array)
            for ld in loads:
                if _pair_races(st, ld, nthreads):
                    add("shared-race", Severity.HIGH,
                        f"shared {array!r} read may observe another "
                        f"lane's store (line {st.line}) with no "
                        f"__syncthreads() between them", ld.line, array)

    # -- definedness: reads of never-written / not-yet-written cells ---
    findings.extend(_shared_uninit(events, nthreads, kernel))
    return findings


def _shared_uninit(events: List[object], nthreads: int,
                   kernel: str) -> List[Finding]:
    defined: Dict[str, np.ndarray] = {}
    opaque_write: set = set()
    pending: List[Tuple[MemEvent, np.ndarray]] = []
    for ev in events:
        if not isinstance(ev, MemEvent) or ev.space != "shared" \
                or ev.size is None:
            continue
        d = defined.setdefault(ev.array, np.zeros(ev.size, dtype=bool))
        cells = _concrete_cells(ev, nthreads)
        if ev.op == "st":
            if cells is None:
                # unknown store target: assume it may define anything
                opaque_write.add(ev.array)
            else:
                inb = cells[(cells >= 0) & (cells < ev.size)]
                d[inb] = True
        elif ev.op == "ld" and cells is not None \
                and ev.array not in opaque_write:
            inb = cells[(cells >= 0) & (cells < ev.size)]
            undef = np.unique(inb[~d[inb]])
            if undef.size:
                pending.append((ev, undef))

    findings: List[Finding] = []
    seen: set = set()
    for ev, undef in pending:
        final = defined[ev.array]
        never = ev.array in opaque_write or not final[undef].all()
        if never and not (ev.array in opaque_write):
            severity, what = Severity.HIGH, "never written anywhere"
        elif never:
            continue            # opaque store may have defined them
        else:
            severity, what = Severity.MEDIUM, \
                "not yet written at this point (written only later)"
        key = (ev.array, ev.line, severity)
        if key in seen:
            continue
        seen.add(key)
        lo, hi = int(undef.min()), int(undef.max())
        findings.append(Finding(
            "shared-uninit", severity, kernel,
            f"read of shared {ev.array!r} cells [{lo}, {hi}] {what} — "
            f"zero-filled in this model, garbage on real hardware",
            ev.line, array=ev.array))
    return findings


# ----------------------------------------------------------------------
# R2 / R3: memory access classification
# ----------------------------------------------------------------------

def rule_memory(events: List[object], nthreads: int, kernel: str,
                spec: DeviceSpec,
                ) -> Tuple[List[Finding], Dict[Tuple[str, str],
                                               AccessSummary]]:
    findings: List[Finding] = []
    summaries: Dict[Tuple[str, str], AccessSummary] = {}
    classified: set = set()
    # one source line inside a Python loop produces many events — keep
    # the *worst* verdict per site, then emit one finding for it
    sites: Dict[Tuple[str, str, int], Dict[str, object]] = {}

    def summarize(ev: MemEvent, pattern: str,
                  coalesced: Optional[bool],
                  degree: Optional[int] = None) -> None:
        key = (ev.space, ev.array)
        cur = summaries.get(key)
        if cur is None:
            summaries[key] = AccessSummary(
                ev.array, ev.space, pattern, coalesced, degree, (ev.line,))
            return
        if _rank(pattern) > _rank(cur.pattern):
            cur.pattern = pattern
        if coalesced is False or cur.coalesced is False:
            cur.coalesced = False
        elif coalesced is None or cur.coalesced is None:
            cur.coalesced = None
        if degree is not None:
            cur.conflict_degree = max(cur.conflict_degree or 1, degree)
        if ev.line not in cur.sites:
            cur.sites = tuple(sorted(cur.sites + (ev.line,)))

    def worst_at(ev: MemEvent) -> Dict[str, object]:
        site = (ev.space, ev.array, ev.line)
        cur = sites.get(site)
        if cur is None:
            cur = sites[site] = {
                "ev": ev, "pattern": "coalesced", "coalesced": True,
                "degree": 1, "exact": False,
            }
        return cur

    for ev in events:
        if isinstance(ev, SpaceEvent) \
                and ("space", ev.array, ev.line) not in classified:
            classified.add(("space", ev.array, ev.line))
            findings.append(Finding("space", Severity.HIGH, kernel,
                                    ev.detail, ev.line, array=ev.array))
        if not isinstance(ev, MemEvent):
            continue
        site = (ev.space, ev.array, ev.line)
        if ev.space == "global":
            pattern, coalesced = classify_global(
                ev.index, ev.mask, nthreads, ev.itemsize, spec)
            summarize(ev, pattern, coalesced)
            cur = worst_at(ev)
            bad = pattern == "data-dependent" or coalesced is False
            if bad and _rank(pattern) >= _rank(str(cur["pattern"])):
                cur["pattern"] = pattern
                cur["coalesced"] = coalesced
                # MEDIUM only when some offending event has an exact mask
                cur["exact"] = bool(cur["exact"]) or ev.mask_exact
        elif ev.space == "shared":
            pattern, degree = classify_shared(
                ev.index, ev.mask, nthreads, ev.word_scale,
                ev.word_offset, spec)
            summarize(ev, pattern,
                      None if degree is None else degree <= 1, degree)
            if degree is not None and degree > 1:
                cur = worst_at(ev)
                cur["degree"] = max(int(cur["degree"]), degree)
                cur["exact"] = bool(cur["exact"]) or ev.mask_exact
        elif ev.space == "const":
            varying = is_varying(ev.index)
            summarize(ev, "varying" if varying else "uniform", None)
            if varying and site not in classified:
                classified.add(site)
                findings.append(Finding(
                    "coalescing", Severity.INFO, kernel,
                    f"constant read from {ev.array!r} with a thread-"
                    f"varying index: the constant cache broadcasts one "
                    f"word per cycle, so divergent reads serialize",
                    ev.line, array=ev.array))
        else:   # tex: cached, no coalescing constraint to enforce
            summarize(ev, "cached", None)

        findings.extend(_bounds_check(ev, nthreads, kernel, classified))

    for (space, array, line), cur in sorted(sites.items(),
                                            key=lambda kv: kv[0][2]):
        ev = cur["ev"]
        severity = Severity.MEDIUM if cur["exact"] else Severity.INFO
        qualifier = "" if cur["exact"] else " (under a data-dependent mask)"
        if space == "global":
            if spec.has_cached_global_loads:
                rule_desc = (f"{spec.cache_line_bytes} B cache-line rule")
            else:
                rule_desc = (f"{spec.coalesce_segment_words}-word segment "
                             f"rule, Section 3.2")
            group_desc = (f"{spec.coalesce_group}-thread group")
            if cur["pattern"] == "data-dependent":
                # a gather is a gather whatever the mask's provenance
                findings.append(Finding(
                    "coalescing", Severity.MEDIUM, kernel,
                    f"data-dependent {ev.op} index on {array!r}: "
                    f"cannot coalesce a gather/scatter ({rule_desc})",
                    line, array=array))
            elif cur["coalesced"] is False:
                findings.append(Finding(
                    "coalescing", severity, kernel,
                    f"uncoalesced {ev.op} on {array!r}: pattern "
                    f"{cur['pattern']}{qualifier} — one transaction per "
                    f"active thread instead of one per {group_desc}",
                    line, array=array))
        elif space == "shared" and int(cur["degree"]) > 1:
            findings.append(Finding(
                "bank-conflict", severity, kernel,
                f"{cur['degree']}-way bank conflict on shared {array!r} "
                f"({spec.shared_mem_banks} banks, word-interleaved; "
                f"Section 5.1)",
                line, array=array))
    return findings, summaries


def _bounds_check(ev: MemEvent, nthreads: int, kernel: str,
                  classified: set) -> List[Finding]:
    if ev.size is None or not ev.mask_exact:
        return []
    from .symbolic import as_sym
    sym = as_sym(ev.index)
    value = sym.concrete_value()
    if value is None:
        return []
    lanes = as_lanes(value, (nthreads,))
    active = np.asarray(ev.mask, dtype=bool) if ev.mask is not None \
        else np.ones(nthreads, dtype=bool)
    if not active.any():
        return []
    used = lanes[active[:lanes.shape[0]]] if lanes.shape[0] == \
        active.shape[0] else lanes
    lo, hi = int(used.min()), int(used.max())
    if lo >= 0 and hi < ev.size:
        return []
    key = ("bounds", ev.array, ev.line)
    if key in classified:
        return []
    classified.add(key)
    return [Finding(
        "bounds", Severity.HIGH, kernel,
        f"static out-of-bounds {ev.op} on {ev.space} {ev.array!r}: "
        f"indices span [{lo}, {hi}] vs size {ev.size}", ev.line,
        array=ev.array)]


# ----------------------------------------------------------------------
# R4: occupancy
# ----------------------------------------------------------------------

def rule_occupancy(threads_per_block: int, regs: int, smem_bytes: int,
                   kernel: str, spec: DeviceSpec,
                   ) -> Tuple[List[Finding], Dict[str, object]]:
    occ = compute_occupancy(threads_per_block, regs, smem_bytes, spec)
    findings: List[Finding] = []
    if occ.blocks_per_sm == 0:
        findings.append(Finding(
            "occupancy", Severity.HIGH, kernel,
            f"launch cannot be scheduled: {threads_per_block} threads/"
            f"block, {regs} regs/thread, {smem_bytes} B shared exceed "
            f"the per-SM limits (limiter: {occ.limiter})"))
        return findings, occ.describe()
    cliff = compute_occupancy(threads_per_block, regs + 1, smem_bytes,
                              spec)
    if cliff.blocks_per_sm < occ.blocks_per_sm:
        findings.append(Finding(
            "occupancy", Severity.INFO, kernel,
            f"occupancy cliff: one more register per thread drops "
            f"blocks/SM from {occ.blocks_per_sm} to "
            f"{cliff.blocks_per_sm} (Section 4.2)"))
    if occ.occupancy < 1 / 3:
        findings.append(Finding(
            "occupancy", Severity.INFO, kernel,
            f"low occupancy {occ.occupancy:.2f} "
            f"({occ.active_threads_per_sm}/{spec.max_threads_per_sm} "
            f"thread contexts; limiter: {occ.limiter})"))
    return findings, occ.describe()


# ----------------------------------------------------------------------
# R5: batch safety
# ----------------------------------------------------------------------

def rule_batch_safety(hazards: List[HazardEvent], kernel: str,
                      declared: Optional[bool]) -> List[Finding]:
    findings: List[Finding] = []
    kinds = sorted({h.kind for h in hazards})
    if declared is None:
        return findings
    if declared and hazards:
        seen = set()
        for h in hazards:
            if h.kind in seen:
                continue
            seen.add(h.kind)
            findings.append(Finding(
                "batch-safety", Severity.HIGH, kernel,
                f"declared batchable=True but {h.detail}", h.line))
    elif not declared and not hazards:
        findings.append(Finding(
            "batch-safety", Severity.MEDIUM, kernel,
            "declared batchable=False but no construct that breaks "
            "grid-compiler widening was found — flag may be stale"))
    elif not declared and hazards:
        labels = ", ".join(_HAZARD_LABELS.get(k, k) for k in kinds)
        findings.append(Finding(
            "batch-safety", Severity.INFO, kernel,
            f"batchable=False is justified: {labels}"))
    return findings


# ----------------------------------------------------------------------
# R6: grid compilability
# ----------------------------------------------------------------------

def _compile_status_safe(kernel) -> Tuple[bool, str]:
    """``compile_status`` that never raises (analyzer must survive)."""
    from ..compile import compile_status
    try:
        return compile_status(kernel)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"


def rule_compilability(status: Tuple[bool, str],
                       name: str) -> List[Finding]:
    """INFO when the grid compiler cannot lower the kernel — the
    ``compiled`` executor (and ``executor="auto"``) will fall back to
    the sequential reference backend for it.  Silent on success.
    ``status`` is the compiler's ``(ok, reason)`` for the kernel, as
    :func:`repro.compile.compile_status` reports it."""
    ok, reason = status
    if ok:
        return []
    return [Finding(
        "compile", Severity.INFO, name,
        f"not grid-compilable ({reason}); the compiled executor falls "
        f"back to the sequential reference backend")]


# ----------------------------------------------------------------------
# R7: inter-launch dataflow — the fusion-legality oracle
# ----------------------------------------------------------------------
#
# Reads each launch's global footprint off its kernel's IR
# (:mod:`repro.analysis.ir`) before anything runs, as the paper sizes a
# kernel from its PTX: the global loads, stores and atomics of every
# statement the closure keeps, in source order (a call after its
# arguments, a branch or loop test before its arms), each helper read
# where it is called.  Every block's path counts, so a store only some
# blocks make is seen.  The footprints of an application's launch
# sequence (captured via :func:`repro.cuda.plan.observe_plans`) are then
# chained into per-array def-use across launches.  An intermediate
# written by one launch and consumed by a later one with a single
# producing segment is **fusable-private** (safe to keep in
# registers/shared inside a fused producer→consumer module); an array
# whose value flows around a launch loop — re-defined and re-consumed,
# or accumulated read-modify-write — is **loop-carried** and any fusion
# must preserve the carried dependence.  Code the front end cannot read
# makes a footprint conservative: every global argument counts as read
# first and written, with an INFO finding naming the construct.

from dataclasses import dataclass as _dataclass, field as _field


@_dataclass
class LaunchAccess:
    """Global-memory footprint of one launch, derived statically."""

    index: int
    kernel: str
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    #: arrays whose *incoming* value the launch observes (first access
    #: in source order is a load — includes read-modify-write
    #: accumulators)
    reads_incoming: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {"index": self.index, "kernel": self.kernel,
                "reads": list(self.reads), "writes": list(self.writes),
                "reads_incoming": list(self.reads_incoming)}


@_dataclass
class ArrayDataflow:
    """Cross-launch classification of one global array."""

    array: str
    classification: str   # input | live-out | fusable-private | loop-carried
    defs: Tuple[int, ...] = ()          # launches that write it
    uses: Tuple[int, ...] = ()          # launches that read incoming value
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"array": self.array,
                "classification": self.classification,
                "defs": list(self.defs), "uses": list(self.uses),
                "detail": self.detail}


@_dataclass
class LaunchDataflow:
    """R7 output: the launch sequence plus per-array verdicts."""

    app: str
    launches: List[LaunchAccess] = _field(default_factory=list)
    arrays: Dict[str, ArrayDataflow] = _field(default_factory=dict)
    findings: List[Finding] = _field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"app": self.app,
                "launches": [la.to_dict() for la in self.launches],
                "arrays": {k: v.to_dict()
                           for k, v in sorted(self.arrays.items())},
                "findings": [f.to_dict() for f in self.findings]}


#: the access kind of each ``ctx`` global memory op
_GLOBAL_KIND = {"ld_global": "ld", "st_global": "st",
                "atom_global_add": "atom"}

#: the scope value of ``ctx`` (an argument's is its position)
_CTX = -1


class _Unread(Exception):
    """A construct the footprint walk cannot read."""


class _Frame(NamedTuple):
    """One function on the footprint walk's call stack."""

    ir: KernelIR
    fn: Callable                # source, closure and globals of ``ir``
    scope: Dict[str, int]       # names holding an argument (or ``ctx``)
    outer: Optional["_Frame"]   # where a nested ``def`` was defined
    caller: Optional["_Frame"]  # the frame that called this one


def _footprint(kernel) -> List[Tuple[str, int]]:
    """``kernel``'s global accesses as ``(kind, argument position)`` in
    source order; raises :class:`_Unread`."""
    try:
        ir = lower_kernel(kernel)
    except SOURCE_ERRORS as exc:
        raise _Unread(f"source unavailable ({exc})") from None
    scope = {name: pos for pos, name in enumerate(ir.params[1:])}
    scope[ir.ctx_name] = _CTX
    out: List[Tuple[str, int]] = []
    _walk(_Frame(ir, getattr(kernel, "fn", kernel), scope, None, None),
          out)
    return out


def _walk(frame: _Frame, out: List[Tuple[str, int]]) -> None:
    """Append the accesses of ``frame``'s function to ``out``."""
    ir = frame.ir
    if ir.unread:
        line, what = ir.unread[0]
        raise _Unread(f"{what} (line {line})")
    bound = {n for blk in ir.blocks for i in blk.instrs for n in i.binds}
    frame = frame._replace(scope={n: v for n, v in frame.scope.items()
                                  if n not in bound})
    env = {n: v for n, v in closure_env(frame.fn).items()
           if n not in bound and n not in ir.params}
    for idx, _ in ir.source_order(env):
        blk = ir.blocks[idx]
        sites = [(i.line, a) for i in blk.instrs for a in i.accesses]
        if blk.branch is not None:
            sites += [(blk.branch.line, a) for a in blk.branch.accesses]
        for line, access in sites:
            if access.op == "call":
                _call(frame, access, line, out)
                continue
            pos = frame.scope.get(access.name or "", _CTX)
            if pos == _CTX:
                raise _Unread(f"{access.op} on {access.name or 'an expression'}"
                              f", not an argument (line {line})")
            out.append((_GLOBAL_KIND[access.op], pos))


def _call(frame: _Frame, access: Access, line: int,
          out: List[Tuple[str, int]]) -> None:
    """Walk the function ``access`` calls if it may reach ``ctx``: a
    nested ``def`` (in the scope that defines it) or a function that
    receives ``ctx``."""
    callee = access.name
    home: Optional[_Frame] = frame
    while home is not None and callee not in home.ir.defs:
        home = home.outer
    if home is not None:
        ir, fn, scope = home.ir.helper(callee), home.fn, home.scope
    elif any(frame.scope.get(name or "") == _CTX for _, name in access.args):
        fn = closure_env(frame.fn).get(
            callee, getattr(frame.fn, "__globals__", {}).get(callee))
        try:
            ir = lower_kernel(fn)
        except SOURCE_ERRORS:
            raise _Unread(f"{callee} receives ctx (line {line})") from None
        scope = {}
    else:
        return                      # cannot reach ctx
    scope = {n: v for n, v in scope.items() if n not in ir.params}
    for key, name in access.args:
        param = ir.params[key] if isinstance(key, int) \
            and key < len(ir.params) else key
        if param not in ir.params:
            raise _Unread(f"argument {key} of {callee} (line {line})")
        if name in frame.scope:
            scope[param] = frame.scope[name]
        if scope.get(param) == _CTX and param != ir.ctx_name:
            raise _Unread(f"{callee} receives ctx as {param}, not as "
                          f"{ir.ctx_name} (line {line})")
    up: Optional[_Frame] = frame
    while up is not None:
        if up.ir is ir:
            raise _Unread(f"recursive call of {callee} (line {line})")
        up = up.caller
    _walk(_Frame(ir, fn, scope, home, frame), out)


def _plan_access(plan) -> Tuple[LaunchAccess, Optional[Finding]]:
    """One launch's global footprint: its kernel's accesses on the
    arrays the plan binds.  Only global arrays count, as execution
    refuses a global op on any other space.  Unreadable code makes every
    global argument read first and written, with an INFO finding."""
    from ..cuda.memory import DeviceArray
    arrays = [a.name if isinstance(a, DeviceArray)
              and getattr(a, "space", "global") == "global" else None
              for a in plan.args]
    finding = None
    try:
        events = [(kind, arrays[pos]) for kind, pos in _footprint(plan.kernel)
                  if pos < len(arrays) and arrays[pos] is not None]
    except _Unread as exc:
        names = [a for a in arrays if a is not None]
        events = [("ld", a) for a in names] + [("st", a) for a in names]
        finding = Finding(
            "launch-dataflow", Severity.INFO, plan.kernel.name,
            f"global footprint not read from the source: {exc}; every "
            f"global argument counts as read first and written")
    reads: List[str] = []
    writes: List[str] = []
    first_op: Dict[str, str] = {}
    for op, array in events:
        if op in ("ld", "atom") and array not in reads:
            reads.append(array)
        if op in ("st", "atom") and array not in writes:
            writes.append(array)
        first_op.setdefault(array, "ld" if op != "st" else "st")
    incoming = tuple(a for a in reads if first_op.get(a) == "ld")
    return LaunchAccess(index=0, kernel=plan.kernel.name,
                        reads=tuple(reads), writes=tuple(writes),
                        reads_incoming=incoming), finding


def classify_dataflow(launches: List[LaunchAccess],
                      ) -> Dict[str, ArrayDataflow]:
    """Chain per-launch footprints into per-array def-use verdicts."""
    arrays: Dict[str, ArrayDataflow] = {}
    names: List[str] = []
    for la in launches:
        for name in (*la.reads, *la.writes):
            if name not in names:
                names.append(name)
    for name in names:
        defs = tuple(la.index for la in launches if name in la.writes)
        uses = tuple(la.index for la in launches
                     if name in la.reads_incoming)
        if not defs:
            arrays[name] = ArrayDataflow(
                name, "input", defs, uses,
                "read-only: defined by the host, never written on device")
            continue
        # def segments whose value a later (or same, for accumulators)
        # launch observes
        defs_used: set = set()
        initial_read = False
        last_def: Optional[int] = None
        for la in launches:
            if name in la.reads_incoming:
                if last_def is None:
                    initial_read = True
                else:
                    defs_used.add(last_def)
            if name in la.writes:
                last_def = la.index
        if not defs_used:
            arrays[name] = ArrayDataflow(
                name, "live-out", defs, uses,
                "written on device, never re-read by a later launch")
            continue
        carried = len(defs_used) >= 2 or (initial_read and defs_used)
        if carried:
            arrays[name] = ArrayDataflow(
                name, "loop-carried", defs, uses,
                f"value flows across launch iterations (defs at "
                f"launches {sorted(defs_used)} are re-consumed); fusion "
                f"must preserve the carried dependence")
        else:
            arrays[name] = ArrayDataflow(
                name, "fusable-private", defs, uses,
                f"single producing segment (launch {sorted(defs_used)[0]}) "
                f"consumed only by later launches — a legal "
                f"producer→consumer fusion candidate")
    return arrays


def analyze_launch_sequence(plans: List[object], app: str = "",
                            ) -> LaunchDataflow:
    """R7 over an already-recorded launch sequence."""
    flow = LaunchDataflow(app=app)
    cache: Dict[Tuple, Tuple[LaunchAccess, Optional[Finding]]] = {}
    for i, plan in enumerate(plans):
        # the kernel object, not just its name: two kernels may share one
        key = (plan.kernel, tuple(getattr(a, "name", None)
                                  for a in plan.args))
        if key not in cache:
            cache[key] = _plan_access(plan)
            if cache[key][1] is not None:
                flow.findings.append(cache[key][1])
        flow.launches.append(replace(cache[key][0], index=i))
    flow.arrays = classify_dataflow(flow.launches)
    for df in flow.arrays.values():
        if df.classification in ("fusable-private", "loop-carried"):
            flow.findings.append(Finding(
                "launch-dataflow", Severity.INFO,
                flow.launches[df.defs[0]].kernel if df.defs else app,
                f"{df.array!r} is {df.classification}: {df.detail}",
                array=df.array))
    return flow


def launch_dataflow(app_name: str, spec: DeviceSpec = DEFAULT_DEVICE,
                    scale: str = "test") -> LaunchDataflow:
    """Run one application's ``test`` workload, record its launch
    sequence, and classify every device array's cross-launch role."""
    from ..apps.registry import get_app
    from ..cuda.plan import observe_plans
    app = get_app(app_name, spec)
    plans: List[object] = []
    with observe_plans(plans.append):
        app.run(app.default_workload(scale), functional=True)
    return analyze_launch_sequence(plans, app=app_name)


# ----------------------------------------------------------------------
# R8: divergence — uniformity dataflow over the kernel IR
# ----------------------------------------------------------------------

def rule_divergence(kernel, name: str,
                    census: Optional[KernelTrace] = None,
                    ) -> Tuple[List[Finding], Dict[str, object]]:
    """Static divergence verdicts from the IR dataflow
    (:mod:`repro.analysis.divergence`), the static twin of the dynamic
    synccheck tool:

    * HIGH — ``__syncthreads`` reachable under thread-varying control
      flow (deadlocks on hardware; synccheck catches it dynamically);
    * MEDIUM — a thread-varying branch inside a loop (hot: both paths
      serialize every iteration, Section 4's issue-rate derate);
    * INFO — a ``ctx.masked`` region whose condition is proven uniform
      or block-uniform: every lane of a block agrees, so the compiler
      may un-predicate it (no divergence cost).

    ``census``, when supplied, contributes the sample-block static
    divergent-warp fractions to the returned summary dict.
    """
    from .divergence import Uniformity, analyze_divergence
    try:
        analysis = analyze_divergence(kernel)
    except Exception:              # IR lowering is best-effort
        return [], {}
    findings: List[Finding] = []
    for s in analysis.divergent_syncs:
        findings.append(Finding(
            "divergence", Severity.HIGH, name,
            "__syncthreads() reachable under thread-varying control "
            "flow — the uniformity dataflow proves lanes of a warp can "
            "disagree on the enclosing branch (deadlocks on hardware)",
            s.line))
    for b in analysis.branches:
        if b.uniformity is Uniformity.VARYING:
            if b.in_loop and b.kind in ("masked", "if"):
                findings.append(Finding(
                    "divergence", Severity.MEDIUM, name,
                    f"thread-varying {b.kind} branch inside a loop: "
                    f"divergent warps serialize both paths every "
                    f"iteration (issue-rate derate, Section 4)", b.line))
        elif b.kind == "masked":
            findings.append(Finding(
                "divergence", Severity.INFO, name,
                f"masked branch condition is {b.uniformity}: every "
                f"lane of a block agrees, so the predication is "
                f"removable (compiler may lower it branch-free)",
                b.line))
    summary = analysis.summary()
    if census is not None:
        summary["static_divergent_branch_fraction"] = round(
            census.divergent_branch_fraction, 6)
        summary["static_serialized_fraction"] = round(
            census.divergence_serialized_fraction, 6)
    return findings, summary


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def analyze_target(target: LintTarget, app: str = "",
                   spec: DeviceSpec = DEFAULT_DEVICE) -> KernelReport:
    """Run every rule against one lint target and merge the verdicts.

    The lint pass is the census's one producer: it interprets each
    sample block once, and the census assembled from those blocks
    (:func:`repro.analysis.census.census_from_blocks`) is left on
    ``target.censuses[spec]``, where
    :func:`repro.analysis.census.census_target` reads it instead of
    interpreting the blocks again."""
    kernel = target.kernel
    name = getattr(kernel, "name", "<kernel>")
    grid = as_dim3(tuple(target.grid))
    block = as_dim3(tuple(target.block))
    nthreads = block.size
    declared = getattr(kernel, "batchable", None)
    regs_declared = getattr(kernel, "regs_per_thread", 10)

    report = KernelReport(
        kernel=name, app=app, grid=tuple(target.grid),
        block=tuple(target.block), note=target.note,
        threads_per_block=nthreads, regs_declared=regs_declared,
        batchable_declared=declared)

    seen_findings: set = set()
    merged_access: Dict[Tuple[str, str], AccessSummary] = {}
    hazards: List[HazardEvent] = []
    hazard_keys: set = set()
    notes: List[Tuple[int, str]] = []
    blocks: List[SampleBlock] = []

    def add(findings: List[Finding]) -> None:
        for f in findings:
            key = (f.rule, f.line, f.array, f.message)
            if key not in seen_findings:
                seen_findings.add(key)
                report.findings.append(f)

    for coord in sample_coords(grid):
        recorder, ctx = interpret(target, coord, spec)
        events = recorder.events
        add(rule_barriers(events, nthreads, name))
        mem_findings, summaries = rule_memory(events, nthreads, name,
                                              spec)
        add(mem_findings)
        for key, summary in summaries.items():
            cur = merged_access.get(key)
            if cur is None:
                merged_access[key] = summary
                continue
            if _rank(summary.pattern) > _rank(cur.pattern):
                cur.pattern = summary.pattern
            if summary.coalesced is False or cur.coalesced is False:
                cur.coalesced = False
            elif summary.coalesced is None or cur.coalesced is None:
                cur.coalesced = None
            if summary.conflict_degree is not None:
                cur.conflict_degree = max(cur.conflict_degree or 1,
                                          summary.conflict_degree)
            cur.sites = tuple(sorted(set(cur.sites) | set(summary.sites)))
        for ev in events:
            if isinstance(ev, HazardEvent):
                if (ev.kind, ev.line) not in hazard_keys:
                    hazard_keys.add((ev.kind, ev.line))
                    hazards.append(ev)
        blocks.append((ctx.trace, ctx.smem_bytes, recorder.notes))
        for note in recorder.notes:
            if note not in notes:
                notes.append(note)

    census, sampled = census_from_blocks(target, blocks)
    target.censuses[spec] = census
    occ_findings, occ_desc = rule_occupancy(
        nthreads, regs_declared, census.smem_bytes, name, spec)
    add(occ_findings)
    add(rule_batch_safety(hazards, name, declared))
    ok, reason = _compile_status_safe(kernel)
    add(rule_compilability((ok, reason), name))
    report.compile = {"ok": ok, "reason": None if ok else reason}
    div_findings, div_summary = rule_divergence(kernel, name, sampled)
    add(div_findings)
    report.divergence = div_summary
    add([Finding("analysis", Severity.INFO, name, message, line or None)
         for line, message in notes])

    report.accesses = sorted(merged_access.values(),
                             key=lambda s: (s.space, s.array))
    report.smem_bytes = census.smem_bytes
    report.regs_estimated = estimate_registers(kernel).regs
    report.occupancy = occ_desc
    report.batch_hazards = sorted({h.kind for h in hazards})
    report.findings.sort(
        key=lambda f: (-int(f.severity), f.line or 0, f.rule))
    return report
