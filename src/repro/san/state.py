"""Shared sanitizer state: shadow memory, findings, launch logs.

One :class:`SanState` lives across every launch of a sanitized run
(the :class:`~repro.cuda.executors.SanitizedExecutor` holds it), so
definedness shadow bits survive from the launch that writes an array
to the launch that reads it, and the per-launch global read/write logs
accumulate into the dynamic mirror of the static inter-launch
dataflow rule (R7 in :mod:`repro.analysis.rules`).

Shadow structures:

* **bounds map** — every registered :class:`DeviceArray`'s simulated
  byte range, so an out-of-bounds index can be attributed to the
  neighbouring allocation its address lands in;
* **definedness bits** — one boolean per array cell, lazily created:
  arrays uploaded from the host start fully defined, ``alloc``-ed
  arrays start fully undefined (the model zero-fills them, real
  hardware does not);
* **pending uninitialized reads** — resolved at :meth:`finalize`:
  cells never written anywhere are HIGH, cells written only *later*
  (code relying on the model's zero-fill) are MEDIUM.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..analysis.findings import Finding, Severity

#: rules the sanitizer tools emit, mapped to the owning tool
SAN_RULES: Dict[str, str] = {
    "oob-global": "memcheck",
    "oob-shared": "memcheck",
    "shared-race": "racecheck",
    "divergent-sync": "synccheck",
    "barrier-mismatch": "synccheck",
    "uninit-global": "initcheck",
    "uninit-shared": "initcheck",
}

TOOLS: Tuple[str, ...] = ("memcheck", "racecheck", "synccheck", "initcheck")


class SanState:
    """Findings, shadow memory and launch logs for one sanitized run."""

    def __init__(self, tools: Optional[Iterable[str]] = None) -> None:
        tools = tuple(tools) if tools is not None else TOOLS
        unknown = set(tools) - set(TOOLS)
        if unknown:
            raise ValueError(
                f"unknown sanitizer tool(s) {sorted(unknown)}; "
                f"expected a subset of {list(TOOLS)}")
        self.tools = frozenset(tools)
        self.findings: List[Finding] = []
        self._seen: set = set()
        #: per-array definedness bits, keyed by array object identity
        self._defined: Dict[int, np.ndarray] = {}
        #: uninitialized reads awaiting the never-written/written-later
        #: verdict: (array, cells, line, kernel)
        self._pending: List[Tuple[object, np.ndarray, Optional[int], str]] = []
        #: simulated address ranges for OOB provenance:
        #: (base, end, name) sorted by base
        self._bounds: List[Tuple[int, int, str]] = []
        self._bounds_names: set = set()
        #: per-launch global-memory footprints (the dynamic R7 log)
        self.launch_log: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Tool gating / finding emission
    # ------------------------------------------------------------------
    def enabled(self, tool: str) -> bool:
        return tool in self.tools

    def emit(self, rule: str, severity: Severity, kernel: str,
             message: str, line: Optional[int] = None,
             array: str = "") -> None:
        # one finding per (rule, site, severity): the same hazard
        # re-observed in every block would otherwise repeat with only
        # the cell ranges / thread ids varying
        key = (rule, kernel, line, array, severity)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(rule, severity, kernel, message,
                                     line=line, array=array))

    def high_findings(self) -> List[Finding]:
        return [f for f in self.all_findings()
                if f.severity >= Severity.HIGH]

    # ------------------------------------------------------------------
    # Bounds shadow map (memcheck provenance)
    # ------------------------------------------------------------------
    def register_arrays(self, arrays: Iterable[object]) -> None:
        for arr in arrays:
            name = getattr(arr, "name", None)
            base = getattr(arr, "base_addr", None)
            if name is None or base is None or name in self._bounds_names:
                continue
            self._bounds_names.add(name)
            self._bounds.append((base, base + arr.nbytes, name))
        self._bounds.sort()

    def owner_of(self, addr: int) -> Optional[str]:
        """Name of the allocation a simulated byte address lands in."""
        for base, end, name in self._bounds:
            if base <= addr < end:
                return name
        return None

    # ------------------------------------------------------------------
    # Definedness shadow bits (initcheck)
    # ------------------------------------------------------------------
    def defined_bits(self, arr) -> np.ndarray:
        bits = self._defined.get(id(arr))
        if bits is None:
            initialized = bool(getattr(arr, "host_initialized", False))
            bits = np.full(arr.size, initialized, dtype=bool)
            self._defined[id(arr)] = bits
        return bits

    def note_write(self, arr, cells: np.ndarray) -> None:
        self.defined_bits(arr)[cells] = True

    def note_read(self, arr, cells: np.ndarray, line: Optional[int],
                  kernel: str) -> None:
        """Queue the undefined subset of a read for later triage."""
        bits = self.defined_bits(arr)
        undef = np.unique(cells[~bits[cells]])
        if undef.size:
            self._pending.append((arr, undef, line, kernel))

    def finalize(self) -> None:
        """Resolve pending uninitialized reads against the final shadow
        state: never-written cells are HIGH, written-only-later cells
        (zero-fill reliance) are MEDIUM."""
        pending, self._pending = self._pending, []
        for arr, cells, line, kernel in pending:
            bits = self._defined.get(id(arr))
            never = cells if bits is None else cells[~bits[cells]]
            space = getattr(arr, "space", "global")
            rule = "uninit-shared" if space == "shared" else "uninit-global"
            if never.size:
                self.emit(rule, Severity.HIGH, kernel,
                          f"read of {space} {arr.name!r} cells "
                          f"[{int(never.min())}, {int(never.max())}] never "
                          f"written anywhere — zero-filled in this model, "
                          f"garbage on real hardware",
                          line=line, array=arr.name)
            later = cells[bits[cells]] if bits is not None else \
                np.empty(0, dtype=cells.dtype)
            if later.size:
                self.emit(rule, Severity.MEDIUM, kernel,
                          f"read of {space} {arr.name!r} cells "
                          f"[{int(later.min())}, {int(later.max())}] not yet "
                          f"written at this point (written only later) — "
                          f"relies on the model's zero-fill",
                          line=line, array=arr.name)

    def all_findings(self) -> List[Finding]:
        """Findings with pending initcheck reads resolved, sorted."""
        self.finalize()
        return sorted(self.findings,
                      key=lambda f: (-int(f.severity), f.line or 0, f.rule))

    # ------------------------------------------------------------------
    # Launch log (dynamic R7 mirror)
    # ------------------------------------------------------------------
    def begin_launch(self, plan) -> None:
        self.launch_log.append({
            "index": len(self.launch_log),
            "kernel": plan.kernel.name,
            "reads": [],
            "writes": [],
            "first_op": {},
        })
        if plan.device is not None:
            self.register_arrays(plan.device.arrays.values())
        self.register_arrays(
            a for a in plan.args if hasattr(a, "base_addr"))

    def note_global_access(self, array: str, op: str) -> None:
        if not self.launch_log:
            return
        entry = self.launch_log[-1]
        if op in ("ld", "atom") and array not in entry["reads"]:
            entry["reads"].append(array)
        if op in ("st", "atom") and array not in entry["writes"]:
            entry["writes"].append(array)
        entry["first_op"].setdefault(array, "ld" if op != "st" else "st")

    def launch_accesses(self):
        """The run's launch sequence as
        :class:`repro.analysis.rules.LaunchAccess` records — feed these
        to :func:`repro.analysis.rules.classify_dataflow` for the
        dynamic side of the R7 cross-check."""
        from ..analysis.rules import LaunchAccess
        out = []
        for entry in self.launch_log:
            incoming = tuple(a for a in entry["reads"]
                             if entry["first_op"].get(a) == "ld")
            out.append(LaunchAccess(
                index=entry["index"], kernel=entry["kernel"],
                reads=tuple(entry["reads"]),
                writes=tuple(entry["writes"]),
                reads_incoming=incoming))
        return out

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "tools": sorted(self.tools),
            "findings": [f.to_dict() for f in self.all_findings()],
            "launches": [la.to_dict() for la in self.launch_accesses()],
        }
