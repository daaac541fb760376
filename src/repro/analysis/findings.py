"""Typed findings the static analyzer emits, and the per-kernel report.

Severity policy (the CI gate fails on ``high``):

* ``high`` — definite correctness hazards: shared-memory read-after-
  write races with no intervening barrier, ``__syncthreads`` under
  divergent control flow, static out-of-bounds accesses, launches
  whose resource demands make occupancy zero, and ``batchable=True``
  declarations contradicted by detected batch hazards.
* ``medium`` — definite performance hazards: uncoalesced global
  access patterns (Section 3.2's 16-word segment rule), shared-memory
  bank conflicts of degree > 1 (Section 5.1), and ``batchable=False``
  declarations the analysis cannot justify.
* ``info`` — advisory: occupancy cliffs (Section 4.2), low occupancy,
  data-dependent access patterns the analyzer cannot classify,
  divergent constant reads, and analysis-coverage notes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Severity(enum.IntEnum):
    INFO = 1
    MEDIUM = 2
    HIGH = 3

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.name.lower() for s in cls]}") from None

    def __str__(self) -> str:  # "high", not "Severity.HIGH"
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One statically detected hazard, anchored to a source line."""

    rule: str                 # divergent-sync | shared-race | coalescing |
    #                           bank-conflict | occupancy | batch-safety |
    #                           bounds | divergence | analysis
    severity: Severity
    kernel: str
    message: str
    line: Optional[int] = None     # absolute line in the kernel's file
    array: str = ""                # array the finding concerns, if any

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "kernel": self.kernel,
            "message": self.message,
            "line": self.line,
            "array": self.array,
        }

    def format(self) -> str:
        loc = f":{self.line}" if self.line else ""
        return (f"[{self.severity}] {self.rule} {self.kernel}{loc}: "
                f"{self.message}")


@dataclass
class AccessSummary:
    """Merged verdict for one array (or shared buffer) of a kernel."""

    array: str
    space: str                     # global | shared | const | tex
    pattern: str                   # worst pattern seen across sites
    coalesced: Optional[bool]      # None when data-dependent / cached
    conflict_degree: Optional[int] = None   # shared only; None = unknown
    sites: Tuple[int, ...] = ()    # source lines involved

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "array": self.array,
            "space": self.space,
            "pattern": self.pattern,
            "coalesced": self.coalesced,
            "sites": list(self.sites),
        }
        if self.space == "shared":
            out["conflict_degree"] = self.conflict_degree
        return out


@dataclass
class KernelReport:
    """Everything the analyzer learned about one lint target."""

    kernel: str
    app: str
    grid: Tuple[int, ...]
    block: Tuple[int, ...]
    note: str = ""
    findings: List[Finding] = field(default_factory=list)
    accesses: List[AccessSummary] = field(default_factory=list)
    smem_bytes: int = 0
    regs_declared: int = 0
    #: registers/thread by liveness (:func:`.liveness.estimate_registers`)
    regs_estimated: int = 0
    threads_per_block: int = 0
    occupancy: Dict[str, object] = field(default_factory=dict)
    batch_hazards: List[str] = field(default_factory=list)
    batchable_declared: Optional[bool] = None
    #: R8 summary: branch verdict counts + static divergence fractions
    divergence: Dict[str, object] = field(default_factory=dict)
    #: R6 verdict: ``{"ok": bool, "reason": Optional[str]}`` — whether
    #: the grid compiler can lower this kernel, and why not when it
    #: can't (mirrors :func:`repro.compile.compile_status`)
    compile: Dict[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.kernel}[{self.note}]" if self.note else self.kernel

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    def access(self, array: str) -> Optional[AccessSummary]:
        for summary in self.accesses:
            if summary.array == array:
                return summary
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "app": self.app,
            "note": self.note,
            "grid": list(self.grid),
            "block": list(self.block),
            "findings": [f.to_dict() for f in self.findings],
            "accesses": [a.to_dict() for a in self.accesses],
            "smem_bytes": self.smem_bytes,
            "regs_declared": self.regs_declared,
            "regs_estimated": self.regs_estimated,
            "threads_per_block": self.threads_per_block,
            "occupancy": self.occupancy,
            "batch_hazards": self.batch_hazards,
            "batchable_declared": self.batchable_declared,
            "divergence": self.divergence,
            "compile": self.compile,
        }
