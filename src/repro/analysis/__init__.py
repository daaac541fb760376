"""Static kernel analysis: AST/abstract-interpretation hazard linter.

The analyzer executes a kernel's Python source symbolically — concrete
lane vectors for thread identities, opaque symbolic values for data —
and checks the recorded event stream against the paper's optimization
rules: barrier safety (Section 5.1), global-memory coalescing
(Sections 3.2/4.1), shared-memory bank conflicts (Section 5.1),
register/shared occupancy (Section 4.2) and grid-compiler widening
safety.

Entry points:

* :func:`analyze_target` — analyze one :class:`LintTarget`.
* :func:`estimate_target` — static performance estimate (instruction
  census + liveness registers + Section-4 bounds, no execution).
* :func:`advise_target` — rank optimization passes by predicted payoff.
* ``python -m repro.analysis.lint`` — lint registered applications
  (``--estimate`` / ``--advise`` add the performance model).
* ``python -m repro.analysis.validate`` — cross-validate static
  verdicts against dynamic trace counters and the timing simulator.
"""

from .advisor import Advice, AdvisorReport, advise_app, advise_target
from .census import KernelCensus, census_target, sample_coords
from .estimate import PerfEstimate, estimate_app, estimate_target
from .findings import AccessSummary, Finding, KernelReport, Severity
from .liveness import RegisterEstimate, estimate_registers
from .rules import (ArrayDataflow, LaunchAccess, LaunchDataflow,
                    analyze_launch_sequence, analyze_target,
                    classify_dataflow, launch_dataflow)
from .targets import LintArray, LintTarget, carr, garr, tarr

__all__ = [
    "AccessSummary",
    "Advice",
    "AdvisorReport",
    "ArrayDataflow",
    "Finding",
    "KernelCensus",
    "KernelReport",
    "LaunchAccess",
    "LaunchDataflow",
    "LintArray",
    "LintTarget",
    "PerfEstimate",
    "RegisterEstimate",
    "Severity",
    "advise_app",
    "advise_target",
    "analyze_launch_sequence",
    "analyze_target",
    "carr",
    "census_target",
    "classify_dataflow",
    "estimate_app",
    "estimate_registers",
    "estimate_target",
    "garr",
    "launch_dataflow",
    "sample_coords",
    "tarr",
]
