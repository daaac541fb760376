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

import importlib
from typing import Dict, Tuple

#: public names by the submodule that defines them.  A submodule is
#: imported on first use, so the launch path's replay proof, which
#: imports only :mod:`.divergence` and :mod:`.ir`, pulls in neither
#: the interpreter nor the rules.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "advisor": ("Advice", "AdvisorReport", "advise_app", "advise_target"),
    "census": ("KernelCensus", "census_target", "sample_coords"),
    "estimate": ("PerfEstimate", "estimate_app", "estimate_target"),
    "findings": ("AccessSummary", "Finding", "KernelReport", "Severity"),
    "liveness": ("RegisterEstimate", "estimate_registers"),
    "rules": ("ArrayDataflow", "LaunchAccess", "LaunchDataflow",
              "analyze_launch_sequence", "analyze_target",
              "classify_dataflow", "launch_dataflow"),
    "targets": ("LintArray", "LintTarget", "carr", "garr", "tarr"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
