"""Dynamic sanitizers — a mold of ``cuda-memcheck`` for the DSL.

Four tools run against real kernel executions and report typed
findings with exact thread/block/array provenance:

* **memcheck** — out-of-bounds global/shared accesses, including the
  loads :class:`~repro.cuda.context.BlockContext` silently clips, with
  the neighbouring allocation the stray address lands in;
* **racecheck** — shared-memory data races: a store racing a load or
  store from another thread inside the same barrier interval;
* **synccheck** — ``__syncthreads()`` under divergent control flow and
  barrier-count mismatches between warps (via the warp simulator);
* **initcheck** — reads of global or shared cells no thread ever
  wrote (the model zero-fills; real hardware hands back garbage).

Entry points: the :class:`~repro.cuda.executors.SanitizedExecutor`
backend (``launch(..., executor="sanitized")`` for one launch; set an
instance as an application's ``executor`` to sanitize whole app runs),
and the CLI
``python -m repro.san.check``.  Findings reuse
:class:`repro.analysis.findings.Finding`, so static-analyzer reports
and sanitizer reports render and serialize identically — the app and
broken sweeps of ``python -m repro.analysis.validate`` exploit that to
cross-validate the two sides against each other.
"""

from .state import SanState, SAN_RULES
from .context import SanitizedContext

__all__ = ["SanState", "SanitizedContext", "SAN_RULES"]
