"""Observability: spans and the nvprof-style launch profiler.

The paper explains every performance number by attributing it to
counters — global loads per thread, FMA issue fraction, bank-conflict
serialization, the Table 3 bottleneck verdict.  This package gives the
reproduction's own pipeline the same treatment.  It keeps two stores:

* :mod:`repro.obs.spans` — nested wall-clock span tracing exporting
  Chrome ``chrome://tracing`` JSON and a plain-text tree; policy
  decisions (executor choice, trace replay, compile fallback) ride on
  the spans as attributes with their reasons;
* :mod:`repro.obs.profiler` — the :class:`LaunchProfiler`, capturing
  one structured :class:`LaunchRecord` per kernel launch.

Three layers post-process them:

* :mod:`repro.obs.derived` — nvprof/Nsight-style named derived metrics
  (``achieved_occupancy``, ``gld_efficiency``, ...) computed from the
  counters against the active device's peaks;
* :mod:`repro.obs.timeline` — per-SM warp scheduling timelines from
  the event-driven simulator (chrome://tracing JSON + ASCII strips);
* :mod:`repro.obs.roofline` — per-launch roofline placement against
  the device's compute and bandwidth roofs.

Every other pipeline count stays on the object that produced it: a
launch result's trace and block dispositions, a module's or artifact
cache's ``stats``.

Everything is **off by default**: the ambient tracer is disabled, and
every instrumentation point in the pipeline reduces to one tracer
check until a :class:`LaunchProfiler` (or an explicit
:func:`set_tracer`) turns it on.  The post-processing layers never
hook the hot path at all — they read records and replay recorded
streams on demand.
"""

from .spans import (
    Span,
    SpanTracer,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
)
from .profiler import LaunchProfiler, LaunchRecord, active_profiler
from .derived import (METRICS, MetricDef, derive_from_estimate,
                      derive_metrics, format_derived, metric_deviation)
from .roofline import RooflinePoint, format_roofline, roofline_report
from .timeline import Timeline, format_timeline, record_timeline

__all__ = [
    "Span",
    "SpanTracer",
    "get_tracer",
    "set_tracer",
    "span",
    "use_tracer",
    "LaunchProfiler",
    "LaunchRecord",
    "active_profiler",
    "METRICS",
    "MetricDef",
    "derive_metrics",
    "derive_from_estimate",
    "metric_deviation",
    "format_derived",
    "RooflinePoint",
    "roofline_report",
    "format_roofline",
    "Timeline",
    "record_timeline",
    "format_timeline",
]
