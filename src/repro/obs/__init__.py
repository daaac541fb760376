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
  one :class:`LaunchRecord` per kernel launch: the launch's identity
  and block accounting over its own trace and timing estimate.

Three layers post-process them:

* :mod:`repro.obs.derived` — nvprof/Nsight-style named derived metrics
  (``achieved_occupancy``, ``gld_efficiency``, ...) computed from a
  record's trace and estimate against the active device's peaks, for
  an executed launch or a static estimate alike;
* :mod:`repro.obs.timeline` — per-SM warp scheduling timelines from
  the event-driven simulator (chrome://tracing JSON + ASCII strips);
* :mod:`repro.obs.roofline` — per-launch roofline placement against
  the device's compute and bandwidth roofs.

Every count stays on the object that produced it: a launch's trace
counters on its :class:`~repro.trace.trace.KernelTrace`, its model
numbers on its timing estimate, its block dispositions on the launch
result, a module's or artifact cache's ``stats``.  A record holds the
trace, the estimate and the launch's ``executor.<name>`` span; it
copies none of them, and its stage times are read off the span, the
pipeline's only clock.

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
from .derived import (METRICS, MetricDef, derive_metrics, format_derived,
                      metric_deviation)
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
    "metric_deviation",
    "format_derived",
    "RooflinePoint",
    "roofline_report",
    "format_roofline",
    "Timeline",
    "record_timeline",
    "format_timeline",
]
