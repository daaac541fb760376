"""Observability: metrics, spans and the nvprof-style launch profiler.

The paper explains every performance number by attributing it to
counters — global loads per thread, FMA issue fraction, bank-conflict
serialization, the Table 3 bottleneck verdict.  This package gives the
reproduction's own pipeline the same treatment:

* :mod:`repro.obs.registry` — process-wide but injectable
  :class:`MetricsRegistry` of labeled counters/gauges/histograms;
* :mod:`repro.obs.spans` — nested wall-clock span tracing exporting
  Chrome ``chrome://tracing`` JSON and a plain-text tree;
* :mod:`repro.obs.profiler` — the :class:`LaunchProfiler`, capturing
  one structured :class:`LaunchRecord` per kernel launch;
* :mod:`repro.obs.derived` — nvprof/Nsight-style named derived metrics
  (``achieved_occupancy``, ``gld_efficiency``, ...) computed from the
  counters against the active device's peaks;
* :mod:`repro.obs.timeline` — per-SM warp scheduling timelines from
  the event-driven simulator (chrome://tracing JSON + ASCII strips);
* :mod:`repro.obs.roofline` — per-launch roofline placement against
  the device's compute and bandwidth roofs.

Everything is **off by default**: the ambient registry and tracer are
disabled, and every instrumentation point in the pipeline reduces to a
single attribute check until a :class:`LaunchProfiler` (or an explicit
:func:`set_registry` / :func:`set_tracer`) turns them on.  The derived
layers above never hook the hot path at all — they post-process
records and replay recorded streams on demand.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    get_registry,
    set_registry,
    use_registry,
)
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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "get_registry",
    "set_registry",
    "use_registry",
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
