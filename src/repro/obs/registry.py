"""Process-wide (but injectable) metrics registry.

The paper's methodology *is* counter attribution: every GFLOPS number
in Section 4 is explained by per-kernel counts (global loads per
thread, FMA issue fraction, registers per thread, bank conflicts).
This module gives the reproduction the same vocabulary for its own
pipeline: named counters, gauges and histograms with label support,
aggregated in a :class:`MetricsRegistry`.

Design points:

* **Zero overhead by default.**  The ambient registry starts
  *disabled*; a disabled registry hands out one shared no-op metric,
  so instrumented hot paths pay a single attribute check.
* **Injectable.**  The ambient registry is process-global state, but
  :func:`set_registry` / :func:`use_registry` swap it (tests, nested
  profilers).
"""

from __future__ import annotations

import contextlib
import math
from typing import Dict, Iterator, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "get_registry",
    "set_registry",
    "use_registry",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (events, blocks, cache hits)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written value (queue depth, bytes resident, overhead %)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution summary (count/sum/min/max).

    Launch wall times and per-stage durations do not need full bucket
    vectors to answer the questions the bench layer asks; a compact
    moment summary is enough.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def value(self):
        return {"count": self.count, "sum": self.sum,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "mean": self.mean}


class _NullMetric:
    """Shared do-nothing metric handed out by a disabled registry."""

    kind = "null"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """A bag of named, labeled metrics (see module docstring)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}

    # ------------------------------------------------------------------
    # Metric factories (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Dict[str, object]):
        if not self.enabled:
            return NULL_METRIC
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[object]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, default=None, **labels):
        """Current value of one metric, or ``default`` if unset."""
        metric = self._metrics.get((name, _label_key(labels)))
        return default if metric is None else metric.value

    def total(self, name: str) -> float:
        """Sum of a counter over every label combination."""
        return sum(m.value for (n, _), m in self._metrics.items()
                   if n == name and m.kind == "counter")

    def to_dict(self) -> Dict[str, object]:
        """Readable nested form: ``{name: {label-string: value}}``."""
        out: Dict[str, Dict[str, object]] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            label_str = ",".join(f"{k}={v}" for k, v in labels) or "-"
            out.setdefault(name, {})[label_str] = metric.value
        return out

    def reset(self) -> None:
        self._metrics.clear()


#: ambient registry — disabled until a profiler (or caller) enables one
_REGISTRY = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The ambient registry instrumented code reports to."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as ambient; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry):
    """Scope ``registry`` as the ambient one for a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
