"""Nested wall-clock span tracing with Chrome-trace export.

A :class:`SpanTracer` records a tree of ``with span("..."):`` regions
— the structured replacement for ad-hoc ``time.perf_counter()`` pairs.
Completed traces export two ways:

* :meth:`SpanTracer.to_chrome_trace` — the ``chrome://tracing`` /
  Perfetto JSON event format (one complete ``"X"`` event per span);
* :meth:`SpanTracer.format_tree` — a plain-text indentation tree with
  per-span wall time and the fraction of the parent it covers.

The ambient tracer starts disabled, and the module-level :func:`span`
helper costs one function call and an attribute check when tracing is
off.  The tree is also where the pipeline records its decisions: a
span's attributes name what was chosen and why (see
:class:`~repro.cuda.executors.Executor`).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List

__all__ = ["Span", "SpanTracer", "span", "get_tracer", "set_tracer",
           "use_tracer"]


@dataclass
class Span:
    """One timed region: name, interval, attributes and children."""

    name: str
    t0: float
    t1: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def walk(self, depth: int = 0) -> Iterator:
        """Depth-first (span, depth) traversal."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


class SpanTracer:
    """Collects a forest of nested :class:`Span` regions."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: epoch every exported timestamp is relative to
        self._epoch = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time a region; nests under any currently open span."""
        if not self.enabled:
            yield None
            return
        node = Span(name=name, t0=perf_counter(), attrs=attrs)
        (self._stack[-1].children if self._stack else self.roots).append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.t1 = perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self._epoch = perf_counter()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def walk(self) -> Iterator:
        for root in self.roots:
            yield from root.walk()

    def to_chrome_trace(self) -> Dict[str, object]:
        """The ``chrome://tracing`` JSON object (load via Perfetto)."""
        events = []
        for node, _depth in self.walk():
            events.append({
                "name": node.name,
                "ph": "X",
                "ts": (node.t0 - self._epoch) * 1e6,   # microseconds
                "dur": node.seconds * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {str(k): str(v) for k, v in node.attrs.items()},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)

    def format_tree(self) -> str:
        """Plain-text tree: name, wall ms, % of the parent span."""
        lines = []
        parent_secs: List[float] = []
        for node, depth in self.walk():
            del parent_secs[depth:]
            share = ""
            if depth and parent_secs[depth - 1] > 0:
                share = f"  ({100 * node.seconds / parent_secs[depth - 1]:.0f}%)"
            attrs = " ".join(f"{k}={v}" for k, v in node.attrs.items())
            lines.append(f"{'  ' * depth}{node.name:<{max(1, 40 - 2 * depth)}}"
                         f"{node.seconds * 1e3:10.3f} ms{share}"
                         + (f"  [{attrs}]" if attrs else ""))
            parent_secs.append(node.seconds)
        return "\n".join(lines)


#: ambient tracer — disabled until a profiler (or caller) enables one
_TRACER = SpanTracer(enabled=False)


def get_tracer() -> SpanTracer:
    return _TRACER


def set_tracer(tracer: SpanTracer) -> SpanTracer:
    """Install ``tracer`` as ambient; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


@contextlib.contextmanager
def use_tracer(tracer: SpanTracer):
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


_NULL = contextlib.nullcontext()


def span(name: str, **attrs):
    """Trace a region on the ambient tracer (no-op when disabled)."""
    tracer = _TRACER
    if not tracer.enabled:
        return _NULL
    return tracer.span(name, **attrs)
