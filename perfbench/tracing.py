"""In-memory spans recorded by wrappers around public functions.

A :class:`Tracer` replaces attributes of the program's classes and
modules with thin wrappers that record one :class:`Span` per call:
name, start, end, the enclosing span and the request it belongs to.
Nothing inside the program changes; the wrappers sit at the call
boundary, are installed only for traced runs, and are removed again
with :meth:`Tracer.uninstall`.

Parent links follow a :mod:`contextvars` variable, so a call that runs
in an executor thread (a service ``what-if``) starts a new root span
with a request id of its own.

Standard library only.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .stats import interval_union


@dataclass
class Span:
    """One timed call."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent,
            "request": self.request, "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            id=int(data["id"]), name=str(data["name"]),
            start=float(data["start"]), end=float(data["end"]),
            parent=data["parent"], request=int(data["request"]),
            attrs=dict(data.get("attrs", {})),
        )


#: Names a span from the wrapped call's arguments.
Namer = Callable[..., str]
#: Adds attributes to a finished span from the call's arguments/result.
Annotator = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    """Records spans from installed wrappers; keeps them in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"perfbench-span-{id(self)}", default=None
        )
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> Tuple[Span, contextvars.Token]:
        parent: Optional[Span] = self._current.get()
        with self._lock:
            span_id = next(self._ids)
            request = (
                parent.request if parent is not None
                else next(self._requests)
            )
        span = Span(
            id=span_id, name=name, start=self.clock(), end=0.0,
            parent=None if parent is None else parent.id, request=request,
        )
        return span, self._current.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = self.clock()
        self._current.reset(token)
        with self._lock:
            self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, name)

    def record(self, name: str, start: float, end: float, **attrs) -> Span:
        """Add a finished root span measured by the caller."""
        with self._lock:
            span = Span(
                id=next(self._ids), name=name, start=start, end=end,
                parent=None, request=next(self._requests), attrs=attrs,
            )
            self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap_callable(
        self,
        fn: Callable,
        name: str,
        *,
        namer: Optional[Namer] = None,
        annotate: Optional[Annotator] = None,
    ) -> Callable:
        """A traced version of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = tracer._open(
                namer(*args, **kwargs) if namer else name
            )
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if annotate is not None:
                    annotate(span, args, kwargs, result)
                tracer._close(span, token)

        return traced

    def install(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        namer: Optional[Namer] = None,
        annotate: Optional[Annotator] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr!r}: wrap the function instead")
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap_callable(
            original, name, namer=namer, annotate=annotate
        ))

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Replace ``owner.attr`` with a hand-written wrapper."""
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [span.to_dict() for span in self.spans]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span, self._token = self._tracer._open(self._name)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self.span, self._token)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its direct children cover.

    Children are clipped to their parent's interval; overlapping
    children (concurrent work under one parent) count once.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = interval_union(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        )
        out[span.id] = span.duration - covered
    return out


@dataclass
class LayerTotals:
    """Per-name aggregates over a list of spans."""

    calls: Dict[str, int]
    total: Dict[str, float]
    self_total: Dict[str, float]
    durations: Dict[str, List[float]]

    @classmethod
    def of(cls, spans: List[Span]) -> "LayerTotals":
        selfs = self_times(spans)
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_total: Dict[str, float] = defaultdict(float)
        durations: Dict[str, List[float]] = defaultdict(list)
        for span in spans:
            calls[span.name] += 1
            total[span.name] += span.duration
            self_total[span.name] += selfs[span.id]
            durations[span.name].append(span.duration)
        return cls(dict(calls), dict(total), dict(self_total), dict(durations))
