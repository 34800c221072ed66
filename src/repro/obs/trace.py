"""Hierarchical span tracing with JSONL export.

A :class:`Tracer` maintains a stack of open :class:`Span` objects; entering
``tracer.span(...)`` opens a child of the current top of stack, so the
natural nesting of the extraction — pipeline run → pipeline module →
application invocation → engine query — is captured without any explicit
parent bookkeeping at the call sites.

Span *kinds* used by the instrumented code:

* ``pipeline``   — one whole extraction run (the root span);
* ``module``     — one pipeline module (``from_clause``, ``minimizer``, …);
* ``invocation`` — one black-box application invocation;
* ``query``      — one engine statement (with parse/plan/execute timing and
  rows-scanned / rows-emitted tags for SELECTs);
* ``verify``     — one bounded-verifier phase (``certify`` wrapping the whole
  CEGIS loop, ``certify_search`` per symbolic search round,
  ``certify_refine`` per counterexample-driven re-extraction); the verifier
  also ticks the ``certificates_total`` / ``counterexamples_total`` /
  ``certify_probes_total`` counters.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span()``
returns a single shared no-op context manager — call sites pay one attribute
load and one method call, nothing else.  Code that would compute expensive
tag values must guard on ``tracer.enabled``.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, Optional


class Span:
    """One timed unit of work in a trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "kind", "start", "end", "tags")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        start: float,
        tags: Optional[dict] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.tags: dict = tags if tags is not None else {}

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_tag(self, key: str, value) -> None:
        self.tags[key] = value

    def set_tags(self, **tags) -> None:
        self.tags.update(tags)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": round(self.duration, 9),
            "tags": self.tags,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls(
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            name=payload["name"],
            kind=payload.get("kind", "span"),
            start=payload["start"],
            tags=dict(payload.get("tags") or {}),
        )
        span.end = payload.get("end")
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span #{self.span_id} {self.kind}:{self.name} "
            f"{self.duration:.6f}s tags={self.tags}>"
        )


class _SpanContext:
    """Context manager that closes its span and pops the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.tags.setdefault("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Records a tree of spans (and optionally feeds a metrics registry).

    ``metrics`` — an optional :class:`~repro.obs.metrics.MetricsRegistry`;
    instrumented code updates it alongside span tags so counters work even
    in span-free mode.

    ``keep_spans=False`` keeps the tracer *enabled* (timing, tags, metrics)
    but discards finished spans instead of accumulating them — the memory-
    bounded mode the benchmark harness uses to collect metrics snapshots
    over thousands of engine queries.
    """

    enabled = True

    def __init__(self, metrics=None, keep_spans: bool = True):
        self.metrics = metrics
        self.keep_spans = keep_spans
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # -- span lifecycle ------------------------------------------------------

    def span(self, name: str, kind: str = "span", tags: Optional[dict] = None):
        """Open a span as a child of the current innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            kind=kind,
            start=time.perf_counter(),
            tags=tags,
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Pop back to (and including) this span; tolerates exceptional exits
        # that unwound several levels at once.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if self.keep_spans:
            self.spans.append(span)

    def record(
        self,
        name: str,
        kind: str = "span",
        start: Optional[float] = None,
        end: Optional[float] = None,
        tags: Optional[dict] = None,
    ) -> Span:
        """Append an already-finished span as a child of the current span.

        The speculative halving chain's post-hoc span path: its probes run
        on worker threads with no tracer at all, and only the links the
        chain consumes are recorded afterwards, on the main thread.
        """
        now = time.perf_counter()
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            kind=kind,
            start=start if start is not None else now,
            tags=dict(tags) if tags else None,
        )
        self._next_id += 1
        span.end = end if end is not None else now
        if self.keep_spans:
            self.spans.append(span)
        return span

    def adopt(self, spans: Iterable[Span], tags: Optional[dict] = None) -> None:
        """Graft finished spans recorded by another tracer into this one.

        Parallel probe tasks trace into a private tracer each (the span
        stack is not thread-safe); the session's join adopts those spans on
        the main thread.  Span ids are renumbered into this tracer's
        sequence, parent links are kept, and every root is hung under the
        current span with ``tags`` added.
        """
        spans = list(spans)
        remap: dict[int, int] = {}
        for span in spans:
            remap[span.span_id] = self._next_id
            self._next_id += 1
        parent = self._stack[-1].span_id if self._stack else None
        for span in spans:
            span.span_id = remap[span.span_id]
            if span.parent_id is None:
                span.parent_id = parent
                if tags:
                    span.tags.update(tags)
            else:
                span.parent_id = remap[span.parent_id]
            if self.keep_spans:
                self.spans.append(span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @property
    def root(self) -> Optional[Span]:
        """The first recorded root span (parent_id is None), if any."""
        for span in self.spans:
            if span.parent_id is None:
                return span
        return None

    # -- export --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One finished span per line, completion order (children first)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), default=str) + "\n")


def read_jsonl(path) -> list[Span]:
    """Load spans written by :meth:`Tracer.write_jsonl` (blank lines ok)."""
    spans: list[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# -- the no-op default ---------------------------------------------------------


class _NullSpan:
    """Absorbs tag writes; shared singleton, never allocated per call."""

    __slots__ = ()

    def set_tag(self, key: str, value) -> None:
        pass

    def set_tags(self, **tags) -> None:
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every ``span()`` is the same shared no-op context."""

    enabled = False
    metrics = None
    keep_spans = False
    spans: tuple = ()

    def span(self, name: str, kind: str = "span", tags: Optional[dict] = None):
        return _NULL_CONTEXT

    def record(self, name, kind="span", start=None, end=None, tags=None):
        return _NULL_SPAN

    @property
    def current(self):
        return None

    @property
    def root(self):
        return None

    def write_jsonl(self, path) -> None:  # pragma: no cover - symmetry only
        with open(path, "w", encoding="utf-8"):
            pass


#: The process-wide disabled tracer; instrumented objects default to this.
NULL_TRACER = NullTracer()
