"""Hierarchical trace spans across processes, pools, and fleet shards.

A campaign is one *trace*: a tree of timed spans rooted at
``audit.campaign`` (or ``fleet.campaign``), with ``ga.generation`` →
``engine.evaluate_batch`` → ``worker.eval`` → ``pipeline.pdn_solve``
nesting below it.  Spans carry monotonic timestamps (CLOCK_MONOTONIC is
system-wide on Linux, so worker- and shard-recorded spans order correctly
against the parent process), structured attributes, and trace/span ids.

The instrumentation points call the module-level :func:`span` helper,
which is a shared no-op singleton until a :class:`Tracer` is installed —
un-instrumented runs (the default for library users and most tests) pay
one dict lookup per call site and allocate nothing.  A point occurrence
(a fault, an invariant violation, a supervisor action) is a span that
closes as it opens, ``span(name, **attrs).close()``, so it reaches the
sinks at the moment it happens.  The installed tracer is the only way
any telemetry event reaches a sink (:func:`emit` hands over the one
non-span row, the platform counters), and with none installed an event
goes nowhere.

Cross-process propagation: a :class:`TraceContext` (trace id + parent
span id) is pickled to the worker; the worker builds its own buffering
:class:`Tracer` via :func:`adopt`, records spans locally, and ships the
closed :class:`~repro.core.telemetry.SpanEvent` records back with its
result (``EvalOutcome.spans``, ``ShardResult.timing["spans"]``).  The
parent re-emits them to its own tracer's sinks, so the JSONL trace is a
single file with one coherent tree — even when the pool was SIGKILLed
and respawned in between.  A worker that dies holding open spans never
ships them; the supervisor-side caller closes the loss explicitly (the
engine with :meth:`Tracer.lost`, the fleet by closing the shard's span
as ``"lost"``), so the tree shows a ``status="lost"`` leaf instead of a
dangling parent id.

Span and trace ids are ``uuid4`` hex prefixes: they exist only inside
telemetry output and must never leak into deterministic artifacts
(reports, registry records, checkpoints).
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass

from repro.core.telemetry import SpanEvent


def new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The picklable coordinates a subprocess needs to join a trace."""

    trace_id: str
    parent_id: str = ""
    pid: int = 0
    """The process that issued the context.  A task that finds itself in
    that same process runs in-process, not in a (forked) worker that
    merely inherited the issuer's installed tracer."""


class _NullSpan:
    """The shared do-nothing span handed out when no tracer is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def close(self, status: str = "ok") -> None:
        pass

    def context(self) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One open span; closing it emits a SpanEvent through the tracer."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "t0", "attrs", "_closed")

    def __init__(self, tracer: "Tracer", name: str, parent_id: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.span_id = new_id()
        self.parent_id = parent_id
        self.t0 = tracer.clock()
        self.attrs = attrs
        self._closed = False

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def close(self, status: str = "ok") -> None:
        if self._closed:
            return
        self._closed = True
        self.tracer._close(self, status)

    def context(self) -> TraceContext:
        """The coordinates a subprocess needs to nest under this span."""
        return TraceContext(self.tracer.trace_id, self.span_id, os.getpid())

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close("error" if exc_type is not None else "ok")
        return False


class Tracer:
    """Builds one process's slice of a trace and hands events to its sinks.

    ``span(...)`` is the structured (context-manager) API — it maintains
    the ambient parent stack, so nested ``with`` blocks nest in the tree.
    ``start(...)``/``Span.close(...)`` is the manual API for spans whose
    lifetime does not follow block structure (a task in flight on a
    worker pool).  Manually started spans do not join the parent stack;
    their children must be created in the process that runs them.
    """

    def __init__(self, sinks=(), *, trace_id: str | None = None,
                 root_id: str = "", clock=time.monotonic):
        self.sinks = sinks
        """Objects with ``on_event(event)``; every event emitted through
        this tracer (closed spans and point-in-time events) reaches each."""
        self.trace_id = trace_id if trace_id else new_id()
        self.root_id = root_id
        """Parent span id adopted from another process ("" for a fresh
        trace): spans opened with an empty stack hang below it."""
        self.clock = clock
        self._stack: list = []

    # -- structured API -------------------------------------------------
    def span(self, name: str, /, **attrs) -> Span:
        opened = Span(self, name, self._parent_id(), attrs)
        self._stack.append(opened)
        return opened

    def start(self, name: str, /, **attrs) -> Span:
        """Open a detached span under the current parent (manual close)."""
        return Span(self, name, self._parent_id(), attrs)

    def lost(self, name: str, /, *, wall_s: float = 0.0, **attrs) -> SpanEvent:
        """Close a span on behalf of a process that died holding it."""
        event = SpanEvent(
            name=name,
            trace_id=self.trace_id,
            span_id=new_id(),
            parent_id=self._parent_id(),
            t0_s=self.clock() - wall_s,
            wall_s=wall_s,
            status="lost",
            attrs=attrs,
            pid=os.getpid(),
        )
        self.emit(event)
        return event

    # -- propagation ----------------------------------------------------
    def context(self) -> TraceContext:
        """The coordinates a subprocess needs to nest under the caller."""
        return TraceContext(self.trace_id, self._parent_id(), os.getpid())

    def emit(self, event) -> None:
        """Hand any telemetry event to every sink (a span recorded in
        another process included)."""
        for sink in self.sinks:
            sink.on_event(event)

    # -- internals ------------------------------------------------------
    def _parent_id(self) -> str:
        return self._stack[-1].span_id if self._stack else self.root_id

    def _close(self, span: Span, status: str) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            # Out-of-order close (an exception unwound through several
            # frames): drop it and everything opened after it, closing
            # the abandoned children as errors first.
            index = self._stack.index(span)
            for orphan in reversed(self._stack[index + 1:]):
                self._stack.remove(orphan)
                orphan._closed = True
                self._emit(orphan, "error")
            self._stack.remove(span)
        self._emit(span, status)

    def _emit(self, span: Span, status: str) -> None:
        self.emit(SpanEvent(
            name=span.name,
            trace_id=self.trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            t0_s=span.t0,
            wall_s=max(0.0, self.clock() - span.t0),
            status=status,
            attrs=span.attrs,
            pid=os.getpid(),
        ))


def adopt(context: TraceContext, sinks=(), *, clock=time.monotonic) -> Tracer:
    """A tracer whose spans nest under *context* from another process."""
    return Tracer(
        sinks,
        trace_id=context.trace_id,
        root_id=context.parent_id,
        clock=clock,
    )


class SpanBuffer:
    """A sink that keeps SpanEvents for shipping across a pickle.

    ``cap`` bounds the buffer so a pathological worker cannot inflate its
    result payload without bound; overflow drops the *oldest* records.
    ``None`` keeps every span, for callers whose span count the work
    itself bounds (a fleet shard's budget).
    """

    def __init__(self, cap: int | None = 512):
        self.cap = cap
        self.records: list = []

    def on_event(self, event) -> None:
        if isinstance(event, SpanEvent):
            self.records.append(event)
            if self.cap is not None and len(self.records) > self.cap:
                self.records.pop(0)


# ----------------------------------------------------------------------
# The ambient (installable) tracer
# ----------------------------------------------------------------------
_ACTIVE: Tracer | None = None


def install_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install *tracer* as the ambient tracer; returns the previous one.

    Callers must restore the previous tracer when done (see
    :func:`tracing` for the context-manager form).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def current_tracer() -> Tracer | None:
    return _ACTIVE


class tracing:
    """``with tracing(tracer): ...`` — scoped ambient-tracer install."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer | None:
        self._previous = install_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> None:
        install_tracer(self._previous)


def span(name: str, /, **attrs):
    """Open a span on the ambient tracer (no-op when none is installed)."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def emit(event) -> None:
    """Hand *event* to the ambient tracer's sinks (no-op when none is
    installed)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.emit(event)


class TracedTask:
    """Wraps a picklable task so its work is traced in the worker.

    The wrapper carries a :class:`TraceContext`; in the worker it builds
    a buffering tracer adopted from that context, runs the task inside a
    ``worker.eval`` span (so every pipeline span the task emits nests
    under it), and attaches the buffered records to the result when the
    result type has a ``spans`` field (``EvalOutcome`` does).  The parent
    re-emits them via :meth:`Tracer.emit`.
    """

    def __init__(self, fn, context: TraceContext, *, span_name: str = "worker.eval"):
        self.fn = fn
        self.context = context
        self.span_name = span_name

    def __call__(self, item):
        buffer = SpanBuffer()
        tracer = adopt(self.context, (buffer,))
        with tracing(tracer):
            with tracer.span(self.span_name, pid=os.getpid()):
                result = self.fn(item)
        if not buffer.records:
            return result
        if "spans" in getattr(result, "__dataclass_fields__", ()):
            import dataclasses

            return dataclasses.replace(result, spans=tuple(buffer.records))
        return result
