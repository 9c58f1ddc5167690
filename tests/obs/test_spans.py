"""Tracer conformance: nesting, propagation, and loss semantics.

The property tests drive the tracer with a deterministic fake clock so
wall times are exact integers: any interleaving of span opens and closes
must produce a tree with no orphans, exactly one event per opened span,
and self-times that sum to the root's wall time.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import EvalOutcome
from repro.core.telemetry import SpanEvent
from repro.obs.spans import (
    NULL_SPAN,
    SpanBuffer,
    TraceContext,
    TracedTask,
    Tracer,
    adopt,
    current_tracer,
    install_tracer,
    new_id,
    span,
    tracing,
)
from repro.obs.trace import build_tree


class FakeClock:
    """A monotonic clock that advances by one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class Sink:
    def __init__(self):
        self.events = []

    def on_event(self, event) -> None:
        self.events.append(event)


def tracer_and_sink():
    sink = Sink()
    return Tracer([sink], clock=FakeClock()), sink


class TestTracerBasics:
    def test_ids_are_distinct_hex_prefixes(self):
        ids = {new_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 for i in ids)

    def test_with_block_nesting_sets_parent_ids(self):
        tracer, sink = tracer_and_sink()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner_event, outer_event = sink.events
        assert inner_event.name == "inner"
        assert inner_event.parent_id == outer.span_id
        assert outer_event.parent_id == ""
        assert inner_event.trace_id == outer_event.trace_id == tracer.trace_id
        assert outer_event.pid == os.getpid()

    def test_attrs_and_set_merge(self):
        tracer, sink = tracer_and_sink()
        with tracer.span("s", generation=3) as opened:
            opened.set(batch=24, name="attr-called-name-is-fine")
        assert sink.events[0].attrs == {
            "generation": 3, "batch": 24, "name": "attr-called-name-is-fine",
        }

    def test_exception_closes_span_with_error_status(self):
        tracer, sink = tracer_and_sink()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert sink.events[0].status == "error"

    def test_close_is_idempotent(self):
        tracer, sink = tracer_and_sink()
        opened = tracer.span("once")
        opened.close()
        opened.close()
        opened.close("error")
        assert len(sink.events) == 1
        assert sink.events[0].status == "ok"

    def test_out_of_order_close_errors_abandoned_children(self):
        tracer, sink = tracer_and_sink()
        outer = tracer.span("outer")
        middle = tracer.span("middle")
        inner = tracer.span("inner")
        outer.close()  # unwinds past middle and inner
        by_name = {event.name: event for event in sink.events}
        assert set(by_name) == {"outer", "middle", "inner"}
        assert by_name["outer"].status == "ok"
        assert by_name["middle"].status == "error"
        assert by_name["inner"].status == "error"
        # The abandoned spans were closed on the caller's behalf: a later
        # explicit close must not emit a second event.
        middle.close()
        inner.close()
        assert len(sink.events) == 3

    def test_wall_time_from_the_injected_clock(self):
        tracer, sink = tracer_and_sink()
        with tracer.span("timed"):
            pass
        # FakeClock ticks once at open and once at close.
        assert sink.events[0].wall_s == 1.0
        assert sink.events[0].t0_s == 1.0

    def test_start_is_detached_from_the_parent_stack(self):
        tracer, sink = tracer_and_sink()
        with tracer.span("parent") as parent:
            detached = tracer.start("in-flight")
            with tracer.span("child"):
                pass
            detached.close()
        child = next(e for e in sink.events if e.name == "child")
        in_flight = next(e for e in sink.events if e.name == "in-flight")
        # start() records the parent at creation but does not become the
        # ambient parent of later spans.
        assert in_flight.parent_id == parent.span_id
        assert child.parent_id == parent.span_id


class TestLostSpans:
    def test_lost_emits_a_backdated_lost_event(self):
        tracer, sink = tracer_and_sink()
        event = tracer.lost("worker.eval", wall_s=3.5, genome="g1", fault="hang")
        assert event is sink.events[0]
        assert event.status == "lost"
        assert event.name == "worker.eval"
        assert event.attrs == {"genome": "g1", "fault": "hang"}
        assert event.t0_s == pytest.approx(1.0 - 3.5)
        assert event.wall_s == 3.5

    def test_lost_nests_under_the_open_span(self):
        tracer, sink = tracer_and_sink()
        with tracer.span("engine.evaluate_batch") as batch:
            tracer.lost("worker.eval")
        lost = sink.events[0]
        assert lost.parent_id == batch.span_id


class TestPropagation:
    def test_context_carries_trace_id_top_of_stack_and_issuer(self):
        tracer, _ = tracer_and_sink()
        pid = os.getpid()
        assert tracer.context() == TraceContext(tracer.trace_id, "", pid)
        with tracer.span("outer") as outer:
            assert tracer.context() == TraceContext(tracer.trace_id, outer.span_id, pid)

    def test_a_detached_span_names_itself_as_parent(self):
        tracer, _ = tracer_and_sink()
        shard = tracer.start("fleet.shard")
        assert shard.context() == TraceContext(tracer.trace_id, shard.span_id, os.getpid())
        assert NULL_SPAN.context() is None

    def test_context_is_picklable(self):
        import pickle

        context = TraceContext("t" * 16, "p" * 16)
        assert pickle.loads(pickle.dumps(context)) == context

    def test_adopted_tracer_nests_under_the_remote_parent(self):
        parent, parent_sink = tracer_and_sink()
        with parent.span("engine.evaluate_batch") as batch:
            context = parent.context()
        child_buffer = SpanBuffer()
        child = adopt(context, (child_buffer,), clock=FakeClock())
        with child.span("worker.eval"):
            with child.span("pipeline.measure"):
                pass
        for event in child_buffer.records:
            parent.emit(event)
        rows = [dataclasses.asdict(e) for e in parent_sink.events
                if isinstance(e, SpanEvent)]
        tree = build_tree(rows)
        assert tree.orphans == 0
        assert len(tree.roots) == 1
        worker = next(n for n in tree.walk() if n.name == "worker.eval")
        assert worker.parent_id == batch.span_id
        measure = next(n for n in tree.walk() if n.name == "pipeline.measure")
        assert measure in worker.children

    def test_span_buffer_caps_by_dropping_the_oldest(self):
        buffer = SpanBuffer(cap=3)
        tracer = Tracer([buffer], clock=FakeClock())
        names = [f"s{i}" for i in range(5)]
        for name in names:
            with tracer.span(name):
                pass
        assert [e.name for e in buffer.records] == names[2:]

    def test_span_buffer_ignores_non_span_events(self):
        from repro.core.telemetry import PlatformMetricsEvent

        buffer = SpanBuffer()
        buffer.on_event(PlatformMetricsEvent(counters={"pipeline.measurements": 1}))
        assert buffer.records == []


class TestAmbientTracer:
    def test_free_span_is_null_without_a_tracer(self):
        assert current_tracer() is None
        opened = span("anything", attr=1)
        assert opened is NULL_SPAN
        with opened:
            opened.set(more=2)
        opened.close("error")  # all no-ops

    def test_tracing_scope_installs_and_restores(self):
        tracer, sink = tracer_and_sink()
        with tracing(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
            with span("via-ambient"):
                pass
        assert current_tracer() is None
        assert sink.events[0].name == "via-ambient"

    def test_tracing_none_is_a_scoped_noop(self):
        with tracing(None):
            assert current_tracer() is None
            assert span("x") is NULL_SPAN

    def test_install_tracer_returns_previous(self):
        first, _ = tracer_and_sink()
        second, _ = tracer_and_sink()
        assert install_tracer(first) is None
        try:
            assert install_tracer(second) is first
            assert install_tracer(None) is second
        finally:
            install_tracer(None)


def _double(outcome_or_value):
    """Module-level task fn (picklable) used by the TracedTask tests."""
    return EvalOutcome(value=float(outcome_or_value) * 2, wall_s=0.0, attempts=1)


class TestTracedTask:
    def test_attaches_spans_to_dataclass_results(self):
        context = TraceContext("t" * 16, "p" * 16)
        task = TracedTask(_double, context)
        result = task(21)
        assert result.value == 42.0
        assert len(result.spans) == 1
        event = result.spans[0]
        assert event.name == "worker.eval"
        assert event.trace_id == context.trace_id
        assert event.parent_id == context.parent_id
        assert event.attrs["pid"] == os.getpid()

    def test_leaves_plain_results_alone(self):
        context = TraceContext("t" * 16)
        task = TracedTask(lambda x: x + 1, context, span_name="worker.misc")
        assert task(1) == 2

    def test_is_picklable(self):
        import pickle

        task = TracedTask(_double, TraceContext("t" * 16, "p" * 16))
        clone = pickle.loads(pickle.dumps(task))
        assert clone.context == task.context
        assert clone(1).value == 2.0

    def test_does_not_leak_the_ambient_tracer(self):
        task = TracedTask(_double, TraceContext("t" * 16))
        task(1)
        assert current_tracer() is None


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
NESTING = st.recursive(
    st.just([]),
    lambda children: st.lists(children, min_size=0, max_size=3),
    max_leaves=12,
)


def _run_nested(tracer, shape):
    for child in shape:
        with tracer.span("node"):
            _run_nested(tracer, child)


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(NESTING, min_size=0, max_size=3))
def test_any_nesting_builds_a_single_rooted_tree(shape):
    sink = Sink()
    tracer = Tracer([sink], clock=FakeClock())
    with tracer.span("root"):
        _run_nested(tracer, shape)
    rows = [dataclasses.asdict(e) for e in sink.events]
    tree = build_tree(rows)
    assert len(tree.nodes) == len(sink.events)
    assert tree.orphans == 0
    assert tree.lost == 0
    assert len(tree.roots) == 1
    assert tree.roots[0].name == "root"
    # Every span emitted exactly once, ids unique.
    assert len({e.span_id for e in sink.events}) == len(sink.events)


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(NESTING, min_size=0, max_size=3))
def test_self_times_partition_the_root_wall(shape):
    sink = Sink()
    tracer = Tracer([sink], clock=FakeClock())
    with tracer.span("root"):
        _run_nested(tracer, shape)
    tree = build_tree([dataclasses.asdict(e) for e in sink.events])
    root = tree.roots[0]
    for node in tree.walk():
        assert node.self_s >= 0.0
        assert sum(c.wall_s for c in node.children) <= node.wall_s
    # With a strictly increasing clock and LIFO closes, the children's
    # intervals tile the parent exactly once, so self-times partition
    # the root's wall time.
    assert sum(n.self_s for n in tree.walk()) == pytest.approx(root.wall_s)


@settings(max_examples=80, deadline=None)
@given(script=st.lists(st.integers(min_value=0, max_value=7), max_size=40))
def test_any_open_close_interleaving_is_coherent(script):
    sink = Sink()
    tracer = Tracer([sink], clock=FakeClock())
    opened = []
    live = []  # mirrors the tracer's parent stack
    with tracer.span("root"):
        for op in script:
            if op % 2 == 0 or not live:
                child = tracer.span(f"s{len(opened)}")
                opened.append(child)
                live.append(child)
            else:
                index = op % len(live)
                live[index].close()  # possibly out-of-order
                del live[index:]  # the tracer errored everything above it
        for straggler in reversed(live):
            straggler.close()
    events = sink.events
    # Exactly one event per opened span (plus the root), unique ids.
    assert len(events) == len(opened) + 1
    assert len({e.span_id for e in events}) == len(events)
    assert {e.status for e in events} <= {"ok", "error"}
    tree = build_tree([dataclasses.asdict(e) for e in events])
    assert tree.orphans == 0
    assert len(tree.roots) == 1
    for node in tree.walk():
        assert node.wall_s >= 0.0
