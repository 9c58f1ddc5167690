"""JsonlObserver buffering and the SIGTERM-drain flush regression.

A buffered JSONL observer must never lose events to its in-memory
buffer when a graceful shutdown begins: the :class:`ShutdownCoordinator`
flushes every flushable sink of the installed tracer the moment it
announces a drain, and again when it uninstalls — so a ``--max-wall-clock`` stop (or SIGTERM)
leaves a complete trace on disk even if the process dies before the
CLI's ``finally`` runs.
"""

import json

import pytest

from repro.core.telemetry import JsonlObserver, SpanEvent
from repro.obs.spans import Tracer, tracing
from repro.supervision.shutdown import ShutdownCoordinator


def _event(i):
    return SpanEvent(name="fault.retry", trace_id="t", span_id=f"s{i}", parent_id="",
                     t0_s=0.0, wall_s=0.0,
                     attrs={"genome": f"g{i}", "error": "boom", "attempt": i + 1,
                            "timeout": False})


def _events(n):
    return [_event(i) for i in range(n)]


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestBuffering:
    def test_default_is_unbuffered(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        observer = JsonlObserver(path)
        observer.on_event(_events(1)[0])
        assert len(_lines(path)) == 1

    def test_buffered_events_stay_in_memory_until_the_threshold(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        observer = JsonlObserver(path, flush_every=4)
        for event in _events(3):
            observer.on_event(event)
        assert path.read_text() == ""
        observer.on_event(_event(3))
        assert len(_lines(path)) == 4

    def test_flush_drains_a_partial_buffer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        observer = JsonlObserver(path, flush_every=64)
        for event in _events(5):
            observer.on_event(event)
        observer.flush()
        assert len(_lines(path)) == 5
        observer.flush()  # idempotent on an empty buffer
        assert len(_lines(path)) == 5

    def test_close_flushes_and_context_manager_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlObserver(path, flush_every=64) as observer:
            for event in _events(3):
                observer.on_event(event)
        assert len(_lines(path)) == 3

    def test_flush_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlObserver(tmp_path / "trace.jsonl", flush_every=0)

    def test_wrapped_stream_is_not_closed(self):
        import io

        stream = io.StringIO()
        observer = JsonlObserver(stream, flush_every=8)
        observer.on_event(_events(1)[0])
        observer.close()
        assert not stream.closed
        assert json.loads(stream.getvalue())["name"] == "fault.retry"


class TestShutdownDrainFlush:
    def test_drain_announce_flushes_buffered_observers(self, tmp_path):
        # Regression: a SIGTERM landing mid-generation used to leave the
        # last generation's events in the JSONL buffer; the coordinator
        # now flushes on the first drain announcement.
        path = tmp_path / "trace.jsonl"
        observer = JsonlObserver(path, flush_every=64)
        coordinator = ShutdownCoordinator()
        for event in _events(7):
            observer.on_event(event)
        assert path.read_text() == ""  # still buffered
        coordinator.request("signal SIGTERM")
        with tracing(Tracer([observer])):
            assert coordinator.stop_requested() == "signal SIGTERM"
        rows = _lines(path)
        # The 7 buffered events plus the supervisor.shutdown span itself.
        assert len(rows) == 8
        assert rows[-1]["name"] == "supervisor.shutdown"
        assert rows[-1]["attrs"]["detail"] == "signal SIGTERM"

    def test_coordinator_exit_flushes_late_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        observer = JsonlObserver(path, flush_every=64)
        with tracing(Tracer([observer])), ShutdownCoordinator():
            for event in _events(3):
                observer.on_event(event)
        assert len(_lines(path)) == 3

    def test_wall_clock_budget_drain_also_flushes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        observer = JsonlObserver(path, flush_every=64)
        coordinator = ShutdownCoordinator(max_wall_clock_s=0.0)
        observer.on_event(_events(1)[0])
        with tracing(Tracer([observer])):
            reason = coordinator.stop_requested()
        assert reason is not None and "wall-clock" in reason
        assert any(row["name"] == "fault.retry" for row in _lines(path))

    def test_observers_without_flush_are_tolerated(self):
        class Plain:
            def on_event(self, event):
                pass

        with tracing(Tracer([Plain()])):
            ShutdownCoordinator().flush_sinks()  # must not raise
        ShutdownCoordinator().flush_sinks()  # nor with no tracer installed
