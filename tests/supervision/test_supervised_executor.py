"""SupervisedExecutor: hard deadlines, crash recovery, rebuild budgets."""

import os
import time

import pytest

from repro.core.telemetry import TelemetryCollector
from repro.errors import ConfigurationError
from repro.supervision.executor import (
    SupervisedExecutor,
    SupervisionExhaustedError,
    SupervisorFault,
)


# Module-level so the process pool can pickle it.  Each item is a
# (kind, payload) pair dispatched to the matching behaviour.
def dispatch(item):
    kind, payload = item
    if kind == "ok":
        return payload * 2
    if kind == "sleep":
        time.sleep(payload)
        return payload
    if kind == "abort":
        os._exit(86)
    if kind == "raise":
        raise ValueError(f"boom {payload}")
    raise AssertionError(f"unknown kind {kind!r}")


def executor(**kwargs):
    kwargs.setdefault("poll_s", 0.05)
    return SupervisedExecutor(2, **kwargs)


class TestOrdinaryOperation:
    def test_map_preserves_order(self):
        pool = executor()
        try:
            items = [("ok", i) for i in range(7)]
            assert pool.map(dispatch, items) == [i * 2 for i in range(7)]
        finally:
            pool.close()

    def test_empty_map(self):
        pool = executor()
        try:
            assert pool.map(dispatch, []) == []
        finally:
            pool.close()

    def test_task_exception_propagates_unwrapped(self):
        pool = executor()
        with pytest.raises(ValueError, match="boom"):
            pool.map(dispatch, [("ok", 1), ("raise", 1)])

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisedExecutor(0)
        with pytest.raises(ConfigurationError):
            SupervisedExecutor(2, task_timeout_s=0)
        with pytest.raises(ConfigurationError):
            SupervisedExecutor(2, max_pool_rebuilds=-1)


class TestHangSupervision:
    def test_hung_task_killed_and_sentineled(self):
        collector = TelemetryCollector()
        pool = executor(task_timeout_s=0.5, observers=[collector])
        try:
            results = pool.map(
                dispatch, [("ok", 1), ("sleep", 60.0), ("ok", 3)]
            )
        finally:
            pool.close()
        assert results[0] == 2
        assert results[2] == 6
        fault = results[1]
        assert isinstance(fault, SupervisorFault)
        assert fault.kind == "hang"
        assert "hung" in fault.error
        assert collector.metrics.counter("supervisor.hang-kill") >= 1
        assert collector.metrics.counter("supervisor.respawn") >= 1

    def test_innocents_survive_the_pool_kill(self):
        """Tasks killed alongside a hang are requeued, not lost."""
        pool = executor(task_timeout_s=0.5)
        try:
            items = [("sleep", 60.0)] + [("ok", i) for i in range(6)]
            results = pool.map(dispatch, items)
        finally:
            pool.close()
        assert isinstance(results[0], SupervisorFault)
        assert results[1:] == [i * 2 for i in range(6)]

    def test_task_error_does_not_wait_for_a_hung_sibling(self):
        """A task exception tears the pool down by killing its workers;
        waiting for them would block on the hung one forever."""
        pool = executor(task_timeout_s=1.0)
        start = time.monotonic()
        with pytest.raises(ValueError, match="boom"):
            pool.map(dispatch, [("sleep", 60.0), ("raise", 0)])
        assert time.monotonic() - start < 1.0 + 2.0
        assert pool._pool is None


class TestCrashSupervision:
    def test_crasher_isolated_and_sentineled(self):
        collector = TelemetryCollector()
        pool = executor(observers=[collector], crash_retries=1)
        try:
            results = pool.map(
                dispatch, [("ok", 1), ("abort", 0), ("ok", 3), ("ok", 4)]
            )
        finally:
            pool.close()
        fault = results[1]
        assert isinstance(fault, SupervisorFault)
        assert fault.kind == "crash"
        # A deterministic crasher gets 1 + crash_retries executions.
        assert fault.attempts == 2
        assert [results[0], results[2], results[3]] == [2, 6, 8]
        assert collector.metrics.counter("supervisor.crash") >= 1

    def test_rebuild_budget_exhaustion_raises(self):
        pool = executor(max_pool_rebuilds=0)
        with pytest.raises(SupervisionExhaustedError):
            pool.map(dispatch, [("abort", 0), ("ok", 1)])
