"""Graceful shutdown: signals, wall-clock budgets, and CLI exit 75."""

import os
import signal

import pytest

from repro.cli._main import main
from repro.core.telemetry import TelemetryCollector
from repro.errors import EXIT_INTERRUPTED, ConfigurationError
from repro.supervision.shutdown import ShutdownCoordinator


class TestShutdownCoordinator:
    def test_no_triggers_means_no_stop(self):
        coordinator = ShutdownCoordinator()
        assert coordinator.stop_requested() is None

    def test_wall_clock_budget_trips_and_sticks(self):
        collector = TelemetryCollector()
        coordinator = ShutdownCoordinator(
            max_wall_clock_s=0.0, observers=[collector]
        )
        reason = coordinator.stop_requested()
        assert reason is not None
        assert "wall-clock" in reason
        # Sticky, and announced exactly once.
        assert coordinator.stop_requested() == reason
        assert collector.shutdown_reason == reason

    def test_programmatic_request(self):
        coordinator = ShutdownCoordinator()
        coordinator.request("maintenance window")
        assert coordinator.stop_requested() == "maintenance window"
        # First request wins.
        coordinator.request("second thoughts")
        assert coordinator.stop_requested() == "maintenance window"

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ShutdownCoordinator(max_wall_clock_s=-1.0)

    def test_sigterm_requests_graceful_stop(self):
        with ShutdownCoordinator() as coordinator:
            os.kill(os.getpid(), signal.SIGTERM)
            assert coordinator.stop_requested() == "signal SIGTERM"

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with ShutdownCoordinator():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before


class TestCliMaxWallClock:
    ARGS = ["audit", "--chip", "bulldozer", "--threads", "2",
            "--population", "4", "--generations", "2", "--seed", "1"]

    def test_budget_overrun_exits_75_and_is_resumable(self, tmp_path, capsys):
        store = str(tmp_path / "campaign")
        code = main(self.ARGS + ["--checkpoint-dir", store,
                                 "--max-wall-clock", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED == 75
        assert "interrupted" in captured.err
        # The generation-0 snapshot landed before the stop, so the very
        # same campaign resumes to completion.
        code = main(["audit", "--resume", store])
        assert code == 0
        assert "droop" in capsys.readouterr().out
