"""Fleet supervision: hung/crashed shards, graceful stops, exit 75.

The fakes below stand in for :func:`run_shard` through the orchestrator's
``task_fn`` seam; they are module-level so the process pool can pickle
them by reference.
"""

import os
import time

import pytest

from repro.core.telemetry import SpanEvent
from repro.errors import (
    EXIT_INTERRUPTED,
    CampaignInterrupted,
    ConfigurationError,
)
from repro.fleet.matrix import ScenarioMatrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.shard import ShardResult, classify_failure
from repro.obs.spans import Tracer, tracing
from repro.supervision.executor import SupervisionExhaustedError


def two_seed_matrix():
    """Two scenarios on one platform chain (same chip/threads/mode)."""
    return ScenarioMatrix.from_cli(
        ["chip=bulldozer", "threads=2", "budget=4x2", "seed=1,2"]
    )


def two_chain_matrix():
    """Two scenarios on distinct chains (different thread counts)."""
    return ScenarioMatrix.from_cli(
        ["chip=bulldozer", "threads=2,4", "budget=4x2", "seed=1"]
    )


def _ok_result(spec):
    return ShardResult(
        scenario=spec.scenario.axes(),
        scenario_id=spec.scenario.scenario_id,
        status="ok",
        droop_v=0.05,
        best_fitness=1.0,
        evaluations=8,
        resonance_hz=1e8,
    )


def fake_ok(spec):
    return _ok_result(spec)


def fake_hang_on_seed2(spec):
    if spec.scenario.seed == 2:
        time.sleep(120)
    return _ok_result(spec)


def fake_abort_on_seed2(spec):
    if spec.scenario.seed == 2:
        os._exit(5)
    return _ok_result(spec)


def fake_abort_always(spec):
    os._exit(5)


def fake_interrupted_on_seed2(spec):
    if spec.scenario.seed == 2:
        return ShardResult(
            scenario=spec.scenario.axes(),
            scenario_id=spec.scenario.scenario_id,
            status="interrupted",
            exit_code=EXIT_INTERRUPTED,
            error=("CampaignInterrupted: campaign interrupted by "
                   "signal SIGTERM at generation 1"),
        )
    return _ok_result(spec)


def fake_sleep_on_4_threads(spec):
    if spec.scenario.threads == 4:
        time.sleep(120)
    return _ok_result(spec)


class Recorder:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)

    def spans(self, name):
        return [e for e in self.events
                if isinstance(e, SpanEvent) and e.name == name]

    def supervisor(self, action):
        return self.spans(f"supervisor.{action}")

    def shard_statuses(self):
        return [(e.attrs["scenario"], e.attrs["status"])
                for e in self.spans("fleet.shard")]


def traced_run(orchestrator, *sinks):
    with tracing(Tracer(sinks)):
        return orchestrator.run()


class TestClassification:
    def test_campaign_interrupted_maps_to_exit_75(self):
        assert classify_failure(CampaignInterrupted("signal SIGTERM")) == 75
        assert classify_failure(
            CampaignInterrupted("wall-clock budget (3600s)")
        ) == EXIT_INTERRUPTED

    def test_supervision_knob_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FleetOrchestrator(two_seed_matrix(), tmp_path,
                              shard_timeout_s=0)
        with pytest.raises(ConfigurationError):
            FleetOrchestrator(two_seed_matrix(), tmp_path,
                              shard_retries=-1)


class TestHungShard:
    # One worker included: a deadline needs a killable process, so a
    # --workers 1 fleet with a shard timeout runs on a one-worker pool.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_hung_shard_killed_and_failed_without_poisoning_chain(
        self, tmp_path, workers
    ):
        recorder = Recorder()
        orchestrator = FleetOrchestrator(
            two_seed_matrix(),
            tmp_path / "fleet",
            workers=workers,
            shard_timeout_s=1.0,
            shard_retries=0,
            task_fn=fake_hang_on_seed2,
        )
        report = traced_run(orchestrator, recorder)
        assert len(report.ok_shards) == 1
        assert len(report.failed_shards) == 1
        failed = report.failed_shards[0]
        assert "WorkerHangError" in failed.error
        assert recorder.supervisor("hang-kill")
        assert recorder.supervisor("respawn")

    def test_hung_shard_is_retried_before_giving_up(self, tmp_path):
        recorder = Recorder()
        orchestrator = FleetOrchestrator(
            two_seed_matrix(),
            tmp_path / "fleet",
            workers=2,
            shard_timeout_s=1.0,
            shard_retries=1,
            task_fn=fake_hang_on_seed2,
        )
        report = traced_run(orchestrator, recorder)
        assert len(report.failed_shards) == 1
        # Two strikes: the first hang requeues, the second gives up.
        assert len(recorder.supervisor("hang-kill")) == 2


class TestCrashedShard:
    def test_crashed_shard_failed_and_sibling_completes(self, tmp_path):
        recorder = Recorder()
        orchestrator = FleetOrchestrator(
            two_seed_matrix(),
            tmp_path / "fleet",
            workers=2,
            shard_retries=0,
            task_fn=fake_abort_on_seed2,
        )
        report = traced_run(orchestrator, recorder)
        assert len(report.ok_shards) == 1
        assert len(report.failed_shards) == 1
        assert "WorkerCrashError" in report.failed_shards[0].error
        assert recorder.supervisor("crash")

    def test_rebuild_budget_exhaustion_raises(self, tmp_path):
        orchestrator = FleetOrchestrator(
            two_seed_matrix(),
            tmp_path / "fleet",
            workers=2,
            max_pool_rebuilds=0,
            task_fn=fake_abort_always,
        )
        with pytest.raises(SupervisionExhaustedError):
            orchestrator.run()


class TestGracefulStop:
    def test_serial_stop_check_interrupts_before_work(self, tmp_path):
        orchestrator = FleetOrchestrator(
            two_seed_matrix(),
            tmp_path / "fleet",
            workers=1,
            stop_check=lambda: "wall-clock budget (0s)",
            task_fn=fake_ok,
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            orchestrator.run()
        assert excinfo.value.checkpoint_path == str(tmp_path / "fleet")
        # The report over whatever finished was still written.
        assert (tmp_path / "fleet" / "report.json").exists()

    def test_serial_signal_interrupted_shard_stops_the_fleet(self, tmp_path):
        recorder = Recorder()
        orchestrator = FleetOrchestrator(
            two_seed_matrix(),
            tmp_path / "fleet",
            workers=1,
            task_fn=fake_interrupted_on_seed2,
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            traced_run(orchestrator, recorder)
        assert "signal stop propagated" in excinfo.value.reason
        assert (tmp_path / "fleet" / "report.json").exists()
        statuses = dict(recorder.shard_statuses())
        assert "interrupted" in statuses.values()

    def test_pool_drain_tolerates_killed_workers(self, tmp_path):
        """A stop during a long shard TERMs the workers; the sleeping
        fake dies, and the drain treats it as interrupted-and-resumable
        rather than crashing the fleet."""
        recorder = Recorder()
        finished = []

        def stop_after_first():
            return "test budget" if finished else None

        class CountOk:
            def on_event(self, event):
                if (isinstance(event, SpanEvent) and event.name == "fleet.shard"
                        and event.attrs["status"] == "ok"):
                    finished.append(event.attrs["scenario"])

        orchestrator = FleetOrchestrator(
            two_chain_matrix(),
            tmp_path / "fleet",
            workers=2,
            stop_check=stop_after_first,
            task_fn=fake_sleep_on_4_threads,
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            traced_run(orchestrator, recorder, CountOk())
        assert "test budget" in excinfo.value.reason
        assert (tmp_path / "fleet" / "report.json").exists()
        statuses = recorder.shard_statuses()
        assert recorder.supervisor("shutdown")
        assert any(status == "interrupted" for _, status in statuses)
