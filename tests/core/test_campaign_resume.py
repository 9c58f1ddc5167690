"""Crash/resume equivalence: the checkpoint layer's acceptance tests.

The contract under test: a campaign killed mid-generation — by an injected
in-process crash or a real SIGKILL — and resumed from its checkpoint
directory produces the *identical* best stressmark, droop, evaluation
count, and generation history as the same campaign run uninterrupted.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.audit import AuditConfig, AuditRunner
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.ga import GaConfig, GaSnapshot, GeneticAlgorithm
from repro.core.telemetry import SpanEvent
from repro.errors import CheckpointError, SearchError
from repro.experiments.setup import bulldozer_testbed
from repro.obs.spans import Tracer, tracing

CONFIG = AuditConfig(
    threads=2,
    ga=GaConfig(population_size=6, generations=3, seed=1),
)


def spans_named(events, name):
    return [e for e in events if isinstance(e, SpanEvent) and e.name == name]


class CrashAfter:
    """Observer that kills the run after the Nth scored generation."""

    class Boom(RuntimeError):
        pass

    def __init__(self, generations):
        self.generations = generations
        self.seen = 0

    def on_event(self, event):
        if isinstance(event, SpanEvent) and event.name == "ga.generation":
            self.seen += 1
            if self.seen >= self.generations:
                raise self.Boom(f"injected crash after generation "
                                f"{event.attrs['generation']}")


class RecordingObserver:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def run_uninterrupted(checkpoint=None):
    runner = AuditRunner(bulldozer_testbed(), config=CONFIG)
    return runner.run(checkpoint=checkpoint)


def run_traced(observer, **kwargs):
    """A campaign whose spans reach *observer* (generations are spans)."""
    runner = AuditRunner(bulldozer_testbed(), config=CONFIG)
    with tracing(Tracer([observer])):
        return runner.run(**kwargs)


class TestInjectedCrashResume:
    @pytest.mark.parametrize("crash_after", [1, 2])
    def test_resume_matches_uninterrupted(self, tmp_path, crash_after):
        control = run_uninterrupted()

        store = CampaignCheckpoint(tmp_path / "campaign")
        with pytest.raises(CrashAfter.Boom):
            run_traced(CrashAfter(crash_after), checkpoint=store)
        # The run died mid-campaign with at least one snapshot on disk.
        banked = store.load()
        assert banked is not None
        assert banked.ga.generation < CONFIG.ga.generations

        resumed = AuditRunner(bulldozer_testbed(), config=CONFIG).run(
            checkpoint=store, resume=True
        )

        assert resumed.genome == control.genome
        assert resumed.max_droop_v == control.max_droop_v
        assert resumed.ga_result.best_fitness == control.ga_result.best_fitness
        assert resumed.ga_result.history == control.ga_result.history
        assert resumed.ga_result.evaluations == control.ga_result.evaluations

    def test_checkpoint_every_generation_and_resume_continues_store(
        self, tmp_path
    ):
        store = CampaignCheckpoint(tmp_path)
        observer = RecordingObserver()
        run_traced(observer, checkpoint=store)
        checkpoints = spans_named(observer.events, "checkpoint.save")
        assert [e.attrs["generation"] for e in checkpoints] == [0, 1, 2]
        assert {e.attrs["path"] for e in checkpoints} == {str(store.state_path)}
        # Each snapshot lands at the top of its generation, before scoring.
        generations = spans_named(observer.events, "ga.generation")
        assert [e.attrs["generation"] for e in generations] == [0, 1, 2]
        for saved, scored in zip(checkpoints, generations):
            assert saved.t0_s + saved.wall_s <= scored.t0_s
        journal = [json.loads(line)
                   for line in store.journal_path.read_text().splitlines()]
        assert [line["generation"] for line in journal] == [0, 1, 2]

    def test_resume_serves_banked_generations_from_cache(self, tmp_path):
        """Re-scoring the crashed generation costs no extra evaluations."""
        store = CampaignCheckpoint(tmp_path)
        with pytest.raises(CrashAfter.Boom):
            run_traced(CrashAfter(2), checkpoint=store)
        control = run_uninterrupted()
        resumed = AuditRunner(bulldozer_testbed(), config=CONFIG).run(
            checkpoint=store, resume=True
        )
        assert resumed.ga_result.evaluations == control.ga_result.evaluations

    def test_resume_without_store_is_an_error(self):
        with pytest.raises(CheckpointError):
            AuditRunner(bulldozer_testbed(), config=CONFIG).run(resume=True)

    def test_resume_from_empty_directory_is_an_error(self, tmp_path):
        store = CampaignCheckpoint(tmp_path / "empty")
        with pytest.raises(CheckpointError):
            AuditRunner(bulldozer_testbed(), config=CONFIG).run(
                checkpoint=store, resume=True
            )

    def test_resume_rejects_population_size_mismatch(self, tmp_path):
        store = CampaignCheckpoint(tmp_path)
        with pytest.raises(CrashAfter.Boom):
            run_traced(CrashAfter(1), checkpoint=store)
        bigger = AuditConfig(
            threads=2, ga=GaConfig(population_size=8, generations=3, seed=1)
        )
        with pytest.raises(SearchError):
            AuditRunner(bulldozer_testbed(), config=bigger).run(
                checkpoint=store, resume=True
            )


class TestGaLevelResume:
    """The GA snapshot contract, isolated from the AUDIT plumbing."""

    @staticmethod
    def make_ga(fitness):
        return GeneticAlgorithm(
            random_fn=lambda rng: int(rng.integers(0, 1000)),
            mutate_fn=lambda g, rng, rate: int(
                g + rng.integers(-3, 4)) % 1000,
            crossover_fn=lambda a, b, rng: int((a + b) // 2),
            fitness_fn=fitness,
            config=GaConfig(population_size=8, generations=10, seed=4,
                            stagnation_patience=50),
        )

    @staticmethod
    def trajectory(history):
        """History minus evaluations_so_far: restoring the evaluator's
        cache/counter is the caller's job (AuditRunner.restore_cache), not
        the GA's, so a bare-GA resume only promises the search trajectory."""
        return [(s.generation, s.best_fitness, s.mean_fitness)
                for s in history]

    def test_snapshot_resume_replays_remaining_generations(self):
        fitness = lambda g: -abs(g - 623) / 1000  # noqa: E731
        control = self.make_ga(fitness).run()

        snapshots = []
        self.make_ga(fitness).run(checkpoint_fn=snapshots.append)
        assert [s.generation for s in snapshots] == list(range(10))

        for snapshot in snapshots[::4]:
            resumed = self.make_ga(fitness).run(resume=snapshot)
            assert resumed.best_genome == control.best_genome
            assert resumed.best_fitness == control.best_fitness
            assert (self.trajectory(resumed.history)
                    == self.trajectory(control.history))

    def test_snapshot_round_trip_through_store(self, tmp_path):
        """A GaSnapshot survives the JSON store bit-exactly (int genomes)."""
        fitness = lambda g: float(g % 97)  # noqa: E731
        snapshots = []
        control = self.make_ga(fitness).run(checkpoint_fn=snapshots.append)
        store = CampaignCheckpoint(
            tmp_path, encode_genome=lambda g: g, decode_genome=lambda p: p
        )
        store.save(snapshots[5], fitness_cache={}, cache_hits=0)
        loaded = store.load().ga
        assert isinstance(loaded, GaSnapshot)
        resumed = self.make_ga(fitness).run(resume=loaded)
        assert resumed.best_genome == control.best_genome
        assert (self.trajectory(resumed.history)
                == self.trajectory(control.history))


# ----------------------------------------------------------------------
# The real thing: SIGKILL a live campaign process, then resume it
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSigkillResume:
    ARGS = ["--chip", "bulldozer", "--threads", "2", "--population", "6",
            "--seed", "1", "--generations", "8"]

    @staticmethod
    def cli(*extra):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.run(
            [sys.executable, "-m", "repro", "audit", *extra],
            capture_output=True, text=True, env=env, timeout=600,
        )

    @staticmethod
    def summary_lines(stdout):
        return [line for line in stdout.splitlines()
                if line.startswith(("GA evaluations:", "A-Res droop"))]

    def test_sigkilled_campaign_resumes_to_identical_stressmark(
        self, tmp_path
    ):
        control = self.cli(*self.ARGS)
        assert control.returncode == 0, control.stderr

        campaign = tmp_path / "campaign"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "audit", *self.ARGS,
             "--checkpoint-dir", str(campaign)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        state_path = campaign / "state.json"
        try:
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if state_path.exists():
                    try:
                        state = json.loads(state_path.read_text())
                    except json.JSONDecodeError:  # mid-replace; re-read
                        state = None
                    if state and state["generation"] >= 1:
                        break
                if victim.poll() is not None:
                    pytest.fail("campaign finished before it could be "
                                "SIGKILLed; raise --generations")
                time.sleep(0.01)
            else:
                pytest.fail("campaign never checkpointed generation 1")
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.wait(timeout=60)

        resumed = self.cli("--resume", str(campaign))
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming campaign from generation" in resumed.stdout
        assert (self.summary_lines(resumed.stdout)
                == self.summary_lines(control.stdout))
