"""Tests for the fault policy, guarded evaluation, and chaos injection."""

import numpy as np
import pytest

from repro.core.audit import AuditConfig, AuditRunner
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.engine import EvaluationEngine
from repro.core.faults import (
    FaultInjectingBackend,
    FaultInjectionConfig,
    FaultPolicy,
    FaultRecord,
    GuardedFitness,
    InjectedFaultError,
    RetryingMeasurements,
    fault_record_from,
)
from repro.core.ga import GaConfig
from repro.core.genome import GenomeSpace
from repro.core.platform import MeasurementPlatform
from repro.core.telemetry import SpanEvent, TelemetryCollector
from repro.errors import (
    CampaignInterrupted,
    ConfigurationError,
    InvariantViolation,
    MeasurementError,
    QuarantineExhaustedError,
)
from repro.experiments.setup import bulldozer_testbed
from repro.isa.opcodes import default_table
from repro.obs.spans import Tracer, tracing
from repro.pipeline.artifacts import MeasureRequest
from repro.supervision.shutdown import ShutdownCoordinator

TABLE = default_table()


def small_space(slots=4):
    return GenomeSpace(table=TABLE, slots=slots, replications=1,
                       lp_nops_min=0, lp_nops_max=16)


def genomes(n, seed=0):
    space = small_space()
    rng = np.random.default_rng(seed)
    return [space.random_genome(rng) for _ in range(n)]


class RecordingObserver:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)

    def faults(self):
        return [e for e in self.events
                if isinstance(e, SpanEvent) and e.name.startswith("fault.")]


class FlakyFitness:
    """Fails deterministically for the first *failures* calls per genome."""

    def __init__(self, failures=0, value=1.5, error=MeasurementError):
        self.failures = failures
        self.value = value
        self.error = error
        self.calls = {}

    def __call__(self, genome):
        count = self.calls.get(genome, 0)
        self.calls[genome] = count + 1
        if count < self.failures:
            raise self.error(f"flaky failure {count}")
        return self.value


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
class TestFaultPolicy:
    def test_defaults_are_sane(self):
        policy = FaultPolicy()
        assert policy.max_retries == 2
        assert policy.on_exhaust == "raise"

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_s": -0.1},
        {"backoff_factor": 0.5},
        {"on_exhaust": "explode"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPolicy(**kwargs)

    def test_exhausted_fitness(self):
        assert FaultPolicy(on_exhaust="skip").exhausted_fitness() == float("-inf")
        assert FaultPolicy(
            on_exhaust="penalize", penalty_fitness=-1.0
        ).exhausted_fitness() == -1.0


class TestFaultInjectionConfig:
    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            FaultInjectionConfig(exception_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultInjectionConfig(exception_rate=0.6, corrupt_rate=0.6)
        with pytest.raises(ConfigurationError):
            FaultInjectionConfig(hang_s=-1)


# ----------------------------------------------------------------------
# Guarded evaluation
# ----------------------------------------------------------------------
class TestGuardedFitness:
    def test_clean_call_is_one_attempt(self):
        guard = GuardedFitness(lambda g: 2.5, FaultPolicy(max_retries=3))
        outcome = guard("genome")
        assert outcome.value == 2.5
        assert outcome.attempts == 1
        assert outcome.faults == ()

    def test_retries_until_success(self):
        fitness = FlakyFitness(failures=2)
        guard = GuardedFitness(fitness, FaultPolicy(max_retries=3))
        outcome = guard("g")
        assert outcome.value == 1.5
        assert outcome.attempts == 3
        assert len(outcome.faults) == 2
        assert all(isinstance(f, FaultRecord) for f in outcome.faults)

    def test_exhaust_raise_wraps_with_original_as_cause(self):
        guard = GuardedFitness(
            FlakyFitness(failures=99), FaultPolicy(max_retries=1)
        )
        with pytest.raises(QuarantineExhaustedError) as excinfo:
            guard("g")
        assert isinstance(excinfo.value.__cause__, MeasurementError)
        assert "2 attempts" in str(excinfo.value)

    def test_exhaust_skip_returns_exhausted_outcome(self):
        guard = GuardedFitness(
            FlakyFitness(failures=99),
            FaultPolicy(max_retries=2, on_exhaust="skip"),
        )
        outcome = guard("g")
        assert outcome.exhausted
        assert outcome.value is None
        assert outcome.attempts == 3
        assert len(outcome.faults) == 3

    def test_non_finite_fitness_is_a_fault(self):
        values = iter([float("nan"), float("inf"), 0.5])
        guard = GuardedFitness(
            lambda g: next(values), FaultPolicy(max_retries=3)
        )
        outcome = guard("g")
        assert outcome.value == 0.5
        assert outcome.attempts == 3
        assert all("non-finite" in f.error for f in outcome.faults)

    def test_backoff_sleeps_between_attempts(self):
        import time as time_mod

        start = time_mod.perf_counter()
        guard = GuardedFitness(
            FlakyFitness(failures=2),
            FaultPolicy(max_retries=2, backoff_s=0.02, backoff_factor=2.0),
        )
        assert guard("g").value == 1.5
        # 0.02 + 0.04 of backoff at minimum.
        assert time_mod.perf_counter() - start >= 0.06


# ----------------------------------------------------------------------
# Engine integration: retry, quarantine, telemetry
# ----------------------------------------------------------------------
class TestEngineFaultHandling:
    def test_transient_faults_recover_and_count(self):
        observer = RecordingObserver()
        fitness = FlakyFitness(failures=1, value=3.0)
        engine = EvaluationEngine(
            fitness,
            fault_policy=FaultPolicy(max_retries=2),
        )
        batch = genomes(3)
        with tracing(Tracer([observer])):
            assert engine.evaluate_many(batch) == [3.0] * 3
        assert engine.retries == 3
        assert engine.quarantines == 0
        faults = observer.faults()
        assert len(faults) == 3
        assert all(e.name == "fault.retry" for e in faults)

    def test_exhausted_genome_is_quarantined_with_penalty(self):
        observer = RecordingObserver()
        engine = EvaluationEngine(
            FlakyFitness(failures=99),
            fault_policy=FaultPolicy(
                max_retries=1, on_exhaust="penalize", penalty_fitness=-0.5
            ),
        )
        genome = genomes(1)[0]
        with tracing(Tracer([observer])):
            assert engine.evaluate_many([genome]) == [-0.5]
        assert engine.quarantines == 1
        assert genome in engine.quarantined
        actions = [e.name for e in observer.faults()]
        assert actions == ["fault.retry", "fault.quarantine"]
        # Quarantined fitness is cached: no re-measurement next generation.
        assert engine.evaluate_many([genome]) == [-0.5]
        assert engine.cache_hits == 1

    def test_skip_policy_never_wins_selection(self):
        engine = EvaluationEngine(
            FlakyFitness(failures=99),
            fault_policy=FaultPolicy(max_retries=0, on_exhaust="skip"),
        )
        genome = genomes(1)[0]
        assert engine.evaluate_many([genome]) == [float("-inf")]

    def test_raise_policy_propagates(self):
        engine = EvaluationEngine(
            FlakyFitness(failures=99, error=InjectedFaultError),
            fault_policy=FaultPolicy(max_retries=1, on_exhaust="raise"),
        )
        with pytest.raises(QuarantineExhaustedError) as excinfo:
            engine.evaluate_many(genomes(2))
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)

    def test_no_policy_keeps_legacy_raise_behaviour(self):
        engine = EvaluationEngine(FlakyFitness(failures=99))
        with pytest.raises(MeasurementError):
            engine.evaluate_many(genomes(1))


# ----------------------------------------------------------------------
# The chaos wrapper
# ----------------------------------------------------------------------
class TestFaultInjectingBackend:
    def chaos_platform(self, config):
        inner = bulldozer_testbed().backend
        backend = FaultInjectingBackend(inner, config=config)
        return MeasurementPlatform(backend=backend), backend

    def probe(self):
        from repro.core.resonance import probe_program

        return probe_program(TABLE, hp_count=8, lp_nops=8)

    def test_same_seed_same_fault_schedule(self):
        def schedule(seed):
            inner = bulldozer_testbed().backend
            backend = FaultInjectingBackend(inner, config=FaultInjectionConfig(
                seed=seed, exception_rate=0.3))
            faults = []
            for _ in range(20):
                try:
                    backend.measure_programs([MeasureRequest(self.probe(), 2)])
                    faults.append(False)
                except InjectedFaultError:
                    faults.append(True)
            return faults

        assert schedule(3) == schedule(3)
        assert any(schedule(3))

    def test_batch_draws_one_fault_per_request_in_order(self):
        """A batch consumes the fault RNG exactly like N single calls."""
        config = FaultInjectionConfig(seed=5, corrupt_rate=0.5)
        requests = [MeasureRequest(self.probe(), 2) for _ in range(12)]
        single = FaultInjectingBackend(bulldozer_testbed().backend, config=config)
        one_by_one = [single.measure_programs([r])[0] for r in requests]
        batch = FaultInjectingBackend(bulldozer_testbed().backend, config=config)
        batched = batch.measure_programs(requests)
        corrupted = [bool(np.isnan(m.max_droop_v)) for m in batched]
        assert corrupted == [bool(np.isnan(m.max_droop_v)) for m in one_by_one]
        assert any(corrupted) and not all(corrupted)
        assert batch.counts == single.counts

    def test_exception_injection(self):
        platform, backend = self.chaos_platform(
            FaultInjectionConfig(seed=0, exception_rate=1.0))
        with pytest.raises(InjectedFaultError):
            platform.measure_program(self.probe(), 2)
        assert backend.counts.exceptions == 1

    def test_nan_corruption_trips_the_platform_guard(self):
        platform, backend = self.chaos_platform(
            FaultInjectionConfig(seed=0, corrupt_rate=1.0))
        with pytest.raises(InvariantViolation) as excinfo:
            platform.measure_program(self.probe(), 2)
        assert excinfo.value.guard == "voltage-finite"
        assert excinfo.value.layer == "platform"
        assert backend.counts.corruptions == 1

    def test_corruption_still_poisons_an_unguarded_backend(self):
        """The raw backend (no platform guard) returns the NaN trace."""
        inner = bulldozer_testbed().backend
        backend = FaultInjectingBackend(inner, config=FaultInjectionConfig(
            seed=0, corrupt_rate=1.0))
        (measurement,) = backend.measure_programs(
            [MeasureRequest(self.probe(), 2)])
        assert np.isnan(measurement.max_droop_v)

    @pytest.mark.parametrize("mode, guard", [
        ("nan", "voltage-finite"),
        ("inf", "voltage-finite"),
        ("truncate", "trace-length"),
    ])
    def test_each_corruption_shape_trips_its_guard(self, mode, guard):
        """NaN/Inf/truncated traces raise, never score a finite fitness."""
        platform, _backend = self.chaos_platform(FaultInjectionConfig(
            seed=0, corrupt_rate=1.0, corrupt_mode=mode))
        with pytest.raises(InvariantViolation) as excinfo:
            platform.measure_program(self.probe(), 2)
        assert excinfo.value.guard == guard

    def test_corrupt_mode_validated(self):
        with pytest.raises(ConfigurationError):
            FaultInjectionConfig(corrupt_mode="scramble")

    def test_fault_record_from_tags_invariants(self):
        record = fault_record_from(
            InvariantViolation("voltage-finite", "platform", "NaN sample"))
        assert record.invariant == "voltage-finite"
        assert record.layer == "platform"
        plain = fault_record_from(MeasurementError("boom"))
        assert plain.invariant == "" and plain.layer == ""

    def test_clean_calls_pass_through_bit_exact(self):
        platform, _backend = self.chaos_platform(
            FaultInjectionConfig(seed=0))  # all rates zero
        clean = bulldozer_testbed()
        program = self.probe()
        assert (platform.measure_program(program, 2).max_droop_v
                == clean.measure_program(program, 2).max_droop_v)

    def test_platform_simulator_internals_visible_through_wrapper(self):
        platform, _backend = self.chaos_platform(FaultInjectionConfig(seed=0))
        assert platform.pipeline.activity.chip_sim is not None
        assert platform.pipeline.pdn_stage.pdn is not None
        platform.measure_program(self.probe(), 2)
        assert platform.metrics.counter("pipeline.measurements") == 1


class TestRetryingMeasurements:
    def test_retries_injected_faults(self):
        inner = bulldozer_testbed().backend
        backend = FaultInjectingBackend(inner, config=FaultInjectionConfig(
            seed=12, exception_rate=0.4))
        platform = MeasurementPlatform(backend=backend)
        observer = RecordingObserver()
        guarded = RetryingMeasurements(platform, FaultPolicy(max_retries=8))
        from repro.core.resonance import probe_program

        program = probe_program(TABLE, hp_count=8, lp_nops=8)
        with tracing(Tracer([observer])):
            for _ in range(10):
                measurement = guarded.measure_program(program, 2)
                assert measurement.max_droop_v > 0
        assert backend.counts.exceptions > 0
        retries = observer.faults()
        assert len(retries) == backend.counts.exceptions

    def test_exhaustion_reraises(self):
        inner = bulldozer_testbed().backend
        backend = FaultInjectingBackend(inner, config=FaultInjectionConfig(
            seed=0, exception_rate=1.0))
        guarded = RetryingMeasurements(
            MeasurementPlatform(backend=backend), FaultPolicy(max_retries=1))
        from repro.core.resonance import probe_program

        with pytest.raises(QuarantineExhaustedError) as excinfo:
            guarded.measure_program(
                probe_program(TABLE, hp_count=8, lp_nops=8), 2
            )
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)


# ----------------------------------------------------------------------
# The acceptance chaos test: a full campaign under 20% faults
# ----------------------------------------------------------------------
class TestChaosCampaign:
    CONFIG = AuditConfig(
        threads=2,
        ga=GaConfig(population_size=6, generations=3, seed=1),
    )

    def test_campaign_survives_20pct_faults_with_unchanged_fitness(self):
        clean = AuditRunner(bulldozer_testbed(), config=self.CONFIG).run()

        chaos = FaultInjectingBackend(
            bulldozer_testbed().backend,
            config=FaultInjectionConfig(
                seed=7,
                exception_rate=0.10,
                hang_rate=0.05,
                hang_s=0.001,
                corrupt_rate=0.05,
            ),
        )
        collector = TelemetryCollector()
        runner = AuditRunner(
            MeasurementPlatform(backend=chaos),
            config=self.CONFIG,
            fault_policy=FaultPolicy(max_retries=6, on_exhaust="penalize"),
        )
        with tracing(Tracer([collector])):
            result = runner.run()

        # The campaign completed and retried its way back to the exact
        # fitness landscape of the clean run: non-faulted genomes (here,
        # every genome — all faults were transient under retry) score
        # bit-identically, so the winning stressmark is the same.
        assert chaos.counts.injected > 0
        assert result.genome == clean.genome
        assert result.max_droop_v == clean.max_droop_v
        assert result.ga_result.history == clean.ga_result.history

        # Retry counts are visible in telemetry and in the summary table.
        assert collector.metrics.counter("fault.retries") >= chaos.counts.injected
        summary = collector.summary_table()
        assert "fault retries" in summary
        assert "quarantined genomes" in summary

    def test_quarantine_surfaces_when_retries_cannot_win(self):
        """With zero retries, every faulted genome is quarantined.

        Runs the GA's evaluation path (engine over a chaos platform)
        directly — the resonance sweep's guarded measurements re-raise on
        exhaustion by design, so a zero-retry policy only makes sense for
        genome scoring.
        """
        chaos = FaultInjectingBackend(
            bulldozer_testbed().backend,
            config=FaultInjectionConfig(seed=3, exception_rate=0.2),
        )
        collector = TelemetryCollector()
        space = small_space()
        engine = EvaluationEngine.for_stressmarks(
            MeasurementPlatform(backend=chaos),
            space,
            threads=2,
            fault_policy=FaultPolicy(
                max_retries=0, on_exhaust="penalize", penalty_fitness=0.0
            ),
        )
        batch = genomes(20, seed=5)
        with tracing(Tracer([collector])):
            values = engine.evaluate_many(batch)
        assert len(values) == len(batch)
        assert chaos.counts.exceptions > 0
        assert engine.quarantines == chaos.counts.exceptions
        assert collector.metrics.counter("fault.quarantines") == engine.quarantines
        # Non-faulted genomes still score: penalized ones read exactly 0.0.
        assert sum(v > 0.0 for v in values) == len(batch) - engine.quarantines
        assert "quarantined genomes" in collector.summary_table()


# ----------------------------------------------------------------------
# One emission path: the installed tracer is the only wiring
# ----------------------------------------------------------------------
class TestTracerWiring:
    """Fault, invariant and shutdown events reach the tracer's sinks.

    The campaign is stopped at its first generation boundary by a
    requested shutdown and resumed from its checkpoint; a flaky engine
    then quarantines two genomes.  The expected counters are the ones
    the same run produced when every layer took an ``observers=`` list.
    """

    CONFIG = AuditConfig(threads=2, ga=GaConfig(population_size=6, generations=3, seed=1))
    POLICY = FaultPolicy(max_retries=6, on_exhaust="penalize")

    @staticmethod
    def chaos_platform():
        return MeasurementPlatform(backend=FaultInjectingBackend(
            bulldozer_testbed().backend,
            config=FaultInjectionConfig(seed=7, exception_rate=0.15, corrupt_rate=0.2),
        ))

    def campaign(self, directory):
        checkpoint = CampaignCheckpoint(directory)
        coordinator = ShutdownCoordinator(signals=())
        coordinator.request("operator stop")
        with pytest.raises(CampaignInterrupted), coordinator:
            AuditRunner(self.chaos_platform(), config=self.CONFIG,
                        fault_policy=self.POLICY).run(
                checkpoint=checkpoint, stop=coordinator.stop_requested)
        result = AuditRunner(self.chaos_platform(), config=self.CONFIG,
                             fault_policy=self.POLICY).run(
            checkpoint=checkpoint, resume=True)
        flaky = EvaluationEngine(
            FlakyFitness(failures=99),
            fault_policy=FaultPolicy(max_retries=1, on_exhaust="penalize"),
        )
        flaky.evaluate_many(genomes(2))
        return result.max_droop_v

    def test_events_reach_the_tracer_sinks_with_no_other_wiring(self, tmp_path):
        collector = TelemetryCollector()
        with tracing(Tracer([collector])):
            traced = self.campaign(tmp_path / "traced")
        metrics = collector.metrics
        assert metrics.family("fault") == {"quarantines": 2, "retries": 32}
        assert metrics.family("invariant") == {
            "guard.platform/voltage-finite": 21, "violations": 21,
        }
        assert metrics.family("supervisor") == {"shutdown.operator stop": 1}
        assert collector.shutdown_reason == "operator stop"
        # The same campaign with no tracer installed measures the same.
        assert self.campaign(tmp_path / "untraced") == traced
