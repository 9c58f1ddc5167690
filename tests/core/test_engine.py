"""Tests for the evaluation engine, executors, backends, and telemetry."""

import io
import json
import time

import numpy as np
import pytest

from repro.core.engine import (
    EvaluationEngine,
    SerialExecutor,
    StressmarkFitness,
    make_executor,
)
from repro.core.genome import GenomeSpace
from repro.core.platform import Measurement, MeasurementPlatform
from repro.core.telemetry import (
    ConsoleObserver,
    JsonlObserver,
    SpanEvent,
    TelemetryCollector,
)
from repro.errors import ConfigurationError
from repro.isa.opcodes import default_table
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer, tracing
from repro.pdn.elements import bulldozer_pdn
from repro.pdn.transient import VoltageTrace
from repro.power.trace import CurrentTrace
from repro.supervision.executor import SupervisedExecutor
from repro.uarch.config import bulldozer_chip

TABLE = default_table()


def small_space(slots=4):
    return GenomeSpace(table=TABLE, slots=slots, replications=1,
                       lp_nops_min=0, lp_nops_max=16)


# Module-level so the process-pool executor can pickle them.
def counting_fitness(genome):
    return genome.subblock.count("mulpd") + 0.001 * genome.lp_nops


def sleepy_fitness(genome):
    time.sleep(0.05)
    return counting_fitness(genome)


def exploding_fitness(genome):
    raise ValueError("boom in worker")


def tiny_platform():
    chip = bulldozer_chip()
    return MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))


class RecordingObserver:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


# ----------------------------------------------------------------------
# Engine basics
# ----------------------------------------------------------------------
class TestEvaluationEngine:
    def genomes(self, n, seed=0):
        space = small_space()
        rng = np.random.default_rng(seed)
        return [space.random_genome(rng) for _ in range(n)]

    def test_evaluate_many_matches_direct_calls(self):
        engine = EvaluationEngine(counting_fitness)
        genomes = self.genomes(6)
        assert engine.evaluate_many(genomes) == [
            counting_fitness(g) for g in genomes
        ]

    def test_results_in_request_order_with_duplicates(self):
        engine = EvaluationEngine(counting_fitness)
        a, b = self.genomes(2)
        values = engine.evaluate_many([b, a, b, b])
        assert values == [counting_fitness(b), counting_fitness(a),
                          counting_fitness(b), counting_fitness(b)]
        assert engine.evaluations == 2
        assert engine.cache_hits == 2

    def test_cache_serves_repeat_batches(self):
        calls = []

        def spy(genome):
            calls.append(genome)
            return 1.0

        engine = EvaluationEngine(spy)
        genomes = self.genomes(4)
        engine.evaluate_many(genomes)
        engine.evaluate_many(genomes)
        assert len(calls) == 4
        assert engine.evaluations == 4
        assert engine.cache_hits == 4

    def test_each_call_is_one_evaluate_batch_span(self):
        observer = RecordingObserver()
        engine = EvaluationEngine(counting_fitness)
        genomes = self.genomes(3)
        with tracing(Tracer([observer])):
            engine.evaluate_many(genomes + genomes[:1])
            engine.evaluate(genomes[0])
            engine.evaluate_many([])
        batches = [e for e in observer.events if e.name == "engine.evaluate_batch"]
        assert [(e.attrs["size"], e.attrs["hits"]) for e in batches] == [(3, 1), (0, 1)]
        assert batches[0].attrs["eval_wall_s"] > 0
        assert batches[1].attrs["eval_wall_s"] == 0.0
        assert all(e.attrs["backend"] == "serial" for e in batches)
        collector = TelemetryCollector()
        for event in observer.events:
            collector.on_event(event)
        assert collector.metrics.counter("engine.evaluations") == engine.evaluations == 3
        assert collector.metrics.counter("engine.cache_hits") == engine.cache_hits == 2

    def test_parallel_requires_platform_factory(self):
        space = small_space()
        platform = tiny_platform()
        with pytest.raises(ConfigurationError):
            EvaluationEngine.for_stressmarks(
                platform, space, threads=4, executor=SupervisedExecutor(2)
            )

    def test_make_executor(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        pool = make_executor(3)
        # Parallel evaluation is supervised: crashes respawn the pool,
        # and an optional hard deadline kills hung workers.
        assert isinstance(pool, SupervisedExecutor)
        assert pool.workers == 3
        assert pool.task_timeout_s is None
        pool.close()
        deadlined = make_executor(2, hard_timeout_s=30.0, max_pool_rebuilds=7)
        assert deadlined.task_timeout_s == 30.0
        assert deadlined.max_pool_rebuilds == 7
        deadlined.close()

    def test_hard_timeout_always_runs_supervised(self):
        """A deadline can only be enforced on a process that can be
        killed, so it selects the supervised pool even with one worker."""
        for workers in (None, 1):
            pool = make_executor(workers, hard_timeout_s=30.0)
            assert isinstance(pool, SupervisedExecutor)
            assert pool.workers == 1
            assert pool.task_timeout_s == 30.0
            pool.close()

    def test_one_worker_deadline_still_needs_platform_factory(self):
        pool = make_executor(None, hard_timeout_s=30.0)
        with pytest.raises(ConfigurationError):
            EvaluationEngine.for_stressmarks(
                tiny_platform(), small_space(), threads=4, executor=pool
            )

    def test_one_worker_deadline_evaluates_out_of_process(self):
        genomes = self.genomes(3)
        with make_executor(1, hard_timeout_s=30.0) as pool:
            values = EvaluationEngine(counting_fitness, executor=pool).evaluate_many(genomes)
        assert values == [counting_fitness(g) for g in genomes]


class TestParallelExecutor:
    """The process pool behind ``--workers``: the supervised executor."""

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            SupervisedExecutor(0)

    def test_parallel_and_serial_agree(self):
        space = small_space()
        rng = np.random.default_rng(7)
        genomes = [space.random_genome(rng) for _ in range(8)]
        serial = EvaluationEngine(counting_fitness).evaluate_many(genomes)
        with SupervisedExecutor(2) as pool:
            parallel = EvaluationEngine(
                counting_fitness, executor=pool
            ).evaluate_many(genomes)
        assert parallel == serial

    def test_pool_overlaps_a_generation(self):
        """A 24-genome generation must beat serial on >= 2 workers."""
        space = small_space(slots=6)
        rng = np.random.default_rng(3)
        genomes = [space.random_genome(rng) for _ in range(24)]

        serial_engine = EvaluationEngine(sleepy_fitness)
        start = time.perf_counter()
        serial_values = serial_engine.evaluate_many(genomes)
        serial_wall = time.perf_counter() - start

        with SupervisedExecutor(4) as pool:
            pool.map(counting_fitness, genomes[:1])  # warm the pool up front
            parallel_engine = EvaluationEngine(sleepy_fitness, executor=pool)
            start = time.perf_counter()
            parallel_values = parallel_engine.evaluate_many(genomes)
            parallel_wall = time.perf_counter() - start

        assert parallel_values == serial_values
        assert parallel_wall < serial_wall

    def test_failed_map_releases_the_pool(self):
        """A worker exception must not leak the process pool.

        The executor is reused across GA generations, so an evaluation
        error used to strand live worker processes until interpreter exit;
        now the pool is torn down on the way out and rebuilt lazily if the
        caller survives the exception.
        """
        space = small_space()
        rng = np.random.default_rng(5)
        genomes = [space.random_genome(rng) for _ in range(4)]
        pool = SupervisedExecutor(2)
        try:
            with pytest.raises(ValueError):
                pool.map(exploding_fitness, genomes)
            assert pool._pool is None  # shut down, not leaked
            # And the executor recovers for the next batch.
            assert pool.map(counting_fitness, genomes) == [
                counting_fitness(g) for g in genomes
            ]
        finally:
            pool.close()


# ----------------------------------------------------------------------
# The stressmark pipeline fitness
# ----------------------------------------------------------------------
class TestStressmarkFitness:
    def test_needs_platform_or_factory(self):
        with pytest.raises(ConfigurationError):
            StressmarkFitness(small_space(), 4)

    def test_pipeline_produces_droop_fitness(self):
        platform = tiny_platform()
        space = small_space()
        fitness = StressmarkFitness(space, threads=4, platform=platform)
        genome = space.random_genome(np.random.default_rng(0))
        value = fitness(genome)
        assert value > 0
        assert platform.metrics.counter("pipeline.measurements") == 1

    def test_pickled_copy_rebuilds_from_factory(self):
        import pickle

        space = small_space()
        fitness = StressmarkFitness(
            space, threads=4,
            platform=tiny_platform(), platform_factory=tiny_platform,
        )
        clone = pickle.loads(pickle.dumps(fitness))
        assert clone._platform is None
        genome = space.random_genome(np.random.default_rng(0))
        assert clone(genome) == pytest.approx(fitness(genome))


class TestWorkerStatsMerge:
    """`--workers N` used to lose every per-worker measurement counter;
    each worker now ships its platform registry back with every outcome
    and the engine merges it into the parent platform's `metrics`."""

    def test_parallel_run_merges_worker_counters(self):
        space = small_space()
        platform = tiny_platform()
        rng = np.random.default_rng(9)
        genomes = [space.random_genome(rng) for _ in range(4)]
        with SupervisedExecutor(2) as pool:
            engine = EvaluationEngine.for_stressmarks(
                platform, space, threads=4, executor=pool,
                platform_factory=tiny_platform,
            )
            engine.evaluate_many(genomes)
        count = platform.metrics.counter
        assert count("pipeline.measurements") == len(genomes)
        assert count("uarch.module_runs") > 0
        assert count("uarch.sim_s") > 0
        assert count("pipeline.pdn_solve_s") > 0

    def test_serial_run_does_not_double_count(self):
        # Serial fitness counts into the live platform directly — merging
        # anything back again would double every counter.
        space = small_space()
        platform = tiny_platform()
        rng = np.random.default_rng(9)
        genomes = [space.random_genome(rng) for _ in range(3)]
        engine = EvaluationEngine.for_stressmarks(platform, space, threads=4)
        engine.evaluate_many(genomes)
        assert platform.metrics.counter("pipeline.measurements") == len(genomes)


# ----------------------------------------------------------------------
# MeasurementBackend seam: a fake backend, no simulator underneath
# ----------------------------------------------------------------------
class FakeBackend:
    """A 'real silicon' stand-in: canned voltage traces, no simulator."""

    def __init__(self):
        self.chip = bulldozer_chip()
        self.programs = []

    def _measurement(self, supply):
        n = 64
        samples = np.full(n, supply)
        samples[n // 2] = supply - 0.042
        dt = self.chip.cycle_time_s
        return Measurement(
            voltage=VoltageTrace(samples, dt, vdd_nominal=supply),
            sensitivity=np.ones(n),
            current=CurrentTrace(np.full(n, 25.0), dt),
            period_cycles=n,
            supply_v=supply,
            iteration_cycles=float(n),
        )

    def measure_programs(self, requests):
        measurements = []
        for request in requests:
            self.programs.append((request.program, request.threads))
            supply = self.chip.vdd if request.supply_v is None else request.supply_v
            measurements.append(self._measurement(supply))
        return measurements

    def measure_current(self, current, *, sensitivity=None, supply_v=None,
                        baseline_current_a=None):
        return self._measurement(self.chip.vdd if supply_v is None else supply_v)


class TestMeasurementBackendSeam:
    def test_platform_accepts_foreign_backend(self):
        backend = FakeBackend()
        platform = MeasurementPlatform(backend=backend)
        space = small_space()
        genome = space.random_genome(np.random.default_rng(1))
        engine = EvaluationEngine.for_stressmarks(
            platform, space, threads=4
        )
        assert engine.evaluate(genome) == pytest.approx(0.042)
        assert len(backend.programs) == 1

    def test_audit_layer_never_touches_simulator_internals(self):
        """The full AUDIT loop runs on a backend with no simulator at all."""
        from repro.core.audit import AuditConfig, AuditRunner
        from repro.core.ga import GaConfig

        platform = MeasurementPlatform(backend=FakeBackend())
        runner = AuditRunner(
            platform,
            config=AuditConfig(
                threads=4,
                ga=GaConfig(population_size=4, generations=2, seed=0),
            ),
        )
        result = runner.run()
        assert result.max_droop_v == pytest.approx(0.042)

    def test_foreign_backend_has_no_pipeline(self):
        """No simulator underneath: no pipeline, and no simulator counters."""
        platform = MeasurementPlatform(backend=FakeBackend())
        space = small_space()
        genome = space.random_genome(np.random.default_rng(1))
        EvaluationEngine.for_stressmarks(platform, space, threads=4).evaluate(genome)
        assert platform.pipeline is None
        assert platform.metrics.counters() == {}

    def test_backend_and_chip_pdn_are_mutually_exclusive(self):
        chip = bulldozer_chip()
        with pytest.raises(ConfigurationError):
            MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd),
                                backend=FakeBackend())
        with pytest.raises(ConfigurationError):
            MeasurementPlatform()


# ----------------------------------------------------------------------
# Platform caching + telemetry counters
# ----------------------------------------------------------------------
class TestPlatformTelemetry:
    def test_failure_sweep_reuses_module_traces(self):
        """A Table-I style supply sweep must not re-run the simulator."""
        from repro.core.resonance import probe_program

        platform = tiny_platform()
        program = probe_program(TABLE, hp_count=32, lp_nops=95)
        supplies = [1.2, 1.1875, 1.175, 1.1625, 1.15]
        for supply in supplies:
            platform.measure_program(program, 4, supply_v=supply)
        count = platform.metrics.counter
        assert count("pipeline.measurements") == len(supplies)
        # One module simulation total; the first measurement's other three
        # modules hit the module-trace cache, and every later supply point
        # reuses the whole activity profile without touching the simulator.
        assert count("uarch.module_runs") == 1
        assert count("uarch.module_cache_hits") == 3
        assert count("pipeline.profile_cache_hits") == len(supplies) - 1
        assert count("pipeline.path.periodic") == len(supplies)
        assert count("uarch.sim_s") > 0
        assert count("pipeline.pdn_solve_s") > 0

    def test_jitter_seed_changes_smt_measurement(self):
        from repro.core.resonance import probe_program

        chip = bulldozer_chip()
        program = probe_program(TABLE, hp_count=32, lp_nops=95)
        droops = []
        for seed in (0xD17D7, 1234):
            platform = MeasurementPlatform(
                chip, bulldozer_pdn(vdd=chip.vdd), jitter_seed=seed
            )
            droops.append(platform.measure_program(program, 8).max_droop_v)
        assert droops[0] != droops[1]

    def test_default_jitter_seed_reproduces(self):
        from repro.core.resonance import probe_program

        chip = bulldozer_chip()
        program = probe_program(TABLE, hp_count=32, lp_nops=95)
        a = MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))
        b = MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))
        assert (a.measure_program(program, 8).max_droop_v
                == b.measure_program(program, 8).max_droop_v)

    def test_thread_count_validated_at_the_platform(self):
        from repro.core.resonance import probe_program

        platform = tiny_platform()
        program = probe_program(TABLE, hp_count=4, lp_nops=4)
        with pytest.raises(ConfigurationError):
            platform.measure_program(program, 0)
        with pytest.raises(ConfigurationError):
            platform.measure_program(program, -3)
        limit = platform.chip.total_threads
        with pytest.raises(ConfigurationError):
            platform.measure_program(program, limit + 1)


# ----------------------------------------------------------------------
# Observer sinks
# ----------------------------------------------------------------------
def _span(name, wall_s, **attrs):
    return SpanEvent(name=name, trace_id="t", span_id=name, parent_id="",
                     t0_s=0.0, wall_s=wall_s, attrs=attrs)


class TestObserverSinks:
    def events(self):
        return [
            _span("engine.evaluate_batch", 0.1, backend="serial", size=1,
                  hits=1, eval_wall_s=0.1),
            _span("ga.generation", 1.5, generation=0, population=12,
                  best_fitness=0.07, mean_fitness=0.05, batch_new=12,
                  evaluations_so_far=12),
            _span("audit.resonance-sweep", 2.0, detail="16 probes"),
        ]

    def console(self, events):
        stream = io.StringIO()
        observer = ConsoleObserver(stream)
        for event in events:
            observer.on_event(event)
        return stream.getvalue().splitlines()

    def test_jsonl_observer_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlObserver(path) as sink:
            for event in self.events():
                sink.on_event(event)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["span", "span", "span"]
        assert lines[0]["attrs"]["size"] == 1
        assert lines[1]["attrs"]["population"] == 12
        assert lines[2]["name"] == "audit.resonance-sweep"

    def test_console_observer_writes_generations_and_phases(self):
        stream = io.StringIO()
        observer = ConsoleObserver(stream)
        for event in self.events():
            observer.on_event(event)
        out = stream.getvalue()
        assert "gen   0" in out
        assert "resonance-sweep" in out
        assert "eval" not in out  # evaluation batches do not narrate

    def test_console_renders_progress_lines_from_spans(self):
        lines = self.console([
            *self.events(),
            _span("checkpoint.save", 0.0092, generation=1,
                  path="ck/state.json"),
            _span("pipeline.activity", 0.0125, path="transient",
                  cache_hit=False,
                  fallback="not periodic within 8 iterations"),
            _span("pipeline.activity", 0.004, path="transient",
                  cache_hit=True, fallback="not periodic within 8 iterations"),
            _span("pipeline.pdn_solve", 0.002, path="periodic", batched=True,
                  rows=3),
            _span("audit.final-measurement", 0.11, detail="A-Res at 2T"),
        ])
        assert lines == [
            "[gen   0] best 0.07000  mean 0.05000  new 12/12  1.50s",
            "[phase] resonance-sweep (16 probes)  2.00s",
            "[checkpoint] gen   1 -> ck/state.json  9.2ms",
            "[stage/activity/transient] 12.5ms: "
            "not periodic within 8 iterations",
            "[stage/activity/transient] (cached) 4.0ms: "
            "not periodic within 8 iterations",
            "[stage/pdn/periodic] (batched) 2.0ms: 3 rows",
            "[phase] final-measurement (A-Res at 2T)  0.11s",
        ]

    def test_console_keeps_routine_and_unfinished_spans_quiet(self):
        quiet = [
            # routine stages, the campaign root, and spans whose body
            # raised before filling in their attributes
            _span("pipeline.activity", 0.01, path="periodic", cache_hit=False),
            _span("pipeline.pdn_solve", 0.001, path="periodic",
                  cache_hit=True),
            _span("audit.campaign", 5.0, mode="resonant"),
            _span("ga.generation", 1.0, generation=3, population=6),
            _span("checkpoint.save", 0.01, generation=3),
            _span("audit.ga-search", 1.0, generations=4),
            _span("qualify.axis", 0.2, axis="smt", samples=6),
            _span("qualify.stressmark", 0.5, stressmark="a-res", threads=2),
        ]
        assert self.console(quiet) == []

    def test_console_renders_qualification_from_spans(self):
        lines = self.console([
            _span("qualify.axis", 0.2, axis="supply", samples=6,
                  min_droop_v=0.0499, max_droop_v=0.0538, retention=0.9641),
            _span("qualify.stressmark", 0.0213, stressmark="a-res",
                  threads=2, verdict="PASS", robustness=0.9012, samples=27),
        ])
        assert lines == [
            "[qualify/supply] 6 samples  droop [49.90, 53.80] mV  retention 0.96",
            "[qualify] a-res: PASS (robustness 0.90)  0.02s",
        ]

    def test_collector_counts_qualification_spans(self):
        collector = TelemetryCollector()
        for event in (
            _span("qualify.axis", 0.2, axis="smt", samples=6,
                  min_droop_v=0.05, max_droop_v=0.05, retention=1.0),
            _span("qualify.axis", 0.1, axis="pdn", samples=9),  # raised
            _span("qualify.stressmark", 0.5, stressmark="a-res", threads=2,
                  verdict="FRAGILE", robustness=0.7, samples=27),
        ):
            collector.on_event(event)
        count = collector.metrics.counter
        assert count("qualify.axes") == 1
        assert count("qualify.verdict.FRAGILE") == 1
        assert count("qualify.wall_s") == pytest.approx(0.5)

    def test_collector_aggregates_and_renders(self):
        collector = TelemetryCollector()
        for event in self.events():
            collector.on_event(event)
        count = collector.metrics.counter
        assert count("engine.evaluations") == 1
        assert count("engine.cache_hits") == 1
        assert collector.cache_hit_rate == pytest.approx(0.5)
        assert count("span.count.ga.generation") == 1
        assert count("span.wall_s.audit.resonance-sweep") == pytest.approx(2.0)
        platform = MetricsRegistry()
        for name, value in (
            ("pipeline.measurements", 5), ("uarch.module_runs", 2),
            ("uarch.module_cache_hits", 8), ("uarch.sim_s", 1.0),
            ("pipeline.pdn_solve_s", 0.5), ("pipeline.path.periodic", 5),
        ):
            platform.inc(name, value)
        table = collector.summary_table(platform)
        assert "fitness cache hit rate" in table
        assert "module-trace hit rate" in table
        assert "80.0 %" in table
