"""Telemetry merging under ``--workers N``: order-independent, lossless.

A seeded campaign must report the same deterministic counters whether it
ran serially or fanned out over worker processes — the per-worker deltas
(engine outcomes, platform counters, qualification axes) merge back into
totals that do not depend on completion order.  Wall-clock numbers and
per-worker cache splits legitimately differ; the *sums* may not.
"""

import pytest

from repro.core.audit import AuditConfig, AuditRunner, StressmarkMode
from repro.core.engine import make_executor
from repro.core.ga import GaConfig
from repro.core.telemetry import SupervisorEvent, TelemetryCollector
from repro.experiments.setup import bulldozer_testbed
from repro.obs.spans import Tracer, tracing

CONFIG = AuditConfig(
    threads=2,
    mode=StressmarkMode.RESONANT,
    ga=GaConfig(population_size=6, generations=2, seed=3),
)


def _run_campaign(workers: int):
    # Traced: generations (and phases, checkpoints, stages) report only
    # as spans, so an untraced collector would count 0 of them.
    collector = TelemetryCollector()
    platform = bulldozer_testbed()
    executor = make_executor(workers)
    runner = AuditRunner(
        platform,
        config=CONFIG,
        executor=executor,
        platform_factory=bulldozer_testbed if workers > 1 else None,
    )
    try:
        with tracing(Tracer([collector])):
            result = runner.run()
    finally:
        executor.close()
    return result, collector, platform


@pytest.mark.slow
class TestSerialVsParallelCampaign:
    @pytest.fixture(scope="class")
    def runs(self):
        serial = _run_campaign(workers=1)
        parallel = _run_campaign(workers=2)
        return serial, parallel

    def test_results_are_identical(self, runs):
        (serial_result, *_), (parallel_result, *_) = runs
        assert serial_result.max_droop_v == pytest.approx(
            parallel_result.max_droop_v)
        assert (serial_result.ga_result.best_fitness
                == pytest.approx(parallel_result.ga_result.best_fitness))

    def test_engine_counters_merge_order_independently(self, runs):
        (_, serial, _), (_, parallel, _) = runs
        for name in ("engine.evaluations", "engine.cache_hits",
                     "span.count.ga.generation", "fault.retries",
                     "fault.quarantines"):
            assert (serial.metrics.counter(name)
                    == parallel.metrics.counter(name)), name
        # Both runs really traced: 0 == 0 would pass the loop above.
        assert serial.metrics.counter("span.count.ga.generation") > 0

    def test_platform_stats_sums_are_deterministic(self, runs):
        (_, _, serial_platform), (_, _, parallel_platform) = runs
        serial = serial_platform.metrics.counter
        parallel = parallel_platform.metrics.counter
        # The same measurements ran, whatever process they landed in.
        assert serial("pipeline.measurements") == parallel("pipeline.measurements")
        for path in ("periodic", "jittered", "transient"):
            name = f"pipeline.path.{path}"
            assert serial(name) == parallel(name), name
        # Per-worker module caches are cold where the serial cache was
        # warm, so runs vs hits individually differ — but every
        # measurement either ran or hit, so the sum is invariant.
        assert (serial("uarch.module_runs") + serial("uarch.module_cache_hits")
                == parallel("uarch.module_runs")
                + parallel("uarch.module_cache_hits"))


@pytest.mark.slow
class TestQualifierUnderWorkers:
    def test_qualify_verdict_is_worker_count_invariant(self, capsys):
        from repro.cli import main

        QUALIFY = ["qualify", "a-res", "--threads", "2",
                   "--jitter-repeats", "1", "--supply-points", "1"]

        def summary(args):
            assert main(args) == 0
            out = capsys.readouterr().out
            return next(line for line in out.splitlines()
                        if line.startswith("verdict:"))

        serial_line = summary(QUALIFY)
        parallel_line = summary([*QUALIFY, "--workers", "2"])
        # verdict, robustness, and evaluation counts all match; only
        # wall time may differ, and it is not on this line's prefix.
        assert (serial_line.split("cache hits")[0]
                == parallel_line.split("cache hits")[0])


class TestCollectorMerge:
    def _collector(self, **overrides):
        counters = {
            "engine.evaluations": 3, "engine.cache_hits": 1,
            "engine.eval_wall_s": 1.5, "span.count.ga.generation": 2,
            "span.wall_s.audit.ga-search": 1.0, "fault.quarantines": 1,
            "span.wall_s.pipeline.pdn_solve": 0.5, "stage.cache_hits.pdn": 2,
            "span.count.worker.eval": 3, "span.wall_s.worker.eval": 2.0,
            "span.lost": 1,
        }
        counters.update(overrides)
        collector = TelemetryCollector()
        for name, value in counters.items():
            collector.metrics.inc(name, value)
        return collector

    def _shutdown(self, reason):
        collector = self._collector()
        if reason:
            collector.on_event(SupervisorEvent(action="shutdown", detail=reason))
        return collector

    def test_merge_sums_scalars_and_dicts(self):
        merged = self._collector().merge(self._collector()).metrics
        assert merged.counter("engine.evaluations") == 6
        assert merged.counter("engine.cache_hits") == 2
        assert merged.counter("engine.eval_wall_s") == pytest.approx(3.0)
        assert merged.counter("span.wall_s.audit.ga-search") == 2.0
        assert merged.family("stage.cache_hits") == {"pdn": 4}
        assert merged.family("span.count") == {"ga.generation": 4,
                                               "worker.eval": 6}
        assert merged.counter("span.lost") == 2

    def test_merge_is_commutative_on_the_counter_snapshot(self):
        a1 = self._collector(**{"engine.evaluations": 10, "span.count.a": 1})
        b1 = self._collector(**{"engine.cache_hits": 7, "span.count.b": 2})
        a2 = self._collector(**{"engine.evaluations": 10, "span.count.a": 1})
        b2 = self._collector(**{"engine.cache_hits": 7, "span.count.b": 2})
        ab = a1.merge(b1).counter_snapshot()
        ba = b2.merge(a2).counter_snapshot()
        assert ab == ba

    def test_merge_keeps_the_smallest_shutdown_reason(self):
        a = self._shutdown("signal SIGTERM")
        b = self._shutdown("")
        assert a.merge(b).shutdown_reason == "signal SIGTERM"
        c = self._shutdown("wall-clock budget")
        d = self._shutdown("signal SIGTERM")
        assert c.merge(d).shutdown_reason == "signal SIGTERM"

    def test_counter_snapshot_excludes_wall_clock(self):
        snapshot = self._collector().counter_snapshot()
        assert "engine.eval_wall_s" not in snapshot
        assert "span.wall_s.pipeline.pdn_solve" not in snapshot
        assert "span.wall_s.worker.eval" not in snapshot
        assert "span.wall_s.audit.ga-search" not in snapshot
        assert snapshot["engine.evaluations"] == 3
        assert snapshot["span.count.worker.eval"] == 3

    def test_merge_covers_every_field(self):
        # Every counter must double when merging two identical
        # collectors; one that did not would under-report under --workers.
        base = self._collector().metrics.counters()
        doubled = self._collector().merge(self._collector()).metrics.counters()
        assert set(doubled) == set(base)
        for name, value in base.items():
            assert doubled[name] == pytest.approx(2 * value), name
