"""Metrics registry conformance: merge semantics and serialization.

The registry's one job is an order-independent merge: counters sum,
gauges keep the max, histograms add bucket-wise.  The property tests
fold randomly partitioned observation streams in random orders and
demand identical results; the ledger tests pin the registry as the one
counter type of a measurement platform, shared with the chip simulator
and with pipelines that share an activity stage.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resonance import probe_program
from repro.experiments.setup import bulldozer_testbed
from repro.isa.opcodes import default_table
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    is_wall_clock,
)
from repro.pipeline.pipeline import MeasurementPipeline

DURATIONS = st.floats(min_value=0.0, max_value=500.0,
                      allow_nan=False, allow_infinity=False)


class TestHistogram:
    def test_observe_tracks_sum_count_min_max(self):
        histogram = Histogram()
        for value in (0.002, 0.3, 7.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(7.302)
        assert histogram.min_value == 0.002
        assert histogram.max_value == 7.0
        assert histogram.mean == pytest.approx(7.302 / 3)

    def test_empty_histogram_is_quiet(self):
        histogram = Histogram()
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_quantiles_are_clamped_to_observed_range(self):
        histogram = Histogram()
        values = [0.01, 0.02, 0.04, 0.08, 0.2, 0.4, 1.5, 4.0]
        for value in values:
            histogram.observe(value)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            estimate = histogram.quantile(q)
            assert min(values) <= estimate <= max(values)
        assert histogram.quantile(1.0) == pytest.approx(max(values))

    def test_quantile_rejects_out_of_range(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_overflow_above_last_bound_is_counted(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(99.0)
        assert histogram.counts == [0, 0, 1]
        assert histogram.quantile(0.5) == pytest.approx(99.0)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_merge_requires_matching_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 2.0)).merge(Histogram(bounds=(1.0, 3.0)))

    def test_dict_round_trip(self):
        histogram = Histogram()
        for value in (0.001, 0.02, 3.0, 70.0):
            histogram.observe(value)
        clone = Histogram.from_dict(json.loads(json.dumps(histogram.to_dict())))
        assert clone.to_dict() == histogram.to_dict()
        assert clone.quantile(0.95) == pytest.approx(histogram.quantile(0.95))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(DURATIONS, max_size=50),
           split=st.integers(min_value=0, max_value=50))
    def test_merge_equals_observing_everything(self, values, split):
        split = min(split, len(values))
        combined = Histogram()
        for value in values:
            combined.observe(value)
        left, right = Histogram(), Histogram()
        for value in values[:split]:
            left.observe(value)
        for value in values[split:]:
            right.observe(value)
        left.merge(right)
        merged, expected = left.to_dict(), combined.to_dict()
        # Summing floats in a different association drifts the last bit
        # of `total`; every structural field must be exact.
        assert merged.pop("total") == pytest.approx(expected.pop("total"))
        assert merged == expected


def _sample_registry(seed: int) -> MetricsRegistry:
    rng = random.Random(seed)
    registry = MetricsRegistry()
    for name in ("a", "b", "c"):
        registry.inc(name, rng.randint(0, 5))
    registry.gauge_set("peak", rng.uniform(0, 10))
    for _ in range(rng.randint(0, 8)):
        registry.observe("wall_s", rng.uniform(0, 100))
    return registry


class TestMetricsRegistry:
    def test_counters_sum_and_default(self):
        registry = MetricsRegistry()
        registry.inc("evals")
        registry.inc("evals", 4)
        assert registry.counter("evals") == 5
        assert registry.counter("missing") == 0
        assert registry.counter("missing", default=-1) == -1

    def test_gauges_keep_the_maximum_on_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge_set("rss", 10.0)
        b.gauge_set("rss", 7.0)
        b.gauge_set("only_b", 3.0)
        a.merge(b)
        assert a.gauge("rss") == 10.0
        assert a.gauge("only_b") == 3.0
        assert a.gauge("missing") is None

    def test_names_spans_all_three_families(self):
        registry = MetricsRegistry()
        registry.inc("counter")
        registry.gauge_set("gauge", 1.0)
        registry.observe("histogram", 0.5)
        assert registry.names() == ("counter", "gauge", "histogram")

    def test_merge_returns_self_for_chaining(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        assert a.merge(b) is a

    def test_merge_copies_histograms_it_adopts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.observe("wall_s", 1.0)
        a.merge(b)
        a.observe("wall_s", 2.0)
        assert b.histogram("wall_s").count == 1
        assert a.histogram("wall_s").count == 2

    def test_dict_round_trip_through_json(self):
        registry = _sample_registry(7)
        clone = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.to_dict())))
        assert clone.to_dict() == registry.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(seeds=st.lists(st.integers(min_value=0, max_value=99),
                          min_size=1, max_size=6),
           order=st.randoms(use_true_random=False))
    def test_merge_is_order_independent(self, seeds, order):
        forward = MetricsRegistry()
        for seed in seeds:
            forward.merge(_sample_registry(seed))
        shuffled = list(seeds)
        order.shuffle(shuffled)
        backward = MetricsRegistry()
        for seed in shuffled:
            backward.merge(_sample_registry(seed))
        a, b = forward.to_dict(), backward.to_dict()
        # Counters and gauges are ints/maxes (exact); histogram totals sum
        # floats in merge order, so compare those to within rounding.
        assert a["counters"] == pytest.approx(b["counters"])
        assert a["gauges"] == b["gauges"]
        assert set(a["histograms"]) == set(b["histograms"])
        for name, blob in a["histograms"].items():
            other = b["histograms"][name]
            assert blob["counts"] == other["counts"]
            assert blob["count"] == other["count"]
            assert blob["min"] == other["min"]
            assert blob["max"] == other["max"]
            assert blob["total"] == pytest.approx(other["total"])


class TestNamedFamilies:
    def test_family_strips_the_prefix(self):
        registry = MetricsRegistry()
        registry.inc("pipeline.path.periodic", 2)
        registry.inc("pipeline.path.transient")
        registry.inc("pipeline.pathological")
        assert registry.family("pipeline.path") == {
            "periodic": 2, "transient": 1,
        }
        assert registry.family("missing") == {}

    def test_wall_clock_names_end_a_segment_in_s(self):
        assert is_wall_clock("engine.eval_wall_s")
        assert is_wall_clock("span.wall_s.audit.ga-search")
        assert is_wall_clock("uarch.sim_s")
        assert not is_wall_clock("engine.evaluations")
        assert not is_wall_clock("span.count.worker.eval")

    def test_deterministic_counters_drop_wall_clock_sums(self):
        registry = MetricsRegistry()
        registry.inc("engine.evaluations", 4)
        registry.inc("engine.eval_wall_s", 1.5)
        registry.inc("pipeline.wall_s.pdn", 0.2)
        assert registry.deterministic_counters() == {"engine.evaluations": 4}

    def test_drain_hands_over_and_resets(self):
        registry = _sample_registry(3)
        expected = registry.to_dict()
        payload = registry.drain()
        assert payload == expected
        assert registry.to_dict() == MetricsRegistry().to_dict()
        assert MetricsRegistry.from_dict(payload).to_dict() == expected


class TestPlatformLedger:
    def test_pipeline_and_chip_simulator_share_one_registry(self):
        platform = bulldozer_testbed()
        program = probe_program(default_table(), hp_count=32, lp_nops=95)
        platform.measure_program(program, 4)
        platform.measure_program(program, 4, supply_v=1.15)
        assert platform.metrics is platform.pipeline.activity.chip_sim.metrics
        count = platform.metrics.counter
        assert count("pipeline.measurements") == 2
        assert count("pipeline.path.periodic") == 2
        assert count("pipeline.profile_cache_hits") == 1
        assert count("uarch.module_runs") == 1
        assert count("uarch.module_cache_hits") == 3
        assert set(platform.metrics.family("pipeline.wall_s")) == {
            "compile", "activity", "pdn", "analyze",
        }

    def test_pipelines_sharing_an_activity_stage_share_the_ledger(self):
        base = bulldozer_testbed().pipeline
        variant = MeasurementPipeline(
            base.chip, base.pdn_stage.pdn, jitter_seed=7, activity=base.activity,
        )
        assert variant.metrics is base.metrics
