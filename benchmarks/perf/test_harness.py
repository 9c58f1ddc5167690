"""Tests of the benchmark harness itself (no workload is run).

    python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import compare
import probe
import pytest
import run
import stats

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, pct", [(1, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
                                    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    chosen, value = probe.tail_percentile(range(1, n + 1))
    assert chosen == pct
    assert value == probe.percentile(list(range(1, n + 1)), pct)
    if pct > 50.0:
        assert n - value >= 10


def test_percentile_is_nearest_rank():
    values = [10, 20, 30, 40]
    assert probe.percentile(values, 50) == 20
    assert probe.percentile(values, 90) == 40
    assert probe.percentile([7], 99.9) == 7


# ----------------------------------------------------------------------
# Self-time algebra
# ----------------------------------------------------------------------
def test_self_time_excludes_nested_wrapped_calls():
    clock = FakeClock()
    tally = probe.Tally(clock=clock)
    tally.enter("a")            # t=0
    clock.now = 1.0
    tally.enter("b")            # t=1
    clock.now = 3.0
    tally.enter("c")            # t=3
    clock.now = 6.0
    assert tally.leave() == 3.0  # c: 3..6
    clock.now = 7.0
    assert tally.leave() == 6.0  # b: 1..7
    clock.now = 10.0
    assert tally.leave() == 10.0  # a: 0..10
    calls = {key: entry[0] for key, entry in tally.layers.items()}
    self_s = {key: entry[2] for key, entry in tally.layers.items()}
    assert calls == {"a": 1, "b": 1, "c": 1}
    assert self_s == {"a": 4.0, "b": 3.0, "c": 3.0}
    assert sum(self_s.values()) == 10.0


def test_busy_time_counts_only_the_outermost_call_of_a_layer():
    clock = FakeClock()
    tally = probe.Tally(clock=clock)
    tally.enter("uarch")
    clock.now = 1.0
    tally.enter("uarch")
    clock.now = 4.0
    tally.leave()
    clock.now = 5.0
    tally.leave()
    calls, busy, self_s = tally.layers["uarch"]
    assert (calls, busy, self_s) == (2, 5.0, 5.0)


def test_layer_metrics_cover_main_processes_and_share_wall():
    clock = FakeClock()
    main = probe.Tally(clock=clock)
    main.enter("fleet")
    clock.now = 8.0
    main.leave()
    worker = probe.Tally(role="worker", clock=clock)
    for shard in ("s1", "s2"):
        clock.now = 0.0
        worker.enter("fleet.shard")
        clock.now = 6.0
        worker.leave()
        worker.sample("fleet.shard_ids", shard)
    metrics = probe.layer_metrics([main.to_dict(), worker.to_dict()], wall_s=10.0,
                                  fleet_workers=2)
    assert metrics["layers.coverage"] == 0.8
    assert metrics["fleet.self_share"] == 0.8
    assert metrics["fleet.shard_busy_share"] == 1.2
    assert metrics["fleet.parallel_efficiency"] == 12.0 / 16.0
    assert metrics["fleet.shards"] == 2
    assert metrics["fleet.shard_retries"] == 0
    assert set(metrics) | {"obs.spans", "obs.trace_overhead_frac"} == set(probe.PREDICTIONS)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 1 <= len(BENCHMARK["paths"]) <= 16
    assert all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) for path in BENCHMARK["paths"])
    assert 1 <= len(BENCHMARK["command"]) <= 32
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s" and bounds["setup_s"]["better"] == "lower"
    assert bounds["setup_s"]["bound"] == max(metric["bound"] for metric in bounds.values())


def test_runner_measures_every_declared_end_to_end_metric():
    sample = run.Run(rep=0, traced=False, seed=1)
    for metric in BENCHMARK["end_to_end"]:
        assert isinstance(getattr(sample, metric["name"]), float), metric["name"]


def test_every_layer_metric_predicts_an_existing_metric_and_workload():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(probe.PREDICTIONS)
    end_to_end = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    workloads = {workload["name"] for workload in BENCHMARK["workloads"]}
    for name, (moves, where) in probe.PREDICTIONS.items():
        assert moves in end_to_end, name
        assert where and set(where) <= workloads, name


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_verdict_better_when_change_wins_nine_in_ten_beyond_the_spread():
    change = [value * 0.8 for value in BASE]
    assert stats.verdict(BASE, change, bound=0.1, better="lower") == ("better", 1.0)


def test_verdict_no_worse_for_the_same_runs():
    assert stats.verdict(BASE, list(BASE), bound=0.1, better="lower")[0] == "no worse"


def test_verdict_regressed_beyond_the_bound():
    change = [value * 1.3 for value in BASE]
    assert stats.verdict(BASE, change, bound=0.1, better="lower") == ("regressed", 0.0)
    assert stats.verdict(BASE, change, bound=0.1, better="higher")[0] == "better"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert stats.verdict(BASE, noisy, bound=0.1, better="lower")[0] == "unresolved"
    clearly_worse_base = [value + 20.0 for value in noisy]
    assert stats.verdict(clearly_worse_base, noisy, bound=0.1, better="lower")[0] == "better"


def test_compare_rows_pair_runs_and_flag_new_failures():
    def results(walls, failed_frac):
        runs = [{"rep": rep, "traced": False, "errors": [], "wall_s": wall, "setup_s": 1.0,
                 "evals_per_s": 10.0 / wall, "peak_rss_mb": 100.0}
                for rep, wall in enumerate(walls)]
        return {"seed": 1, "workloads": {"w": {"runs": runs, "failed_frac": failed_frac}}}

    rows = compare.compare(results(BASE, 0.0), results([v * 1.5 for v in BASE], 0.1), BENCHMARK)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["wall_s"] == "regressed"
    assert verdicts["evals_per_s"] == "regressed"
    assert verdicts["setup_s"] == "no worse"
    assert verdicts["failed_frac"] == "regressed"
