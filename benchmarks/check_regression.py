#!/usr/bin/env python
"""CI benchmark-regression gate for the AUDIT evaluation path.

Runs the canonical short campaign (the same scenario as ``repro
bench-evals``), captures throughput and determinism metrics, and compares
them against a committed baseline JSON:

* **determinism metrics** — max droop, best fitness, evaluation count,
  resonance frequency, and the qualification verdict/robustness of the
  winning stressmark — must match the baseline *exactly*: they are pure
  simulation outputs, so any drift is a behaviour change, not noise;
* **throughput** (campaign and qualification evaluations/second) may
  wobble with the runner, but a drop of more than ``--tolerance``
  (default 15 %) fails the gate;
* **batched PDN solves** must stay bit-identical to batches of one
  (``batched_droop_match``, exact) and at least 2x faster through the
  PDN stage (``batched_pdn_speedup``, an absolute floor rather than a
  baseline-relative tolerance);
* **observability** must stay off the physics and off the hot path: a
  fixed measurement sweep run under a live tracer must cost at most 3 %
  more than the untraced run (``obs_overhead`` ceiling), reproduce every
  droop bit for bit (``obs_droop_match``, exact), and emit a
  deterministic span count (``obs_spans``, exact).

Usage::

    python benchmarks/check_regression.py                # gate against baseline
    python benchmarks/check_regression.py --update       # re-baseline
    python benchmarks/check_regression.py --out fresh.json
    python benchmarks/check_regression.py --slowdown 2.0 # prove the gate trips

``--slowdown N`` stretches every platform measurement by sleeping
``(N - 1) x`` its own duration — droop and evaluation counts are untouched,
only throughput drops, which is exactly what the gate must catch.

Exit codes: 0 pass, 1 regression, 2 usage error / missing baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA_VERSION = 6
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baselines" / "bulldozer.json"
DEFAULT_SCENARIO = {
    "chip": "bulldozer",
    "threads": 4,
    "population": 12,
    "generations": 4,
    "seed": 1,
}
EXACT_METRICS = ("max_droop_v", "best_fitness", "evaluations", "resonance_hz",
                 "qualify_verdict", "qualify_robustness",
                 "qualify_evaluations", "batched_droop_match",
                 "fleet_droop_match", "fleet_shards",
                 "registry_records", "registry_verify_match",
                 "obs_droop_match", "obs_spans")
THROUGHPUT_METRICS = ("evals_per_second", "qualify_evals_per_second")
#: Absolute floors (not baseline-relative): a batch of N must beat N
#: batches of one through the PDN stage by at least this factor, and a fleet
#: shard must retain at least this fraction of a standalone campaign's
#: evaluation throughput (orchestration overhead stays off the hot path).
FLOOR_METRICS = {"batched_pdn_speedup": 2.0,
                 "fleet_shard_throughput_ratio": 0.9}
#: Absolute ceilings: registry publishing must cost a negligible
#: fraction of the campaign itself, and tracing the measurement hot
#: path must add at most 3 % to an untraced sweep.
CEILING_METRICS = {"registry_publish_overhead": 0.05,
                   "obs_overhead": 0.03}


class SlowdownBackend:
    """Measurement backend that stretches wall time by a constant factor.

    Wraps a platform's pipeline and sleeps ``(factor - 1) x`` each inner
    measurement call's own duration, so the synthetic regression scales
    with the real evaluation cost: results are bit-identical, throughput
    is ``1/factor``.
    """

    def __init__(self, pipeline, factor: float):
        self.inner = self.pipeline = pipeline
        self.chip = pipeline.chip
        self.factor = factor

    def _stretched(self, measure):
        start = time.perf_counter()
        result = measure()
        time.sleep((self.factor - 1.0) * (time.perf_counter() - start))
        return result

    def measure_programs(self, requests):
        return self._stretched(lambda: self.inner.measure_programs(requests))

    def measure_current(self, *args, **kwargs):
        return self._stretched(
            lambda: self.inner.measure_current(*args, **kwargs))


def _batched_pdn_benchmark(scenario: dict) -> dict:
    """Batch-of-one vs batch-of-N PDN throughput on a canonical probe grid.

    Measures one resonant probe across a supply sweep plus a set of
    module-phase alignments — the grids the closed loop actually batches —
    first as N batches of one, then as one batch of N on a second
    platform that shares the first one's activity stage (so only the PDN
    solves differ, and none is served from the other's response cache).
    Returns the wall-clock speedup and whether every droop/sensitivity
    matched bit for bit.
    """
    import numpy as np

    from repro.core.platform import MeasurementPlatform
    from repro.core.resonance import probe_program
    from repro.experiments.setup import bulldozer_testbed, phenom_testbed
    from repro.isa.opcodes import default_table
    from repro.pipeline.artifacts import MeasureRequest
    from repro.pipeline.pipeline import MeasurementPipeline

    testbed = {"bulldozer": bulldozer_testbed, "phenom": phenom_testbed}
    serial = testbed[scenario["chip"]]()
    threads = scenario["threads"]
    pool = default_table().supported_on(serial.chip.extensions)
    program = probe_program(pool, hp_count=32, lp_nops=95)
    vdd = serial.chip.vdd
    requests = [
        MeasureRequest(program=program, threads=threads,
                       supply_v=float(supply))
        for supply in np.linspace(vdd - 0.06, vdd + 0.06, 24)
    ] + [
        MeasureRequest(program=program, threads=threads,
                       module_phases=(k,) + (0,) * (serial.chip.module_count - 1))
        for k in range(1, 9)
    ]
    # Warm the activity profile so both sides time pure PDN-stage work.
    serial.measure_program(program, threads)

    start = time.perf_counter()
    serial_results = [serial.measure_programs([request])[0]
                      for request in requests]
    serial_wall = time.perf_counter() - start

    batched = MeasurementPlatform(backend=MeasurementPipeline(
        serial.chip, serial.pipeline.pdn_stage.pdn,
        activity=serial.pipeline.activity,
    ))
    start = time.perf_counter()
    batch_results = batched.measure_programs(requests)
    batch_wall = time.perf_counter() - start

    droop_match = all(
        s.max_droop_v == b.max_droop_v
        and np.array_equal(s.sensitivity, b.sensitivity)
        for s, b in zip(serial_results, batch_results)
    )
    return {
        "batched_pdn_speedup": round(serial_wall / batch_wall, 2),
        "batched_droop_match": bool(droop_match),
        "batched_rows": len(requests),
    }


def _obs_benchmark(scenario: dict) -> dict:
    """Tracing overhead on the measurement hot path.

    Measures a set of distinct probe programs — so every measurement
    runs the full compile → activity → PDN pipeline, the same work a
    campaign evaluation does — on two fresh platforms, one bare and one
    under a live :class:`~repro.obs.spans.Tracer` feeding a span buffer.  The
    two sides interleave *per measurement* with alternating order, so
    scheduler and frequency noise (which on shared runners drifts on a
    ~100 ms scale and reads as a phantom 5 %+ overhead in any
    leg-vs-leg comparison) lands on both sides equally; the overhead is
    the median of the per-pair traced/bare ratios — same program,
    back-to-back runs — which cancels the cost differences between
    programs that make a plain median-vs-median unstable.  The
    collector is paused around the timed loop so a cycle collection
    triggered by one side's allocations is not billed to whichever
    measurement it happened to land in.
    Tracing must never perturb the physics, so the traced droops have
    to reproduce the bare run bit for bit, and the span count is a
    deterministic output like any other.
    """
    import gc
    import statistics

    from repro.core.resonance import probe_program
    from repro.experiments.setup import bulldozer_testbed, phenom_testbed
    from repro.isa.opcodes import default_table
    from repro.obs.spans import SpanBuffer, Tracer, tracing

    testbed = {"bulldozer": bulldozer_testbed, "phenom": phenom_testbed}
    threads = scenario["threads"]
    chip = testbed[scenario["chip"]]().chip
    pool = default_table().supported_on(chip.extensions)
    programs = [probe_program(pool, hp_count=32, lp_nops=nops)
                for nops in range(16)]

    ratios = []
    spans = 0
    droop_match = True
    for repeat in range(3):
        bare_platform = testbed[scenario["chip"]]()
        traced_platform = testbed[scenario["chip"]]()
        buffer = SpanBuffer(cap=4096)
        tracer = Tracer([buffer])
        gc.collect()
        gc.disable()
        try:
            for index, program in enumerate(programs):

                def bare_leg():
                    start = time.perf_counter()
                    result = bare_platform.measure_program(program, threads)
                    return result, time.perf_counter() - start

                def traced_leg():
                    start = time.perf_counter()
                    with tracing(tracer):
                        result = traced_platform.measure_program(
                            program, threads)
                    return result, time.perf_counter() - start

                if (index + repeat) % 2:
                    bare, bare_wall = bare_leg()
                    traced, traced_wall = traced_leg()
                else:
                    traced, traced_wall = traced_leg()
                    bare, bare_wall = bare_leg()
                ratios.append(traced_wall / bare_wall)
                droop_match = (droop_match
                               and bare.max_droop_v == traced.max_droop_v)
        finally:
            gc.enable()
        spans = len(buffer.records)
    overhead = statistics.median(ratios) - 1.0
    return {
        "obs_overhead": round(max(overhead, 0.0), 4),
        "obs_droop_match": bool(droop_match),
        "obs_spans": spans,
    }


def _fleet_benchmark(scenario: dict) -> dict:
    """Per-shard fleet overhead versus a standalone campaign.

    Runs the same campaign twice: once standalone through
    :func:`repro.fleet.shard.run_shard` (no orchestration), then as a
    two-chain fleet (nominal + perturbed PDN, one shard each) under the
    orchestrator's serial scheduler.  A single worker keeps the ratio a
    pure measure of orchestration overhead (chain bookkeeping,
    checkpointing, result banking) rather than of how many cores the
    runner happens to have — the parallel pool path is covered by the
    fleet-smoke CI job.  Also checks the fleet's nominal shard reproduces
    the standalone droop bit for bit.
    """
    import shutil
    import tempfile

    from repro.fleet.matrix import ScenarioMatrix
    from repro.fleet.orchestrator import FleetOrchestrator
    from repro.fleet.shard import ShardSpec, run_shard

    matrix = ScenarioMatrix(
        chip=(scenario["chip"],), threads=(2,), budget=("8x4",),
        pdn=("nominal", "+10%"), seed=(1,),
    )
    serial_dir = tempfile.mkdtemp(prefix="bench-fleet-serial-")
    fleet_dir = tempfile.mkdtemp(prefix="bench-fleet-")
    try:
        standalone = run_shard(ShardSpec(
            scenario=matrix.expand()[0], shard_dir=serial_dir,
        ))
        start = time.perf_counter()
        report = FleetOrchestrator(matrix, fleet_dir, workers=1).run()
        fleet_wall = time.perf_counter() - start
        shard_eps = [result.timing["evals_per_second"]
                     for result in report.ok_shards]
        nominal = next(result for result in report.ok_shards
                       if result.scenario["pdn"] == "nominal")
        serial_eps = standalone.timing["evals_per_second"]
        ratio = (sum(shard_eps) / len(shard_eps)) / serial_eps
        return {
            "fleet_shard_throughput_ratio": round(ratio, 3),
            "fleet_droop_match": bool(
                nominal.droop_v == standalone.droop_v
            ),
            "fleet_shards": len(report.ok_shards),
            **_registry_benchmark(report, fleet_wall),
        }
    finally:
        shutil.rmtree(serial_dir, ignore_errors=True)
        shutil.rmtree(fleet_dir, ignore_errors=True)


def _registry_benchmark(report, fleet_wall: float) -> dict:
    """Registry publish overhead and replay fidelity for a fleet's shards.

    Publishes every OK shard of *report* into a scratch registry, timing
    the complete publish path (content hashing, atomic object write,
    index append, flock) against the campaign's own wall clock — the
    overhead a ``--registry`` flag adds to a real fleet.  Then replays
    one published record through ``verify`` and reports whether the
    recorded droop reproduced bit for bit.
    """
    import shutil
    import tempfile

    from repro.registry.provenance import provenance_stamp
    from repro.registry.record import record_from_shard
    from repro.registry.store import StressmarkRegistry
    from repro.registry.verify import verify_record

    registry_dir = tempfile.mkdtemp(prefix="bench-registry-")
    try:
        stamp = provenance_stamp(campaign="bench")
        records = [record_from_shard(result, provenance=stamp)
                   for result in report.ok_shards]
        start = time.perf_counter()
        registry = StressmarkRegistry(registry_dir)
        outcomes = [registry.publish(record) for record in records]
        publish_wall = time.perf_counter() - start
        verified = verify_record(registry.get(outcomes[0].record_id))
        return {
            "registry_publish_overhead": round(publish_wall / fleet_wall, 4),
            "registry_records": len(outcomes),
            "registry_verify_match": bool(verified.ok),
        }
    finally:
        shutil.rmtree(registry_dir, ignore_errors=True)


def collect_metrics(scenario: dict | None = None,
                    slowdown: float = 1.0) -> dict:
    """Run the bench campaign and return a baseline-shaped payload."""
    from repro.core.audit import AuditConfig, AuditRunner
    from repro.core.ga import GaConfig
    from repro.core.platform import MeasurementPlatform
    from repro.core.qualify import QualifyConfig, StressmarkQualifier
    from repro.core.telemetry import TelemetryCollector
    from repro.experiments.setup import bulldozer_testbed, phenom_testbed
    from repro.obs.spans import Tracer, tracing

    scenario = dict(scenario or DEFAULT_SCENARIO)
    testbed = {"bulldozer": bulldozer_testbed, "phenom": phenom_testbed}
    platform = testbed[scenario["chip"]]()
    if slowdown != 1.0:
        platform = MeasurementPlatform(
            backend=SlowdownBackend(platform.pipeline, slowdown))
    collector = TelemetryCollector()
    config = AuditConfig(
        threads=scenario["threads"],
        ga=GaConfig(
            population_size=scenario["population"],
            generations=scenario["generations"],
            seed=scenario["seed"],
            stagnation_patience=max(6, scenario["generations"]),
        ),
    )
    runner = AuditRunner(platform, config=config)
    with tracing(Tracer([collector])):
        result = runner.run()
    qualifier = StressmarkQualifier(
        platform,
        threads=scenario["threads"],
        config=QualifyConfig(seed=scenario["seed"]),
    )
    report = qualifier.qualify_program(result.program(), name=result.name)
    batched = _batched_pdn_benchmark(scenario)
    fleet = _fleet_benchmark(scenario)
    obs = _obs_benchmark(scenario)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "metrics": {
            "max_droop_v": result.max_droop_v,
            "best_fitness": result.ga_result.best_fitness,
            "evaluations": result.ga_result.evaluations,
            "resonance_hz": result.resonance.resonance_hz,
            "evals_per_second": collector.evals_per_second,
            "eval_wall_s": collector.metrics.counter("engine.eval_wall_s"),
            "cache_hit_rate": collector.cache_hit_rate,
            "qualify_verdict": report.verdict,
            "qualify_robustness": report.robustness,
            "qualify_evaluations": report.evaluations,
            "qualify_evals_per_second": (
                report.evaluations / report.wall_s if report.wall_s else 0.0),
            "batched_pdn_speedup": batched["batched_pdn_speedup"],
            "batched_droop_match": batched["batched_droop_match"],
            "batched_rows": batched["batched_rows"],
            "fleet_shard_throughput_ratio": (
                fleet["fleet_shard_throughput_ratio"]),
            "fleet_droop_match": fleet["fleet_droop_match"],
            "fleet_shards": fleet["fleet_shards"],
            "registry_publish_overhead": fleet["registry_publish_overhead"],
            "registry_records": fleet["registry_records"],
            "registry_verify_match": fleet["registry_verify_match"],
            "obs_overhead": obs["obs_overhead"],
            "obs_droop_match": obs["obs_droop_match"],
            "obs_spans": obs["obs_spans"],
        },
    }


def compare(baseline: dict, current: dict, tolerance: float = 0.15) -> list[str]:
    """Return the list of regressions (empty = gate passes)."""
    problems = []
    if baseline.get("schema_version") != current.get("schema_version"):
        problems.append(
            f"schema version changed: baseline "
            f"{baseline.get('schema_version')} vs current "
            f"{current.get('schema_version')}; re-baseline with --update"
        )
        return problems
    if baseline.get("scenario") != current.get("scenario"):
        problems.append(
            f"bench scenario changed: baseline {baseline.get('scenario')} "
            f"vs current {current.get('scenario')}; re-baseline with --update"
        )
        return problems
    base, cur = baseline["metrics"], current["metrics"]
    for name in EXACT_METRICS:
        if base[name] != cur[name]:
            problems.append(
                f"{name} changed: baseline {base[name]!r} -> {cur[name]!r} "
                "(simulation outputs are deterministic; any drift is a "
                "behaviour change)"
            )
    for name in THROUGHPUT_METRICS:
        floor = base[name] * (1.0 - tolerance)
        if cur[name] < floor:
            drop = 1.0 - cur[name] / base[name]
            problems.append(
                f"{name} regressed {drop * 100:.1f} %: "
                f"{base[name]:.1f} -> {cur[name]:.1f} evals/s "
                f"(tolerance {tolerance * 100:.0f} %)"
            )
    for name, floor in FLOOR_METRICS.items():
        if cur[name] < floor:
            problems.append(
                f"{name} below floor: {cur[name]:.2f} < {floor:.2f} "
                "(the batched PDN path must beat serial solves by at "
                "least this factor)"
            )
    for name, ceiling in CEILING_METRICS.items():
        if cur[name] > ceiling:
            problems.append(
                f"{name} above ceiling: {cur[name]:.4f} > {ceiling:.4f} "
                "(this overhead must stay a negligible fraction of the "
                "work it instruments)"
            )
    return problems


def summary_markdown(current: dict, problems: list[str]) -> str:
    """The gate outcome as GitHub markdown (for ``$GITHUB_STEP_SUMMARY``)."""
    metrics = current["metrics"]
    status = "✅ passed" if not problems else f"❌ failed ({len(problems)})"
    lines = [
        "## Benchmark regression gate",
        "",
        f"Status: {status}",
        "",
        "| metric | value |",
        "|---|---|",
    ]
    for name in sorted(metrics):
        value = metrics[name]
        rendered = f"{value:.4g}" if isinstance(value, float) else str(value)
        lines.append(f"| {name} | {rendered} |")
    for problem in problems:
        lines.append(f"- ❌ {problem}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark-regression gate for the AUDIT evaluation path")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline JSON to gate against")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the fresh metrics JSON here "
                             "(the CI artifact)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with fresh metrics "
                             "instead of gating")
    parser.add_argument("--slowdown", type=float, default=1.0,
                        help="stretch every measurement by this factor "
                             "(gate self-test; 2.0 must fail)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional evals/sec drop "
                             "(default 0.15)")
    parser.add_argument("--summary", type=Path, default=None,
                        help="append a markdown summary of the metrics and "
                             "gate outcome to this file (CI step summary)")
    args = parser.parse_args(argv)
    if args.slowdown < 1.0:
        parser.error("--slowdown must be >= 1.0")

    current = collect_metrics(slowdown=args.slowdown)
    metrics = current["metrics"]
    print(f"bench campaign: {metrics['evaluations']} evaluations, "
          f"{metrics['evals_per_second']:.1f} evals/s, "
          f"max droop {metrics['max_droop_v'] * 1e3:.2f} mV")
    print(f"qualification: {metrics['qualify_verdict']} "
          f"(robustness {metrics['qualify_robustness']:.2f}, "
          f"{metrics['qualify_evaluations']} evaluations, "
          f"{metrics['qualify_evals_per_second']:.1f} evals/s)")
    print(f"batched PDN: {metrics['batched_pdn_speedup']:.2f}x serial over "
          f"{metrics['batched_rows']} rows, droop match: "
          f"{metrics['batched_droop_match']}")
    print(f"fleet: {metrics['fleet_shards']} shards at "
          f"{metrics['fleet_shard_throughput_ratio']:.2f}x standalone "
          f"throughput, droop match: {metrics['fleet_droop_match']}")
    print(f"registry: {metrics['registry_records']} records published at "
          f"{metrics['registry_publish_overhead'] * 100:.2f}% of campaign "
          f"wall, verify match: {metrics['registry_verify_match']}")
    print(f"observability: {metrics['obs_overhead'] * 100:.2f}% tracing "
          f"overhead over {metrics['obs_spans']} spans, droop match: "
          f"{metrics['obs_droop_match']}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(current, indent=2) + "\n")
        print(f"metrics written to {args.out}")

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        _write_summary(args.summary, current, [])
        return 0

    if not args.baseline.exists():
        print(f"error: no baseline at {args.baseline}; create one with "
              "--update", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    problems = compare(baseline, current, tolerance=args.tolerance)
    _write_summary(args.summary, current, problems)
    if problems:
        print(f"\nREGRESSION GATE FAILED ({len(problems)}):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("regression gate passed")
    return 0


def _write_summary(path: Path | None, current: dict,
                   problems: list[str]) -> None:
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(summary_markdown(current, problems))


if __name__ == "__main__":
    raise SystemExit(main())
