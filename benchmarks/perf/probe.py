"""Layer accounting for the benchmark's traced runs.

The benchmark measures layers from its own files: :func:`install` wraps
each layer's public entry points, and nothing under ``src/`` knows it is
being watched.  A wrapped call pushes a frame on a per-process stack.
When it returns, its duration is added to the layer's *busy* time (only
for the outermost call of that layer) and, minus the time of wrapped calls
nested inside it, to the layer's *self* time.  The self times of one
process therefore add up to the time its outermost wrapped calls cover.

:func:`layer_metrics` turns the tallies of one traced repetition (one per
process: the child or CLI launches are ``main``, forked fleet shard
workers are ``worker``) into the per-layer metrics of ``BENCHMARK.json``.
Times are reported as shares of the repetition's wall time: a layer made
k times faster can save at most ``share * (1 - 1/k)`` of it.

This module imports nothing from ``repro`` at import time; the parent
runner uses it without loading the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import time
from pathlib import Path

#: What each per-layer metric of BENCHMARK.json should move: name ->
#: (end-to-end metric, workloads where it moves it).  A performance claim
#: cites this; ``test_harness`` checks it against BENCHMARK.json.
PREDICTIONS = {
    "startup.import_s": ("setup_s", ("ga-4t", "ga-smt-8t", "qualify-sweep", "cli-fleet")),
    "startup.share": ("wall_s", ("cli-fleet",)),
    "cli.self_share": ("wall_s", ("cli-fleet",)),
    "uarch.runs": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "uarch.smt_runs": ("evals_per_s", ("ga-smt-8t",)),
    "uarch.cycles": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "uarch.cycles_per_s": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "uarch.memo_hit_ratio": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "uarch.self_share": ("wall_s", ("ga-4t", "ga-smt-8t")),
    "pdn.solves": ("evals_per_s", ("qualify-sweep",)),
    "pdn.samples": ("evals_per_s", ("qualify-sweep",)),
    "pdn.solver_builds": ("evals_per_s", ("qualify-sweep",)),
    "pdn.solve_share": ("evals_per_s", ("qualify-sweep",)),
    "pdn.build_share": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.measurements": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.compile_share": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.activity_share": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "pipeline.pdn_share": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.analyze_share": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.measure_share": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.activity_hit_ratio": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.pdn_hit_ratio": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.measure_p50_ms": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.measure_tail_ms": ("evals_per_s", ("qualify-sweep",)),
    "pipeline.measure_tail_pct": ("evals_per_s", ("qualify-sweep",)),
    "resonance.probes": ("wall_s", ("ga-4t", "ga-smt-8t")),
    "resonance.busy_share": ("wall_s", ("ga-4t", "ga-smt-8t")),
    "ga.generations": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "ga.self_share": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "engine.evaluations": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "engine.cache_hits": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "engine.hit_ratio": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "engine.failed": ("evals_per_s", ("ga-4t", "ga-smt-8t")),
    "engine.self_share": ("evals_per_s", ("qualify-sweep",)),
    "qualify.reports": ("evals_per_s", ("qualify-sweep",)),
    "qualify.self_share": ("evals_per_s", ("qualify-sweep",)),
    "checkpoint.saves": ("wall_s", ("cli-fleet",)),
    "checkpoint.save_share": ("wall_s", ("cli-fleet",)),
    "checkpoint.state_bytes": ("wall_s", ("cli-fleet",)),
    "checkpoint.loads": ("wall_s", ("cli-fleet",)),
    "checkpoint.load_share": ("wall_s", ("cli-fleet",)),
    "registry.publishes": ("wall_s", ("cli-fleet",)),
    "registry.publish_share": ("wall_s", ("cli-fleet",)),
    "registry.verify_share": ("wall_s", ("cli-fleet",)),
    "fleet.shards": ("wall_s", ("cli-fleet",)),
    "fleet.self_share": ("wall_s", ("cli-fleet",)),
    "fleet.shard_busy_share": ("wall_s", ("cli-fleet",)),
    "fleet.parallel_efficiency": ("wall_s", ("cli-fleet",)),
    "fleet.shard_retries": ("wall_s", ("cli-fleet",)),
    "obs.spans": ("wall_s", ("ga-4t", "ga-smt-8t", "qualify-sweep", "cli-fleet")),
    "obs.trace_overhead_frac": ("wall_s", ("ga-4t", "ga-smt-8t", "qualify-sweep", "cli-fleet")),
    "layers.coverage": ("wall_s", ("ga-4t", "ga-smt-8t", "qualify-sweep", "cli-fleet")),
}

#: Share metrics: name -> layer keys whose self time it sums.
_SELF_SHARES = {
    "startup.share": ("startup",),
    "cli.self_share": ("cli",),
    "uarch.self_share": ("uarch", "uarch.memo"),
    "pdn.solve_share": ("pdn",),
    "pdn.build_share": ("pdn.build",),
    "pipeline.compile_share": ("pipeline.compile",),
    "pipeline.activity_share": ("pipeline.activity",),
    "pipeline.pdn_share": ("pipeline.pdn",),
    "pipeline.analyze_share": ("pipeline.analyze",),
    "pipeline.measure_share": ("pipeline.measure",),
    "ga.self_share": ("ga",),
    "engine.self_share": ("engine",),
    "qualify.self_share": ("qualify",),
    "checkpoint.save_share": ("checkpoint.save",),
    "checkpoint.load_share": ("checkpoint.load",),
    "registry.publish_share": ("registry.publish",),
    "registry.verify_share": ("registry.verify",),
    "fleet.self_share": ("fleet",),
}


class Tally:
    """One process's layer ledger: calls, busy and self time, counters."""

    def __init__(self, role: str = "main", clock=time.perf_counter):
        self.clock = clock
        self._reset(role)

    def _reset(self, role: str) -> None:
        self.role = role
        self.layers: dict[str, list] = {}
        """key -> [calls, busy_s, self_s]"""
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._stack: list = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, key: str) -> None:
        self._stack.append([key, self.clock(), 0.0])

    def leave(self) -> float:
        """Close the innermost frame and return its duration."""
        key, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        entry = self.layers.setdefault(key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += elapsed - nested
        if all(frame[0] != key for frame in self._stack):
            entry[1] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def become_worker(self) -> None:
        """Start empty in a forked child: its parent's ledger is not its own."""
        self._reset("worker")

    def to_dict(self) -> dict:
        return {"role": self.role, "layers": self.layers,
                "counts": self.counts, "samples": self.samples}

    def dump(self, directory) -> None:
        path = Path(directory) / f"tally-{os.getpid()}.json"
        path.write_text(json.dumps(self.to_dict()))


def merge(tallies) -> dict:
    """Sum a list of tally dicts (layers, counts; samples concatenate)."""
    out = {"layers": {}, "counts": {}, "samples": {}}
    for tally in tallies:
        for key, (calls, busy, self_s) in tally["layers"].items():
            entry = out["layers"].setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_s
        for name, value in tally["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + value
        for name, values in tally["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
    return out


def _rank(pct: float, n: int) -> int:
    # Rounding first keeps float noise (0.9 * 100 = 90.00000000000001)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value): the highest of p90/p99/p99.9 that still leaves
    at least ten samples beyond it; p50 when none does."""
    ordered = sorted(values)
    chosen = 50.0
    for pct in (90.0, 99.0, 99.9):
        if len(ordered) - _rank(pct, len(ordered)) >= 10:
            chosen = pct
    return chosen, percentile(ordered, chosen)


def layer_metrics(tallies, *, wall_s: float, fleet_workers: int = 1) -> dict:
    """The per-layer metrics of one traced repetition.

    *tallies* are the dicts of every process of the repetition; *wall_s*
    is the repetition's wall time as the parent measured it.  Self-time
    shares sum layers over all processes (shard workers run beside the
    orchestrator, so on a fleet they can exceed 1 in total);
    ``layers.coverage`` sums main-process self times only, which
    partition the wall time the wrapped calls explain.
    """
    every = merge(tallies)
    main = merge([t for t in tallies if t["role"] == "main"])
    workers = merge([t for t in tallies if t["role"] == "worker"])
    layers, counts, samples = every["layers"], every["counts"], every["samples"]

    def calls(key, source=layers):
        return source.get(key, [0, 0.0, 0.0])[0]

    def busy(key, source=layers):
        return source.get(key, [0, 0.0, 0.0])[1]

    def self_s(*keys, source=layers):
        return sum(source.get(key, [0, 0.0, 0.0])[2] for key in keys)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {name: ratio(self_s(*keys), wall_s) for name, keys in _SELF_SHARES.items()}
    latencies = samples.get("pipeline.measure_ms", [])
    tail_pct, tail_ms = tail_percentile(latencies) if latencies else (0.0, 0.0)
    fleet_wall = busy("fleet", main["layers"])
    shard_busy = busy("fleet.shard", workers["layers"])
    shard_ids = samples.get("fleet.shard_ids", [])
    metrics.update({
        "startup.import_s": statistics.median(samples.get("startup_s", [0.0])),
        "uarch.runs": calls("uarch"),
        "uarch.smt_runs": counts.get("uarch.smt_runs", 0),
        "uarch.cycles": counts.get("uarch.cycles", 0),
        "uarch.cycles_per_s": ratio(counts.get("uarch.cycles", 0), self_s("uarch")),
        "uarch.memo_hit_ratio": ratio(calls("uarch.memo") - calls("uarch"), calls("uarch.memo")),
        "pdn.solves": calls("pdn"),
        "pdn.samples": counts.get("pdn.samples", 0),
        "pdn.solver_builds": calls("pdn.build"),
        "pipeline.measurements": calls("pipeline.measure"),
        "pipeline.activity_hit_ratio": ratio(counts.get("pipeline.activity_hits", 0),
                                             calls("pipeline.activity")),
        "pipeline.pdn_hit_ratio": ratio(counts.get("pipeline.pdn_hits", 0), calls("pipeline.pdn")),
        "pipeline.measure_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "pipeline.measure_tail_ms": tail_ms,
        "pipeline.measure_tail_pct": tail_pct,
        "resonance.probes": counts.get("resonance.probes", 0),
        "resonance.busy_share": ratio(busy("resonance"), wall_s),
        "ga.generations": counts.get("ga.generations", 0),
        "engine.evaluations": counts.get("engine.evaluations", 0),
        "engine.cache_hits": counts.get("engine.cache_hits", 0),
        "engine.hit_ratio": ratio(counts.get("engine.cache_hits", 0),
                                  counts.get("engine.evaluations", 0)
                                  + counts.get("engine.cache_hits", 0)),
        "engine.failed": counts.get("engine.failed", 0),
        "qualify.reports": calls("qualify"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.state_bytes": max(samples.get("checkpoint.state_bytes", [0])),
        "checkpoint.loads": calls("checkpoint.load"),
        "registry.publishes": calls("registry.publish"),
        "fleet.shards": len(set(shard_ids)),
        "fleet.shard_busy_share": ratio(shard_busy, wall_s),
        "fleet.parallel_efficiency": ratio(shard_busy, fleet_workers * fleet_wall),
        "fleet.shard_retries": len(shard_ids) - len(set(shard_ids)),
        "layers.coverage": ratio(sum(entry[2] for entry in main["layers"].values()), wall_s),
    })
    return metrics


# ----------------------------------------------------------------------
# Installing the wrappers (runs in the measured process)
# ----------------------------------------------------------------------
def parse_slowdown(items) -> dict:
    """``["uarch=2.0"]`` -> ``{"uarch": 2.0}``."""
    out = {}
    for item in items:
        layer, _, factor = item.partition("=")
        try:
            out[layer] = float(factor)
        except ValueError:
            raise SystemExit(f"--slowdown expects LAYER=FACTOR, got {item!r}") from None
        if out[layer] < 1.0:
            raise SystemExit(f"--slowdown factor must be >= 1, got {item!r}")
    return out


def write_spans(directory, records) -> None:
    """The repo tracer's span records as JSONL, one file per process."""
    from repro.core.telemetry import event_to_dict

    with open(Path(directory) / f"spans-{os.getpid()}.jsonl", "w") as handle:
        for event in records:
            handle.write(json.dumps(event_to_dict(event)) + "\n")


def _wrap(owner, name: str, key: str, tally: Tally, factor: float,
          after=None, before=None):
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        state = before(args) if before is not None else None
        tally.enter(key)
        start = tally.clock()
        try:
            result = fn(*args, **kwargs)
            if factor != 1.0:
                time.sleep((factor - 1.0) * (tally.clock() - start))
        finally:
            elapsed = tally.leave()
        if after is not None:
            after(tally, result, args, elapsed, state)
        return result

    setattr(owner, name, wrapped)
    return wrapped


def _after_module_run(tally, trace, args, elapsed, state):
    tally.count("uarch.cycles", trace.cycles)
    if len(args[1]) > 1:
        tally.count("uarch.smt_runs")


def _after_solve(tally, result, args, elapsed, state):
    load = args[1]
    tally.count("pdn.samples", getattr(load, "samples", load).size)


def _cache_hits(args):
    return args[0].cache.hits


def _hits_counter(name):
    def after(tally, result, args, elapsed, hits_before):
        tally.count(name, args[0].cache.hits - hits_before)
    return after


def _after_measure(tally, result, args, elapsed, state):
    tally.sample("pipeline.measure_ms", elapsed * 1e3)


def _engine_state(args):
    engine = args[0]
    return engine.evaluations, engine.cache_hits, engine.quarantines


def _after_engine(tally, values, args, elapsed, state):
    engine = args[0]
    evaluations, hits, quarantines = state
    tally.count("engine.evaluations", engine.evaluations - evaluations)
    tally.count("engine.cache_hits", engine.cache_hits - hits)
    nonfinite = sum(1 for value in values if not math.isfinite(value))
    tally.count("engine.failed", engine.quarantines - quarantines + nonfinite)


def _after_checkpoint_save(tally, path, args, elapsed, state):
    if path is not None and Path(path).exists():
        tally.sample("checkpoint.state_bytes", Path(path).stat().st_size)


def _resolve(spec: str):
    """``"pkg.module:Class"`` -> the class; ``"pkg.module"`` -> the module."""
    module, _, name = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, name) if name else owner


def install(tally: Tally, *, traced: bool, slowdown: dict, trace_dir=None) -> None:
    """Wrap the layers of the importable ``repro`` package.

    With ``traced`` every entry point below is wrapped; otherwise only the
    layers named in *slowdown* are, and only their modules are imported.
    A slowed wrapper sleeps ``factor - 1`` times its own duration, so
    results stay bit-identical while the layer looks that much slower.  A
    forked fleet shard worker starts an empty ledger and writes it to
    *trace_dir* whenever its outermost ``run_shard`` returns.
    """

    def after_shard(tally, result, args, elapsed, state):
        tally.sample("fleet.shard_ids", result.scenario_id)
        if tally.role == "worker" and tally.depth == 0 and trace_dir is not None:
            tally.dump(trace_dir)

    points = [
        # (owner, then every module that imported the name; attribute;
        #  layer key; after hook; before hook)
        (("repro.uarch.module:ModuleSimulator",), "run", "uarch", _after_module_run, None),
        (("repro.uarch.chip:ChipSimulator",), "run_module", "uarch.memo", None, None),
        (("repro.pdn.transient:TransientSolver",), "__init__", "pdn.build", None, None),
        (("repro.pdn.transient:TransientSolver",), "simulate", "pdn", _after_solve, None),
        (("repro.pdn.transient:TransientSolver",), "steady_state_periodic", "pdn",
         _after_solve, None),
        (("repro.pdn.transient:TransientSolver",), "steady_state_periodic_batch", "pdn",
         _after_solve, None),
        (("repro.pdn.transient:TransientSolver",), "simulate_batch", "pdn", _after_solve, None),
        (("repro.pipeline.stages:CompileStage",), "run", "pipeline.compile", None, None),
        (("repro.pipeline.stages:ActivityStage",), "run", "pipeline.activity",
         _hits_counter("pipeline.activity_hits"), _cache_hits),
        (("repro.pipeline.stages:PdnStage",), "run", "pipeline.pdn",
         _hits_counter("pipeline.pdn_hits"), _cache_hits),
        (("repro.pipeline.stages:PdnStage",), "run_batch", "pipeline.pdn", None, None),
        (("repro.pipeline.stages:AnalyzeStage",), "run", "pipeline.analyze", None, None),
        (("repro.core.platform:MeasurementPlatform",), "measure_program", "pipeline.measure",
         _after_measure, None),
        (("repro.core.resonance", "repro.core.audit"), "find_resonance", "resonance",
         lambda t, r, a, e, s: t.count("resonance.probes", len(r.points)), None),
        (("repro.core.ga:GeneticAlgorithm",), "run", "ga",
         lambda t, r, a, e, s: t.count("ga.generations", len(r.history)), None),
        (("repro.core.engine:EvaluationEngine",), "evaluate_many", "engine",
         _after_engine, _engine_state),
        (("repro.core.qualify:StressmarkQualifier",), "qualify_program", "qualify", None, None),
        (("repro.core.checkpoint:CampaignCheckpoint",), "save", "checkpoint.save",
         _after_checkpoint_save, None),
        (("repro.core.qualify:QualificationCheckpoint",), "save", "checkpoint.save",
         _after_checkpoint_save, None),
        (("repro.core.checkpoint:CampaignCheckpoint",), "load", "checkpoint.load", None, None),
        (("repro.core.qualify:QualificationCheckpoint",), "load", "checkpoint.load", None, None),
        (("repro.fleet.shard", "repro.fleet.orchestrator", "repro.cli._fleet"), "load_result",
         "checkpoint.load", None, None),
        (("repro.registry.store:StressmarkRegistry",), "publish", "registry.publish", None, None),
        (("repro.registry.verify", "repro.registry"), "verify_record", "registry.verify",
         None, None),
        (("repro.fleet.orchestrator:FleetOrchestrator",), "run", "fleet", None, None),
        # Patched before any orchestrator is built: it binds run_shard as
        # its task function at construction.
        (("repro.fleet.shard", "repro.fleet.orchestrator"), "run_shard", "fleet.shard",
         after_shard, None),
    ]
    unknown = set(slowdown) - {key for _owners, _name, key, _a, _b in points}
    if unknown:
        raise SystemExit(f"--slowdown: unknown layer(s) {sorted(unknown)}")
    for owners, name, key, after, before in points:
        if not traced and key not in slowdown:
            continue
        wrapped = _wrap(_resolve(owners[0]), name, key, tally, slowdown.get(key, 1.0),
                        after if traced else None, before if traced else None)
        for alias in owners[1:]:
            setattr(_resolve(alias), name, wrapped)
    if traced:
        os.register_at_fork(after_in_child=tally.become_worker)
