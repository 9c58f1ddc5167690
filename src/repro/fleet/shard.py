"""One fleet shard: a scenario run as a checkpointed AUDIT campaign.

:func:`run_shard` is the picklable unit the orchestrator schedules onto
its process pool.  It builds the scenario's measurement platform from the
matrix axes (chip preset × PDN tolerance scaling), runs the full closed
loop through :class:`~repro.core.audit.AuditRunner` with a per-shard
:class:`~repro.core.checkpoint.CampaignCheckpoint` directory (so a killed
fleet resumes every shard exactly where it stopped), optionally qualifies
the winner and sweeps its failure voltage, and lands an atomic
``result.json`` in the shard directory.

Failures never escape as exceptions: they are classified into the CLI's
exit-code taxonomy (2 config / 3 fault-exhaustion / 4 invariant /
70 crash / 75 interrupted) and returned as a failed :class:`ShardResult`,
with a ``crash_report.json`` written next to the shard checkpoint for the
unexpected ones — so one bad scenario cannot take the fleet down.

Every shard runs under its own :class:`~repro.obs.spans.Tracer`, joined
to the orchestrator's trace — its ``audit.campaign`` nests under the
orchestrator's ``fleet.shard`` span — when the spec carries a
:class:`~repro.obs.spans.TraceContext` (fresh otherwise).  Its sink is
the shard's :class:`~repro.core.telemetry.TelemetryCollector`, whose
``engine.*`` counters give the result's evaluation timings.  A joined
shard's spans reach the orchestrator one of two ways.  In-process (a
serial fleet) each span goes to the caller's sinks as it closes, so
``--progress`` narrates the shard as it runs.  In a pool worker a
:class:`~repro.obs.spans.SpanBuffer` keeps every span (the scenario's
budget bounds them) and ships them home in the returned result's
``timing["spans"]``; ``result.json`` banks the result without them: a
resumed fleet runs under a new trace, where they would be orphans.

Each shard also installs its own worker-side
:class:`~repro.supervision.shutdown.ShutdownCoordinator` for SIGTERM, so a fleet
host draining its workers gets a final campaign checkpoint from every
shard instead of half-written state: the shard reports ``interrupted``
(exit 75), keeps its ``result.json`` unwritten, and resumes from the
banked generation on the next fleet run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.atomicio import atomic_write_json
from repro.core.audit import AuditConfig, AuditRunner, StressmarkMode
from repro.core.checkpoint import (
    CampaignCheckpoint,
    decode_stressmark_genome,
    encode_stressmark_genome,
)
from repro.core.faults import FaultPolicy
from repro.core.ga import GaConfig
from repro.core.platform import MeasurementPlatform
from repro.core.qualify import QualificationCheckpoint, QualifyConfig
from repro.core.telemetry import SpanEvent, TelemetryCollector, event_to_dict
from repro.errors import (
    EXIT_CONFIG,
    EXIT_CRASH,
    EXIT_FAILURE,
    EXIT_FAULTS,
    EXIT_INTERRUPTED,
    EXIT_INVARIANT,
    EXIT_OK,
    CampaignInterrupted,
    ConfigurationError,
    InvariantViolation,
    QuarantineExhaustedError,
    ReproError,
)
from repro.experiments.setup import program_failure_voltage
from repro.fleet.matrix import Scenario
from repro.obs.spans import SpanBuffer, TraceContext, Tracer, adopt, current_tracer, tracing
from repro.pdn.elements import PdnParameters
from repro.supervision.shutdown import ShutdownCoordinator
from repro.uarch.config import ChipConfig

RESULT_FILE = "result.json"

#: Bumped when the shard result layout changes incompatibly.
RESULT_VERSION = 1


def scenario_config(scenario: Scenario) -> tuple[ChipConfig, PdnParameters]:
    """The chip and PDN configuration a scenario's axes describe.

    The chip axis picks the processor preset; the pdn axis scales every
    R/L/C/ESR field of the die stage by the tolerance factor — component
    tolerances on the stage that sets the first-droop resonance, i.e.
    "the same hunt on the next board off the line".  The registry's
    descriptor derivation is that mapping, so a fleet record rebuilds
    exactly the platform its shard measured on.
    """
    # Deferred: every ``repro`` launch imports this module, and only
    # launches that configure a scenario need the registry.
    from repro.registry.provenance import platform_config, platform_descriptor

    return platform_config(platform_descriptor(scenario.chip, pdn_scale=scenario.pdn_scale))


def scenario_platform(scenario: Scenario) -> MeasurementPlatform:
    """The measurement platform a scenario's axes describe."""
    return MeasurementPlatform(*scenario_config(scenario))


def classify_failure(error: BaseException) -> int:
    """Map a shard failure onto the CLI exit-code taxonomy."""
    if isinstance(error, CampaignInterrupted):
        return EXIT_INTERRUPTED
    if isinstance(error, QuarantineExhaustedError):
        return EXIT_FAULTS
    if isinstance(error, InvariantViolation):
        return EXIT_INVARIANT
    if isinstance(error, ConfigurationError):
        return EXIT_CONFIG
    if isinstance(error, ReproError):
        return EXIT_FAILURE
    return EXIT_CRASH


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to run one shard (picklable)."""

    scenario: Scenario
    shard_dir: str
    seed_state_dirs: tuple = ()
    """Checkpoint directories of completed same-platform predecessors;
    their fitness caches seed this shard's engine."""
    qualify: bool = False
    failure_voltage: bool = False
    fault_policy: FaultPolicy | None = None
    max_wall_clock_s: float | None = None
    """Per-shard wall-clock budget; overrun stops the campaign gracefully
    at the next generation boundary (status ``interrupted``, exit 75)."""
    trace_context: TraceContext | None = None
    """Coordinates of the orchestrator's ``fleet.shard`` span; when set the
    shard's tracer joins that trace, and its spans reach the caller's sinks
    as they close (in-process) or ship back in the returned
    ``ShardResult.timing["spans"]`` (in a pool worker)."""


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one shard, as persisted in ``result.json``.

    Everything except ``timing`` is deterministic for a given scenario,
    so the fleet report (which drops ``timing``) is bit-identical across
    kills, resumes, and worker counts.
    """

    scenario: dict
    scenario_id: str
    status: str
    exit_code: int = EXIT_OK
    error: str = ""
    droop_v: float | None = None
    best_fitness: float | None = None
    evaluations: int | None = None
    resonance_hz: float | None = None
    genome: dict | None = None
    verdict: str = ""
    robustness: float | None = None
    failure_voltage_v: float | None = None
    timing: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_payload(self) -> dict:
        return {"result_version": RESULT_VERSION, **asdict(self)}

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardResult":
        payload = dict(payload)
        payload.pop("result_version", None)
        return cls(**payload)


def result_path(shard_dir) -> Path:
    return Path(shard_dir) / RESULT_FILE


def load_result(shard_dir) -> ShardResult | None:
    """The shard's banked result, or ``None`` when it never finished."""
    path = result_path(shard_dir)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("result_version") != RESULT_VERSION:
        return None
    try:
        return ShardResult.from_payload(payload)
    except TypeError:
        return None


def collect_seed_cache(seed_state_dirs) -> dict:
    """Merge the fitness caches banked by same-platform predecessors."""
    seed_cache: dict = {}
    for directory in seed_state_dirs:
        checkpoint = CampaignCheckpoint(
            directory,
            encode_genome=encode_stressmark_genome,
            decode_genome=decode_stressmark_genome,
        )
        state = checkpoint.load()
        if state is not None:
            seed_cache.update(state.fitness_cache)
    return seed_cache


def _shard_crash_report(spec: ShardSpec, error: BaseException) -> None:
    payload = {
        "scenario": spec.scenario.axes(),
        "scenario_id": spec.scenario.scenario_id,
        "error": f"{type(error).__name__}: {error}",
        "traceback": traceback.format_exc(),
        "written_at": time.time(),
    }
    try:
        directory = Path(spec.shard_dir)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_json(directory / "crash_report.json", payload)
    except OSError:
        pass  # never let the crash reporter mask the shard failure


def run_shard(spec: ShardSpec) -> ShardResult:
    """Run (or finish) one shard and bank its result atomically.

    A previously banked ``result.json`` is served as-is; a shard with a
    partial campaign checkpoint resumes it.  Each failure is classified
    into the exit-code taxonomy and returned — never raised.
    """
    banked = load_result(spec.shard_dir)
    if banked is not None and banked.ok:
        return banked
    scenario = spec.scenario
    start = time.perf_counter()
    collector = TelemetryCollector()
    buffer = None
    context = spec.trace_context
    caller = current_tracer()
    if context is None:
        tracer = Tracer((collector,))
    elif context.pid == os.getpid() and caller is not None:
        # In-process: a forked pool worker inherits the caller's tracer
        # too, but not the caller's pid.
        tracer = adopt(context, (collector, _SpansTo(caller)))
    else:
        buffer = SpanBuffer(cap=None)
        tracer = adopt(context, (collector, buffer))
    try:
        with tracing(tracer):
            result = _run_campaign(spec, collector)
    except BaseException as error:  # noqa: BLE001 — classified, not hidden
        exit_code = classify_failure(error)
        if exit_code == EXIT_CRASH:
            _shard_crash_report(spec, error)
        interrupted = isinstance(error, CampaignInterrupted)
        return ShardResult(
            scenario=scenario.axes(),
            scenario_id=scenario.scenario_id,
            status="interrupted" if interrupted else "failed",
            exit_code=exit_code,
            error=f"{type(error).__name__}: {error}",
            timing=_with_spans({"wall_s": time.perf_counter() - start}, buffer),
        )
    atomic_write_json(result_path(spec.shard_dir), result.to_payload())
    return dataclasses.replace(result, timing=_with_spans(result.timing, buffer))


class _SpansTo:
    """A sink handing each closed span to *tracer*'s sinks as it closes.

    Only spans go, as from a pool shard's buffer: the shard's
    ``platform-stats`` row stays out of the fleet trace.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def on_event(self, event) -> None:
        if isinstance(event, SpanEvent):
            self.tracer.emit(event)


def _with_spans(timing: dict, buffer: SpanBuffer | None) -> dict:
    """*timing* plus the buffered spans, if any."""
    if buffer is None or not buffer.records:
        return timing
    return {**timing, "spans": [event_to_dict(event) for event in buffer.records]}


def _run_campaign(spec: ShardSpec, collector: TelemetryCollector) -> ShardResult:
    scenario = spec.scenario
    platform = scenario_platform(scenario)
    checkpoint = CampaignCheckpoint(spec.shard_dir)
    resume = checkpoint.has_state()
    if not resume:
        # Audit-CLI-compatible meta: `repro audit --resume <shard dir>`
        # continues a single shard by hand.
        meta = {
            "chip": scenario.chip,
            "throttle": None,
            "threads": scenario.threads,
            "mode": scenario.mode,
            "population": scenario.population,
            "generations": scenario.generations,
            "seed": scenario.seed,
            "pdn": scenario.pdn,
            "scenario_id": scenario.scenario_id,
        }
        checkpoint.write_meta(meta)
    runner = AuditRunner(
        platform,
        config=AuditConfig(
            threads=scenario.threads,
            mode=StressmarkMode(scenario.mode),
            ga=GaConfig(
                population_size=scenario.population,
                generations=scenario.generations,
                seed=scenario.seed,
                # Tiny CI budgets shrink below the defaults' floors.
                tournament_size=min(3, scenario.population),
                elite_count=min(2, scenario.population - 1),
            ),
        ),
        fault_policy=spec.fault_policy,
    )
    qualify_config = None
    qualify_checkpoint = None
    if spec.qualify:
        qualify_config = QualifyConfig(seed=scenario.seed)
        qualify_checkpoint = QualificationCheckpoint(checkpoint.directory)
    start = time.perf_counter()
    # SIGTERM only: pool workers execute shards on their main thread, so
    # the handler installs; SIGINT keeps its default disposition so a
    # Ctrl-C on the fleet still tears workers down the ordinary way.
    coordinator = ShutdownCoordinator(
        max_wall_clock_s=spec.max_wall_clock_s,
        signals=(signal.SIGTERM,),
    )
    with coordinator:
        audit = runner.run(
            name=scenario.scenario_id,
            checkpoint=checkpoint,
            resume=resume,
            qualify=qualify_config,
            qualify_checkpoint=qualify_checkpoint,
            seed_cache=collect_seed_cache(spec.seed_state_dirs),
            stop=coordinator.stop_requested,
        )
    wall_s = time.perf_counter() - start
    failure_voltage_v = None
    if spec.failure_voltage:
        voltage = program_failure_voltage(platform, audit.program(), scenario.threads)
        failure_voltage_v = float(voltage)
    verdict = ""
    robustness = None
    if audit.qualification is not None:
        verdict = audit.qualification.verdict
        robustness = float(audit.qualification.chosen_report.robustness)
    return ShardResult(
        scenario=scenario.axes(),
        scenario_id=scenario.scenario_id,
        status="ok",
        droop_v=float(audit.max_droop_v),
        best_fitness=float(audit.ga_result.best_fitness),
        evaluations=int(audit.ga_result.evaluations),
        resonance_hz=float(audit.resonance.resonance_hz),
        genome=encode_stressmark_genome(audit.genome),
        verdict=verdict,
        robustness=robustness,
        failure_voltage_v=failure_voltage_v,
        timing={
            "wall_s": wall_s,
            "eval_wall_s": float(collector.metrics.counter("engine.eval_wall_s")),
            "evals_per_second": collector.evals_per_second,
        },
    )
