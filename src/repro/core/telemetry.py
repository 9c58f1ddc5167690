"""Run telemetry: structured events from the AUDIT closed loop.

On the paper's testbed every fitness call is a multi-second oscilloscope
capture, so knowing *where the time goes* is the difference between an
overnight run and a week.  The reproduction keeps the same discipline:
anything with a duration — a loop phase, a GA generation, an evaluation
batch, a qualification axis, a checkpoint write, a pipeline stage — is a
trace span (:mod:`repro.obs.spans`) whose attributes carry what happened,
and the remaining event kinds record point-in-time results (a fault, a
supervisor action, a shard finished, a registry publish).

Every event takes one path: code calls :func:`repro.obs.spans.span` or
:func:`repro.obs.spans.emit`, and the installed
:class:`~repro.obs.spans.Tracer` hands the event to its sinks.  With no
tracer installed an event goes nowhere.  The measurement platform keeps
aggregate counters (simulator vs. PDN-solve time, cache hits,
measurement path taken) in its own registry.

Sinks are deliberately dumb (:class:`RunObserver`):
:class:`ConsoleObserver` narrates progress, :class:`JsonlObserver`
appends machine-readable lines, and :class:`TelemetryCollector` folds the
stream into a :class:`~repro.obs.metrics.MetricsRegistry` whose rendering
is the end-of-run summary printed by ``repro bench-evals``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from typing import IO, TYPE_CHECKING, Protocol, runtime_checkable

from repro.analysis.report import format_kv_table

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One failed evaluation attempt (retried or quarantined)."""

    genome: str
    error: str
    attempt: int
    action: str
    """``"retry"`` when another attempt follows, ``"quarantine"`` when the
    policy gave up on the genome."""
    timeout: bool = False

    kind = "fault"


@dataclass(frozen=True)
class InvariantEvent:
    """One runtime invariant guard fired on corrupt numerics."""

    guard: str
    layer: str
    error: str
    genome: str = ""

    kind = "invariant"


@dataclass(frozen=True)
class PlatformMetricsEvent:
    """End-of-run platform counters, merged across worker processes.

    ``counters`` is the platform registry's counters (``pipeline.*``,
    ``uarch.*``), pool workers' shares included — the engine merges each
    worker's counters into the parent platform — so ``--workers N``
    traces report the true sim/PDN split.
    """

    counters: dict
    source: str = ""

    kind = "platform-stats"


@dataclass(frozen=True)
class SupervisorEvent:
    """One action taken by the process-supervision layer.

    ``action`` is one of ``"hang-kill"`` (a task blew its hard deadline
    and its worker pool was killed), ``"crash"`` (a worker process died —
    segfault, ``os._exit`` — under a task), ``"respawn"`` (the pool was
    rebuilt), ``"requeue"`` (an innocent in-flight task was rescheduled
    after a kill), ``"give-up"`` (a task exhausted its supervision
    retries and was handed to the fault policy), ``"salvage"`` (a corrupt
    checkpoint was recovered from the previous verified snapshot), or
    ``"shutdown"`` (a graceful stop was requested).  ``task`` labels the
    genome / shard involved, ``detail`` carries the error or reason.
    """

    action: str
    task: str = ""
    detail: str = ""
    respawns: int = 0
    wall_s: float = 0.0

    kind = "supervisor"


@dataclass(frozen=True)
class ShardEvent:
    """One fleet shard changing state.

    ``status`` is ``"started"`` when a shard is dispatched to a worker,
    ``"banked"`` when a resumed fleet finds its completed result on disk,
    ``"ok"`` / ``"failed"`` when it finishes.  Failures carry the error
    string and the exit-code taxonomy entry the shard mapped to
    (3 fault-exhaustion / 4 invariant / 70 crash).
    """

    scenario: str
    status: str
    droop_v: float = 0.0
    evaluations: int = 0
    wall_s: float = 0.0
    error: str = ""
    exit_code: int = 0

    kind = "shard"


@dataclass(frozen=True)
class FleetEvent:
    """Fleet progress after a shard event: the live status line."""

    total: int
    done: int
    failed: int
    running: int
    wall_s: float
    detail: str = ""

    kind = "fleet"


@dataclass(frozen=True)
class RegistryEvent:
    """One stressmark-registry operation.

    ``action`` is ``"publish"`` (a record landed in the store — or was
    already there, ``deduped=True``), ``"verify"`` (a stored record was
    replayed through the measurement pipeline; ``detail`` carries the
    verdict), ``"export"`` / ``"import"`` (tarball round-trips, ``detail``
    counts the records), or ``"salvage"`` (a damaged index was rebuilt
    from the object store).  ``record_id`` is the content hash involved
    (empty for whole-store actions).
    """

    action: str
    record_id: str = ""
    path: str = ""
    detail: str = ""
    deduped: bool = False
    wall_s: float = 0.0

    kind = "registry"


@dataclass(frozen=True)
class SpanEvent:
    """One closed trace span: a timed, nested slice of the closed loop.

    Spans form a tree: ``trace_id`` names the campaign-wide trace,
    ``span_id`` this span, and ``parent_id`` the enclosing span (empty
    for the root).  ``t0_s`` is ``time.monotonic()`` at open —
    CLOCK_MONOTONIC is system-wide on Linux, so spans recorded in pool
    workers and fleet shard subprocesses order correctly against their
    parent.  ``status`` is ``"ok"``, ``"error"`` (the span body raised),
    or ``"lost"`` (the process holding the open span was SIGKILLed and a
    supervisor closed it on its behalf).  ``attrs`` carries structured
    attributes (genome label, pipeline path, batch size, ...).
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str
    t0_s: float
    wall_s: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)
    pid: int = 0

    kind = "span"


TelemetryEvent = (
    FaultEvent | InvariantEvent | PlatformMetricsEvent | ShardEvent
    | FleetEvent | SupervisorEvent | RegistryEvent | SpanEvent
)

#: Every concrete event class, keyed by its ``kind`` tag.  The telemetry
#: conformance suite iterates this registry so a new event kind cannot
#: ship without a golden schema, and the trace loader uses it to rebuild
#: typed events from JSONL rows.
EVENT_TYPES: dict = {
    cls.kind: cls
    for cls in (
        FaultEvent, InvariantEvent, PlatformMetricsEvent, ShardEvent,
        FleetEvent, SupervisorEvent, RegistryEvent, SpanEvent,
    )
}

#: Pipeline-stage spans, by span name, and the stage each one times.
#: Their ``cache_hit``, ``fallback`` (transient-fallback reason) and
#: ``batched`` attributes are the stage facts the sinks below and the
#: trace analyzer report.
STAGE_SPANS = {"pipeline.activity": "activity", "pipeline.pdn_solve": "pdn"}


def phase_of(span_name: str) -> str:
    """The closed-loop phase an ``audit.<phase>`` span times, else "".

    The ``audit.campaign`` root is the whole run, not a phase.
    """
    if span_name.startswith("audit.") and span_name != "audit.campaign":
        return span_name[len("audit."):]
    return ""


def event_to_dict(event: TelemetryEvent) -> dict:
    payload = asdict(event)
    payload["kind"] = event.kind
    return payload


def event_from_dict(payload: dict) -> TelemetryEvent:
    """Rebuild the typed event a JSONL row was rendered from.

    Unknown keys are dropped (forward compatibility); an unknown
    ``kind`` raises ``KeyError`` — the caller decides whether to skip.
    """
    payload = dict(payload)
    cls = EVENT_TYPES[payload.pop("kind")]
    names = {f.name for f in dataclass_fields(cls)}
    return cls(**{key: value for key, value in payload.items() if key in names})


# ----------------------------------------------------------------------
# Observer protocol + sinks
# ----------------------------------------------------------------------
@runtime_checkable
class RunObserver(Protocol):
    """Anything that wants to watch a closed-loop run."""

    def on_event(self, event: TelemetryEvent) -> None: ...


class ConsoleObserver:
    """Narrates generations, phases, qualification and faults to a stream."""

    def __init__(self, stream: IO[str] | None = None):
        self.stream = stream if stream is not None else sys.stderr

    def on_event(self, event: TelemetryEvent) -> None:
        line = None
        if isinstance(event, FaultEvent):
            # A quarantine narrates (a genome just lost its fitness); a
            # retried transient fault stays quiet.
            if event.action == "quarantine":
                line = f"[fault/{event.action}] attempt {event.attempt}: {event.error}"
        elif isinstance(event, InvariantEvent):
            line = f"[invariant/{event.layer}] {event.guard}: {event.error}"
        elif isinstance(event, SupervisorEvent):
            # Supervision actions always narrate: a killed worker or a
            # salvaged checkpoint is exactly what an unattended-run log
            # must explain.
            task = f" {event.task}" if event.task else ""
            detail = f": {event.detail}" if event.detail else ""
            line = f"[supervisor/{event.action}]{task}{detail}"
        elif isinstance(event, RegistryEvent):
            # A record entering the library (or an index being rebuilt)
            # is the registry's whole story; a dedup changes nothing.
            if not event.deduped:
                record = f" {event.record_id[:12]}" if event.record_id else ""
                detail = f": {event.detail}" if event.detail else ""
                line = f"[registry/{event.action}]{record}{detail}"
        elif isinstance(event, ShardEvent):
            line = self._shard_line(event)
        elif isinstance(event, FleetEvent):
            failed = f", {event.failed} failed" if event.failed else ""
            detail = f"  ({event.detail})" if event.detail else ""
            line = (f"[fleet] {event.done}/{event.total} shards done{failed}, "
                    f"{event.running} running  {event.wall_s:.1f}s{detail}")
        elif isinstance(event, SpanEvent):
            line = self._span_line(event)
            # Lost spans always narrate: a worker died holding them.
            if line is None and event.status == "lost":
                line = (f"[span/{event.status}] {event.name}  "
                        f"{event.wall_s * 1e3:.1f}ms")
        if line is not None:
            self.stream.write(line + "\n")
            self.stream.flush()

    @staticmethod
    def _shard_line(event: ShardEvent) -> str | None:
        if event.status == "failed":
            return (f"[shard] {event.scenario}: FAILED (exit "
                    f"{event.exit_code}) {event.error}")
        if event.status == "ok":
            return (f"[shard] {event.scenario}: {event.droop_v * 1e3:.1f} mV  "
                    f"{event.evaluations} evals  {event.wall_s:.1f}s")
        if event.status == "banked":
            return f"[shard] {event.scenario}: banked ({event.droop_v * 1e3:.1f} mV)"
        return None

    def _span_line(self, event: SpanEvent) -> str | None:
        """The progress line a finished span narrates, if it has one.

        A span gets its line only once its body filled in the attributes
        the line reads, so a span that raised stays quiet.
        """
        attrs = event.attrs
        if event.name == "ga.generation" and "best_fitness" in attrs:
            return (
                f"[gen {attrs['generation']:3d}] "
                f"best {attrs['best_fitness']:.5f}  "
                f"mean {attrs['mean_fitness']:.5f}  "
                f"new {attrs['batch_new']}/{attrs['population']}  "
                f"{event.wall_s:.2f}s"
            )
        if event.name == "checkpoint.save" and "path" in attrs:
            return (
                f"[checkpoint] gen {attrs['generation']:3d} -> {attrs['path']}  "
                f"{event.wall_s * 1e3:.1f}ms"
            )
        if event.name == "qualify.axis" and "retention" in attrs:
            return (
                f"[qualify/{attrs['axis']}] {attrs['samples']} samples  droop "
                f"[{attrs['min_droop_v'] * 1e3:.2f}, "
                f"{attrs['max_droop_v'] * 1e3:.2f}] mV  "
                f"retention {attrs['retention']:.2f}"
            )
        if event.name == "qualify.stressmark" and "verdict" in attrs:
            return (
                f"[qualify] {attrs['stressmark']}: {attrs['verdict']} "
                f"(robustness {attrs['robustness']:.2f})  {event.wall_s:.2f}s"
            )
        phase = phase_of(event.name)
        if phase and "detail" in attrs:
            detail = f" ({attrs['detail']})" if attrs["detail"] else ""
            return f"[phase] {phase}{detail}  {event.wall_s:.2f}s"
        stage = STAGE_SPANS.get(event.name)
        if stage is None or "path" not in attrs:
            return None
        # Transient fallbacks and batched solves narrate; routine stage
        # timings stay quiet.
        if attrs.get("fallback"):
            detail = f": {attrs['fallback']}"
        elif attrs.get("batched"):
            detail = f": {attrs['rows']} rows"
        else:
            return None
        batched = " (batched)" if attrs.get("batched") else ""
        cached = " (cached)" if attrs.get("cache_hit") else ""
        return (f"[stage/{stage}/{attrs['path']}]{batched}{cached} "
                f"{event.wall_s * 1e3:.1f}ms{detail}")


class RecentEventsObserver:
    """Keeps the last *limit* events (as dicts) for crash reports.

    The CLI installs one of these alongside the user-requested sinks
    so an unhandled exception can dump the tail of the event stream into
    ``crash_report.json`` — the flight recorder of a failed run.
    """

    def __init__(self, limit: int = 100):
        from collections import deque

        self._events: deque = deque(maxlen=limit)

    def on_event(self, event: TelemetryEvent) -> None:
        # Events are frozen: keep them as-is and render dicts only when a
        # crash report asks, not once per span of every healthy run.
        self._events.append(event)

    def tail(self) -> list[dict]:
        return [event_to_dict(event) for event in self._events]


class JsonlObserver:
    """Appends one JSON object per event to a file (or open stream).

    ``flush_every`` batches writes: lines are buffered and flushed to the
    stream every N events (span-instrumented campaigns emit hundreds of
    events per generation, and a write+fsync per event is the single
    biggest sink cost).  The buffer is drained by :meth:`flush`,
    :meth:`close`, and — critically — by :class:`~repro.supervision
    .ShutdownCoordinator` when a SIGTERM / wall-clock drain begins, so
    the last generation's events survive a ``--max-wall-clock`` stop
    even if the process is killed before the CLI's ``finally`` runs.
    """

    def __init__(self, path_or_stream, *, flush_every: int = 1):
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        if hasattr(path_or_stream, "write"):
            self._stream = path_or_stream
            self._owns = False
        else:
            self._stream = open(path_or_stream, "a")
            self._owns = True
        self._flush_every = flush_every
        self._buffer: list[str] = []

    def on_event(self, event: TelemetryEvent) -> None:
        self._buffer.append(json.dumps(event_to_dict(event)) + "\n")
        if len(self._buffer) >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._stream.write("".join(self._buffer))
            self._buffer.clear()
        self._stream.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "JsonlObserver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TelemetryCollector:
    """Folds the event stream into one :class:`MetricsRegistry`.

    Every number the summary table reports is a counter in
    :attr:`metrics` (or, for the platform rows, in the platform's
    registry), named by the rule in :mod:`repro.obs.metrics`
    (``engine.evaluations``, ``span.wall_s.audit.ga-search``,
    ``supervisor.hang-kill`` …).  Spans count by name, so the generation
    count is ``span.count.ga.generation`` and a phase's time is
    ``span.wall_s.audit.<phase>``.  Some spans add their attribute facts:
    ``engine.evaluate_batch`` its ``size``/``hits``/``eval_wall_s`` (the
    ``engine.*`` counters), the ``qualify.*`` spans their axes and
    verdicts, and the stage spans ``stage.cache_hits.<stage>``,
    ``stage.fallbacks`` and ``stage.batched_solves``.  Collectors merge through the registry,
    so per-worker or per-shard collectors fold together in any order.
    """

    def __init__(self):
        # Imported here: repro.obs imports this module.
        from repro.obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()

    def on_event(self, event: TelemetryEvent) -> None:
        inc = self.metrics.inc
        if isinstance(event, FaultEvent):
            inc("fault.quarantines" if event.action == "quarantine"
                else "fault.retries")
            if event.timeout:
                inc("fault.timeouts")
        elif isinstance(event, InvariantEvent):
            inc("invariant.violations")
            inc(f"invariant.guard.{event.layer}/{event.guard}")
        elif isinstance(event, ShardEvent):
            if event.status in ("ok", "failed"):
                inc("shard.done" if event.status == "ok" else "shard.failed")
                inc("shard.wall_s", event.wall_s)
            elif event.status == "banked":
                inc("shard.banked")
        elif isinstance(event, SupervisorEvent):
            if event.action == "shutdown":
                inc(f"supervisor.shutdown.{event.detail or event.action}")
            else:
                inc(f"supervisor.{event.action}")
        elif isinstance(event, RegistryEvent):
            inc("registry.wall_s", event.wall_s)
            if event.action == "publish":
                inc("registry.deduped" if event.deduped
                    else "registry.published")
            elif event.action == "verify":
                inc("registry.verified")
            elif event.action == "salvage":
                inc("registry.salvaged")
        elif isinstance(event, SpanEvent):
            inc(f"span.count.{event.name}")
            inc(f"span.wall_s.{event.name}", event.wall_s)
            if event.status == "lost":
                inc("span.lost")
            attrs = event.attrs
            if event.name == "engine.evaluate_batch" and "eval_wall_s" in attrs:
                inc("engine.evaluations", attrs["size"])
                inc("engine.cache_hits", attrs["hits"])
                inc("engine.eval_wall_s", attrs["eval_wall_s"])
            elif event.name == "qualify.axis" and "retention" in attrs:
                inc("qualify.axes")
            elif event.name == "qualify.stressmark" and "verdict" in attrs:
                inc("qualify.wall_s", event.wall_s)
                inc(f"qualify.verdict.{attrs['verdict']}")
            stage = STAGE_SPANS.get(event.name)
            if stage is not None:
                if attrs.get("cache_hit"):
                    inc(f"stage.cache_hits.{stage}")
                if attrs.get("fallback"):
                    inc("stage.fallbacks")
                if attrs.get("batched"):
                    inc("stage.batched_solves")

    # ------------------------------------------------------------------
    def merge(self, other: "TelemetryCollector") -> "TelemetryCollector":
        """Fold *other*'s registry into this one, in place (any order)."""
        self.metrics.merge(other.metrics)
        return self

    def counter_snapshot(self) -> dict:
        """The deterministic counters only — no wall-clock, no rates.

        A seeded campaign must produce an identical snapshot whether it
        ran serially or under ``--workers N``; the telemetry-merge tests
        assert exactly this.
        """
        return self.metrics.deterministic_counters()

    # ------------------------------------------------------------------
    @property
    def shutdown_reason(self) -> str:
        """The (lexicographically first) graceful-shutdown reason, or ""."""
        return min(self.metrics.family("supervisor.shutdown"), default="")

    @property
    def cache_hit_rate(self) -> float:
        hits = self.metrics.counter("engine.cache_hits")
        total = self.metrics.counter("engine.evaluations") + hits
        return hits / total if total else 0.0

    @property
    def evals_per_second(self) -> float:
        wall = self.metrics.counter("engine.eval_wall_s")
        return self.metrics.counter("engine.evaluations") / wall if wall > 0 else 0.0

    def summary_table(self, platform_metrics: MetricsRegistry | None = None) -> str:
        """The ``repro bench-evals`` report: throughput, caches, time split.

        A rendering of :attr:`metrics` plus, when given, the platform's
        registry (``platform.metrics``; ``pipeline.*`` and ``uarch.*``).
        """
        metrics = self.metrics
        count = metrics.counter
        rows: list[tuple] = [
            ("fitness evaluations", count("engine.evaluations")),
            ("fitness cache hits", count("engine.cache_hits")),
            ("fitness cache hit rate", f"{self.cache_hit_rate * 100:.1f} %"),
            ("evaluation wall time", f"{count('engine.eval_wall_s'):.2f} s"),
            ("evaluations / second", f"{self.evals_per_second:.1f}"),
            ("generations", count("span.count.ga.generation")),
            ("fault retries", count("fault.retries")),
            ("quarantined genomes", count("fault.quarantines")),
        ]
        if count("fault.timeouts"):
            rows.append(("evaluation timeouts", count("fault.timeouts")))
        if count("invariant.violations"):
            rows.append(("invariant violations", count("invariant.violations")))
            for key, hits in metrics.family("invariant.guard").items():
                rows.append((f"  guard {key}", hits))
        verdicts = metrics.family("qualify.verdict")
        if verdicts:
            rows.append(("qualification verdicts",
                         ", ".join(f"{v}: {n}" for v, n in verdicts.items())))
            rows.append(("qualification axes", count("qualify.axes")))
            rows.append(("qualification wall time",
                         f"{count('qualify.wall_s'):.2f} s"))
        done, failed, banked = (
            count("shard.done"), count("shard.failed"), count("shard.banked")
        )
        if done or failed or banked:
            rows.append(("fleet shards completed", done))
            if banked:
                rows.append(("fleet shards banked", banked))
            if failed:
                rows.append(("fleet shards failed", failed))
            rows.append(("fleet shard wall time", f"{count('shard.wall_s'):.2f} s"))
        hangs, crashes, respawns = (
            count("supervisor.hang-kill"), count("supervisor.crash"),
            count("supervisor.respawn"),
        )
        requeues, give_ups, salvages = (
            count("supervisor.requeue"), count("supervisor.give-up"),
            count("supervisor.salvage"),
        )
        if hangs or crashes or respawns or salvages or give_ups or self.shutdown_reason:
            rows.append(("supervisor: hung tasks killed", hangs))
            rows.append(("supervisor: worker crashes", crashes))
            rows.append(("supervisor: pool respawns", respawns))
            if requeues:
                rows.append(("supervisor: tasks requeued", requeues))
            if give_ups:
                rows.append(("supervisor: tasks given up", give_ups))
            if salvages:
                rows.append(("supervisor: checkpoints salvaged", salvages))
            if self.shutdown_reason:
                rows.append(("graceful shutdown", self.shutdown_reason))
        published, deduped, verified, salvaged = (
            count("registry.published"), count("registry.deduped"),
            count("registry.verified"), count("registry.salvaged"),
        )
        if published or deduped or verified or salvaged:
            rows.append(("registry records published", published))
            if deduped:
                rows.append(("registry records deduplicated", deduped))
            if verified:
                rows.append(("registry records verified", verified))
            if salvaged:
                rows.append(("registry indexes salvaged", salvaged))
            rows.append(("registry wall time", f"{count('registry.wall_s'):.2f} s"))
        if count("span.count.checkpoint.save"):
            rows.append(("checkpoints written",
                         count("span.count.checkpoint.save")))
            rows.append(("checkpoint wall time",
                         f"{count('span.wall_s.checkpoint.save'):.2f} s"))
        for name, wall in metrics.family("span.wall_s").items():
            if phase := phase_of(name):
                rows.append((f"phase: {phase}", f"{wall:.2f} s"))
        if platform_metrics is not None:
            # Every stage is timed in the platform registry; the cache
            # hits come from the stage spans' attributes.
            for name, wall in platform_metrics.family("pipeline.wall_s").items():
                hits = count(f"stage.cache_hits.{name}")
                cached = f" ({hits} cached)" if hits else ""
                rows.append((f"stage: {name}", f"{wall:.2f} s{cached}"))
        spans = metrics.family("span.count")
        if spans:
            rows.append(("trace spans", sum(spans.values())))
            if count("span.lost"):
                rows.append(("trace spans lost", count("span.lost")))
        if count("stage.fallbacks"):
            rows.append(("transient fallbacks", count("stage.fallbacks")))
        if count("stage.batched_solves"):
            rows.append(("batched PDN solves", count("stage.batched_solves")))
        if platform_metrics is not None:
            rows += _platform_rows(platform_metrics)
        return format_kv_table(rows, title="run telemetry")


def _platform_rows(metrics: MetricsRegistry) -> list:
    """Summary rows for a platform registry (``pipeline.*``, ``uarch.*``)."""
    count = metrics.counter
    runs, hits = count("uarch.module_runs"), count("uarch.module_cache_hits")
    trace_rate = hits / (runs + hits) if runs + hits else 0.0
    rows = [
        ("platform measurements", count("pipeline.measurements")),
        ("module-simulator runs", runs),
        ("module-trace cache hits", hits),
        ("module-trace hit rate", f"{trace_rate * 100:.1f} %"),
        ("module-simulator time", f"{count('uarch.sim_s'):.2f} s"),
        ("PDN-solve time", f"{count('pipeline.pdn_solve_s'):.2f} s"),
        ("path: periodic", count("pipeline.path.periodic")),
        ("path: jittered (SMT)", count("pipeline.path.jittered")),
        ("path: transient", count("pipeline.path.transient")),
    ]
    profile_hits = count("pipeline.profile_cache_hits")
    pdn_hits = count("pipeline.pdn_cache_hits")
    if profile_hits or pdn_hits:
        rows.append(("activity-profile cache hits", profile_hits))
        rows.append(("PDN-response cache hits", pdn_hits))
    if count("pipeline.batched_solves"):
        rows.append((
            "batched PDN rows",
            f"{count('pipeline.batched_rows')} in "
            f"{count('pipeline.batched_solves')} solves",
        ))
    return rows

