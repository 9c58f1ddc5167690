"""Shared CLI plumbing: exit codes, flags, platform builders, telemetry.

Everything here is command-agnostic; the per-command modules
(:mod:`repro.cli._audit`, :mod:`repro.cli._qualify`, …) import from this
module only, never from each other.
"""

from __future__ import annotations

import argparse
import functools

from repro.core.faults import FaultPolicy
from repro.core.telemetry import (
    ConsoleObserver,
    JsonlObserver,
    RecentEventsObserver,
)
from repro.errors import (  # noqa: F401 — canonical home is repro.errors
    EXIT_CONFIG,
    EXIT_CRASH,
    EXIT_FAILURE,
    EXIT_FAULTS,
    EXIT_INTERRUPTED,
    EXIT_INVARIANT,
    EXIT_OK,
    CampaignInterrupted,
    ConfigurationError,
    ReproError,
)
from repro.experiments.setup import bulldozer_testbed, phenom_testbed

#: Flight recorder for crash reports; reset per ``main`` invocation.
_flight_recorder = RecentEventsObserver()


def _platform(chip: str, throttle: int | None = None):
    if chip == "bulldozer":
        return bulldozer_testbed(fp_throttle=throttle)
    if chip == "phenom":
        if throttle is not None:
            raise ReproError("--throttle is only modelled on the bulldozer chip")
        return phenom_testbed()
    raise ReproError(f"unknown chip {chip!r} (expected bulldozer or phenom)")


def _platform_factory(chip: str, throttle: int | None = None):
    """A picklable platform builder for process-pool workers."""
    return functools.partial(_platform, chip, throttle)


def _observers(args):
    """Telemetry sinks selected by CLI flags; returns (observers, jsonl)."""
    observers = [_flight_recorder]
    jsonl = None
    if getattr(args, "progress", False):
        observers.append(ConsoleObserver())
    telemetry_out = getattr(args, "telemetry_out", None)
    if telemetry_out:
        try:
            # Buffered writes keep tracing overhead off the campaign's
            # critical path; ShutdownCoordinator flushes the buffer on a
            # graceful drain and close() flushes on the way out.
            jsonl = JsonlObserver(telemetry_out, flush_every=32)
        except OSError as error:
            raise ConfigurationError(
                f"cannot open telemetry log {telemetry_out!r}: {error}"
            ) from error
        observers.append(jsonl)
    return observers, jsonl


def _tracing_scope(args, observers):
    """Scoped ambient tracer over the command's *observers*.

    Phases, generations, checkpoints and pipeline stages report only as
    spans, and every campaign command has sinks for them (the run
    collector and the crash flight recorder), so the scope always
    installs a tracer, whatever telemetry flags *args* carries.  The
    tracer holds the live *observers* list, so sinks appended after this
    call still see every span.
    """
    from repro.obs.spans import Tracer, tracing

    return tracing(Tracer(observers))


def _fault_policy(args) -> FaultPolicy | None:
    """A FaultPolicy from the campaign CLI flags (None = fail-fast)."""
    if (args.eval_retries is None and args.eval_timeout is None
            and args.on_fault is None):
        return None
    return FaultPolicy(
        max_retries=args.eval_retries if args.eval_retries is not None else 2,
        backoff_s=args.eval_backoff,
        eval_timeout_s=args.eval_timeout,
        on_exhaust=args.on_fault or "raise",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="evaluate GA generations on this many worker processes "
             "(default: serial in-process; worker-side measurement "
             "counters are merged into the run summary)")
    parser.add_argument(
        "--progress", action="store_true",
        help="narrate generations and phases to stderr")
    parser.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="append per-event telemetry as JSON lines to PATH")


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """Process-supervision knobs shared by audit/qualify/fleet campaigns."""
    parser.add_argument(
        "--eval-hard-timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-evaluation deadline under --workers: a stuck worker "
             "is killed, the pool respawned, and the genome handed to the "
             "fault policy (unlike --eval-timeout, which only measures "
             "attempts that return)")
    parser.add_argument(
        "--max-pool-rebuilds", type=int, default=None, metavar="N",
        help="total worker-pool respawns (hangs + crashes) tolerated per "
             "evaluation batch before the run is declared systemically "
             "unstable (default 5)")
    parser.add_argument(
        "--max-wall-clock", type=float, default=None, metavar="SECONDS",
        help="stop gracefully after this much wall time: finish the "
             "in-flight generation, write a final checkpoint, exit 75 "
             "(same path as SIGTERM)")


def _shutdown_coordinator(args, observers):
    """A ShutdownCoordinator wired to SIGTERM/SIGINT + --max-wall-clock."""
    from repro.supervision import ShutdownCoordinator

    return ShutdownCoordinator(
        max_wall_clock_s=getattr(args, "max_wall_clock", None),
        observers=observers,
    )


def _make_supervised_executor(args, observers):
    """The campaign executor from --workers + supervision flags."""
    from repro.core.engine import make_executor
    from repro.supervision.executor import DEFAULT_MAX_POOL_REBUILDS

    rebuilds = getattr(args, "max_pool_rebuilds", None)
    return make_executor(
        getattr(args, "workers", None),
        hard_timeout_s=getattr(args, "eval_hard_timeout", None),
        max_pool_rebuilds=(
            rebuilds if rebuilds is not None else DEFAULT_MAX_POOL_REBUILDS
        ),
        observers=observers,
    )


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write an atomic campaign snapshot (GA population, RNG state, "
             "fitness cache) to DIR every generation")
    group.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume the campaign checkpointed in DIR and keep "
             "checkpointing there; run parameters come from the stored "
             "meta, and the final stressmark is identical to an "
             "uninterrupted run")
    _add_fault_args(parser)


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--eval-retries", type=int, default=None, metavar="N",
        help="retry a faulting measurement up to N times before the "
             "--on-fault action (enables the fault policy)")
    parser.add_argument(
        "--eval-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base backoff between retries (doubles per attempt)")
    parser.add_argument(
        "--eval-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog budget per evaluation; slower attempts count as "
             "faults (enables the fault policy)")
    parser.add_argument(
        "--on-fault", default=None, choices=("raise", "skip", "penalize"),
        help="what to do with a genome once retries are exhausted: kill "
             "the run, quarantine at -inf fitness, or quarantine at the "
             "penalty fitness (enables the fault policy)")


def _add_registry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry", default=None, metavar="DIR",
        help="publish the result into the stressmark registry at DIR "
             "(content-addressed; republishing an identical result "
             "deduplicates)")
    parser.add_argument(
        "--registry-campaign", default="", metavar="LABEL",
        help="campaign label stored in the record's provenance "
             "(used by `repro registry compare campaign:A campaign:B`)")


def _publish_record(args, record, observers) -> None:
    """Publish *record* into ``args.registry`` and narrate the outcome."""
    from repro.registry import StressmarkRegistry

    registry = StressmarkRegistry(args.registry, observers=observers)
    outcome = registry.publish(record)
    state = "already published as" if outcome.deduped else "published as"
    print(f"registry: {state} {outcome.record_id[:12]} in {args.registry}")
