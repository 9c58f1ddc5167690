"""Shared CLI plumbing: flags, platform builders, telemetry.

Everything here is command-agnostic; the per-command modules
(:mod:`repro.cli._audit`, :mod:`repro.cli._qualify`, …) import from this
module only, never from each other.  Exit codes live in
:mod:`repro.errors`.  Like the command modules, this one imports the
numpy-backed simulator inside the functions that use it, so building
the parser loads none of it.
"""

from __future__ import annotations

import argparse
import functools
from typing import TYPE_CHECKING

from repro.core.telemetry import (
    ConsoleObserver,
    JsonlObserver,
    RecentEventsObserver,
)
from repro.errors import ConfigurationError, ReproError

if TYPE_CHECKING:
    from repro.core.faults import FaultPolicy

#: Flight recorder for crash reports; reset per ``main`` invocation.
_flight_recorder = RecentEventsObserver()


def _platform(chip: str, throttle: int | None = None):
    from repro.experiments.setup import bulldozer_testbed, phenom_testbed

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


def _sinks(args):
    """Telemetry sinks selected by CLI flags; returns (sinks, jsonl)."""
    sinks = [_flight_recorder]
    jsonl = None
    if getattr(args, "progress", False):
        sinks.append(ConsoleObserver())
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
        sinks.append(jsonl)
    return sinks, jsonl


def _tracing_scope(args, sinks):
    """Scoped ambient tracer over the command's *sinks*.

    The installed tracer is the only path any event takes to a sink, and
    every command that emits has sinks (at least the crash flight
    recorder), so the scope always installs a tracer, whatever telemetry
    flags *args* carries.  A command opens it once, around everything
    that emits.
    """
    from repro.obs.spans import Tracer, tracing

    return tracing(Tracer(sinks))


def _fault_policy(args) -> FaultPolicy | None:
    """A FaultPolicy from the campaign CLI flags (None = fail-fast)."""
    if args.eval_retries is None and args.on_fault is None:
        return None
    from repro.core.faults import FaultPolicy

    return FaultPolicy(
        max_retries=args.eval_retries if args.eval_retries is not None else 2,
        backoff_s=args.eval_backoff,
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
    """Process-supervision knobs of the ``audit`` campaign.

    (``fleet run`` declares its own per-shard equivalents.)
    """
    parser.add_argument(
        "--eval-hard-timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-evaluation deadline: evaluations run in a supervised "
             "worker pool (one worker unless --workers says more), a stuck "
             "worker is killed, the pool respawned, and the genome handed "
             "to the fault policy")
    parser.add_argument(
        "--max-pool-rebuilds", type=int, default=None, metavar="N",
        help="total worker-pool respawns (hangs + crashes) tolerated per "
             "run before it is declared systemically unstable (default 5)")
    parser.add_argument(
        "--max-wall-clock", type=float, default=None, metavar="SECONDS",
        help="stop gracefully after this much wall time: finish the "
             "in-flight generation, write a final checkpoint, exit 75 "
             "(same path as SIGTERM)")


def _shutdown_coordinator(args):
    """A ShutdownCoordinator wired to SIGTERM/SIGINT + --max-wall-clock."""
    from repro.supervision.shutdown import ShutdownCoordinator

    return ShutdownCoordinator(max_wall_clock_s=getattr(args, "max_wall_clock", None))


def _make_supervised_executor(args):
    """The campaign executor from --workers + supervision flags."""
    from repro.core.engine import make_executor

    return make_executor(
        args.workers,
        hard_timeout_s=args.eval_hard_timeout,
        max_pool_rebuilds=args.max_pool_rebuilds,
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


def _publish_record(args, record) -> None:
    """Publish *record* into ``args.registry`` and narrate the outcome."""
    from repro.registry.store import StressmarkRegistry

    registry = StressmarkRegistry(args.registry)
    outcome = registry.publish(record)
    state = "already published as" if outcome.deduped else "published as"
    print(f"registry: {state} {outcome.record_id[:12]} in {args.registry}")
