"""Parser assembly, crash reporting, and the ``main`` entry point."""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from repro import package_version
from repro.cli import (
    _audit,
    _common,
    _experiments,
    _fleet,
    _qualify,
    _registry,
    _telemetry,
    _tools,
)
from repro.core.telemetry import RecentEventsObserver
from repro.errors import (
    EXIT_CONFIG,
    EXIT_CRASH,
    EXIT_FAILURE,
    EXIT_FAULTS,
    EXIT_INTERRUPTED,
    EXIT_INVARIANT,
    CampaignInterrupted,
    ConfigurationError,
    InvariantViolation,
    QuarantineExhaustedError,
    ReproError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AUDIT reproduction: di/dt stressmark generation",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)
    _tools.register_sweep(sub)
    _audit.register(sub)
    _fleet.register(sub)
    _qualify.register(sub)
    _registry.register(sub)
    _telemetry.register(sub)
    _tools.register_bench(sub)
    _tools.register_netlist(sub)
    _experiments.register(sub)
    return parser


def _crash_report(args, error: BaseException) -> str | None:
    """Write ``crash_report.json`` for an unhandled exception.

    The report lands next to the campaign checkpoint when one is
    configured (the natural place to look after an overnight run died),
    otherwise in the working directory.  It carries the parsed CLI args,
    the traceback, and the tail of the telemetry event stream — enough
    to reconstruct what the run was doing when it went down.
    """
    directory = (getattr(args, "checkpoint_dir", None)
                 or getattr(args, "resume", None)
                 or getattr(args, "dir", None) or ".")
    path = Path(directory) / "crash_report.json"
    payload = {
        "command": getattr(args, "command", None),
        "args": {
            key: value for key, value in vars(args).items()
            if isinstance(value, (str, int, float, bool, type(None)))
        },
        "version": package_version(),
        "error": f"{type(error).__name__}: {error}",
        "traceback": traceback.format_exc(),
        "recent_events": _common._flight_recorder.tail(),
        "written_at": time.time(),
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
    except OSError:
        return None  # never let the crash reporter mask the crash
    return str(path)


def main(argv: list[str] | None = None) -> int:
    _common._flight_recorder = RecentEventsObserver()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CampaignInterrupted as error:
        # A *sanctioned* stop (signal or wall-clock budget): the final
        # checkpoint landed, so this run is resumable — exit 75, not 1.
        print(f"interrupted: {error}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ConfigurationError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except QuarantineExhaustedError as error:
        print(f"fault policy exhausted: {error}", file=sys.stderr)
        return EXIT_FAULTS
    except InvariantViolation as error:
        print(f"invariant violation: {error}", file=sys.stderr)
        return EXIT_INVARIANT
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FAILURE
    except KeyboardInterrupt:
        raise
    except Exception as error:  # noqa: BLE001 — last-resort crash report
        report = _crash_report(args, error)
        where = f" (crash report: {report})" if report else ""
        print(f"internal error: {type(error).__name__}: {error}{where}",
              file=sys.stderr)
        return EXIT_CRASH
