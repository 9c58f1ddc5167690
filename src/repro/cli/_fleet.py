"""The ``fleet`` command family: run, inspect, and report scenario fleets."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cli._common import (
    _add_fault_args,
    _fault_policy,
    _observers,
    _shutdown_coordinator,
    _tracing_scope,
)
from repro.errors import EXIT_OK, CheckpointError, ConfigurationError

if TYPE_CHECKING:
    from repro.fleet.report import FleetReport

_NO_MATRIX = (
    "fleet run needs a scenario matrix: --spec FILE, --matrix axis=v1,v2 "
    "(repeatable), or --resume DIR"
)


def _build_orchestrator(args, stop_check) -> tuple:
    """(orchestrator, jsonl observer) from the run flags."""
    from repro.fleet.matrix import ScenarioMatrix, load_spec
    from repro.fleet.orchestrator import FleetOrchestrator

    observers, jsonl = _observers(args)
    supervision = {
        "shard_timeout_s": args.shard_timeout,
        "shard_retries": args.shard_retries,
        "stop_check": stop_check,
    }
    if args.max_pool_rebuilds is not None:
        supervision["max_pool_rebuilds"] = args.max_pool_rebuilds
    if args.resume is not None:
        orchestrator = FleetOrchestrator.resume(
            args.resume,
            workers=args.workers,
            observers=observers,
            registry_dir=args.registry,
            **supervision,
        )
        return orchestrator, jsonl
    options: dict = {}
    if args.spec is not None:
        matrix, options = load_spec(args.spec)
    elif args.matrix:
        matrix = ScenarioMatrix.from_cli(args.matrix)
    else:
        raise ConfigurationError(_NO_MATRIX)
    if args.dir is None:
        raise ConfigurationError("fleet run needs --dir for the fleet state")
    workers = args.workers
    if workers is None:
        workers = int(options.get("workers", 2))
    failure_voltage = args.failure_voltage or bool(options.get("failure_voltage", False))
    registry = args.registry
    if registry is None and options.get("registry"):
        registry = str(options["registry"])
    orchestrator = FleetOrchestrator(
        matrix,
        args.dir,
        workers=workers,
        qualify=args.qualify or bool(options.get("qualify", False)),
        failure_voltage=failure_voltage,
        fault_policy=_fault_policy(args),
        observers=observers,
        registry_dir=registry,
        **supervision,
    )
    return orchestrator, jsonl


def cmd_fleet_run(args) -> int:
    from repro.fleet.report import REPORT_FILE

    coordinator = _shutdown_coordinator(args, [])
    orchestrator, jsonl = _build_orchestrator(args, coordinator.stop_requested)
    coordinator.observers.extend(orchestrator.observers)
    scenarios = len(orchestrator.scenarios)
    workers = orchestrator.workers
    print(f"fleet: {scenarios} scenario(s), {workers} worker(s) -> {orchestrator.fleet_dir}")
    observers = list(orchestrator.observers)
    try:
        with _tracing_scope(args, observers), coordinator:
            report = orchestrator.run()
    finally:
        if jsonl is not None:
            jsonl.close()
    print(f"report: {orchestrator.fleet_dir / REPORT_FILE}")
    if args.telemetry_out:
        _export_fleet_telemetry(args.telemetry_out, orchestrator.fleet_dir)
    _print_summary(report)
    return report.exit_code


def _export_fleet_telemetry(trace_path, fleet_dir: Path) -> None:
    """Render the campaign trace as ``telemetry.md`` next to the report."""
    from repro.obs.trace import analyze_trace, render_markdown

    try:
        analysis = analyze_trace(trace_path)
    except (ConfigurationError, OSError) as error:
        print(f"telemetry export skipped: {error}", file=sys.stderr)
        return
    out = fleet_dir / "telemetry.md"
    out.write_text(render_markdown(
        analysis, title=f"Fleet telemetry: {fleet_dir.name}"
    ))
    print(f"telemetry: {out}")


def _print_summary(report: FleetReport) -> None:
    ok = len(report.ok_shards)
    failed = len(report.failed_shards)
    print(f"shards: {ok} ok, {failed} failed, {len(report.missing)} missing")
    for key, result in report.best_per_platform().items():
        droop = result.droop_v or 0.0
        print(f"best[{key}]: {result.scenario_id} ({droop * 1e3:.1f} mV droop)")
    for result in report.failed_shards:
        line = f"failed: {result.scenario_id} exit {result.exit_code}: {result.error}"
        print(line, file=sys.stderr)


def _fleet_dir(args) -> Path:
    from repro.fleet.orchestrator import FLEET_FILE

    directory = Path(args.dir)
    meta_path = directory / FLEET_FILE
    if not meta_path.exists():
        msg = f"no fleet meta at {meta_path} (was this directory written by `repro fleet run`?)"
        raise CheckpointError(msg)
    return directory


def cmd_fleet_status(args) -> int:
    from repro.fleet.orchestrator import FleetOrchestrator
    from repro.fleet.shard import load_result

    directory = _fleet_dir(args)
    orchestrator = FleetOrchestrator.resume(directory)
    done = 0
    for scenario in orchestrator.scenarios:
        shard_dir = orchestrator.shard_dir(scenario)
        result = load_result(shard_dir)
        if result is not None:
            done += 1
            droop = result.droop_v or 0.0
            line = f"ok      {scenario.scenario_id}  {droop * 1e3:.1f} mV"
        elif (shard_dir / "state.json").exists():
            generation = _banked_generation(shard_dir / "state.json")
            line = f"partial {scenario.scenario_id}  generation {generation} banked"
        else:
            line = f"pending {scenario.scenario_id}"
        print(line)
    print(f"{done}/{len(orchestrator.scenarios)} shard(s) complete")
    return EXIT_OK


def _banked_generation(state_path: Path):
    try:
        return json.loads(state_path.read_text()).get("generation", "?")
    except (OSError, json.JSONDecodeError):
        return "?"


def cmd_fleet_report(args) -> int:
    from repro.fleet.orchestrator import FleetOrchestrator
    from repro.fleet.report import REPORT_FILE, report_from_payload

    directory = _fleet_dir(args)
    report_path = directory / REPORT_FILE
    if args.rebuild or not report_path.exists():
        orchestrator = FleetOrchestrator.resume(directory)
        report = orchestrator.collect_report()
        orchestrator.write_report(report)
    else:
        try:
            report = report_from_payload(json.loads(report_path.read_text()))
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(f"cannot read fleet report {report_path}: {error}") from error
    if args.md_out:
        Path(args.md_out).write_text(report.to_markdown())
    else:
        print(report.to_markdown(), end="")
    if args.check:
        return report.exit_code
    return EXIT_OK


def register(sub) -> None:
    fleet = sub.add_parser(
        "fleet",
        help="run a scenario matrix as a sharded, resumable fleet",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    run = fleet_sub.add_parser("run", help="expand a scenario matrix and run every shard")
    source = run.add_mutually_exclusive_group()
    source.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="TOML/JSON fleet spec with a [matrix] table of axes and an optional [fleet] table (workers/qualify/failure_voltage)",
    )
    source.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume the fleet in DIR: banked shards are kept, half-run shards continue from their campaign checkpoint, and the final report is bit-identical to an uninterrupted run",
    )
    run.add_argument(
        "--matrix",
        action="append",
        default=[],
        metavar="AXIS=V1,V2",
        help="matrix axis values (repeatable), e.g. --matrix chip=bulldozer,phenom --matrix threads=2,4; axes: chip, pdn, threads, budget (POPxGEN), mode, seed",
    )
    run.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="fleet state directory (meta, per-shard checkpoints, report)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="global worker budget: how many shards run concurrently (default: the spec's fleet.workers, else 2; 1 = in-process unless --shard-timeout is set)",
    )
    run.add_argument(
        "--qualify",
        action="store_true",
        help="qualify every shard's winner under perturbations",
    )
    run.add_argument(
        "--failure-voltage",
        action="store_true",
        help="sweep each winner's voltage-at-failure (Table 3 column)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="narrate shard and fleet progress to stderr",
    )
    run.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="append per-event telemetry as JSON lines to PATH",
    )
    run.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="hard wall-clock deadline per running shard: a hung shard's "
             "worker pool is killed and respawned, innocent shards resume "
             "from their checkpoints, and the hung shard is retried "
             "(--shard-retries) before being declared failed",
    )
    run.add_argument(
        "--shard-retries", type=int, default=1, metavar="N",
        help="hang/crash retries per shard before it is declared failed "
             "(default 1; retries resume from the shard checkpoint)",
    )
    run.add_argument(
        "--max-pool-rebuilds", type=int, default=None, metavar="N",
        help="total shard-pool respawns (hangs + crashes) tolerated per "
             "fleet run before the host is declared systemically unstable "
             "(default 5)",
    )
    run.add_argument(
        "--registry", default=None, metavar="DIR",
        help="publish every OK shard's winner into the stressmark registry "
             "at DIR once the report is banked (the fleet directory name "
             "becomes the campaign label; persisted in fleet.json, so a "
             "resumed fleet keeps publishing)",
    )
    run.add_argument(
        "--max-wall-clock", type=float, default=None, metavar="SECONDS",
        help="stop the fleet gracefully after this much wall time: drain "
             "in-flight shards to their final checkpoints, write the "
             "report, exit 75 (same path as SIGTERM)",
    )
    _add_fault_args(run)
    run.set_defaults(fn=cmd_fleet_run)

    status = fleet_sub.add_parser("status", help="show per-shard progress of a fleet directory")
    status.add_argument("dir", metavar="DIR")
    status.set_defaults(fn=cmd_fleet_status)

    report = fleet_sub.add_parser(
        "report",
        help="print (or rebuild) a fleet's cross-scenario report",
    )
    report.add_argument("dir", metavar="DIR")
    report.add_argument(
        "--rebuild",
        action="store_true",
        help="re-aggregate from the banked shard results instead of reading report.json",
    )
    report.add_argument(
        "--md-out",
        default=None,
        metavar="PATH",
        help="write the markdown report to PATH instead of stdout",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="exit with the report's aggregate exit code (CI gating)",
    )
    report.set_defaults(fn=cmd_fleet_report)
