"""The ``qualify`` command: perturbation sweep + verdict for canned marks."""

from __future__ import annotations

from repro.cli import _common
from repro.cli._common import (
    _add_registry_args,
    _add_telemetry_args,
    _platform_factory,
    _publish_record,
    _sinks,
    _tracing_scope,
)
from repro.core.telemetry import TelemetryCollector
from repro.errors import EXIT_OK
from repro.workloads.stressmarks import (
    CANNED_STRESSMARKS,
    canned_stressmark,
    stressmark_program,
)


def cmd_qualify(args) -> int:
    """Qualify one canned stressmark: perturbation sweep + verdict."""
    from repro.core.engine import make_executor
    from repro.core.qualify import (
        QualificationCheckpoint,
        QualifyConfig,
        StressmarkQualifier,
    )
    from repro.isa.opcodes import default_table

    platform = _common._platform(args.chip)
    pool = default_table().supported_on(platform.chip.extensions)
    program = stressmark_program(canned_stressmark(args.stressmark, pool))
    config = QualifyConfig(
        seed=args.seed,
        jitter_repeats=args.jitter_repeats,
        supply_span_v=args.supply_span,
        supply_points=args.supply_points,
        pdn_tolerance=args.pdn_tolerance,
    )
    sinks, jsonl = _sinks(args)
    collector = TelemetryCollector()
    sinks.append(collector)
    executor = make_executor(args.workers)
    checkpoint = (QualificationCheckpoint(args.checkpoint_dir)
                  if args.checkpoint_dir else None)
    qualifier = StressmarkQualifier(
        platform,
        threads=args.threads,
        config=config,
        executor=executor,
        platform_factory=_platform_factory(args.chip),
        checkpoint=checkpoint,
    )
    try:
        with _tracing_scope(args, sinks):
            report = qualifier.qualify_program(program, name=args.stressmark)
            print(report.summary_table())
            print(f"\nverdict: {report.verdict} "
                  f"(robustness {report.robustness:.2f}, "
                  f"{report.evaluations} evaluations, "
                  f"{report.cache_hits} cache hits, {report.wall_s:.1f}s)")
            if args.registry is not None:
                from repro.registry.provenance import platform_descriptor, provenance_stamp
                from repro.registry.record import record_from_qualification

                record = record_from_qualification(
                    report,
                    platform=platform,
                    descriptor=platform_descriptor(args.chip),
                    provenance=provenance_stamp(campaign=args.registry_campaign),
                )
                _publish_record(args, record)
    finally:
        executor.close()
        if jsonl is not None:
            jsonl.close()
    if args.telemetry:
        print("\n" + collector.summary_table(platform.metrics))
    return EXIT_OK


def register(sub) -> None:
    qualify = sub.add_parser(
        "qualify",
        help="re-measure a canned stressmark under perturbations and "
             "render a PASS/FRAGILE/ARTIFACT verdict",
    )
    qualify.add_argument("stressmark", choices=CANNED_STRESSMARKS)
    qualify.add_argument("--chip", default="bulldozer",
                         choices=("bulldozer", "phenom"))
    qualify.add_argument("--threads", type=int, default=4)
    qualify.add_argument("--seed", type=int, default=0,
                         help="seed of the perturbation grid")
    qualify.add_argument("--jitter-repeats", type=int, default=4,
                         help="SMT jitter reseeds to sweep")
    qualify.add_argument("--supply-span", type=float, default=0.05,
                         metavar="VOLTS",
                         help="supply sweep half-width around nominal Vdd")
    qualify.add_argument("--supply-points", type=int, default=5)
    qualify.add_argument("--pdn-tolerance", type=float, default=0.10,
                         help="relative R/L/C/ESR component tolerance")
    qualify.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist measured perturbations to DIR after every axis; "
             "rerunning resumes from the banked measurements")
    qualify.add_argument("--telemetry", action="store_true",
                         help="print the run-telemetry summary table")
    _add_telemetry_args(qualify)
    _add_registry_args(qualify)
    qualify.set_defaults(fn=cmd_qualify)
