"""The ``audit`` command: the full closed loop, checkpointable and batched."""

from __future__ import annotations

from repro.cli import _common
from repro.cli._common import (
    _add_campaign_args,
    _add_registry_args,
    _add_supervision_args,
    _add_telemetry_args,
    _fault_policy,
    _make_supervised_executor,
    _platform_factory,
    _publish_record,
    _shutdown_coordinator,
    _sinks,
    _tracing_scope,
)
from repro.core.telemetry import TelemetryCollector
from repro.errors import CheckpointError


def cmd_audit(args) -> int:
    from repro.core.audit import AuditConfig, AuditRunner, StressmarkMode
    from repro.core.checkpoint import CampaignCheckpoint, validate_campaign_meta
    from repro.core.ga import GaConfig
    from repro.core.qualify import QualificationCheckpoint, QualifyConfig

    checkpoint = None
    resume = False
    if args.resume is not None:
        # The stored campaign meta is authoritative: the run continues with
        # the exact chip/config it started with, so the same seeds keep
        # producing the same stressmark no matter what flags accompany
        # --resume.
        checkpoint = CampaignCheckpoint(args.resume)
        meta = validate_campaign_meta(checkpoint.read_meta(),
                                      path=checkpoint.meta_path)
        resume = True
        args.chip = meta["chip"]
        args.throttle = meta["throttle"]
        args.threads = meta["threads"]
        args.mode = meta["mode"]
        args.population = meta["population"]
        args.generations = meta["generations"]
        args.seed = meta["seed"]
    elif args.checkpoint_dir is not None:
        checkpoint = CampaignCheckpoint(args.checkpoint_dir)
        checkpoint.write_meta({
            "chip": args.chip,
            "throttle": args.throttle,
            "threads": args.threads,
            "mode": args.mode,
            "population": args.population,
            "generations": args.generations,
            "seed": args.seed,
        })
    platform = _common._platform(args.chip, args.throttle)
    mode = StressmarkMode(args.mode)
    config = AuditConfig(
        threads=args.threads,
        mode=mode,
        ga=GaConfig(population_size=args.population,
                    generations=args.generations, seed=args.seed),
    )
    sinks, jsonl = _sinks(args)
    collector = TelemetryCollector()
    sinks.append(collector)
    executor = _make_supervised_executor(args)
    runner = AuditRunner(
        platform,
        config=config,
        executor=executor,
        platform_factory=_platform_factory(args.chip, args.throttle),
        fault_policy=_fault_policy(args),
    )
    qualify_config = None
    qualify_checkpoint = None
    if args.qualify:
        qualify_config = QualifyConfig(seed=args.seed)
        if checkpoint is not None:
            qualify_checkpoint = QualificationCheckpoint(checkpoint.directory)
    if resume:
        state = checkpoint.load()
        if state is None:
            raise CheckpointError(
                f"nothing to resume in {args.resume!r}: no checkpointed "
                "generation yet"
            )
        if state.salvaged:
            print(f"checkpoint salvage: {state.salvage_reason}")
        print(f"resuming campaign from generation {state.ga.generation} "
              f"({state.ga.evaluations} evaluations banked)")
    coordinator = _shutdown_coordinator(args)
    try:
        with _tracing_scope(args, sinks):
            with coordinator:
                result = runner.run(checkpoint=checkpoint, resume=resume,
                                    qualify=qualify_config,
                                    qualify_checkpoint=qualify_checkpoint,
                                    stop=coordinator.stop_requested)
            _report(args, result, platform, collector)
    finally:
        executor.close()
        if jsonl is not None:
            jsonl.close()
    return 0


def _report(args, result, platform, collector) -> None:
    """Print the campaign's outcome; publish it with ``--registry``."""
    from repro.isa.encoder import encode_program

    print(f"resonance: {result.resonance.resonance_hz / 1e6:.1f} MHz")
    print(f"GA evaluations: {result.ga_result.evaluations}")
    print(f"{result.name} droop at {args.threads}T: "
          f"{result.max_droop_v * 1e3:.1f} mV")
    if result.qualification is not None:
        qual = result.qualification
        print("\n" + qual.chosen_report.summary_table())
        if qual.demoted:
            print(f"GA winner demoted as {qual.winner_report.verdict}; "
                  f"promoted {qual.chosen_report.stressmark} "
                  f"({qual.verdict}, robustness "
                  f"{qual.chosen_report.robustness:.2f})")
        else:
            print(f"qualification: {qual.verdict} "
                  f"(robustness {qual.chosen_report.robustness:.2f})")
    if args.registry is not None:
        from repro.registry.provenance import (
            platform_descriptor,
            provenance_stamp,
            telemetry_summary,
        )
        from repro.registry.record import record_from_audit

        record = record_from_audit(
            result,
            platform=platform,
            descriptor=platform_descriptor(args.chip, throttle=args.throttle),
            seed=args.seed,
            provenance=provenance_stamp(
                campaign=args.registry_campaign,
                extra={"telemetry": telemetry_summary(collector)},
            ),
        )
        _publish_record(args, record)
    asm = encode_program(result.program(), name=result.name.lower().replace("-", "_"))
    if args.asm_out:
        with open(args.asm_out, "w") as handle:
            handle.write(asm)
        print(f"stressmark written to {args.asm_out}")
    else:
        print("\n" + asm)
    if args.telemetry:
        print("\n" + collector.summary_table(platform.metrics))


def register(sub) -> None:
    audit = sub.add_parser("audit", help="run the full AUDIT closed loop")
    audit.add_argument("--chip", default="bulldozer",
                       choices=("bulldozer", "phenom"))
    audit.add_argument("--threads", type=int, default=4)
    audit.add_argument("--mode", default="resonant",
                       choices=("resonant", "excitation"))
    audit.add_argument("--throttle", type=int, default=None,
                       help="enable the FPU throttle at this issue limit")
    audit.add_argument("--population", type=int, default=16)
    audit.add_argument("--generations", type=int, default=10)
    audit.add_argument("--seed", type=int, default=1)
    audit.add_argument("--asm-out", default=None,
                       help="write the winning stressmark as NASM to a file")
    _add_telemetry_args(audit)
    _add_campaign_args(audit)
    _add_supervision_args(audit)
    _add_registry_args(audit)
    audit.add_argument("--telemetry", action="store_true",
                       help="print the run-telemetry summary table")
    audit.add_argument(
        "--qualify", action="store_true",
        help="qualify the GA winner under perturbations (jitter seeds, SMT "
             "offsets, supply span, PDN tolerances); an ARTIFACT winner is "
             "demoted for the best-qualified runner-up")
    audit.set_defaults(fn=cmd_audit)
