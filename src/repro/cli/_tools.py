"""Standalone tooling commands: ``sweep``, ``bench-evals``, ``netlist``."""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cli import _common
from repro.cli._common import (
    _add_telemetry_args,
    _platform_factory,
    _sinks,
    _tracing_scope,
)
from repro.core.telemetry import TelemetryCollector


def cmd_sweep(args) -> int:
    from repro.core.resonance import find_resonance
    from repro.isa.opcodes import default_table

    platform = _common._platform(args.chip)
    sweep = find_resonance(platform, default_table(), threads=1,
                           period_candidates=list(range(8, 133, 4)))
    rows = [
        [p.period_cycles if p.period_cycles is not None else "-",
         f"{p.droop_v * 1e3:.1f} mV"]
        for p in sweep.points
    ]
    print(format_table(["loop period (cycles)", "max droop"], rows,
                       title=f"resonance sweep on {args.chip}"))
    print(f"\nresonance: {sweep.resonance_hz / 1e6:.1f} MHz "
          f"({sweep.best_period_cycles} cycles)")
    return 0


def cmd_bench_evals(args) -> int:
    """A short AUDIT loop instrumented end to end: the perf canary.

    Prints the telemetry summary table (evals/sec, cache hit rates, module
    simulator vs. PDN-solve time split) so evaluation-path regressions are
    observable from the command line.
    """
    from repro.core.audit import AuditConfig, AuditRunner
    from repro.core.engine import make_executor
    from repro.core.ga import GaConfig

    platform = _common._platform(args.chip)
    sinks, jsonl = _sinks(args)
    collector = TelemetryCollector()
    sinks.append(collector)
    executor = make_executor(args.workers)
    config = AuditConfig(
        threads=args.threads,
        ga=GaConfig(population_size=args.population,
                    generations=args.generations, seed=args.seed,
                    stagnation_patience=max(6, args.generations)),
    )
    runner = AuditRunner(
        platform,
        config=config,
        executor=executor,
        platform_factory=_platform_factory(args.chip),
    )
    try:
        with _tracing_scope(args, sinks):
            result = runner.run()
    finally:
        executor.close()
        if jsonl is not None:
            jsonl.close()
    print(f"{result.name} droop at {args.threads}T: "
          f"{result.max_droop_v * 1e3:.1f} mV "
          f"({result.ga_result.evaluations} evaluations, "
          f"executor: {executor.name})")
    print("\n" + collector.summary_table(platform.metrics))
    return 0


def cmd_netlist(args) -> int:
    from repro.isa.opcodes import default_table
    from repro.pdn.netlist import export_netlist
    from repro.workloads.stressmarks import a_res_canned, stressmark_program

    platform = _common._platform(args.chip)
    pool = default_table().supported_on(platform.chip.extensions)
    program = stressmark_program(a_res_canned(pool))
    measurement = platform.measure_program(program, args.threads)
    load = measurement.current.tile(args.periods)
    deck = export_netlist(
        platform.pipeline.pdn_stage.pdn, load,
        title=f"A-Res {args.threads}T current profile on {args.chip}",
    )
    with open(args.out, "w") as handle:
        handle.write(deck)
    print(f"HSPICE deck ({len(load)} samples, "
          f"{load.duration_s * 1e9:.0f} ns) written to {args.out}")
    return 0


def register_sweep(sub) -> None:
    sweep = sub.add_parser("sweep", help="run the resonance-frequency sweep")
    sweep.add_argument("--chip", default="bulldozer",
                       choices=("bulldozer", "phenom"))
    sweep.set_defaults(fn=cmd_sweep)


def register_bench(sub) -> None:
    bench = sub.add_parser(
        "bench-evals",
        help="run a short AUDIT loop and print the telemetry summary "
             "(evals/sec, cache hit rates, simulator vs PDN time split)",
    )
    bench.add_argument("--chip", default="bulldozer",
                       choices=("bulldozer", "phenom"))
    bench.add_argument("--threads", type=int, default=4)
    bench.add_argument("--population", type=int, default=12)
    bench.add_argument("--generations", type=int, default=4)
    bench.add_argument("--seed", type=int, default=1)
    _add_telemetry_args(bench)
    bench.set_defaults(fn=cmd_bench_evals)


def register_netlist(sub) -> None:
    netlist = sub.add_parser(
        "netlist",
        help="export an HSPICE deck of the A-Res current profile",
    )
    netlist.add_argument("--chip", default="bulldozer",
                         choices=("bulldozer", "phenom"))
    netlist.add_argument("--threads", type=int, default=4)
    netlist.add_argument("--periods", type=int, default=40,
                         help="loop periods of current to include")
    netlist.add_argument("--out", default="a_res_pdn.sp")
    netlist.set_defaults(fn=cmd_netlist)
