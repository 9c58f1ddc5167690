"""The paper-experiment registry and its ``experiment``/``list`` commands."""

from __future__ import annotations

import sys

from repro.analysis.report import format_table


def _run_fig3():
    from repro.experiments import fig3_resonances as mod
    from repro.experiments.setup import bulldozer_testbed

    return mod.report(mod.run_fig3(bulldozer_testbed()))


def _run_fig4():
    from repro.experiments import fig4_excitation_vs_resonance as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_fig4(bulldozer_testbed(), default_table()))


def _run_fig6():
    from repro.core.resonance import probe_program
    from repro.experiments import fig6_natural_dithering as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    program = probe_program(default_table(), hp_count=32, lp_nops=95)
    return mod.report(mod.run_fig6(bulldozer_testbed(), program))


def _run_fig9():
    from repro.experiments import fig9_droop_comparison as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_fig9(bulldozer_testbed(), default_table()))


def _run_fig10():
    from repro.experiments import fig10_histograms as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_fig10(bulldozer_testbed(), default_table(),
                                    samples=1_000_000))


def _run_table1():
    from repro.experiments import table1_failure as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_table1(bulldozer_testbed(), default_table()))


def _run_table2():
    from repro.experiments import table2_throttling as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_table2(
        bulldozer_testbed(), bulldozer_testbed(fp_throttle=1), default_table()
    ))


def _run_table3():
    from repro.experiments import table3_phenom as mod
    from repro.experiments.setup import phenom_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_table3(phenom_testbed(), default_table()))


def _run_sec3b():
    from repro.experiments import sec3b_dithering_cost as mod

    return mod.report(mod.run_sec3b())


def _run_sec3c():
    from repro.experiments import sec3c_hierarchical as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_sec3c(bulldozer_testbed(), default_table()))


def _run_sec3_data():
    from repro.experiments import sec3_data_values as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_sec3_data_values(bulldozer_testbed(),
                                               default_table()))


def _run_sec5a1():
    from repro.experiments import sec5a1_barrier as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_sec5a1(bulldozer_testbed(), default_table()))


def _run_sec5a5():
    from repro.experiments import sec5a5_nop_analysis as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_sec5a5(bulldozer_testbed(), default_table()))


def _run_sec5_sim():
    from repro.experiments import sec5_simulator_insights as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_sec5_simulator_insights(bulldozer_testbed(),
                                                      default_table()))


def _run_sec5_qualify():
    from repro.experiments import sec5_qualification as mod
    from repro.experiments.setup import bulldozer_testbed
    from repro.isa.opcodes import default_table

    return mod.report(mod.run_sec5_qualification(bulldozer_testbed(),
                                                 default_table()))


EXPERIMENTS = {
    "fig3": ("PDN resonances, frequency + time domain", _run_fig3),
    "fig4": ("excitation vs resonance", _run_fig4),
    "fig6": ("natural dithering scope shot", _run_fig6),
    "fig9": ("droop comparison grid (slow)", _run_fig9),
    "fig10": ("Vdd histograms", _run_fig10),
    "table1": ("voltage at failure", _run_table1),
    "table2": ("FPU throttling impact", _run_table2),
    "table3": ("Phenom II processor swap", _run_table3),
    "sec3b": ("dithering sweep cost", _run_sec3b),
    "sec3c": ("hierarchical vs flat GA (slow)", _run_sec3c),
    "sec3-data": ("operand data values vs droop", _run_sec3_data),
    "sec5a1": ("barrier release skew", _run_sec5a1),
    "sec5a5": ("NOP vs ADD loop analysis", _run_sec5a5),
    "sec5-sim": ("simulator vs hardware insights", _run_sec5_sim),
    "sec5-qualify": ("qualified stressmarks: droop vs robustness vs failure",
                     _run_sec5_qualify),
}


def cmd_experiment(args) -> int:
    try:
        _description, runner = EXPERIMENTS[args.name]
    except KeyError:
        print(f"unknown experiment {args.name!r}; see 'list'", file=sys.stderr)
        return 2
    print(runner())
    return 0


def cmd_list(_args) -> int:
    rows = [[name, description] for name, (description, _fn) in EXPERIMENTS.items()]
    print(format_table(["experiment", "description"], rows,
                       title="available experiments"))
    return 0


def register(sub) -> None:
    experiment = sub.add_parser("experiment",
                                help="regenerate one paper table/figure")
    experiment.add_argument("name")
    experiment.set_defaults(fn=cmd_experiment)

    listing = sub.add_parser("list", help="list available experiments")
    listing.set_defaults(fn=cmd_list)
