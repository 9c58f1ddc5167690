#!/usr/bin/env python3
"""Voltage-at-failure analysis: droop is not the only failure indicator.

Reproduces the paper's Table I insight (Section V.A.4): the supply is
lowered in 12.5 mV decrements until each program fails.  SM2's droop is
benchmark-class, yet it fails at a much higher voltage because it exercises
sensitive paths (integer multiply/divide, load address paths) — a result a
droop-only simulator would get wrong.

Run:  python examples/failure_analysis.py
"""

from repro.analysis.report import format_table, vf_delta_label
from repro.experiments.setup import (
    bulldozer_testbed,
    program_failure_voltage,
    workload_failure_voltage,
)
from repro.isa.opcodes import default_table
from repro.workloads.spec import spec_model
from repro.workloads.stressmarks import (
    a_ex_canned,
    a_res_canned,
    sm1,
    sm2,
    sm_res,
    stressmark_program,
)


def main() -> None:
    platform = bulldozer_testbed()
    table = default_table()

    print("lowering supply in 12.5 mV steps until each program fails...\n")

    results = []  # (name, droop_mv, vf)
    for name, kernel in [
        ("A-Res", a_res_canned(table)),
        ("SM-Res", sm_res(table)),
        ("SM1", sm1(table)),
        ("A-Ex", a_ex_canned(table)),
        ("SM2", sm2(table)),
    ]:
        program = stressmark_program(kernel)
        droop = platform.measure_program(program, 4).max_droop_v
        vf = program_failure_voltage(platform, program, 4)
        results.append((name, droop, vf))

    zeusmp_droop = None
    from numpy.random import default_rng

    from repro.workloads.runner import run_workload

    zeusmp_droop = run_workload(
        platform, spec_model("zeusmp"), 4, rng=default_rng(1)
    ).max_droop_v
    vf_zeusmp = workload_failure_voltage(platform, spec_model("zeusmp"), 4)
    results.append(("zeusmp", zeusmp_droop, vf_zeusmp))

    reference = max(vf for _n, _d, vf in results)
    rows = [
        [name, f"{droop * 1e3:.1f} mV", f"{vf:.4f} V",
         vf_delta_label(vf, reference)]
        for name, droop, vf in results
    ]
    print(format_table(
        ["program", "max droop (nominal)", "failure voltage", "relative"],
        rows,
        title="voltage at failure, 4T (cf. paper Table I)",
    ))

    sm2_row = next(r for r in results if r[0] == "SM2")
    zeusmp_row = next(r for r in results if r[0] == "zeusmp")
    print(
        f"\nNote: SM2's droop ({sm2_row[1] * 1e3:.0f} mV) is below zeusmp's "
        f"({zeusmp_row[1] * 1e3:.0f} mV), yet SM2 fails at a HIGHER voltage "
        f"({sm2_row[2]:.4f} V vs {zeusmp_row[2]:.4f} V) — the sensitive-path "
        "effect of paper Section V.A.4."
    )


if __name__ == "__main__":
    main()
