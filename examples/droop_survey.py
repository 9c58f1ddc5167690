#!/usr/bin/env python3
"""Droop survey: benchmarks vs. stressmarks across thread counts (Fig. 9).

Measures a representative slice of the paper's Fig. 9 grid — two SPEC-like
benchmarks, two PARSEC-like benchmarks, and the stressmark set — at 1, 2, 4,
and 8 threads, and prints droops relative to 4T SM1.  Also demonstrates the
Fig. 10 histogram view for one benchmark and one resonant stressmark.

Run:  python examples/droop_survey.py
"""

import numpy as np

from repro.analysis.report import format_table
from repro.experiments.setup import bulldozer_testbed
from repro.isa.opcodes import default_table
from repro.measure.droop import DroopHistogram
from repro.workloads.parsec import parsec_model
from repro.workloads.runner import run_workload
from repro.workloads.spec import spec_model
from repro.workloads.stressmarks import (
    a_ex_canned,
    a_res_canned,
    sm1,
    sm2,
    sm_res,
    stressmark_program,
)

THREADS = (1, 2, 4, 8)


def main() -> None:
    platform = bulldozer_testbed()
    table = default_table()

    droops: dict = {}

    stressmarks = {
        "SM1": sm1(table),
        "SM2": sm2(table),
        "SM-Res": sm_res(table),
        "A-Ex": a_ex_canned(table),
        "A-Res": a_res_canned(table),
    }
    print("measuring stressmarks (dithered worst-case alignment)...")
    for name, kernel in stressmarks.items():
        program = stressmark_program(kernel)
        droops[name] = {
            t: platform.measure_program(program, t).max_droop_v for t in THREADS
        }

    print("measuring benchmarks (SPECrate-style replication)...")
    for name, model in [
        ("zeusmp", spec_model("zeusmp")),
        ("hmmer", spec_model("hmmer")),
        ("swaptions", parsec_model("swaptions")),
        ("fluidanimate", parsec_model("fluidanimate")),
    ]:
        droops[name] = {
            t: run_workload(
                platform, model, t,
                duration_cycles=100_000, rng=np.random.default_rng(42),
            ).max_droop_v
            for t in THREADS
        }

    baseline = droops["SM1"][4]
    rows = [
        [name] + [f"{droops[name][t] / baseline:.2f}" for t in THREADS]
        for name in droops
    ]
    print()
    print(format_table(
        ["program", "1T", "2T", "4T", "8T"],
        rows,
        title="max droop relative to 4T SM1 (cf. paper Fig. 9)",
    ))

    # Histogram view (cf. paper Fig. 10).
    print("\nVdd histograms over 500k cycles (cf. paper Fig. 10):")
    zeusmp = run_workload(platform, spec_model("zeusmp"), 4,
                          duration_cycles=500_000,
                          rng=np.random.default_rng(7))
    a_res = platform.measure_program(
        stressmark_program(a_res_canned(table)), 4
    )
    a_res_long = np.tile(a_res.voltage.samples,
                         500_000 // len(a_res.voltage.samples))
    for name, samples in [("zeusmp", zeusmp.voltage.samples),
                          ("A-Res", a_res_long)]:
        hist = DroopHistogram.from_samples(samples, platform.chip.vdd, bins=60)
        print(f"  {name:8s} spread = {hist.spread_v() * 1e3:5.1f} mV, "
              f"mode sits {1e3 * (platform.chip.vdd - hist.modal_voltage):5.1f} mV "
              f"below nominal")


if __name__ == "__main__":
    main()
