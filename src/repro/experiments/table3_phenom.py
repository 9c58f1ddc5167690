"""Table III: AUDIT on a different processor (45-nm Phenom II).

The paper swaps the Bulldozer part for a Phenom II X4 925 on the same board
and re-runs AUDIT.  Three findings reproduce here:

* SM1 cannot run at all (FMA4 instructions are not supported);
* AUDIT regenerates a resonant stressmark for the new part's resonance
  (~80 MHz) that is comparable to or better than hand-tuned SM2;
* droop and failure are reported relative to SM2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table, vf_delta_label
from repro.core.audit import AuditConfig, AuditRunner, StressmarkMode
from repro.core.platform import MeasurementPlatform
from repro.errors import SchedulingError
from repro.isa.opcodes import OpcodeTable
from repro.experiments.setup import (
    program_failure_voltage,
    quick_ga,
    workload_failure_voltage,
)
from repro.workloads.spec import spec_model
from repro.workloads.stressmarks import a_res_canned, sm1, sm2, stressmark_program


@dataclass(frozen=True)
class Table3Result:
    droops: dict            # name -> droop (V)
    failure_voltages: dict  # name -> VF (V)
    sm1_rejected: bool
    resonance_hz: float | None

    def relative_droop(self, name: str) -> float:
        return self.droops[name] / self.droops["SM2"]


def run_table3(
    platform: MeasurementPlatform,
    table: OpcodeTable,
    *,
    threads: int = 4,
    audit_rerun: bool = False,
    audit_seed: int = 33,
) -> Table3Result:
    """Measure zeusmp, SM2, and (re-generated) A-Res on the Phenom testbed."""
    pool = table.supported_on(platform.chip.extensions)
    period = max(
        2, int(round(platform.chip.frequency_hz
                     / platform.pipeline.pdn_stage.pdn.first_droop_frequency_hz))
    )

    # SM1 carries FMA4 code: the testbed must reject it.
    sm1_rejected = False
    try:
        platform.measure_program(stressmark_program(sm1(table)), threads)
    except SchedulingError:
        sm1_rejected = True

    droops = {}
    failure_voltages = {}
    resonance_hz = None

    sm2_kernel = sm2(pool, period_cycles=period)
    sm2_program = stressmark_program(sm2_kernel)
    droops["SM2"] = platform.measure_program(sm2_program, threads).max_droop_v
    failure_voltages["SM2"] = program_failure_voltage(platform, sm2_program, threads)

    if audit_rerun:
        runner = AuditRunner(
            platform,
            config=AuditConfig(threads=threads, mode=StressmarkMode.RESONANT,
                               ga=quick_ga(audit_seed)),
        )
        result = runner.run()
        a_res_kernel = result.kernel
        resonance_hz = result.resonance.resonance_hz
    else:
        a_res_kernel = a_res_canned(
            pool,
            period_cycles=period,
            fp_width=platform.chip.module.fp_arith_pipes,
            decode_width=platform.chip.module.decode_width,
        )
    a_res_program = stressmark_program(a_res_kernel)
    droops["A-Res"] = platform.measure_program(a_res_program, threads).max_droop_v
    failure_voltages["A-Res"] = program_failure_voltage(
        platform, a_res_program, threads
    )

    import numpy as np  # local: zeusmp measurement only

    from repro.workloads.runner import run_workload

    droops["zeusmp"] = run_workload(
        platform, spec_model("zeusmp"), threads,
        rng=np.random.default_rng(3),
    ).max_droop_v
    failure_voltages["zeusmp"] = workload_failure_voltage(
        platform, spec_model("zeusmp"), threads
    )

    return Table3Result(
        droops=droops,
        failure_voltages=failure_voltages,
        sm1_rejected=sm1_rejected,
        resonance_hz=resonance_hz,
    )


def report(result: Table3Result) -> str:
    reference_vf = result.failure_voltages["SM2"]
    rows = []
    for name in ("zeusmp", "SM2", "A-Res"):
        rows.append([
            name,
            f"{result.relative_droop(name):.2f}",
            vf_delta_label(result.failure_voltages[name], reference_vf),
        ])
    table = format_table(
        ["program", "rel. droop (SM2=1)", "failure point"],
        rows,
        title="Table III — 45-nm Phenom II results (relative to SM2)",
    )
    notes = [f"\nSM1 rejected (FMA4 unsupported): {result.sm1_rejected}"]
    if result.resonance_hz is not None:
        notes.append(f"AUDIT-detected resonance: {result.resonance_hz / 1e6:.1f} MHz")
    return table + "; ".join(notes)
