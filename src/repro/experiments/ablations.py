"""Ablations of the testbed's design choices (DESIGN.md section 5/6).

Three studies:

* **SMT decoherence magnitude** — the per-repetition phase random walk that
  models shared-FPU loop-length interference at 8T.  Walk step 0 means
  lockstep siblings; the paper's 8T droop loss requires a non-zero walk.
* **GA budget** — droop of the best stressmark as a function of the
  generation budget (convergence curve; the paper runs "less than five
  hours" on hardware, we show the simulated-measurement equivalent).
* **PDN damping (die-decap ESR)** — the first-droop peak impedance drives
  resonant-stressmark droop almost linearly; hand-tuned and generated
  stressmarks track it together.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.audit import AuditConfig, AuditRunner, StressmarkMode
from repro.core.ga import GaConfig
from repro.core.platform import MeasurementPlatform
from repro.isa.opcodes import OpcodeTable
from repro.pdn.elements import LadderStage, PdnParameters, bulldozer_pdn
from repro.pdn.impedance import sweep_impedance
from repro.pdn.network import PdnNetwork
from repro.uarch.config import bulldozer_chip
from repro.workloads.stressmarks import a_res_canned, sm_res, stressmark_program


# ----------------------------------------------------------------------
# SMT jitter ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JitterAblationResult:
    droops_8t: dict  # walk step (cycles) -> droop (V)
    droop_4t: float

    @property
    def lockstep_8t(self) -> float:
        return self.droops_8t[0]


def run_jitter_ablation(
    platform: MeasurementPlatform,
    table: OpcodeTable,
    *,
    steps: tuple[int, ...] = (0, 1, 2, 4),
) -> JitterAblationResult:
    """8T droop of SM-Res versus the SMT phase-walk magnitude."""
    pool = table.supported_on(platform.chip.extensions)
    program = stressmark_program(sm_res(pool))
    droop_4t = platform.measure_program(program, 4).max_droop_v

    droops = {}
    for step in steps:
        fresh = MeasurementPlatform(
            platform.chip, platform.pipeline.pdn_stage.pdn, jitter_step_cycles=step
        )
        droops[step] = fresh.measure_program(program, 8).max_droop_v
    return JitterAblationResult(droops_8t=droops, droop_4t=droop_4t)


def report_jitter(result: JitterAblationResult) -> str:
    rows = [["4T (reference)", f"{result.droop_4t * 1e3:.1f} mV"]]
    for step, droop in sorted(result.droops_8t.items()):
        rows.append([f"8T, walk step {step} cyc", f"{droop * 1e3:.1f} mV"])
    return format_table(
        ["configuration", "SM-Res max droop"],
        rows,
        title="Ablation — SMT loop-phase random walk vs. 8T droop",
    )


# ----------------------------------------------------------------------
# GA budget ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GaBudgetResult:
    droops: dict        # generations -> best droop (V)
    evaluations: dict   # generations -> GA evaluations


def run_ga_budget_ablation(
    platform: MeasurementPlatform,
    table: OpcodeTable,
    *,
    budgets: tuple[int, ...] = (2, 6, 12),
    threads: int = 4,
    seed: int = 4,
) -> GaBudgetResult:
    droops = {}
    evaluations = {}
    for generations in budgets:
        runner = AuditRunner(
            platform,
            table=table,
            config=AuditConfig(
                threads=threads,
                mode=StressmarkMode.RESONANT,
                ga=GaConfig(population_size=12, generations=generations,
                            seed=seed, stagnation_patience=generations + 1),
            ),
        )
        result = runner.run()
        droops[generations] = result.max_droop_v
        evaluations[generations] = result.ga_result.evaluations
    return GaBudgetResult(droops=droops, evaluations=evaluations)


def report_ga_budget(result: GaBudgetResult) -> str:
    rows = [
        [g, result.evaluations[g], f"{result.droops[g] * 1e3:.1f} mV"]
        for g in sorted(result.droops)
    ]
    return format_table(
        ["generations", "evaluations", "best droop"],
        rows,
        title="Ablation — AUDIT droop vs. GA budget",
    )


# ----------------------------------------------------------------------
# PDN damping ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PdnDampingResult:
    rows: tuple  # (esr_ohm, peak_impedance_ohm, a_res_droop_v, sm_res_droop_v)


def run_pdn_damping_ablation(
    table: OpcodeTable,
    *,
    esr_values: tuple[float, ...] = (0.1e-3, 0.2e-3, 0.4e-3, 0.8e-3),
    threads: int = 4,
) -> PdnDampingResult:
    chip = bulldozer_chip()
    base = bulldozer_pdn(vdd=chip.vdd)
    pool = table.supported_on(chip.extensions)
    a_res = stressmark_program(a_res_canned(pool))
    hand = stressmark_program(sm_res(pool))
    rows = []
    for esr in esr_values:
        pdn = PdnParameters(
            vdd_nominal=base.vdd_nominal,
            board=base.board,
            package=base.package,
            die=LadderStage(
                resistance_ohm=base.die.resistance_ohm,
                inductance_h=base.die.inductance_h,
                capacitance_f=base.die.capacitance_f,
                esr_ohm=esr,
            ),
        )
        peak = sweep_impedance(PdnNetwork(pdn)).first_droop.impedance_ohm
        platform = MeasurementPlatform(chip, pdn)
        rows.append((
            esr,
            peak,
            platform.measure_program(a_res, threads).max_droop_v,
            platform.measure_program(hand, threads).max_droop_v,
        ))
    return PdnDampingResult(rows=tuple(rows))


def report_pdn_damping(result: PdnDampingResult) -> str:
    rows = [
        [f"{esr * 1e3:.2f} mOhm", f"{peak * 1e3:.2f} mOhm",
         f"{a * 1e3:.1f} mV", f"{h * 1e3:.1f} mV"]
        for esr, peak, a, h in result.rows
    ]
    return format_table(
        ["die-decap ESR", "first-droop |Z| peak", "A-Res droop", "SM-Res droop"],
        rows,
        title="Ablation — PDN damping vs. resonant stressmark droop",
    )
