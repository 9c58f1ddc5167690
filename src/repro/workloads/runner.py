"""Executing synthetic workloads on the measurement platform.

Bridges :mod:`repro.workloads.phases` activity models to the platform:
threads are placed with the paper's spread-first policy, per-thread
utilisation becomes per-module energy, and the shared PDN integrates the
chip current exactly as it does for generated stressmarks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.core.platform import Measurement, MeasurementPlatform
from repro.osmodel.affinity import spread_placement
from repro.power.trace import CurrentTrace
from repro.workloads.phases import ActivityModel

#: Default measured window (cycles) for workload runs.
DEFAULT_DURATION_CYCLES = 200_000


def run_workload(
    platform: MeasurementPlatform,
    model: ActivityModel,
    threads: int,
    *,
    duration_cycles: int = DEFAULT_DURATION_CYCLES,
    rng: np.random.Generator | None = None,
    supply_v: float | None = None,
) -> Measurement:
    """Measure *threads* copies/workers of *model* on the platform.

    Models without barrier structure replicate independently (SPECrate
    style); models with barriers synchronise all workers at each barrier
    point with per-thread release skew.
    """
    if threads < 1:
        raise WorkloadError("threads must be >= 1")
    if duration_cycles < 1000:
        raise WorkloadError("duration too short to be meaningful (>= 1000)")
    rng = rng or np.random.default_rng(0)
    chip = platform.chip
    supply = chip.vdd if supply_v is None else supply_v

    utils = [model.thread_utilisation(duration_cycles, rng) for _ in range(threads)]
    utils = model.apply_barriers(utils, rng)

    counts = spread_placement(chip, threads)
    pipeline = platform.pipeline
    idle = pipeline.activity.chip_sim.idle_module_current()
    total_current = np.zeros(duration_cycles)
    total_sens = np.zeros(duration_cycles)
    next_thread = 0
    for count in counts:
        if count == 0:
            total_current += idle
            continue
        module_energy = np.zeros(duration_cycles)
        module_sens = np.zeros(duration_cycles)
        for _ in range(count):
            util = utils[next_thread]
            next_thread += 1
            module_energy += model.thread_energy(chip, util)
            np.maximum(module_sens, model.thread_sensitivity(util), out=module_sens)
        total_current += pipeline.pdn_stage.current_from_energy(
            module_energy, active_threads=count, supply_v=supply
        )
        np.maximum(total_sens, module_sens, out=total_sens)

    trace = CurrentTrace(total_current, chip.cycle_time_s)
    return platform.measure_current(
        trace,
        sensitivity=total_sens,
        supply_v=supply,
        baseline_current_a=float(total_current.mean()),
    )
