#!/usr/bin/env python3
"""Porting AUDIT to a different processor (the paper's Section V.C).

Swaps the Bulldozer part for the Phenom-II-like chip on the same board and
shows the three adaptation behaviours the paper demonstrates:

1. the FMA4-based SM1 stressmark is rejected outright (incompatible ISA);
2. the resonance sweep finds the *new* first-droop frequency (~80 MHz
   instead of ~100 MHz — the on-die decap changed with the processor);
3. a scenario-matrix *fleet* characterizes both parts in one shot — the
   re-tuning the paper does by hand is just another axis value, and the
   cross-platform report shows AUDIT matching or beating the surviving
   hand-tuned stressmark on the new part with zero manual retuning.

The equivalent from the command line (see README "Characterize a new
platform"):

    repro fleet run --matrix chip=bulldozer,phenom --matrix threads=4 \\
        --matrix budget=12x8 --matrix seed=5 --dir fleet/ --workers 2

Run:  python examples/port_to_new_processor.py
"""

import tempfile

from repro.core.resonance import find_resonance
from repro.errors import SchedulingError
from repro.experiments.setup import bulldozer_testbed, phenom_testbed
from repro.fleet.matrix import ScenarioMatrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.isa.opcodes import default_table
from repro.workloads.stressmarks import sm1, sm2, stressmark_program


def main() -> None:
    table = default_table()

    # The old and the new testbed share the board; only the chip changed.
    old = bulldozer_testbed()
    new = phenom_testbed()
    print(f"old processor: {old.chip.name} @ {old.chip.frequency_hz / 1e9:.1f} GHz "
          f"({sorted(old.chip.extensions)})")
    print(f"new processor: {new.chip.name} @ {new.chip.frequency_hz / 1e9:.1f} GHz "
          f"({sorted(new.chip.extensions)})")

    # 1. SM1 depends on FMA4 and must be rejected on the older part.
    try:
        new.measure_program(stressmark_program(sm1(table)), 4)
        print("\nSM1 ran on the Phenom — unexpected!")
    except SchedulingError as error:
        print(f"\nSM1 rejected on the new part, as on real hardware: {error}")

    # 2. The resonance moved with the processor; AUDIT's sweep finds it.
    for name, platform in (("bulldozer", old), ("phenom", new)):
        sweep = find_resonance(platform, table, threads=1,
                               period_candidates=list(range(16, 73, 4)))
        print(f"{name}: first-droop resonance at "
              f"{sweep.resonance_hz / 1e6:.1f} MHz "
              f"({sweep.best_period_cycles} cycles at "
              f"{platform.chip.frequency_hz / 1e9:.1f} GHz)")

    # 3. Characterize both parts with one fleet: the chip is an axis, not
    #    a porting effort.  Each scenario is a full checkpointed AUDIT
    #    campaign; the report is the cross-platform comparison.
    print("\nrunning the two-platform characterization fleet...")
    matrix = ScenarioMatrix(
        chip=("bulldozer", "phenom"),
        threads=(4,),
        budget=("12x8",),
        seed=(5,),
    )
    with tempfile.TemporaryDirectory(prefix="audit-fleet-") as fleet_dir:
        report = FleetOrchestrator(matrix, fleet_dir, workers=1).run()
    for key, result in report.best_per_platform().items():
        print(f"best[{key}]: {result.scenario_id} "
              f"({result.droop_v * 1e3:.1f} mV droop)")

    # The hand-tuned comparison point the paper keeps: SM2 still runs on
    # the Phenom, and the regenerated stressmark should match or beat it.
    phenom_pool = table.supported_on(new.chip.extensions)
    hand = new.measure_program(
        stressmark_program(sm2(phenom_pool, period_cycles=35)), 4
    )
    phenom_best = report.best_per_platform()["phenom/nominal"]
    print(f"AUDIT A-Res droop on Phenom:  {phenom_best.droop_v * 1e3:.1f} mV")
    print(f"hand-tuned SM2 droop:         {hand.max_droop_v * 1e3:.1f} mV")
    print(f"AUDIT / hand-tuned:           "
          f"{phenom_best.droop_v / hand.max_droop_v:.2f}x "
          "(paper: 1.10x, same direction)")


if __name__ == "__main__":
    main()
