"""Module-simulator cases shared by the golden corpus and the differential test.

A case is a chip, a thread layout and a loop kernel, run for a capped
number of iterations.  Kernels are the six canned stressmarks or seeded
random GA genomes expanded through the real code generator, so register
reuse creates the same accidental RAW chains a search produces.
"""

from __future__ import annotations

import numpy as np

from repro.core.codegen import genome_to_kernel
from repro.core.genome import GenomeSpace
from repro.errors import ReproError
from repro.isa import ThreadProgram, default_table
from repro.isa.kernels import LoopKernel
from repro.uarch.config import ChipConfig, bulldozer_chip, phenom_chip
from repro.workloads.stressmarks import CANNED_STRESSMARKS, canned_stressmark

#: Loop-trip count of every case program; runs are capped well below it.
PROGRAM_ITERATIONS = 4096

CHIPS = {
    "bulldozer": bulldozer_chip,
    "bulldozer-fpt1": lambda: bulldozer_chip().with_fp_throttle(1),
    "phenom": phenom_chip,
}

#: One thread; two threads in lockstep; two threads with the sibling
#: started ``phase`` cycles late.
LAYOUTS = ("1t", "lockstep-2t", "offset-2t")

#: Phase offset of the canned stressmarks' late sibling: half their
#: 32-cycle design period.
CANNED_PHASE = 16


def chip_layouts(chip: ChipConfig) -> tuple[str, ...]:
    """Layouts *chip*'s modules can run (single-threaded cores run 1T)."""
    return LAYOUTS if chip.module.threads == 2 else LAYOUTS[:1]


def canned_kernel(name: str, chip: ChipConfig) -> LoopKernel | None:
    """Canned stressmark *name* built for *chip*, or None if it cannot encode."""
    table = default_table().supported_on(chip.extensions)
    try:
        kernel = canned_stressmark(name, table)
    except ReproError:
        return None
    if any(not inst.spec.extensions <= chip.extensions for inst in kernel.body):
        return None
    return kernel


def genome_case(seed: int, chip: ChipConfig) -> tuple[LoopKernel, int]:
    """A seeded random genome's kernel for *chip*, and its sibling phase."""
    rng = np.random.default_rng(seed)
    table = default_table().supported_on(chip.extensions)
    decode = chip.module.decode_width
    space = GenomeSpace(
        table=table,
        slots=decode * int(rng.integers(1, 5)),
        replications=int(rng.integers(1, 4)),
        lp_nops_min=0,
        lp_nops_max=32 * decode,
    )
    genome = space.random_genome(rng)
    phase = int(rng.integers(1, 32))
    return genome_to_kernel(genome, space, name=f"genome-{seed}"), phase


def programs(kernel: LoopKernel, layout: str, phase: int) -> list[ThreadProgram]:
    """The module's thread programs for *layout*."""
    program = ThreadProgram(kernel, PROGRAM_ITERATIONS)
    if layout == "1t":
        return [program]
    if layout == "lockstep-2t":
        return [program, program]
    return [program, program.with_phase(phase)]


def kernel_names() -> tuple[str, ...]:
    """Canned stressmark names followed by ``genome-<seed>`` names."""
    return CANNED_STRESSMARKS + tuple(f"genome-{seed}" for seed in range(24))


def case_kernel(name: str, chip: ChipConfig) -> tuple[LoopKernel, int] | None:
    """Kernel and sibling phase for a :func:`kernel_names` entry on *chip*."""
    if name.startswith("genome-"):
        return genome_case(int(name.removeprefix("genome-")), chip)
    kernel = canned_kernel(name, chip)
    return None if kernel is None else (kernel, CANNED_PHASE)
