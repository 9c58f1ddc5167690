"""Automatic resonance-frequency detection.

Paper Section III: "To determine the resonance frequency, AUDIT constructs a
trivial stressmark consisting of a loop of high-power instructions and NOP
instructions.  It varies the number of cycles in the loop to determine the
length that produces the worst-case droop."

The sweep runs entirely through the measurement platform, so it adapts to
whatever board/processor combination is plugged in (Section III notes the
resonance moves when the processor on the board changes — exactly the
Phenom II experiment of Section V.C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SearchError
from repro.isa.instruction import make_independent
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import OpcodeTable
from repro.core.platform import MeasurementPlatform
from repro.pipeline.artifacts import MeasureRequest

#: Loop-trip count for probe programs (steady state is what matters).
_PROBE_ITERATIONS = 4096


@dataclass(frozen=True)
class ResonancePoint:
    """One probe of the sweep."""

    lp_nops: int
    period_cycles: int | None
    droop_v: float


@dataclass(frozen=True)
class ResonanceSweepResult:
    """Outcome of the loop-length sweep."""

    points: tuple[ResonancePoint, ...]
    best_lp_nops: int
    best_period_cycles: int
    resonance_hz: float

    def droop_at(self, lp_nops: int) -> float:
        for point in self.points:
            if point.lp_nops == lp_nops:
                return point.droop_v
        raise SearchError(f"sweep has no point at lp_nops={lp_nops}")


def probe_program(
    table: OpcodeTable,
    *,
    hp_count: int,
    lp_nops: int,
    hp_mnemonic: str | None = None,
) -> ThreadProgram:
    """The trivial high-power/NOP probe loop."""
    if hp_count < 1:
        raise SearchError("hp_count must be >= 1")
    if lp_nops < 0:
        raise SearchError("lp_nops must be non-negative")
    if hp_mnemonic is None:
        # Highest-energy *fully pipelined* op: dividers block their unit for
        # tens of cycles and cannot sustain a high-power burst.
        pipelined = [s for s in table if s.issue_interval <= 2 and s.energy_pj > 0]
        if not pipelined:
            raise SearchError("opcode pool has no pipelined high-power ops")
        mnemonic = max(pipelined, key=lambda s: s.energy_pj).mnemonic
    else:
        mnemonic = hp_mnemonic
    subblock = make_independent(table.get(mnemonic), hp_count)
    kernel = build_kernel(
        subblock,
        replications=1,
        lp_nops=lp_nops,
        nop_spec=table.nop,
        name=f"probe-{lp_nops}",
    )
    return ThreadProgram(kernel, _PROBE_ITERATIONS)


def find_resonance(
    platform: MeasurementPlatform,
    table: OpcodeTable,
    *,
    threads: int = 1,
    period_candidates: list[int] | None = None,
    hp_mnemonic: str | None = None,
) -> ResonanceSweepResult:
    """Sweep the loop length and return the worst-droop (resonant) shape.

    Each probe targets a loop of roughly *period* cycles at ~50 % duty (the
    ideal Fig. 7 waveform): the HP region is sized to occupy half the period
    on the FP pipes, the LP half fills with NOPs at decode width.  Only
    opcodes legal on the platform's chip are used, so the same call works
    unmodified on the Bulldozer and Phenom testbeds.
    """
    pool = table.supported_on(platform.chip.extensions)
    if period_candidates is None:
        period_candidates = list(range(8, 121, 4))
    if not period_candidates:
        raise SearchError("need at least one loop length to sweep")

    decode_width = platform.chip.module.decode_width
    fp_width = platform.chip.module.fp_arith_pipes
    probes: list[tuple[int, ThreadProgram]] = []
    for period in period_candidates:
        if period < 2:
            raise SearchError("loop lengths must be >= 2 cycles")
        # Shape for ~50% duty at the *execution* level: the HP ops take
        # period/2 cycles to issue on the FP pipes, and the LP NOP stream
        # holds the decoder long enough for the out-of-order window to
        # drain, leaving the FP unit idle for the other period/2 cycles.
        hp_count = max(1, (period * fp_width) // 2)
        lp_nops = max(0, period * decode_width - hp_count - 1)
        program = probe_program(
            pool, hp_count=hp_count, lp_nops=lp_nops, hp_mnemonic=hp_mnemonic
        )
        probes.append((lp_nops, program))

    # The sweep's probes are independent, so the whole grid ships as one
    # batch: one vectorized PDN solve per compatible probe group.
    measurements = platform.measure_programs([
        MeasureRequest(program=program, threads=threads)
        for _lp_nops, program in probes
    ])

    points: list[ResonancePoint] = []
    best: ResonancePoint | None = None
    best_measurement_iteration: float | None = None
    for (lp_nops, _program), measurement in zip(probes, measurements):
        point = ResonancePoint(
            lp_nops=lp_nops,
            period_cycles=measurement.period_cycles,
            droop_v=measurement.max_droop_v,
        )
        points.append(point)
        if best is None or point.droop_v > best.droop_v:
            best = point
            best_measurement_iteration = measurement.iteration_cycles

    assert best is not None
    iteration = best_measurement_iteration
    if iteration is None:
        raise SearchError("resonant probe never reached a steady period")
    resonance_hz = platform.chip.frequency_hz / iteration
    return ResonanceSweepResult(
        points=tuple(points),
        best_lp_nops=best.lp_nops,
        best_period_cycles=int(round(iteration)),
        resonance_hz=resonance_hz,
    )
