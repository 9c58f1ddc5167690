"""Invariants every module-simulator run must keep, over random loops.

Hypothesis draws seeded random GA genomes (expanded through the real code
generator, see ``simcases``) and runs them on bulldozer, bulldozer with a
one-op FP throttle and phenom, at one thread, two threads in lockstep and
two threads with the sibling started late.  Each run is checked against
counts and bounds that follow from the model itself, not from a recorded
answer: every decoded op retires or is a NOP, issues add up, NOPs never
reach a unit, no cycle claims a busy pipe, result bus or throttle slot or
decodes past the module's width, traces are non-negative, and a
one-thread loop is never faster than its busiest resource allows.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import Unit
from repro.uarch.module import LOOP_CLOSE_SPEC, ModuleSimulator
from repro.uarch.resources import PerCycleLimiter, UnitPool
from tests.uarch.simcases import (
    CHIPS,
    LAYOUTS,
    PROGRAM_ITERATIONS,
    chip_layouts,
    genome_case,
    programs,
)

runs = dict(
    chip_name=st.sampled_from(sorted(CHIPS)),
    seed=st.integers(0, 9_999),
    layout=st.sampled_from(LAYOUTS),
    cap=st.integers(1, 64),
)


def simulate(chip_name, seed, layout, cap):
    chip = CHIPS[chip_name]()
    assume(layout in chip_layouts(chip))
    kernel, phase = genome_case(seed, chip)
    progs = programs(kernel, layout, phase)
    return chip, kernel, progs, ModuleSimulator(chip).run(progs, max_iterations=cap)


def resource_bound(chip, kernel) -> float:
    """Fewest cycles per iteration the one-thread loop's resources allow."""
    module = chip.module
    core = module.core
    pipes = {
        Unit.IALU: core.int_alu_count,
        Unit.AGU: core.agu_count,
        Unit.IMUL: core.imul_count,
        Unit.FPU: module.fp_arith_pipes,
        Unit.FSIMD: module.fp_simd_pipes,
    }
    specs = [inst.spec for inst in kernel.body] + [LOOP_CLOSE_SPEC]
    busy = dict.fromkeys(pipes, 0)
    for spec in specs:
        if spec.unit in busy:
            busy[spec.unit] += spec.issue_interval
    bounds = [len(specs) / module.decode_width]
    bounds += [busy[unit] / count for unit, count in pipes.items()]
    if module.fp_throttle is not None:
        bounds.append(sum(spec.is_fp for spec in specs) / module.fp_throttle)
    return max(bounds)


@settings(max_examples=60, deadline=None)
@given(**runs)
def test_decoded_ops_retire_and_issue_once(chip_name, seed, layout, cap):
    _, kernel, progs, trace = simulate(chip_name, seed, layout, cap)
    stats = trace.stats
    iterations = min(cap, PROGRAM_ITERATIONS)
    nops = sum(inst.is_nop for inst in kernel.body)
    assert stats.retired_instructions == sum(stats.issues_by_unit.values())
    assert (stats.decoded_instructions
            == stats.retired_instructions + len(progs) * iterations * nops
            == len(progs) * iterations * (len(kernel.body) + 1))
    assert Unit.NONE.value not in stats.issues_by_unit


def must_succeed(claim):
    """*claim* (``try_issue``/``try_take``) failing the test when it refuses."""
    def checked(self, *args):
        assert claim(self, *args), f"{self.name}: claimed while full"
        return True
    return checked


@settings(max_examples=60, deadline=None)
@given(**runs)
def test_no_cycle_oversubscribes_a_resource(chip_name, seed, layout, cap):
    # The scheduler checks a pipe, result bus or throttle slot is free
    # before it claims one, so every claim it makes must succeed; and no
    # cycle decodes more than the module's width.
    width = CHIPS[chip_name]().module.decode_width
    decode_cycle = ModuleSimulator._decode_cycle

    def counted(self, order, decode_width, fp_tokens, energy, cycle, counters):
        before = counters["decoded"]
        decode_cycle(self, order, decode_width, fp_tokens, energy, cycle, counters)
        assert counters["decoded"] - before <= width

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UnitPool, "try_issue", must_succeed(UnitPool.try_issue))
        mp.setattr(PerCycleLimiter, "try_take", must_succeed(PerCycleLimiter.try_take))
        mp.setattr(ModuleSimulator, "_decode_cycle", counted)
        simulate(chip_name, seed, layout, cap)


@settings(max_examples=60, deadline=None)
@given(**runs)
def test_traces_are_non_negative(chip_name, seed, layout, cap):
    _, _, _, trace = simulate(chip_name, seed, layout, cap)
    assert trace.energy_pj.min() >= 0
    assert trace.sensitivity.min() >= 0


#: Iterations of a one-thread run whose second half is past the warm-up.
#: Decode runs ahead of issue until the scheduler window fills, which
#: takes hundreds of iterations when decode is only slightly faster than
#: the bottleneck: 2% of random runs read faster than their bound at 48
#: iterations, and 44 of 30,000 at 256.
STEADY_ITERATIONS = 4096

#: Share of the bound by which the mean spacing over half a run may read
#: low: the window ends mid-pattern when the steady state repeats a long
#: group of unequal spacings (the worst of 30,000 runs read 0.04% low).
WINDOW_SLACK = 0.005


def steady_spacing(trace) -> float:
    """Mean cycles per iteration over the second half of thread 0's run.

    Not ``steady_period()``: its group detector can accept a short group
    inside a longer repeating pattern (bulldozer genome-4733 reads 35.8
    cycles against a true 36.0).
    """
    starts = trace.iter_start_cycles[0]
    half = len(starts) // 2
    return (starts[-1] - starts[half]) / (len(starts) - 1 - half)


@settings(max_examples=60, deadline=None)
@given(chip_name=runs["chip_name"], seed=runs["seed"])
def test_one_thread_loop_respects_resource_bound(chip_name, seed):
    chip, kernel, _, trace = simulate(chip_name, seed, "1t", STEADY_ITERATIONS)
    assert steady_spacing(trace) >= resource_bound(chip, kernel) * (1 - WINDOW_SLACK)


@pytest.mark.parametrize("chip_name", sorted(CHIPS))
def test_resource_bound_binds_somewhere(chip_name):
    """The bound is met for some loop: it is not vacuously low."""
    chip = CHIPS[chip_name]()
    tight = []
    for seed in range(12):
        kernel, _ = genome_case(seed, chip)
        trace = ModuleSimulator(chip).run(programs(kernel, "1t", 0),
                                          max_iterations=STEADY_ITERATIONS)
        bound = resource_bound(chip, kernel)
        tight.append(steady_spacing(trace) <= bound * (1 + WINDOW_SLACK))
    assert any(tight)
