"""Tests for chip-level assembly of module currents."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.isa.instruction import make_instruction
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import default_table
from repro.isa.registers import RegisterAllocator
from repro.uarch.chip import ChipSimulator
from repro.uarch.config import bulldozer_chip

TABLE = default_table()


def make_program(mnemonics=("mulpd", "add"), lp_nops=4):
    alloc = RegisterAllocator()
    sub = tuple(make_instruction(TABLE.get(m), alloc) for m in mnemonics)
    kernel = build_kernel(sub, replications=1, lp_nops=lp_nops, nop_spec=TABLE.nop)
    return ThreadProgram(kernel, 10_000)


@pytest.fixture()
def chip_sim():
    return ChipSimulator(bulldozer_chip())


class TestRunPlacement:
    def test_idle_modules_yield_none(self, chip_sim):
        prog = make_program()
        placement = [[prog], [], [], []]
        traces = chip_sim.run_placement(placement, max_iterations=10)
        assert traces[0] is not None
        assert traces[1] is None and traces[2] is None and traces[3] is None

    def test_placement_size_enforced(self, chip_sim):
        with pytest.raises(SchedulingError):
            chip_sim.run_placement([[], []])

    def test_memoisation_reuses_identical_module_runs(self, chip_sim):
        prog = make_program()
        placement = [[prog], [prog], [prog], [prog]]
        traces = chip_sim.run_placement(placement, max_iterations=10)
        assert traces[0] is traces[1] is traces[2] is traces[3]


class TestCurrentConversion:
    def test_module_current_has_baseline_plus_dynamic(self, chip_sim):
        energy = np.array([0.0, 100.0, 0.0])
        current = chip_sim.module_current(energy, active_threads=1)
        assert current[1] > current[0]
        assert current[0] == pytest.approx(current[2])
        # Gated cycle equals per-thread idle current.
        assert current[0] == pytest.approx(chip_sim.energy_model.idle_current())

    def test_two_thread_module_doubles_baseline(self, chip_sim):
        energy = np.zeros(4)
        one = chip_sim.module_current(energy, active_threads=1)
        two = chip_sim.module_current(energy, active_threads=2)
        np.testing.assert_allclose(two, 2 * one)

    def test_active_threads_validation(self, chip_sim):
        with pytest.raises(SchedulingError):
            chip_sim.module_current(np.zeros(2), active_threads=0)

    def test_chip_current_superposes_and_pads_idle(self, chip_sim):
        idle = chip_sim.idle_module_current()
        m0 = np.full(4, 10.0)
        m1 = np.full(2, 5.0)
        trace = chip_sim.chip_current([m0, m1, None, None])
        assert len(trace) == 4
        assert trace.samples[0] == pytest.approx(10 + 5 + 2 * idle)
        # Module 1 finished after 2 cycles -> falls back to idle current.
        assert trace.samples[3] == pytest.approx(10 + 3 * idle)

    def test_chip_current_needs_active_or_length(self, chip_sim):
        with pytest.raises(SchedulingError):
            chip_sim.chip_current([None, None, None, None])
        trace = chip_sim.chip_current([None, None, None, None], length=8)
        assert len(trace) == 8
        np.testing.assert_allclose(
            trace.samples, 4 * chip_sim.idle_module_current()
        )

    def test_chip_current_module_count_enforced(self, chip_sim):
        with pytest.raises(SchedulingError):
            chip_sim.chip_current([np.ones(2)])

    def test_dt_matches_clock(self, chip_sim):
        assert chip_sim.dt == pytest.approx(1 / 3.2e9)
