"""Tests for the measurement platform (the closed loop's 'Measure HW' box)."""

import numpy as np
import pytest

from repro.core.platform import Measurement, MeasurementPlatform
from repro.core.resonance import probe_program
from repro.errors import ConfigurationError, MeasurementError
from repro.isa.instruction import make_instruction
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import default_table
from repro.isa.registers import RegisterAllocator
from repro.pdn.elements import bulldozer_pdn
from repro.power.trace import CurrentTrace
from repro.uarch.config import bulldozer_chip

TABLE = default_table()


@pytest.fixture(scope="module")
def platform():
    chip = bulldozer_chip()
    return MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))


def resonant_program():
    # Period-32 probe: 32 FMA + NOP filler (the known-resonant shape).
    return probe_program(TABLE, hp_count=32, lp_nops=32 * 4 - 32 - 1)


class TestConstruction:
    def test_vdd_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementPlatform(bulldozer_chip(), bulldozer_pdn(vdd=1.0))

    def test_warmup_floor(self):
        with pytest.raises(ConfigurationError):
            MeasurementPlatform(bulldozer_chip(), bulldozer_pdn(vdd=1.2),
                                warmup_iterations=2)


class TestMeasureProgram:
    def test_periodic_measurement(self, platform):
        m = platform.measure_program(resonant_program(), 4)
        assert m.period_cycles is not None
        assert m.iteration_cycles == pytest.approx(32, abs=2)
        assert m.max_droop_v > 0.05
        assert len(m.sensitivity) == m.period_cycles
        assert m.steady_frequency_hz == pytest.approx(100e6, rel=0.1)

    def test_droop_grows_with_thread_count(self, platform):
        program = resonant_program()
        droops = [platform.measure_program(program, t).max_droop_v
                  for t in (1, 2, 4)]
        assert droops[0] < droops[1] < droops[2]

    def test_aligned_phases_are_worst(self, platform):
        program = resonant_program()
        aligned = platform.measure_program(program, 4).max_droop_v
        period = platform.measure_program(program, 4).period_cycles
        staggered = platform.measure_program(
            program, 4, module_phases=[0, period // 4, period // 2,
                                       3 * period // 4]
        ).max_droop_v
        assert aligned > staggered

    def test_mean_power_reasonable(self, platform):
        m = platform.measure_program(resonant_program(), 4)
        assert 10 < m.mean_power_w < 400

    def test_lower_supply_deepens_droop(self, platform):
        program = resonant_program()
        nominal = platform.measure_program(program, 4)
        lowered = platform.measure_program(program, 4, supply_v=1.0)
        assert lowered.max_droop_v > nominal.max_droop_v
        assert lowered.voltage.vdd_nominal == pytest.approx(1.0)

    def test_phase_vector_validated(self, platform):
        with pytest.raises(MeasurementError):
            platform.measure_program(resonant_program(), 4, module_phases=[0, 1])

    def test_supply_validated(self, platform):
        with pytest.raises(ConfigurationError):
            platform.measure_program(resonant_program(), 4, supply_v=0.0)

    def test_module_runs_memoised_across_measurements(self, platform):
        program = resonant_program()
        platform.measure_program(program, 4)
        cached = len(platform.pipeline.activity.chip_sim._cache)
        platform.measure_program(program, 4, supply_v=1.1)
        assert len(platform.pipeline.activity.chip_sim._cache) == cached  # reused simulations

    def test_transient_fallback_for_unstable_loops(self, platform):
        # divpd's 20-cycle unit occupancy produces long non-repeating
        # patterns -> the platform takes the transient path.
        alloc = RegisterAllocator()
        sub = tuple(make_instruction(TABLE.get(m), alloc)
                    for m in ("divpd", "mulpd", "divpd", "add"))
        kernel = build_kernel(sub, replications=3, lp_nops=17,
                              nop_spec=TABLE.nop)
        m = platform.measure_program(ThreadProgram(kernel, 4096), 4)
        assert m.max_droop_v > 0
        assert np.all(np.isfinite(m.voltage.samples))


class TestMeasureCurrent:
    def test_external_trace_measurement(self, platform):
        dt = platform.chip.cycle_time_s
        current = CurrentTrace(np.full(2000, 30.0), dt)
        m = platform.measure_current(current)
        assert isinstance(m, Measurement)
        assert m.period_cycles is None
        assert m.mean_current_a == pytest.approx(30.0)

    def test_dt_mismatch_rejected(self, platform):
        current = CurrentTrace(np.ones(100), 1e-9)
        with pytest.raises(MeasurementError):
            platform.measure_current(current)

    def test_sensitivity_length_checked(self, platform):
        dt = platform.chip.cycle_time_s
        current = CurrentTrace(np.ones(100), dt)
        with pytest.raises(MeasurementError):
            platform.measure_current(current, sensitivity=np.ones(5))
