"""Property and integration tests for the measurement platform.

Physical invariants that must hold regardless of program: determinism,
monotonic responses, load-line effects, energy conservation between the
periodic and transient measurement paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import MeasurementPlatform
from repro.core.resonance import probe_program
from repro.isa.opcodes import default_table
from repro.pdn.elements import bulldozer_pdn
from repro.uarch.config import bulldozer_chip

TABLE = default_table()


def fresh_platform(**kw):
    chip = bulldozer_chip()
    return MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd), **kw)


@pytest.fixture(scope="module")
def platform():
    return fresh_platform()


@pytest.fixture(scope="module")
def program():
    return probe_program(TABLE, hp_count=32, lp_nops=95)


class TestDeterminism:
    def test_fresh_platforms_agree_exactly(self, program):
        a = fresh_platform().measure_program(program, 4)
        b = fresh_platform().measure_program(program, 4)
        np.testing.assert_array_equal(a.voltage.samples, b.voltage.samples)
        np.testing.assert_array_equal(a.sensitivity, b.sensitivity)

    def test_jittered_smt_path_is_deterministic(self, program):
        a = fresh_platform().measure_program(program, 8)
        b = fresh_platform().measure_program(program, 8)
        np.testing.assert_array_equal(a.voltage.samples, b.voltage.samples)


class TestMonotonicity:
    @given(supplies=st.lists(
        st.floats(0.9, 1.2).map(lambda v: round(v, 3)),
        min_size=2, max_size=4, unique=True,
    ))
    @settings(max_examples=10, deadline=None)
    def test_lower_supply_never_shrinks_droop(self, supplies, program):
        platform = fresh_platform()
        supplies = sorted(supplies, reverse=True)
        droops = [
            platform.measure_program(program, 4, supply_v=v).max_droop_v
            for v in supplies
        ]
        assert droops == sorted(droops)

    def test_more_modules_more_droop(self, platform, program):
        droops = [platform.measure_program(program, t).max_droop_v
                  for t in (1, 2, 3, 4)]
        assert droops == sorted(droops)
        assert droops[-1] > droops[0]


class TestPhaseInvariants:
    def test_global_phase_shift_is_irrelevant(self, platform, program):
        """Shifting every module identically cannot change the droop."""
        base = platform.measure_program(program, 4).max_droop_v
        period = platform.measure_program(program, 4).period_cycles
        shifted = platform.measure_program(
            program, 4, module_phases=[7, 7, 7, 7]
        ).max_droop_v
        assert shifted == pytest.approx(base, rel=1e-9)
        assert period is not None

    @given(offset=st.integers(1, 31))
    @settings(max_examples=12, deadline=None)
    def test_any_misalignment_weakens_or_equals_aligned(self, offset, program):
        platform = fresh_platform()
        aligned = platform.measure_program(program, 4).max_droop_v
        staggered = platform.measure_program(
            program, 4, module_phases=[0, offset, 0, offset]
        ).max_droop_v
        assert staggered <= aligned + 1e-12


class TestLoadLine:
    def test_load_line_adds_dc_sag(self, program):
        chip = bulldozer_chip()
        base = MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))
        with_ll = MeasurementPlatform(
            chip, bulldozer_pdn(vdd=chip.vdd).with_load_line(1e-3)
        )
        d_base = base.measure_program(program, 4)
        d_ll = with_ll.measure_program(program, 4)
        # The paper disables the load line to isolate di/dt droops; with it
        # enabled the same program shows a deeper total droop.
        assert d_ll.max_droop_v > d_base.max_droop_v
        extra = d_ll.max_droop_v - d_base.max_droop_v
        expected_dc = 1e-3 * d_base.mean_current_a
        assert extra == pytest.approx(expected_dc, rel=0.5)


class TestPathConsistency:
    def test_periodic_and_transient_paths_agree(self, platform):
        """The fast periodic path must match a brute-force transient."""
        program = probe_program(TABLE, hp_count=32, lp_nops=95)
        fast = platform.measure_program(program, 4)
        assert fast.period_cycles is not None

        # Brute force: tile the measured periodic current and simulate.
        tiled = fast.current.tile(400)
        solver = platform.pipeline.pdn_stage.solver_at(platform.chip.vdd)
        slow = solver.simulate(tiled, baseline_current_a=fast.current.mean_a)
        late_min = slow.samples[len(slow.samples) // 2 :].min()
        assert fast.voltage.min_v == pytest.approx(late_min, abs=2e-3)

    def test_sensitivity_only_during_activity(self, platform):
        program = probe_program(TABLE, hp_count=32, lp_nops=95)
        m = platform.measure_program(program, 4)
        active = m.sensitivity > 0
        # The LP region must contain sensitivity-free cycles.
        assert (~active).sum() > 0
        assert active.sum() > 0

    def test_mean_power_scales_with_threads(self, platform, program):
        p1 = platform.measure_program(program, 1).mean_power_w
        p4 = platform.measure_program(program, 4).mean_power_w
        assert p4 > p1
        # Dynamic power roughly quadruples on top of a shared idle floor.
        assert p4 < 4.5 * p1
