"""Tests for the transient solver: accuracy, stability, and droop physics."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PdnError
from repro.pdn.elements import bulldozer_pdn
from repro.pdn.impedance import first_droop_frequency
from repro.pdn.network import PdnNetwork
from repro.pdn.transient import TransientSolver, VoltageTrace, _ss_to_sos
from repro.power.trace import CurrentTrace, square_wave, step_load

DT = 1 / 3.2e9
VDD = 1.2


@pytest.fixture(scope="module")
def network():
    return PdnNetwork(bulldozer_pdn())


@pytest.fixture(scope="module")
def solver(network):
    return TransientSolver(network, DT)


@pytest.fixture(scope="module")
def resonant_period(network):
    f1 = first_droop_frequency(network)
    return round(1.0 / (f1 * DT))


class TestVoltageTrace:
    def test_metrics(self):
        tr = VoltageTrace(np.array([1.2, 1.1, 1.25]), DT, VDD)
        assert tr.min_v == pytest.approx(1.1)
        assert tr.max_v == pytest.approx(1.25)
        assert tr.max_droop_v == pytest.approx(0.1)
        assert tr.max_overshoot_v == pytest.approx(0.05)
        assert tr.worst_droop_index == 1

    def test_droop_clamped_at_zero(self):
        tr = VoltageTrace(np.array([1.3, 1.25]), DT, VDD)
        assert tr.max_droop_v == 0.0

    def test_validation(self):
        with pytest.raises(PdnError):
            VoltageTrace(np.array([]), DT, VDD)
        with pytest.raises(PdnError):
            VoltageTrace(np.ones(3), 0.0, VDD)

    def test_time_axis(self):
        tr = VoltageTrace(np.ones(3), DT, VDD)
        np.testing.assert_allclose(tr.time_axis(), [0, DT, 2 * DT])


class TestTransientAccuracy:
    def test_zero_load_holds_nominal_voltage(self, solver):
        quiet = CurrentTrace(np.zeros(1000), DT)
        v = solver.simulate(quiet, vdd=VDD)
        np.testing.assert_allclose(v.samples, VDD, atol=1e-12)

    def test_dc_load_settles_to_ir_drop(self, network, solver):
        const = CurrentTrace(np.full(3_000_000, 20.0), DT)
        v = solver.simulate(const, vdd=VDD)
        expected = VDD - network.dc_droop(20.0)
        assert v.samples[-1] == pytest.approx(expected, abs=1e-4)

    def test_long_simulation_numerically_stable(self, solver):
        const = CurrentTrace(np.full(3_000_000, 20.0), DT)
        v = solver.simulate(const, vdd=VDD)
        assert np.all(np.isfinite(v.samples))
        assert np.all(np.abs(v.samples - VDD) < 0.5)

    def test_baseline_current_starts_in_steady_state(self, network, solver):
        const = CurrentTrace(np.full(100, 15.0), DT)
        v = solver.simulate(const, vdd=VDD, baseline_current_a=15.0)
        expected = VDD - network.dc_droop(15.0)
        np.testing.assert_allclose(v.samples, expected, atol=1e-9)

    def test_matches_direct_state_space_recurrence(self, solver):
        """The section filter must agree with a literal state-space recurrence."""
        rng = np.random.default_rng(7)
        load = rng.uniform(0, 30, size=400)
        v_fast = solver.simulate(CurrentTrace(load, DT), vdd=VDD).samples
        ad, bd = solver._ad, solver._bd
        cd, dd = solver._cd, solver._dd
        x = np.zeros((ad.shape[0], 1))
        v_ref = np.empty(len(load))
        for k, i_k in enumerate(load):
            v_ref[k] = VDD + (cd @ x + dd * i_k)[0, 0]
            x = ad @ x + bd * i_k
        np.testing.assert_allclose(v_fast, v_ref, atol=1e-9)

    def test_dt_mismatch_rejected(self, solver):
        with pytest.raises(PdnError):
            solver.simulate(CurrentTrace(np.ones(10), DT * 2), vdd=VDD)

    def test_bad_dt_rejected(self, network):
        with pytest.raises(PdnError):
            TransientSolver(network, 0.0)


class TestDroopPhysics:
    def test_current_step_causes_droop_then_recovery_ring(self, solver):
        step = step_load(low_a=5, high_a=40, low_samples=300, high_samples=600, dt=DT)
        v = solver.simulate(step, vdd=VDD, baseline_current_a=5.0)
        assert v.max_droop_v > 0.01
        # First droop rings: there is an overshoot above the post-step DC level.
        post_dc = VDD - solver.network.dc_droop(40.0)
        assert v.samples[300:].max() > post_dc

    def test_resonant_load_builds_larger_droop_than_single_step(
        self, solver, resonant_period
    ):
        """Paper Fig. 4: resonance grows in amplitude vs a single event."""
        h = resonant_period // 2
        period = square_wave(40, 5, h, resonant_period - h, 1, DT)
        resonant = solver.steady_state_periodic(period, vdd=VDD).max_droop_v
        step = step_load(5, 40, 300, 600, DT)
        excitation = solver.simulate(step, vdd=VDD, baseline_current_a=5.0).max_droop_v
        assert resonant > 1.2 * excitation

    def test_on_resonance_beats_off_resonance(self, solver, resonant_period):
        h = resonant_period // 2
        on_res = square_wave(40, 5, h, resonant_period - h, 1, DT)
        off_len = resonant_period * 2  # half the resonant frequency
        off_res = square_wave(40, 5, off_len // 2, off_len - off_len // 2, 1, DT)
        droop_on = solver.steady_state_periodic(on_res, vdd=VDD).max_droop_v
        droop_off = solver.steady_state_periodic(off_res, vdd=VDD).max_droop_v
        assert droop_on > 1.3 * droop_off

    def test_steady_state_periodic_matches_long_transient(
        self, solver, resonant_period
    ):
        h = resonant_period // 2
        period = square_wave(40, 5, h, resonant_period - h, 1, DT)
        ss = solver.steady_state_periodic(period, vdd=VDD)
        long = solver.simulate(period.tile(3000), vdd=VDD, baseline_current_a=period.mean_a)
        late_min = long.samples[len(long.samples) // 2 :].min()
        assert ss.min_v == pytest.approx(late_min, abs=2e-3)

    # Loop periods, chip currents and HP duty as the pipeline's periodic
    # solves see them (bulldozer and phenom campaigns: 8-288 cycles,
    # 7.8-45 A, duty 0.08-0.95).
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="steady_state_periodic evaluates the continuous-time H(f) at the "
        "harmonics, simulate filters a zero-order hold: loops shorter than ~24 "
        "cycles read up to ~2.6 mV deeper in steady state",
    )
    @given(
        cycles=st.integers(8, 288),
        low_a=st.floats(5.0, 30.0),
        swing_a=st.floats(0.5, 40.0),
        duty=st.floats(0.05, 0.95),
    )
    @example(cycles=8, low_a=5.0, swing_a=23.0, duty=0.5)
    @settings(max_examples=40, deadline=None)
    def test_periodic_loads_match_long_transient(self, solver, cycles, low_a, swing_a, duty):
        high = min(max(round(duty * cycles), 1), cycles - 1)
        period = square_wave(low_a + swing_a, low_a, high, cycles - high, 1, DT)
        ss = solver.steady_state_periodic(period, vdd=VDD)
        # >= 96k samples (30 us), as many as 3000 tiles of the resonant
        # period; the second half has settled.
        tiles = -(-96_000 // cycles)
        long = solver.simulate(period.tile(tiles), vdd=VDD, baseline_current_a=period.mean_a)
        late_min = long.samples[len(long.samples) // 2 :].min()
        assert ss.min_v == pytest.approx(late_min, abs=2e-3)

    def test_larger_swing_larger_droop(self, solver, resonant_period):
        h = resonant_period // 2
        small = square_wave(20, 5, h, resonant_period - h, 1, DT)
        large = square_wave(40, 5, h, resonant_period - h, 1, DT)
        assert (
            solver.steady_state_periodic(large, vdd=VDD).max_droop_v
            > solver.steady_state_periodic(small, vdd=VDD).max_droop_v
        )

    def test_impulse_response_decays(self, solver):
        h = solver.impulse_response(200_000)
        assert np.abs(h[-100:]).max() < np.abs(h[:100]).max() * 1e-2

    def test_impulse_response_validation(self, solver):
        with pytest.raises(PdnError):
            solver.impulse_response(0)


class TestLinearityProperties:
    @given(scale=st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_response_scales_linearly(self, scale):
        solver = TransientSolver(PdnNetwork(bulldozer_pdn()), DT)
        base = square_wave(30, 5, 16, 16, 5, DT)
        v1 = solver.simulate(base, vdd=VDD)
        v2 = solver.simulate(base.scaled(scale), vdd=VDD)
        dev1 = v1.samples - VDD
        dev2 = v2.samples - VDD
        np.testing.assert_allclose(dev2, dev1 * scale, atol=1e-9, rtol=1e-6)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_superposition(self, seed):
        solver = TransientSolver(PdnNetwork(bulldozer_pdn()), DT)
        rng = np.random.default_rng(seed)
        a = CurrentTrace(rng.uniform(0, 20, 256), DT)
        b = CurrentTrace(rng.uniform(0, 20, 256), DT)
        va = solver.simulate(a, vdd=VDD).samples - VDD
        vb = solver.simulate(b, vdd=VDD).samples - VDD
        vab = solver.simulate(a + b, vdd=VDD).samples - VDD
        np.testing.assert_allclose(vab, va + vb, atol=1e-9)


class TestLazyDiscretisation:
    """The sections are built on first use, and are exactly those an
    eager ``cont2discrete`` + :func:`_ss_to_sos` build gives."""

    #: SHA-256 of the float64 outputs below, as computed when solvers
    #: discretised in ``__init__``.
    SIMULATE_SHA256 = "72c015d56d7e386ab6a8b551d0fe5bb5aae204b059af6501c74d0c1833b3f5ab"
    SIMULATE_BATCH_SHA256 = "57893e86e6de9e1632dffa242d4c6d2bcb67203e49529baaec8c5c971a4234ea"

    @staticmethod
    def load() -> np.ndarray:
        return 5.0 + 30.0 * (np.arange(512) % 37 < 18)

    def test_sections_match_a_direct_build_bit_for_bit(self, network):
        from scipy import signal

        fresh = TransientSolver(network, DT)
        assert "_sos" not in vars(fresh)
        system = (network.a_matrix, network.b_matrix, network.c_matrix,
                  network.d_matrix)
        want = _ss_to_sos(*signal.cont2discrete(system, DT, method="zoh")[:4])
        assert fresh._sos.tobytes() == want.tobytes()
        assert fresh._sos.shape == want.shape

    def test_simulate_matches_eager_discretisation(self, network):
        load = self.load()
        solver = TransientSolver(network, DT)
        v = solver.simulate(CurrentTrace(load, DT), vdd=VDD, baseline_current_a=5.0)
        assert hashlib.sha256(v.samples.tobytes()).hexdigest() == self.SIMULATE_SHA256
        volts = TransientSolver(network, DT).simulate_batch(
            np.stack([load, load[::-1]]), baselines=[5.0, 0.0], vdd_rows=[VDD, 1.0],
        )
        assert hashlib.sha256(volts.tobytes()).hexdigest() == self.SIMULATE_BATCH_SHA256
