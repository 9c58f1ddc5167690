"""Physics invariants of the PDN model, checked property-style.

These pin down the solver against closed-form electrical identities, so a
regression in matrix assembly or discretisation cannot hide behind
"numbers changed a little".
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdn.elements import bulldozer_pdn, phenom_pdn
from repro.pdn.network import PdnNetwork
from repro.pdn.transient import TransientSolver
from repro.power.trace import CurrentTrace, square_wave

DT = 1 / 3.2e9


@pytest.fixture(scope="module")
def network():
    return PdnNetwork(bulldozer_pdn())


@pytest.fixture(scope="module")
def solver(network):
    return TransientSolver(network, DT)


class TestElectricalIdentities:
    def test_impulse_response_sums_to_dc_resistance(self, network, solver):
        """sum(h) * 1A = steady-state IR drop: the discrete DC identity."""
        h = solver.impulse_response(3_000_000)
        assert -h.sum() == pytest.approx(network.params.dc_resistance_ohm,
                                         rel=1e-3)

    def test_periodic_steady_state_mean_is_ir_drop(self, network, solver):
        """mean(v) = vdd - R_dc * mean(i), exactly, for any periodic load."""
        rng = np.random.default_rng(3)
        load = CurrentTrace(rng.uniform(0, 40, size=128), DT)
        v = solver.steady_state_periodic(load, vdd=1.2)
        expected = 1.2 - network.params.dc_resistance_ohm * load.mean_a
        assert v.samples.mean() == pytest.approx(expected, rel=1e-9)

    def test_impedance_hermitian_symmetry_at_dc(self, network):
        h = network.transfer(np.array([0.0]))[0]
        assert abs(h.imag) < 1e-15

    def test_impedance_rolls_off_at_high_frequency(self, network):
        """Above the first droop the die decap shorts the load: |Z| falls
        toward the decap ESR + die path floor."""
        z_peak = network.impedance(np.array([100e6]))[0]
        z_high = network.impedance(np.array([3e9]))[0]
        assert z_high < z_peak / 2

    @given(freq=st.floats(1e4, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_impedance_is_finite_and_positive(self, freq):
        network = PdnNetwork(bulldozer_pdn())
        z = network.impedance(np.array([freq]))[0]
        assert np.isfinite(z)
        assert z > 0

    @given(seed=st.integers(0, 10_000), n=st.integers(8, 256))
    @settings(max_examples=25, deadline=None)
    def test_periodic_response_bounded_by_worst_case_impedance(self, seed, n):
        """Peak deviation <= sum over harmonics of |Z_k·I_k| (triangle
        inequality in the frequency domain)."""
        network = PdnNetwork(bulldozer_pdn())
        solver = TransientSolver(network, DT)
        rng = np.random.default_rng(seed)
        load = CurrentTrace(rng.uniform(0, 30, size=n), DT)
        v = solver.steady_state_periodic(load, vdd=1.2)
        spectrum = np.fft.rfft(load.samples) / n
        freqs = np.fft.rfftfreq(n, d=DT)
        h = network.transfer(freqs)
        bound = np.abs(h[0] * spectrum[0]) + 2 * np.sum(
            np.abs(h[1:] * spectrum[1:])
        )
        worst_dev = np.max(np.abs(v.samples - 1.2))
        assert worst_dev <= bound + 1e-12

    def test_causality_no_response_before_stimulus(self, solver):
        load = CurrentTrace(
            np.concatenate([np.zeros(500), np.full(500, 30.0)]), DT
        )
        v = solver.simulate(load, vdd=1.2)
        np.testing.assert_allclose(v.samples[:500], 1.2, atol=1e-12)

    def test_passivity_constant_load_never_overshoots_nominal(self, solver):
        """Monotone step into a passive network cannot push v above vdd
        before the first current change arrives back (no energy sources)."""
        load = CurrentTrace(np.full(100_000, 25.0), DT)
        v = solver.simulate(load, vdd=1.2)
        assert v.max_v <= 1.2 + 1e-9


class TestCrossChipConsistency:
    def test_same_board_same_low_frequency_impedance(self):
        """The Phenom swap keeps the board: below ~1 MHz the two PDNs agree."""
        z_bd = PdnNetwork(bulldozer_pdn(1.2)).impedance(np.array([1e4, 1e5]))
        z_ph = PdnNetwork(phenom_pdn(1.3)).impedance(np.array([1e4, 1e5]))
        np.testing.assert_allclose(z_bd, z_ph, rtol=0.05)

    def test_different_die_different_first_droop(self):
        f = np.linspace(60e6, 140e6, 500)
        z_bd = PdnNetwork(bulldozer_pdn(1.2)).impedance(f)
        z_ph = PdnNetwork(phenom_pdn(1.3)).impedance(f)
        assert abs(f[z_bd.argmax()] - f[z_ph.argmax()]) > 10e6


class TestResonanceBuildup:
    def test_droop_grows_monotonically_with_periods_applied(self, solver):
        """Fig. 4's right panel: each resonant period deepens the droop
        until saturation."""
        period = square_wave(40, 5, 16, 16, 1, DT)
        droops = []
        for reps in (1, 2, 4, 8, 16, 64):
            v = solver.simulate(period.tile(reps), vdd=1.2,
                                baseline_current_a=period.mean_a)
            droops.append(v.max_droop_v)
        assert droops == sorted(droops)
        # And it saturates at the periodic steady state.
        steady = solver.steady_state_periodic(period, vdd=1.2).max_droop_v
        assert droops[-1] == pytest.approx(steady, rel=0.05)

    def test_quality_factor_sets_buildup_time(self, solver):
        """Within the first few periods the droop is well below steady
        state — resonance needs M cycles to build (the dithering M)."""
        period = square_wave(40, 5, 16, 16, 1, DT)
        first = solver.simulate(period, vdd=1.2,
                                baseline_current_a=period.mean_a).max_droop_v
        steady = solver.steady_state_periodic(period, vdd=1.2).max_droop_v
        assert first < 0.6 * steady
