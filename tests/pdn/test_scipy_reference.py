"""The transient solver's discretisation, pole-zero pairing and section
filter against ``scipy.signal``, and the zeros it pairs against
``scipy.linalg.eigvals``: the public functions stay their reference.

Every network is a preset with its stage resistances, inductances and
capacitances scaled, so stages range from sharply resonant to overdamped
(real poles, which take ``zpk2sos``'s real-pole pairings); every sample
interval is a chip's cycle time.  Each comparison is ``np.array_equal``:
the ports must be bit-identical, not close.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st
from scipy import linalg, signal

from repro.errors import ConfigurationError
from repro.pdn import transient
from repro.pdn.elements import LadderStage, PdnParameters, bulldozer_pdn, phenom_pdn
from repro.pdn.network import PdnNetwork
from repro.power.trace import CurrentTrace
from repro.uarch.config import bulldozer_chip, phenom_chip

PRESETS = {"bulldozer": bulldozer_pdn(), "phenom": phenom_pdn()}
CHIP_DTS = (bulldozer_chip().cycle_time_s, phenom_chip().cycle_time_s)

#: Series resistance and ESR from 0.1x to 300x (log-uniform): 300x
#: overdamps any stage.
damping = st.floats(-1.0, 2.5).map(lambda e: 10.0**e)
#: L and C within 3x either way, keeping most stage orderings valid.
reactance = st.floats(-0.5, 0.5).map(lambda e: 10.0**e)


@st.composite
def networks(draw):
    preset = PRESETS[draw(st.sampled_from(sorted(PRESETS)))]
    stages = [
        LadderStage(
            resistance_ohm=stage.resistance_ohm * draw(damping),
            inductance_h=stage.inductance_h * draw(reactance),
            capacitance_f=stage.capacitance_f * draw(reactance),
            esr_ohm=stage.esr_ohm * draw(damping),
        )
        for stage in preset.stages
    ]
    load_line = draw(st.sampled_from([0.0, 1e-3]))
    try:
        params = PdnParameters(preset.vdd_nominal, *stages, load_line_ohm=load_line)
    except ConfigurationError:  # the scaling reordered the stage frequencies
        reject()
    return PdnNetwork(params)


def discretised(network, dt):
    """The network's ZOH system from ``cont2discrete``: ``(ad, bd, cd, dd)``."""
    system = (network.a_matrix, network.b_matrix, network.c_matrix, network.d_matrix)
    return signal.cont2discrete(system, dt, method="zoh")[:4]


def zpk_and_sections(state_space):
    """The zeros, poles and gain :func:`transient._ss_to_sos` pairs, and
    the sections it returns."""
    with mock.patch.object(transient, "_zpk2sos", wraps=transient._zpk2sos) as spy:
        sos = transient._ss_to_sos(*state_space)
    (call,) = spy.call_args_list
    return call.args, sos


@given(network=networks(), dt=st.sampled_from(CHIP_DTS))
@settings(max_examples=120, deadline=None)
def test_zoh_matches_cont2discrete(network, dt):
    ad, bd = transient._zoh(network.a_matrix, network.b_matrix, dt)
    want_ad, want_bd, _, _ = discretised(network, dt)
    assert np.array_equal(ad, want_ad)
    assert np.array_equal(bd, want_bd)


@given(network=networks(), dt=st.sampled_from(CHIP_DTS))
@settings(max_examples=120, deadline=None)
def test_sections_match_zpk2sos(network, dt):
    (z, p, k), sos = zpk_and_sections(discretised(network, dt))
    event(f"{np.count_nonzero(p.imag == 0)} real poles, "
          f"{np.count_nonzero(z.imag == 0)} real zeros")
    assert np.array_equal(sos, signal.zpk2sos(z, p, k))


@given(network=networks(), dt=st.sampled_from(CHIP_DTS))
@settings(max_examples=60, deadline=None)
def test_pencil_eigvals_match_scipy(network, dt):
    """The zeros :func:`test_sections_match_zpk2sos` takes as given."""
    ad, bd, cd, dd = discretised(network, dt)
    n = ad.shape[0]
    pencil_a = np.block([[ad, bd], [cd, dd]])
    pencil_b = np.zeros_like(pencil_a)
    pencil_b[:n, :n] = np.eye(n)
    got = transient._pencil_eigvals(pencil_a, pencil_b)
    assert np.array_equal(got, linalg.eigvals(pencil_a, pencil_b), equal_nan=True)
    assert not np.isfinite(got).all()  # the pencil's singular B gives an infinite root


@given(network=networks(), dt=st.sampled_from(CHIP_DTS),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_filter_matches_sosfilt(network, dt, seed):
    sos = transient._ss_to_sos(*discretised(network, dt))
    loads = np.random.default_rng(seed).uniform(-30.0, 30.0, size=(3, 1000))
    assert np.array_equal(transient._sosfilt(sos, loads[0]), signal.sosfilt(sos, loads[0]))
    rows = np.stack([transient._sosfilt(sos, row) for row in loads])
    assert np.array_equal(rows, signal.sosfilt(sos, loads, axis=-1))


def test_real_poles_are_reached():
    """The overdamped corner of :func:`networks` has real poles."""
    die = phenom_pdn().die
    overdamped = LadderStage(die.resistance_ohm * 300, die.inductance_h,
                             die.capacitance_f, die.esr_ohm * 300)
    params = PdnParameters(1.3, phenom_pdn().board, phenom_pdn().package, overdamped)
    ad = discretised(PdnNetwork(params), CHIP_DTS[0])[0]
    poles = np.linalg.eigvals(ad)
    assert np.count_nonzero(poles.imag == 0) >= 2


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("dt", CHIP_DTS)
class TestSolverAgainstSosfilt:
    """The solver's public time-domain paths, term for term as they read
    when they called ``scipy.signal.sosfilt``."""

    @staticmethod
    def solver(preset, dt):
        return transient.TransientSolver(PdnNetwork(PRESETS[preset]), dt)

    @staticmethod
    def reference_sections(solver):
        return transient._ss_to_sos(*discretised(solver.network, solver.dt))

    def test_simulate(self, preset, dt):
        solver = self.solver(preset, dt)
        sos = self.reference_sections(solver)
        load = 5.0 + 35.0 * (np.arange(4000) % 29 < 13)
        got = solver.simulate(CurrentTrace(load, dt), vdd=1.2, baseline_current_a=5.0)
        want = 1.2 - solver.network.dc_droop(5.0) + signal.sosfilt(sos, load - 5.0)
        assert np.array_equal(got.samples, want)

    def test_simulate_batch(self, preset, dt):
        solver = self.solver(preset, dt)
        sos = self.reference_sections(solver)
        rng = np.random.default_rng(11)
        loads = rng.uniform(5.0, 40.0, size=(3, 2500))
        baselines = np.array([5.0, 0.0, 12.5])
        vdds = np.array([1.2, 1.1, 1.3])
        got = solver.simulate_batch(loads, baselines=baselines, vdd_rows=vdds)
        dcs = np.array([solver.network.dc_droop(float(b)) for b in baselines])
        response = signal.sosfilt(sos, loads - baselines[:, None], axis=-1)
        assert np.array_equal(got, (vdds - dcs)[:, None] + response)

    def test_impulse_response(self, preset, dt):
        solver = self.solver(preset, dt)
        impulse = np.zeros(5000)
        impulse[0] = 1.0
        want = signal.sosfilt(self.reference_sections(solver), impulse)
        assert np.array_equal(solver.impulse_response(5000), want)
