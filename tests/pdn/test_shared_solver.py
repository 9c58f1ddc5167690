"""One solver per network: the shared solver serves every supply exactly.

The discretisation never reads ``vdd_nominal``, so a solver built once per
network and given the supply at each call must reproduce, bit for bit, a
solver built fresh with that supply in its parameters (the former
per-supply path) — for the serial and the batched solves alike.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdn.elements import bulldozer_pdn
from repro.pdn.network import PdnNetwork
from repro.pdn.transient import TransientSolver, shared_solver
from repro.power.trace import CurrentTrace

DT = 1 / 3.2e9
PARAMS = bulldozer_pdn()

supplies = st.floats(0.6, 1.6, allow_nan=False, allow_infinity=False)
amps = st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False)


def fresh(vdd: float) -> TransientSolver:
    return TransientSolver(PdnNetwork(replace(PARAMS, vdd_nominal=vdd)), DT)


def rows(min_size: int, max_size: int):
    """1-4 same-length current rows, one supply each."""
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.lists(
            st.tuples(supplies, st.lists(amps, min_size=n, max_size=n)),
            min_size=1, max_size=4,
        )
    )


@given(vdd=supplies, samples=st.lists(amps, min_size=2, max_size=256))
@settings(max_examples=40, deadline=None)
def test_periodic_matches_fresh_solver(vdd, samples):
    load = CurrentTrace(np.array(samples), DT)
    shared = shared_solver(replace(PARAMS, vdd_nominal=vdd), DT)
    got = shared.steady_state_periodic(load, vdd=vdd)
    want = fresh(vdd).steady_state_periodic(load, vdd=vdd)
    assert np.array_equal(got.samples, want.samples)
    assert got.vdd_nominal == want.vdd_nominal == vdd


@given(vdd=supplies, samples=st.lists(amps, min_size=1, max_size=400), baseline=amps)
@settings(max_examples=40, deadline=None)
def test_simulate_matches_fresh_solver(vdd, samples, baseline):
    load = CurrentTrace(np.array(samples), DT)
    shared = shared_solver(PARAMS, DT)
    got = shared.simulate(load, vdd=vdd, baseline_current_a=baseline)
    want = fresh(vdd).simulate(load, vdd=vdd, baseline_current_a=baseline)
    assert np.array_equal(got.samples, want.samples)
    assert got.vdd_nominal == want.vdd_nominal == vdd


@given(batch=rows(2, 128))
@settings(max_examples=30, deadline=None)
def test_periodic_batch_matches_fresh_serial_solves(batch):
    vdds = [vdd for vdd, _ in batch]
    matrix = np.array([samples for _, samples in batch])
    volts = shared_solver(PARAMS, DT).steady_state_periodic_batch(matrix, vdd_rows=vdds)
    for row, vdd, samples in zip(volts, vdds, matrix):
        want = fresh(vdd).steady_state_periodic(CurrentTrace(samples, DT), vdd=vdd)
        assert np.array_equal(row, want.samples)


@given(batch=rows(1, 256), data=st.data())
@settings(max_examples=30, deadline=None)
def test_simulate_batch_matches_fresh_serial_solves(batch, data):
    vdds = [vdd for vdd, _ in batch]
    matrix = np.array([samples for _, samples in batch])
    baselines = data.draw(st.lists(amps, min_size=len(batch), max_size=len(batch)))
    volts = shared_solver(PARAMS, DT).simulate_batch(
        matrix, baselines=baselines, vdd_rows=vdds
    )
    for row, vdd, base, samples in zip(volts, vdds, baselines, matrix):
        want = fresh(vdd).simulate(CurrentTrace(samples, DT), vdd=vdd,
                                   baseline_current_a=base)
        assert np.array_equal(row, want.samples)


def test_harmonic_response_is_memoised_and_read_only():
    solver = shared_solver(PARAMS, DT)
    h = solver.harmonic_response(96)
    assert solver.harmonic_response(96) is h
    assert not h.flags.writeable
    np.testing.assert_array_equal(
        h, solver.network.transfer(np.fft.rfftfreq(96, d=DT))
    )


def test_harmonic_cache_is_bounded():
    solver = fresh(1.2)
    limit = TransientSolver.HARMONIC_CACHE_ENTRIES
    for n in range(2, limit + 12):
        solver.harmonic_response(n)
    assert len(solver._harmonic_cache) == limit


def test_solver_memo_is_bounded(monkeypatch):
    from repro.pdn import transient

    monkeypatch.setattr(transient, "_SOLVERS", {})
    limit = transient.SOLVER_MEMO_ENTRIES
    for i in range(limit + 3):
        shared_solver(replace(PARAMS, load_line_ohm=1e-4 * i), DT)
    assert len(transient._SOLVERS) == limit
