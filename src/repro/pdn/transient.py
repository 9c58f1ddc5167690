"""Transient simulation of the PDN: the library's "HSPICE".

The paper's simulation path converts a per-cycle current profile into a
current sink on a lumped RLC model and runs HSPICE to get the voltage-droop
waveform (Section III).  Our ladder is linear, so we do better than a
generic integrator: the continuous state space is discretised **exactly**
(zero-order hold) at the sample interval, factored into second-order
sections, and executed through ``scipy.signal.sosfilt`` — C-speed,
numerically stable, no time-step error for piecewise-constant current
(which per-cycle current profiles are).

Two solvers are provided:

* :meth:`TransientSolver.simulate` — general time-domain run over any
  :class:`~repro.power.trace.CurrentTrace` (used for excitation events,
  heterogeneous multi-core traces, and scope-style long captures);
* :meth:`TransientSolver.steady_state_periodic` — exact periodic steady
  state of a one-period current waveform via the frequency response (used
  by GA fitness and dithering sweeps, where the resonance is fully built).

The network's response never depends on the supply voltage, which only
sets the operating point each solve is given.  :func:`shared_solver`
therefore keeps one solver per network per process and serves it to
every supply and every pipeline measuring on it.

Only the time-domain path needs the discretisation and ``scipy.signal``
(about a second to import), so a solver discretises its network on its
first ``simulate``, ``simulate_batch`` or ``impulse_response`` call,
which pays the import; a process whose solves are all periodic loads no
scipy at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import PdnError
from repro.pdn.elements import PdnParameters
from repro.pdn.network import PdnNetwork
from repro.power.trace import CurrentTrace
from repro.validation.invariants import check_current_samples, check_voltage_samples


@dataclass(frozen=True)
class VoltageTrace:
    """A sampled on-die supply-voltage waveform."""

    samples: np.ndarray
    dt: float
    vdd_nominal: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise PdnError("voltage trace must be a non-empty 1-D array")
        if self.dt <= 0:
            raise PdnError("dt must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def min_v(self) -> float:
        return float(self.samples.min())

    @property
    def max_v(self) -> float:
        return float(self.samples.max())

    @property
    def max_droop_v(self) -> float:
        """Worst undershoot below nominal (positive number, volts).

        NaN samples yield a NaN droop (``np.maximum`` propagates, Python's
        ``max`` would not): a corrupt capture must poison the value, never
        silently read as "no droop".
        """
        return float(np.maximum(0.0, self.vdd_nominal - self.min_v))

    @property
    def max_overshoot_v(self) -> float:
        """Worst overshoot above nominal (positive number, volts)."""
        return float(np.maximum(0.0, self.max_v - self.vdd_nominal))

    @property
    def worst_droop_index(self) -> int:
        """Sample index of the deepest droop."""
        return int(np.argmin(self.samples))

    def time_axis(self) -> np.ndarray:
        """Sample times in seconds."""
        return np.arange(len(self.samples)) * self.dt


def _ss_to_sos(ad, bd, cd, dd) -> np.ndarray:
    """Discrete SISO state space → second-order sections, polynomial-free.

    Poles are eigenvalues of ``ad``; transmission zeros are the generalized
    eigenvalues of the Rosenbrock system pencil; the gain is fixed by
    matching the frequency response at one well-conditioned point.
    """
    from scipy import linalg, signal

    n = ad.shape[0]
    poles = np.linalg.eigvals(ad)
    # Rosenbrock pencil: zeros z satisfy det([[ad - zI, bd], [cd, dd]]) = 0.
    pencil_a = np.block([[ad, bd], [cd, dd]])
    pencil_b = np.zeros_like(pencil_a)
    pencil_b[:n, :n] = np.eye(n)
    zeros = linalg.eigvals(pencil_a, pencil_b)
    zeros = zeros[np.isfinite(zeros)]
    # Gain: match H(z0) at a point away from poles and zeros.
    z0 = np.exp(1j * 0.7)
    h0 = (cd @ np.linalg.solve(z0 * np.eye(n) - ad, bd) + dd)[0, 0]
    gain = h0 * np.prod(z0 - poles) / np.prod(z0 - zeros)
    if abs(gain.imag) > 1e-6 * max(abs(gain.real), 1e-30):
        raise PdnError("state space did not reduce to a real rational filter")
    return signal.zpk2sos(zeros, poles, gain.real)


class TransientSolver:
    """ZOH-exact transient solver for one :class:`PdnNetwork` at fixed dt.

    Nothing here reads the network's ``vdd_nominal``: every solve takes
    its supply as an argument, so one solver serves every supply on its
    network.
    """

    #: Period lengths whose harmonic response one solver keeps.
    HARMONIC_CACHE_ENTRIES = 64

    def __init__(self, network: PdnNetwork, dt: float):
        if dt <= 0:
            raise PdnError("dt must be positive")
        self.network = network
        self.dt = dt
        self._harmonic_cache: dict[int, np.ndarray] = {}

    @cached_property
    def _sos(self) -> np.ndarray:
        """The ZOH-exact second-order sections, built on first use (the
        discrete state space is kept as ``_ad``, ``_bd``, ``_cd``, ``_dd``)."""
        from scipy import signal

        network = self.network
        system = (
            network.a_matrix,
            network.b_matrix,
            network.c_matrix,
            network.d_matrix,
        )
        ad, bd, cd, dd, _ = signal.cont2discrete(system, self.dt, method="zoh")
        self._ad, self._bd, self._cd, self._dd = ad, bd, cd, dd
        # Single-input single-output: factor into second-order sections so
        # the recurrence runs inside sosfilt (C speed).  Any route through a
        # direct-form transfer function (including scipy's ss2zpk, which
        # expands the characteristic polynomial) is numerically unstable
        # here: the discrete poles of a stiff PDN (a 50 kHz board tank
        # sampled at ~3 GHz) sit so close to z = 1 that the expanded
        # polynomial coefficients cancel catastrophically.  We therefore
        # compute poles and zeros directly from eigenproblems.
        return _ss_to_sos(ad, bd, cd, dd)

    def harmonic_response(self, n: int) -> np.ndarray:
        """``H(rfftfreq(n, dt))``, evaluated once per period length *n*.

        The per-harmonic ``6x6`` solves of :meth:`PdnNetwork.transfer` are
        the dominant cost of a periodic solve; a supply or phase sweep
        repeats the same period many times.  The returned array is
        read-only and shared.
        """
        h = self._harmonic_cache.get(n)
        if h is None:
            h = self.network.transfer(np.fft.rfftfreq(n, d=self.dt))
            h.flags.writeable = False
            if len(self._harmonic_cache) >= self.HARMONIC_CACHE_ENTRIES:
                self._harmonic_cache.pop(next(iter(self._harmonic_cache)), None)
            self._harmonic_cache[n] = h
        return h

    def simulate(
        self,
        load: CurrentTrace,
        *,
        vdd: float,
        baseline_current_a: float = 0.0,
    ) -> VoltageTrace:
        """Run a transient over *load* at supply *vdd*, from DC steady state.

        The network is assumed to have been sitting at a constant
        *baseline_current_a* forever before the trace starts (0 A means a
        quiet machine); the response to the deviation is superposed on that
        operating point.  Exact for LTI systems.
        """
        if abs(load.dt - self.dt) > 1e-18:
            raise PdnError(
                f"trace dt {load.dt!r} does not match solver dt {self.dt!r}"
            )
        if not np.isfinite(baseline_current_a):
            raise PdnError("baseline current must be finite")
        check_current_samples(load.samples, layer="pdn")
        from scipy import signal

        deviation = load.samples - baseline_current_a
        response = signal.sosfilt(self._sos, deviation)
        dc = self.network.dc_droop(baseline_current_a)
        volts = vdd - dc + response
        check_voltage_samples(volts, supply_v=vdd, layer="pdn")
        return VoltageTrace(volts, self.dt, vdd)

    def steady_state_periodic(
        self, period_load: CurrentTrace, *, vdd: float
    ) -> VoltageTrace:
        """Exact periodic steady-state voltage at supply *vdd* for one period.

        Evaluates the network frequency response at the waveform's harmonics
        — the state after infinitely many repetitions of the period.  This is
        the droop a resonant stressmark reaches once the resonance has built
        up (M cycles in the paper's notation).
        """
        if abs(period_load.dt - self.dt) > 1e-18:
            raise PdnError("trace dt does not match solver dt")
        samples = period_load.samples
        check_current_samples(samples, layer="pdn")
        n = len(samples)
        spectrum = np.fft.rfft(samples)
        v_spectrum = self.harmonic_response(n) * spectrum
        deviation = np.fft.irfft(v_spectrum, n=n)
        volts = vdd + deviation
        check_voltage_samples(volts, supply_v=vdd, layer="pdn")
        return VoltageTrace(volts, self.dt, vdd)

    def steady_state_periodic_batch(
        self, period_matrix: np.ndarray, *, vdd_rows
    ) -> np.ndarray:
        """Batched :meth:`steady_state_periodic`: one row per candidate.

        All rows share the network's frequency response
        (:meth:`harmonic_response`, memoised per period length), so the
        FFTs run once for the whole batch.  The response is vdd-free
        (the supply only shifts the operating point), so each row gets
        its own supply added afterwards; the result is bit-identical to a
        per-row serial :meth:`steady_state_periodic` at that row's supply.
        """
        matrix = np.asarray(period_matrix, dtype=np.float64)
        vdds = np.asarray(vdd_rows, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise PdnError("period matrix must be a non-empty 2-D array")
        if vdds.shape != (matrix.shape[0],):
            raise PdnError("one supply voltage per batch row required")
        for row in matrix:
            check_current_samples(row, layer="pdn")
        n = matrix.shape[1]
        spectrum = np.fft.rfft(matrix, axis=-1)
        deviation = np.fft.irfft(
            self.harmonic_response(n) * spectrum, n=n, axis=-1
        )
        volts = vdds[:, None] + deviation
        for row, vdd in zip(volts, vdds):
            check_voltage_samples(row, supply_v=float(vdd), layer="pdn")
        return volts

    def simulate_batch(
        self, load_matrix: np.ndarray, *, baselines, vdd_rows
    ) -> np.ndarray:
        """Batched :meth:`simulate`: one row per candidate trace.

        ``sosfilt`` runs the second-order-section recurrence along the last
        axis for all rows in one C call; DC operating points and supply
        voltages are applied per row.  Bit-identical to serial
        :meth:`simulate` calls with per-row baselines and supplies.
        """
        matrix = np.asarray(load_matrix, dtype=np.float64)
        baselines = np.asarray(baselines, dtype=np.float64)
        vdds = np.asarray(vdd_rows, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise PdnError("load matrix must be a non-empty 2-D array")
        if baselines.shape != (matrix.shape[0],):
            raise PdnError("one baseline current per batch row required")
        if vdds.shape != (matrix.shape[0],):
            raise PdnError("one supply voltage per batch row required")
        if not np.all(np.isfinite(baselines)):
            raise PdnError("baseline current must be finite")
        for row in matrix:
            check_current_samples(row, layer="pdn")
        from scipy import signal

        deviation = matrix - baselines[:, None]
        response = signal.sosfilt(self._sos, deviation, axis=-1)
        dcs = np.array([self.network.dc_droop(float(b)) for b in baselines])
        volts = (vdds - dcs)[:, None] + response
        for row, vdd in zip(volts, vdds):
            check_voltage_samples(row, supply_v=float(vdd), layer="pdn")
        return volts

    def impulse_response(self, samples: int) -> np.ndarray:
        """Discrete impulse response (volts per amp), for analysis/tests."""
        if samples < 1:
            raise PdnError("samples must be >= 1")
        from scipy import signal

        impulse = np.zeros(samples)
        impulse[0] = 1.0
        return signal.sosfilt(self._sos, impulse)


#: Distinct networks whose solvers :func:`shared_solver` keeps.
SOLVER_MEMO_ENTRIES = 32

_SOLVERS: dict[tuple, TransientSolver] = {}


def shared_solver(params: PdnParameters, dt: float) -> TransientSolver:
    """The process-wide solver for *params*' network at sample interval *dt*.

    Keyed on ``(board, package, die, load_line_ohm, dt)`` — everything a
    solve reads — and not on ``vdd_nominal``, which it never
    reads: every supply, and every pipeline built on the same network,
    shares one solver.  The memo is bounded (oldest entry evicted first).
    """
    key = (params.board, params.package, params.die, params.load_line_ohm, dt)
    solver = _SOLVERS.get(key)
    if solver is None:
        # Cheap: the solver discretises (and imports ``scipy.signal``)
        # on its first time-domain solve, not here.
        solver = TransientSolver(PdnNetwork(params), dt)
        if len(_SOLVERS) >= SOLVER_MEMO_ENTRIES:
            _SOLVERS.pop(next(iter(_SOLVERS)), None)
        _SOLVERS[key] = solver
    return solver
