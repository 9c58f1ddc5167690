"""Transient simulation of the PDN: the library's "HSPICE".

The paper's simulation path converts a per-cycle current profile into a
current sink on a lumped RLC model and runs HSPICE to get the voltage-droop
waveform (Section III).  Our ladder is linear, so we do better than a
generic integrator: the continuous state space is discretised **exactly**
(zero-order hold) at the sample interval, factored into second-order
sections, and run as a section cascade — numerically stable, no
time-step error for piecewise-constant current (which per-cycle current
profiles are).  The discretisation, the pole-zero pairing and the filter
are those of ``scipy.signal``'s ``cont2discrete``, ``zpk2sos`` and
``sosfilt``, bit-identical to them: the pairing is a port, and the rest
call scipy's compiled kernels (the Padé matrix exponential, LAPACK
``ggev`` and the section filter) through ports of the Python glue around
them.  :func:`_kernels` loads those extension modules from their files,
so no process runs the ``__init__`` of the ``scipy.signal`` or the
``scipy.linalg`` package, which cost ~0.9 s and ~0.29 s to import.

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

Only the time-domain path needs the discretisation and the filter, so a
solver discretises its network, and the kernels load (~10 ms), on its
first ``simulate``, ``simulate_batch`` or ``impulse_response`` call; a
process whose solves are all periodic loads no scipy at all.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

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


#: The compiled scipy kernels a transient solve calls:
#: ``(subpackage, module, symbols)``.
_KERNELS = (
    ("signal", "_sosfilt", ("_sosfilt",)),
    ("linalg", "_matfuncs_expm", ("pick_pade_structure", "pade_UV_calc")),
    ("linalg", "_flapack", ("dggev",)),
)


@cache
def _kernels() -> dict:
    """scipy's compiled sosfilt, Padé and ``dggev`` kernels, by name.

    A module whose package is not imported is loaded from its file by
    module spec, so no ``scipy.signal`` or ``scipy.linalg`` ``__init__``
    runs.
    """
    import scipy

    kernels = {}
    for package, stem, symbols in _KERNELS:
        name = f"scipy.{package}.{stem}"
        module = sys.modules.get(name)
        if module is None:
            base = Path(scipy.__file__).parent / package / stem
            paths = [Path(f"{base}{suffix}") for suffix in EXTENSION_SUFFIXES]
            path = next((path for path in paths if path.is_file()), None)
            if path is None:
                raise PdnError(f"scipy {scipy.__version__} has no {paths[0]}, "
                               "which transient PDN solves call")
            spec = importlib.util.spec_from_file_location(name, path)
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        for symbol in symbols:
            if not hasattr(module, symbol):
                raise PdnError(f"scipy {scipy.__version__}'s {module.__file__} has "
                               f"no {symbol}, which transient PDN solves call")
            kernels[symbol] = getattr(module, symbol)
    return kernels


def _ss_to_sos(ad, bd, cd, dd) -> np.ndarray:
    """Discrete SISO state space → second-order sections, polynomial-free.

    Poles are eigenvalues of ``ad``; transmission zeros are the generalized
    eigenvalues of the Rosenbrock system pencil; the gain is fixed by
    matching the frequency response at one well-conditioned point.
    """
    n = ad.shape[0]
    poles = np.linalg.eigvals(ad)
    # Rosenbrock pencil: zeros z satisfy det([[ad - zI, bd], [cd, dd]]) = 0.
    pencil_a = np.block([[ad, bd], [cd, dd]])
    pencil_b = np.zeros_like(pencil_a)
    pencil_b[:n, :n] = np.eye(n)
    zeros = _pencil_eigvals(pencil_a, pencil_b)
    zeros = zeros[np.isfinite(zeros)]
    # Gain: match H(z0) at a point away from poles and zeros.
    z0 = np.exp(1j * 0.7)
    h0 = (cd @ np.linalg.solve(z0 * np.eye(n) - ad, bd) + dd)[0, 0]
    gain = h0 * np.prod(z0 - poles) / np.prod(z0 - zeros)
    if abs(gain.imag) > 1e-6 * max(abs(gain.real), 1e-30):
        raise PdnError("state space did not reduce to a real rational filter")
    return _zpk2sos(zeros, poles, gain.real)


# _zoh, _cplxreal, _nearest_idx, _zpk2sos and _sosfilt are scipy.signal's
# ZOH cont2discrete, _cplxreal, _nearest_real_complex_idx, zpk2sos
# (digital, pairing="nearest") and sosfilt; _expm and _pencil_eigvals are
# the glue of scipy.linalg's expm and eigvals(a, b) around their compiled
# kernels.  The discrete system, the sections and every filtered sample
# are bit-identical to scipy's.  They are adapted from SciPy, which
# carries this notice:
#
#   Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions
#   are met:
#
#   1. Redistributions of source code must retain the above copyright
#      notice, this list of conditions and the following disclaimer.
#
#   2. Redistributions in binary form must reproduce the above
#      copyright notice, this list of conditions and the following
#      disclaimer in the documentation and/or other materials provided
#      with the distribution.
#
#   3. Neither the name of the copyright holder nor the names of its
#      contributors may be used to endorse or promote products derived
#      from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.


def _zoh(a, b, dt):
    """Zero-order-hold discretisation ``(ad, bd)`` of ``x' = a x + b u``.

    Built as ``scipy.signal.cont2discrete(..., method="zoh")`` builds it,
    so bit for bit the same: ``expm(dt * [[a, b], [0, 0]])``, top rows.
    """
    n, m = b.shape
    em = np.vstack((np.hstack((a, b)), np.zeros((m, n + m))))
    ms = _expm(dt * em)[:n, :]
    return ms[:, :n], ms[:, n:]


def _expm(a):
    """``scipy.linalg.expm`` of the square float64 *a*: a Padé
    approximant of ``a`` scaled by ``2**-s``, squared ``s`` times.

    scipy's diagonal and triangular branches are left out: *a* must have
    entries both below and above its diagonal.  A ladder's ``dt * [[A,
    B], [0, 0]]`` always has both, ``A[3, 0] = 1/C1`` and ``A[0, 3] =
    -1/L1`` with ``C1, L1 > 0``.
    """
    if not (np.tril(a, -1).any() and np.triu(a, 1).any()):
        raise PdnError("matrix exponential of a diagonal or triangular matrix")
    kernels = _kernels()
    am = np.empty((5, *a.shape))
    am[0] = a
    # Fills am with the powers of a the degree-m approximant uses,
    # scaled by 2**-s.
    m, s = kernels["pick_pade_structure"](am)
    info = kernels["pade_UV_calc"](am, m) if m >= 0 else m
    if info != 0:
        raise PdnError(f"matrix exponential failed in scipy's Padé kernel ({info})")
    ea = am[0]
    for _ in range(s):
        ea = ea @ ea
    return ea


def _pencil_eigvals(a, b):
    """``scipy.linalg.eigvals(a, b)``: the generalized eigenvalues of the
    real pencil ``(a, b)``, ``inf`` (or ``nan``) where ``beta`` is 0."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise PdnError("pencil must not contain infs or NaNs")
    ggev = _kernels()["dggev"]
    lwork = ggev(a, b, lwork=-1)[-2][0].real.astype(np.int_)
    alphar, alphai, beta, _vl, _vr, _work, info = ggev(a, b, 0, 0, lwork, 0, 0)
    if info != 0:
        raise PdnError(f"generalized eigenvalues failed in LAPACK dggev (info={info})")
    alpha = alphar + np.array(1j, dtype="F") * alphai  # scipy's expression
    w = np.empty_like(alpha)
    finite = beta != 0
    w[finite] = alpha[finite] / beta[finite]
    w[~finite] = np.where(alpha[~finite] == 0, np.nan, np.inf)
    return w


def _cplxreal(z):
    """Split *z* into conjugate pairs and reals: ``(zc, zr)``.

    ``zc`` holds one element per pair (positive imaginary part, the pair
    averaged), sorted by real part, then imaginary magnitude; ``zr`` the
    real elements (imaginary part within ``tol * |z|``), sorted.
    """
    tol = 100 * np.finfo(np.float64).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real_indices]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    if len(zp) != len(zn):
        raise PdnError("complex root with no matching conjugate")
    # Sort each run of (nearly) equal real parts by imaginary magnitude.
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    run_starts = np.nonzero(diffs > 0)[0]
    run_stops = np.nonzero(diffs < 0)[0]
    for start, stop in zip(run_starts, run_stops + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    if any(abs(zp - zn.conj()) > tol * abs(zn)):
        raise PdnError("complex root with no matching conjugate")
    return (zp + zn.conj()) / 2, zr


def _nearest_idx(roots, to, *, real=False):
    """Index of the element of *roots* nearest *to* (the nearest real one
    if *real*)."""
    order = np.argsort(np.abs(roots - to))
    if not real:
        return order[0]
    return order[np.nonzero(np.isreal(roots[order]))[0][0]]


def _zpk2sos(z, p, k) -> np.ndarray:
    """Second-order sections of the digital filter with zeros *z*, poles
    *p* and gain *k*: each pole, those nearest the unit circle first,
    paired with its nearest zero; the worst pair lands in the last section.

    *p* has an even number of poles (the network's states), *z* at most
    as many zeros.  The zeros are padded to match with roots at the
    origin, so real roots come in pairs and scipy's first-order special
    cases (reachable only under its "keep_odd" and "minimal" pairings)
    never arise.
    """
    z = np.concatenate((z, np.zeros(len(p) - len(z))))
    n_sections = len(p) // 2
    # One element per conjugate pair from here on.
    z = np.concatenate(_cplxreal(z))
    p = np.concatenate(_cplxreal(p))

    def idx_worst(roots):
        return np.argmin(np.abs(1 - np.abs(roots)))

    sos = np.zeros((n_sections, 6))
    for si in range(n_sections - 1, -1, -1):
        p1_idx = idx_worst(p)
        p1 = p[p1_idx]
        p = np.delete(p, p1_idx)
        if np.isreal(p1):
            prealidx = np.flatnonzero(np.isreal(p))
            p2_idx = prealidx[idx_worst(p[prealidx])]
            p2 = p[p2_idx]
            p = np.delete(p, p2_idx)
        else:
            p2 = p1.conj()
        z1_idx = _nearest_idx(z, p1)
        z1 = z[z1_idx]
        z = np.delete(z, z1_idx)
        if np.isreal(z1):
            z2_idx = _nearest_idx(z, p1, real=True)
            z2 = z[z2_idx]
            z = np.delete(z, z2_idx)
        else:
            z2 = z1.conj()
        sos[si] = np.concatenate((np.poly([z1, z2]), np.poly([p1, p2])))
    sos[0][:3] *= k
    return sos


def _sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Filter *x* (1-D, or 2-D row by row) through the cascade *sos* from
    rest, with scipy's compiled ``sosfilt`` kernel (direct form II
    transposed), called as ``scipy.signal.sosfilt`` calls it."""
    out = np.array(x, dtype=np.float64, order="C")  # the kernel filters in place
    rows = out.reshape(-1, out.shape[-1])
    _kernels()["_sosfilt"](sos, rows, np.zeros((len(rows), len(sos), 2)))
    return out


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
        """The ZOH-exact second-order sections, built by the first
        time-domain solve, which also loads scipy's compiled kernels
        (:func:`_kernels`); the discrete state space is kept as ``_ad``,
        ``_bd``, ``_cd``, ``_dd``."""
        network = self.network
        ad, bd = _zoh(network.a_matrix, network.b_matrix, self.dt)
        cd, dd = network.c_matrix, network.d_matrix
        self._ad, self._bd, self._cd, self._dd = ad, bd, cd, dd
        # Single-input single-output: factor into second-order sections,
        # the numerically stable form of the recurrence.  Any route through a
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
        deviation = load.samples - baseline_current_a
        response = _sosfilt(self._sos, deviation)
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

        The baselines are subtracted and the DC operating points and
        supply voltages applied for all rows at once, and one kernel call
        filters every row.  Bit-identical to serial :meth:`simulate`
        calls with per-row baselines and supplies.
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
        deviation = matrix - baselines[:, None]
        response = _sosfilt(self._sos, deviation)
        dcs = np.array([self.network.dc_droop(float(b)) for b in baselines])
        volts = (vdds - dcs)[:, None] + response
        for row, vdd in zip(volts, vdds):
            check_voltage_samples(row, supply_v=float(vdd), layer="pdn")
        return volts

    def impulse_response(self, samples: int) -> np.ndarray:
        """Discrete impulse response (volts per amp), for analysis/tests."""
        if samples < 1:
            raise PdnError("samples must be >= 1")
        impulse = np.zeros(samples)
        impulse[0] = 1.0
        return _sosfilt(self._sos, impulse)


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
        # Cheap: the solver discretises (and loads scipy's compiled
        # kernels) on its first time-domain solve, not here.
        solver = TransientSolver(PdnNetwork(params), dt)
        if len(_SOLVERS) >= SOLVER_MEMO_ENTRIES:
            _SOLVERS.pop(next(iter(_SOLVERS)), None)
        _SOLVERS[key] = solver
    return solver
