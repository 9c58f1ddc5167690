"""Frequency-domain PDN analysis: resonance identification (paper Fig. 3).

Sweeps the load-side impedance over a log grid and extracts the three
resonance peaks — third (board, lowest frequency), second (package), and
first (die, highest frequency and the one stressmarks target).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PdnError
from repro.pdn.network import PdnNetwork

#: Labels ordered by ascending frequency, following the paper's naming.
DROOP_ORDER_BY_FREQUENCY = ("third", "second", "first")


@dataclass(frozen=True)
class Resonance:
    """One impedance peak."""

    label: str
    frequency_hz: float
    impedance_ohm: float


@dataclass(frozen=True)
class ImpedanceSweep:
    """Result of an impedance sweep: the |Z(f)| curve plus its peaks."""

    frequencies_hz: np.ndarray
    impedance_ohm: np.ndarray
    resonances: tuple[Resonance, ...]

    def resonance(self, label: str) -> Resonance:
        """Look up a resonance by label ('first', 'second', 'third')."""
        for res in self.resonances:
            if res.label == label:
                return res
        raise PdnError(f"no resonance labelled {label!r} found")

    @property
    def first_droop(self) -> Resonance:
        """The first-droop resonance — the stressmark target frequency."""
        return self.resonance("first")


def sweep_impedance(
    network: PdnNetwork,
    *,
    f_min_hz: float = 1e3,
    f_max_hz: float = 1e9,
    points: int = 2000,
) -> ImpedanceSweep:
    """Sweep |Z(f)| on a log grid and label the resonance peaks.

    Peaks are found with :func:`scipy.signal.find_peaks` and labelled third /
    second / first in ascending frequency, matching paper Fig. 3.  A PDN
    whose stages are well separated yields exactly three.
    """
    if f_min_hz <= 0 or f_max_hz <= f_min_hz:
        raise PdnError("need 0 < f_min < f_max")
    if points < 16:
        raise PdnError("need at least 16 sweep points")
    from scipy import signal

    freqs = np.logspace(np.log10(f_min_hz), np.log10(f_max_hz), points)
    z = network.impedance(freqs)
    peak_idx, _ = signal.find_peaks(z)
    # Order peaks by frequency and label them third/second/first.
    peak_idx = sorted(peak_idx)
    resonances = []
    for label, idx in zip(DROOP_ORDER_BY_FREQUENCY, peak_idx[:3]):
        resonances.append(
            Resonance(
                label=label,
                frequency_hz=float(freqs[idx]),
                impedance_ohm=float(z[idx]),
            )
        )
    return ImpedanceSweep(
        frequencies_hz=freqs,
        impedance_ohm=z,
        resonances=tuple(resonances),
    )


def first_droop_frequency(network: PdnNetwork) -> float:
    """Convenience: the measured (damped) first-droop peak frequency in Hz."""
    # Focused fine sweep around the die stage's natural frequency.
    nominal = network.params.first_droop_frequency_hz
    freqs = np.linspace(nominal * 0.5, nominal * 1.5, 3001)
    z = network.impedance(freqs)
    return float(freqs[int(np.argmax(z))])
