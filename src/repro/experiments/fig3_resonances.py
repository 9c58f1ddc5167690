"""Fig. 3: first/second/third droop resonances, frequency and time domain.

Reproduces both panels: the |Z(f)| sweep with its three labelled peaks, and
time-domain droop waveforms produced by periodic loads at each resonance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.platform import MeasurementPlatform
from repro.pdn.impedance import ImpedanceSweep, sweep_impedance
from repro.power.trace import square_wave


@dataclass(frozen=True)
class Fig3Result:
    """The impedance sweep plus one time-domain trace per resonance."""

    sweep: ImpedanceSweep
    time_domain: dict  # label -> (VoltageTrace, droop_v)

    def droop_of(self, label: str) -> float:
        return self.time_domain[label][1]


def run_fig3(
    platform: MeasurementPlatform,
    *,
    swing_a: float = 30.0,
) -> Fig3Result:
    """Sweep the PDN and excite each resonance with a square-wave load."""
    solver = platform.pipeline.pdn_stage.solver
    sweep = sweep_impedance(solver.network)
    dt = platform.chip.cycle_time_s

    time_domain = {}
    for resonance in sweep.resonances:
        period_cycles = max(2, int(round(1.0 / (resonance.frequency_hz * dt))))
        high = period_cycles // 2
        load = square_wave(
            high_a=swing_a,
            low_a=0.0,
            high_samples=high,
            low_samples=period_cycles - high,
            periods=1,
            dt=dt,
        )
        voltage = solver.steady_state_periodic(load, vdd=platform.chip.vdd)
        time_domain[resonance.label] = (voltage, voltage.max_droop_v)
    return Fig3Result(sweep=sweep, time_domain=time_domain)


def report(result: Fig3Result) -> str:
    rows = []
    for resonance in result.sweep.resonances:
        rows.append([
            resonance.label,
            f"{resonance.frequency_hz / 1e6:.3f} MHz",
            f"{resonance.impedance_ohm * 1e3:.2f} mOhm",
            f"{result.droop_of(resonance.label) * 1e3:.1f} mV",
        ])
    return format_table(
        ["droop", "frequency", "peak |Z|", "square-wave droop"],
        rows,
        title="Fig. 3 — PDN resonances (frequency + time domain)",
    )
