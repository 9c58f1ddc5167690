"""Tests for the runtime invariant guards (the validation layer).

The acceptance bar: every guard in the catalog fires as a structured
:class:`InvariantViolation` — never as a finite fitness, a silent NaN,
or an unrelated crash — and clean traces pass through untouched.
"""

import numpy as np
import pytest

from repro.core.platform import Measurement
from repro.errors import InvariantViolation
from repro.experiments.setup import bulldozer_testbed
from repro.pdn.elements import bulldozer_pdn
from repro.pdn.network import PdnNetwork
from repro.pdn.transient import TransientSolver, VoltageTrace
from repro.power.trace import CurrentTrace
from repro.uarch.module import ModuleTrace
from repro.validation.invariants import (
    GUARD_CATALOG,
    check_current_samples,
    check_measurement,
    check_module_trace,
    check_sensitivity,
    check_time_axis,
    check_voltage_samples,
)

DT = 1 / 3.2e9
VDD = 1.2


def fired(check, *args, **kwargs) -> InvariantViolation:
    with pytest.raises(InvariantViolation) as excinfo:
        check(*args, **kwargs)
    return excinfo.value


def module_trace(energy, sensitivity) -> ModuleTrace:
    return ModuleTrace(
        energy_pj=np.asarray(energy, dtype=np.float64),
        sensitivity=np.asarray(sensitivity, dtype=np.float64),
        iter_start_cycles=((0,),),
        cycles=max(len(energy), 1),
    )


def measurement(voltage=None, current=None, sensitivity=None,
                current_dt=DT) -> Measurement:
    volts = np.full(8, VDD) if voltage is None else np.asarray(voltage)
    amps = np.full(8, 5.0) if current is None else np.asarray(current)
    sens = np.zeros(8) if sensitivity is None else np.asarray(sensitivity)
    return Measurement(
        voltage=VoltageTrace(volts, DT, VDD),
        sensitivity=sens,
        current=CurrentTrace(amps, current_dt),
        period_cycles=8,
        supply_v=VDD,
    )


# ----------------------------------------------------------------------
# Each guard in the catalog fires with its own name and layer
# ----------------------------------------------------------------------
class TestGuards:
    def test_current_finite(self):
        error = fired(check_current_samples,
                      np.array([1.0, np.nan]), layer="pdn")
        assert (error.guard, error.layer) == ("current-finite", "pdn")

    def test_current_bounds(self):
        error = fired(check_current_samples,
                      np.array([1.0, -0.5]), layer="pdn")
        assert error.guard == "current-bounds"

    def test_voltage_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            error = fired(check_voltage_samples,
                          np.array([1.2, bad]), supply_v=VDD, layer="platform")
            assert error.guard == "voltage-finite"

    def test_voltage_bounds(self):
        error = fired(check_voltage_samples,
                      np.array([1.2, -0.1]), supply_v=VDD, layer="platform")
        assert error.guard == "voltage-bounds"
        error = fired(check_voltage_samples,
                      np.array([1.2, 2.5 * VDD]), supply_v=VDD, layer="pdn")
        assert (error.guard, error.layer) == ("voltage-bounds", "pdn")

    def test_sensitivity(self):
        assert fired(check_sensitivity, np.array([np.inf]),
                     layer="platform").guard == "sensitivity"
        assert fired(check_sensitivity, np.array([-1.0]),
                     layer="platform").guard == "sensitivity"

    def test_time_axis(self):
        assert fired(check_time_axis, 0.0, layer="platform").guard == "time-axis"
        assert fired(check_time_axis, -DT, layer="platform").guard == "time-axis"
        assert fired(check_time_axis, float("nan"),
                     layer="platform").guard == "time-axis"
        assert fired(check_time_axis, DT, 2 * DT,
                     layer="platform").guard == "time-axis"

    def test_module_energy(self):
        assert fired(check_module_trace,
                     module_trace([1.0, np.nan], [0.0, 0.0])
                     ).guard == "module-energy"
        assert fired(check_module_trace,
                     module_trace([1.0, -2.0], [0.0, 0.0])
                     ).guard == "module-energy"

    def test_module_length(self):
        error = fired(check_module_trace, module_trace([1.0, 1.0], [0.0]))
        assert (error.guard, error.layer) == ("module-length", "uarch")

    def test_module_activity(self):
        error = fired(check_module_trace,
                      module_trace([0.0, 0.0], [0.0, 0.0]))
        assert error.guard == "module-activity"

    def test_trace_length(self):
        error = fired(check_measurement, measurement(sensitivity=np.zeros(5)))
        assert (error.guard, error.layer) == ("trace-length", "platform")

    def test_clean_inputs_pass(self):
        check_current_samples(np.array([0.0, 3.0]), layer="pdn")
        check_voltage_samples(np.array([1.1, 1.3]), supply_v=VDD,
                              layer="platform")
        check_sensitivity(np.zeros(4), layer="platform")
        check_time_axis(DT, DT, layer="platform")
        check_module_trace(module_trace([1.0, 2.0], [0.0, 0.5]))
        check_measurement(measurement())

    def test_every_catalog_guard_is_exercised_above(self):
        """The catalog and this test class must not drift apart."""
        exercised = {
            "current-finite", "current-bounds", "voltage-finite",
            "voltage-bounds", "sensitivity", "time-axis", "module-energy",
            "module-length", "module-activity", "trace-length",
        }
        assert exercised == set(GUARD_CATALOG)

    def test_violation_message_names_guard_and_layer(self):
        error = fired(check_current_samples, np.array([np.nan]), layer="pdn")
        assert "[pdn/current-finite]" in str(error)


# ----------------------------------------------------------------------
# Composite checks dispatch to the right sub-guard
# ----------------------------------------------------------------------
class TestCheckMeasurement:
    def test_dt_mismatch_is_time_axis(self):
        error = fired(check_measurement, measurement(current_dt=2 * DT))
        assert error.guard == "time-axis"

    def test_nan_voltage_is_voltage_finite(self):
        volts = np.full(8, VDD)
        volts[3] = np.nan
        assert fired(check_measurement,
                     measurement(voltage=volts)).guard == "voltage-finite"

    def test_negative_current_is_current_bounds(self):
        amps = np.full(8, 5.0)
        amps[0] = -1.0
        assert fired(check_measurement,
                     measurement(current=amps)).guard == "current-bounds"


# ----------------------------------------------------------------------
# Guards wired into the layers
# ----------------------------------------------------------------------
class TestLayerWiring:
    def test_pdn_solver_rejects_nan_current(self):
        solver = TransientSolver(PdnNetwork(bulldozer_pdn()), DT)
        samples = np.full(64, 3.0)
        samples[10] = np.nan
        error = fired(solver.simulate, CurrentTrace(samples, DT), vdd=1.2)
        assert (error.guard, error.layer) == ("current-finite", "pdn")

    def test_pdn_solver_rejects_negative_current(self):
        solver = TransientSolver(PdnNetwork(bulldozer_pdn()), DT)
        error = fired(solver.steady_state_periodic,
                      CurrentTrace(np.array([-1.0, 2.0]), DT), vdd=1.2)
        assert (error.guard, error.layer) == ("current-bounds", "pdn")

    def test_platform_measurement_is_guarded(self):
        """A real end-to-end measurement passes every platform guard."""
        platform = bulldozer_testbed()
        from repro.core.resonance import probe_program
        from repro.isa.opcodes import default_table

        program = probe_program(default_table(), hp_count=8, lp_nops=8)
        result = platform.measure_program(program, 2)
        check_measurement(result)  # idempotent: already ran inside
