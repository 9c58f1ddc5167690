"""Chip-level execution: modules → load current.

Modules are electrically independent current sinks on a shared PDN, so chip
current is the superposition of per-module currents plus the idle current of
unused modules.  ``ChipSimulator`` memoises module runs (a GA evaluates the
same homogeneous program on four modules — simulate once, reuse four times)
and converts per-cycle energy into amperes via the chip's
:class:`~repro.power.energy.EnergyModel`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import SchedulingError
from repro.isa.kernels import ThreadProgram
from repro.power.energy import EnergyModel
from repro.power.trace import CurrentTrace
from repro.uarch.config import ChipConfig
from repro.uarch.module import ModuleSimulator, ModuleTrace
from repro.validation.invariants import check_module_trace

#: A placement maps each module to the programs on its threads; ``None``
#: entries are idle modules.
Placement = list

class ChipSimulator:
    """Executes thread placements on a chip and produces current traces."""

    def __init__(self, config: ChipConfig, metrics=None):
        self.config = config
        self._module_sim = ModuleSimulator(config)
        self._energy_model = EnergyModel(config.power, config.vdd, config.frequency_hz)
        self._cache: dict[tuple, ModuleTrace] = {}
        #: Telemetry: ``uarch.module_runs`` (distinct module simulations
        #: actually run), ``uarch.module_cache_hits`` (memo short-circuits)
        #: and ``uarch.sim_s`` (wall time inside the module simulator).
        if metrics is None:
            # Imported here: repro.obs pulls in repro.core, which imports
            # this module.
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics

    @property
    def dt(self) -> float:
        """Sample interval of produced traces (one clock cycle)."""
        return self.config.cycle_time_s

    @property
    def energy_model(self) -> EnergyModel:
        return self._energy_model

    def run_module(
        self,
        programs: tuple[ThreadProgram, ...] | list[ThreadProgram],
        *,
        max_iterations: int | None = None,
    ) -> ModuleTrace:
        """Run one module (memoised on the programs' content keys)."""
        key = (tuple(p.content_key for p in programs), max_iterations)
        trace = self._cache.get(key)
        if trace is None:
            start = time.perf_counter()
            trace = self._module_sim.run(list(programs), max_iterations=max_iterations)
            self.metrics.inc("uarch.sim_s", time.perf_counter() - start)
            self.metrics.inc("uarch.module_runs")
            # Guard once per fresh simulation; cache hits re-serve a trace
            # that already passed.
            check_module_trace(trace)
            self._cache[key] = trace
        else:
            self.metrics.inc("uarch.module_cache_hits")
        return trace

    def run_placement(
        self,
        placement: Placement,
        *,
        max_iterations: int | None = None,
    ) -> list[ModuleTrace | None]:
        """Run every module of a placement; idle modules yield None."""
        if len(placement) != self.config.module_count:
            raise SchedulingError(
                f"placement must cover {self.config.module_count} modules"
            )
        results: list[ModuleTrace | None] = []
        for programs in placement:
            if not programs:
                results.append(None)
            else:
                results.append(
                    self.run_module(tuple(programs), max_iterations=max_iterations)
                )
        return results

    # ------------------------------------------------------------------
    # Energy -> current
    # ------------------------------------------------------------------
    def module_current(
        self, energy_pj: np.ndarray, *, active_threads: int
    ) -> np.ndarray:
        """Per-cycle current (A) of one module from its energy trace.

        Leakage scales with the module's core count; the clock-tree term is
        gated on zero-energy cycles exactly like the single-core model.
        """
        if active_threads < 1:
            raise SchedulingError("an active module has at least one thread")
        em = self._energy_model
        p = self.config.power
        dynamic = (
            np.asarray(energy_pj, dtype=np.float64)
            * 1e-12
            / (self.config.vdd * self.config.cycle_time_s)
        )
        clock = np.full_like(dynamic, active_threads * p.idle_clock_a)
        gated = active_threads * p.idle_clock_a * (1.0 - p.clock_gating_efficiency)
        clock[dynamic == 0.0] = gated
        return active_threads * p.leakage_a + clock + dynamic

    def idle_module_current(self) -> float:
        """Current of a fully idle, clock-gated module (A)."""
        return self.config.module.threads * self._energy_model.idle_current()

    def chip_current(
        self,
        module_currents: list[np.ndarray | None],
        *,
        length: int | None = None,
    ) -> CurrentTrace:
        """Superpose per-module current arrays into the chip load trace.

        ``None`` entries (idle modules) contribute their constant idle
        current.  Arrays shorter than the final length are padded with the
        idle level (the module went quiet).
        """
        if len(module_currents) != self.config.module_count:
            raise SchedulingError("one entry per module required")
        arrays = [c for c in module_currents if c is not None]
        if length is None:
            if not arrays:
                raise SchedulingError("need at least one active module or a length")
            length = max(len(a) for a in arrays)
        idle = self.idle_module_current()
        total = np.zeros(length)
        for current in module_currents:
            if current is None:
                total += idle
                continue
            n = min(len(current), length)
            total[:n] += current[:n]
            if n < length:
                total[n:] += idle
        return CurrentTrace(total, self.dt)
