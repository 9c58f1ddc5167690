"""The four measurement stages: compile → activity → pdn → analyze.

Each stage is a small object with a ``name`` and a ``run`` method taking
the previous stage's artifact (the :class:`Stage` protocol).  The numeric
bodies are the former simulator-backend internals moved here verbatim —
the decomposition changes where the code lives and what gets cached, never
a single float.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.osmodel.affinity import spread_placement
from repro.pdn.elements import PdnParameters
from repro.pdn.transient import TransientSolver, VoltageTrace, shared_solver
from repro.pipeline.artifacts import (
    ActivityProfile,
    CompiledProgram,
    Measurement,
    MeasureRequest,
    ModuleActivity,
    PdnResponse,
    artifact_key,
)
from repro.pipeline.cache import StageCache
from repro.power.energy import EnergyModel
from repro.power.trace import CurrentTrace
from repro.uarch.chip import ChipSimulator
from repro.uarch.config import ChipConfig

#: Iterations simulated per module run: enough for any kernel that will
#: stabilise to do so and leave >= 3 repetitions for verification.
DEFAULT_WARMUP_ITERATIONS = 48

#: Cycles of idle machine prepended on the transient fallback path.
IDLE_PAD_CYCLES = 512

#: Periods of steady activity tiled on the transient fallback path.
FALLBACK_TILE_CYCLES = 20_000

#: Default seed of the SMT loop-phase random walk (kept stable so seed
#: benches reproduce; configurable via ``MeasurementPlatform(jitter_seed=)``).
DEFAULT_JITTER_SEED = 0xD17D7


@runtime_checkable
class Stage(Protocol):
    """One pipeline stage: consumes the upstream artifact, emits its own."""

    name: str

    def run(self, *artifacts, **params): ...


class CompileStage:
    """Stage 1: place the program's threads onto the chip's modules."""

    name = "compile"

    def __init__(self, chip: ChipConfig):
        self.chip = chip
        self.cache = StageCache("compile")

    def run(self, request: MeasureRequest) -> CompiledProgram:
        # Keyed on the program's content key, computed once per program
        # instance: a lookup never re-hashes the instruction tree.
        program_key = request.program.content_key
        cache_key = (program_key, request.threads, request.smt_phase_cycles)
        cached = self.cache.get(cache_key)
        if cached is not None:
            return cached
        counts = spread_placement(self.chip, request.threads)
        placement = tuple(counts)
        key = artifact_key(
            self.chip.name,
            program_key,
            request.threads,
            request.smt_phase_cycles,
            placement,
        )
        compiled = CompiledProgram(
            program=request.program,
            threads=request.threads,
            placement=placement,
            smt_phase_cycles=request.smt_phase_cycles,
            key=key,
        )
        self.cache.put(cache_key, compiled)
        return compiled


class ActivityStage:
    """Stage 2: simulate per-module activity and verify its periodicity.

    Owns the chip simulator (and therefore the module-trace memoisation)
    plus the profile cache: a supply or phase sweep over one compiled
    program hits the cache and never touches the simulator again.  It also
    owns the pipeline's :class:`~repro.obs.metrics.MetricsRegistry`, so
    pipelines that share an activity stage share one counter ledger.
    """

    name = "activity"

    def __init__(self, chip: ChipConfig, warmup_iterations: int,
                 metrics: MetricsRegistry):
        self.chip = chip
        self.warmup_iterations = warmup_iterations
        self.metrics = metrics
        self.chip_sim = ChipSimulator(chip, metrics)
        self.cache = StageCache("activity")

    def run(self, compiled: CompiledProgram) -> ActivityProfile:
        cached = self.cache.get(compiled.key)
        if cached is not None:
            self.metrics.inc("pipeline.profile_cache_hits")
            return cached
        profile = self._build(compiled)
        self.cache.put(compiled.key, profile)
        return profile

    def _build(self, compiled: CompiledProgram) -> ActivityProfile:
        modules = []
        for count in compiled.placement:
            if count == 0:
                modules.append(None)
                continue
            programs = self._module_programs(
                compiled.program, count, compiled.smt_phase_cycles
            )
            trace = self.chip_sim.run_module(
                programs, max_iterations=self.warmup_iterations
            )
            modules.append(
                ModuleActivity(trace=trace, profile=trace.periodic_profile(),
                               count=count)
            )
        active = [m for m in modules if m is not None]
        periods = {m.profile[2] for m in active if m.profile is not None}
        all_periodic = (
            all(m.profile is not None for m in active) and len(periods) == 1
        )
        iteration_cycles = active[0].trace.steady_period(0) if active else None
        smt = any(count == 2 for count in compiled.placement)
        fallback_reason = ""
        if all_periodic:
            path = "jittered" if smt else "periodic"
            period_cycles = next(iter(periods))
        else:
            path = "transient"
            period_cycles = None
            nonperiodic = [
                i for i, m in enumerate(modules)
                if m is not None and m.profile is None
            ]
            if nonperiodic:
                fallback_reason = (
                    f"modules {nonperiodic} never reached a verified periodic "
                    f"profile within {self.warmup_iterations} iterations"
                )
            else:
                fallback_reason = (
                    f"modules disagree on activity period "
                    f"({sorted(periods)} cycles)"
                )
        return ActivityProfile(
            modules=tuple(modules),
            period_cycles=period_cycles,
            iteration_cycles=iteration_cycles,
            smt=smt,
            path=path,
            fallback_reason=fallback_reason,
            key=compiled.key,
        )

    def _module_programs(self, program, count: int,
                         smt_phase_cycles: int | None):
        """Programs for one module, applying the natural SMT phase offset."""
        if count == 1:
            return (program,)
        if smt_phase_cycles is None:
            # The natural misalignment of SMT siblings: half the period the
            # loop actually runs at when both threads share the module
            # (probed with a lockstep pair; memoised, so this costs one
            # extra simulation per distinct kernel).
            pair = self.chip_sim.run_module(
                (program, program), max_iterations=self.warmup_iterations
            )
            period = pair.steady_period(0)
            smt_phase_cycles = int(round(period / 2)) if period else 0
        return (program,) + tuple(
            program.with_phase(program.phase_cycles + smt_phase_cycles)
            for _ in range(count - 1)
        )


class PdnStage:
    """Stage 3: solve the PDN for a profile at given phases and supply.

    Solves on its network's one :class:`TransientSolver` (shared
    process-wide, every supply), keeps a bounded response cache keyed
    ``(profile, phases, supply)``, and holds the row-assembly helpers
    :meth:`run_batch` stacks into matrix solves.
    """

    name = "pdn"

    #: Loop repetitions simulated on the jittered (SMT-interference) path.
    JITTER_REPETITIONS = 80

    #: Per-repetition phase random-walk step bound (cycles), the modelled
    #: magnitude of shared-FPU loop-length perturbation.
    JITTER_STEP_CYCLES = 2

    def __init__(
        self,
        chip: ChipConfig,
        pdn: PdnParameters,
        *,
        jitter_seed: int,
        jitter_step_cycles: int,
        metrics: MetricsRegistry,
        cache_entries: int = 256,
    ):
        self.chip = chip
        self.pdn = pdn
        self.jitter_seed = jitter_seed
        self.jitter_step_cycles = jitter_step_cycles
        self.metrics = metrics
        self.cache = StageCache("pdn", max_entries=cache_entries)
        self._energy_model = EnergyModel(chip.power, chip.vdd, chip.frequency_hz)
        # No solver yet: :attr:`solver` resolves it on the first solve,
        # and only a time-domain solve discretises the network (and
        # loads scipy's compiled kernels), inside that measurement.

    @property
    def solver(self) -> TransientSolver:
        """The network's solver; every supply and pipeline on it shares one."""
        return shared_solver(self.pdn, self.chip.cycle_time_s)

    def solve(self, solve_fn, *args, **kwargs):
        start = time.perf_counter()
        result = solve_fn(*args, **kwargs)
        self.metrics.inc("pipeline.pdn_solve_s", time.perf_counter() - start)
        return result

    def current_from_energy(
        self, energy_pj: np.ndarray, *, active_threads: int,
        supply_v: float | np.ndarray,
    ) -> np.ndarray:
        """Per-cycle module current at an arbitrary supply voltage.

        Lower supply means more current for the same switching energy —
        the feedback that deepens droops as the failure sweep descends.
        An array *supply_v* broadcasts against *energy_pj* elementwise.
        """
        p = self.chip.power
        dynamic = (
            np.asarray(energy_pj, dtype=np.float64)
            * 1e-12
            / (supply_v * self.chip.cycle_time_s)
        )
        clock = np.full_like(dynamic, active_threads * p.idle_clock_a)
        gated = active_threads * p.idle_clock_a * (1.0 - p.clock_gating_efficiency)
        clock[dynamic == 0.0] = gated
        return active_threads * p.leakage_a + clock + dynamic

    def idle_module_current(self) -> float:
        return self.chip.module.threads * self._energy_model.idle_current()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def response_key(self, profile: ActivityProfile, phases, supply: float):
        return (profile.key, tuple(phases), float(supply))

    def run(self, profile: ActivityProfile, *, phases, supply: float,
            use_cache: bool = True) -> PdnResponse:
        key = self.response_key(profile, phases, supply)
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.inc("pipeline.pdn_cache_hits")
                return cached
        if profile.path == "periodic":
            response = self._measure_periodic(profile, phases, supply)
        elif profile.path == "jittered":
            response = self._measure_jittered(profile, phases, supply)
        else:
            response = self._measure_transient(profile, phases, supply)
        self.cache.put(key, response)
        return response

    # ------------------------------------------------------------------
    # Row assembly (shared by the serial paths and the batched solver)
    # ------------------------------------------------------------------
    def _active_phases(self, profile: ActivityProfile, phases):
        return [
            (m, phases[i]) for i, m in enumerate(profile.modules) if m is not None
        ]

    def periodic_rows(self, items):
        """Periodic current and sensitivity matrices, one row per candidate.

        *items* are ``(profile, phases, supply)`` with one common period.
        Rows of one profile share its module energies, so each module's
        current is computed for all their supplies at once and rolled to
        each row's phase by indexing.  Every element sees the same
        arithmetic in the same order as a one-row call, so rows are
        bit-identical however the candidates are batched.
        """
        period = items[0][0].period_cycles
        currents = np.empty((len(items), period))
        sensitivities = np.empty((len(items), period))
        by_profile: dict[int, list[int]] = {}
        for i, (profile, _phases, _supply) in enumerate(items):
            by_profile.setdefault(id(profile), []).append(i)
        columns = np.arange(period)
        for rows in by_profile.values():
            profile = items[rows[0]][0]
            phases = np.array([items[i][1] for i in rows])
            supplies = np.array([[items[i][2]] for i in rows], dtype=np.float64)
            active = [(k, m) for k, m in enumerate(profile.modules) if m is not None]
            idle_count = self.chip.module_count - len(active)
            total_current = np.full((len(rows), period),
                                    idle_count * self.idle_module_current())
            total_sens = np.zeros((len(rows), period))
            for k, module in active:
                energy, sens, _p = module.profile
                current = self.current_from_energy(
                    energy[None, :], active_threads=module.count, supply_v=supplies
                )
                # np.roll(x, phase)[j] == x[(j - phase) % period]
                source = (columns - phases[:, k:k + 1]) % period
                total_current += np.take_along_axis(current, source, axis=1)
                np.maximum(total_sens, sens[source], out=total_sens)
            currents[rows] = total_current
            sensitivities[rows] = total_sens
        return currents, sensitivities

    def jittered_rows(self, profile: ActivityProfile, phases, supply: float):
        """One candidate's phase-random-walk row plus its DC baseline."""
        active = self._active_phases(profile, phases)
        period = profile.period_cycles
        reps = self.JITTER_REPETITIONS
        idle_count = self.chip.module_count - len(active)
        idle_level = idle_count * self.idle_module_current()
        length = reps * period
        total_current = np.full(length, idle_level)
        total_sens = np.zeros(length)
        rng = np.random.default_rng(self.jitter_seed)
        for module, phase in active:
            energy, sens, _p = module.profile
            current = self.current_from_energy(
                energy, active_threads=module.count, supply_v=supply
            )
            steps = rng.integers(
                -self.jitter_step_cycles, self.jitter_step_cycles + 1, size=reps
            )
            offsets = phase + np.cumsum(steps)
            module_current = np.concatenate(
                [np.roll(current, int(off)) for off in offsets]
            )
            module_sens = np.concatenate(
                [np.roll(sens, int(off)) for off in offsets]
            )
            total_current += module_current
            np.maximum(total_sens, module_sens, out=total_sens)
        return total_current, total_sens, float(total_current.mean())

    # ------------------------------------------------------------------
    # Serial solves
    # ------------------------------------------------------------------
    def _measure_periodic(self, profile, phases, supply: float) -> PdnResponse:
        currents, sensitivities = self.periodic_rows([(profile, phases, supply)])
        total_current, total_sens = currents[0], sensitivities[0]
        trace = CurrentTrace(total_current, self.chip.cycle_time_s)
        voltage = self.solve(self.solver.steady_state_periodic, trace, vdd=supply)
        return PdnResponse(
            voltage=voltage,
            sensitivity=total_sens,
            current=trace,
            period_cycles=profile.period_cycles,
            supply_v=supply,
        )

    def _measure_jittered(self, profile, phases, supply: float) -> PdnResponse:
        """SMT-pair measurement: loop phase wanders, resonance decoheres.

        Paper Section V.A.2: with two threads per module the shared FPU
        "shifts the loop lengths, making it difficult ... to oscillate at
        the resonant frequency".  Each module's periodic profile is tiled
        with a per-repetition phase random walk (independent per module)
        and the result is integrated in the time domain — spectral energy
        spreads off the resonance peak exactly as on hardware.
        """
        total_current, total_sens, baseline = self.jittered_rows(
            profile, phases, supply
        )
        trace = CurrentTrace(total_current, self.chip.cycle_time_s)
        voltage = self.solve(
            self.solver.simulate, trace, vdd=supply, baseline_current_a=baseline,
        )
        return PdnResponse(
            voltage=voltage,
            sensitivity=total_sens,
            current=trace,
            period_cycles=profile.period_cycles,
            supply_v=supply,
        )

    def _measure_transient(self, profile, phases, supply: float) -> PdnResponse:
        active = self._active_phases(profile, phases)
        idle_count = self.chip.module_count - len(active)
        idle_level = idle_count * self.idle_module_current()
        length = IDLE_PAD_CYCLES + max(
            min(FALLBACK_TILE_CYCLES, module.trace.cycles * 4)
            for module, _phase in active
        )
        total_current = np.full(length, idle_level)
        total_sens = np.zeros(length)
        per_module_idle = self.idle_module_current()
        for module, phase in active:
            current = self.current_from_energy(
                module.trace.energy_pj, active_threads=module.count,
                supply_v=supply,
            )
            sens = module.trace.sensitivity
            start = IDLE_PAD_CYCLES + phase
            # Tile the raw run (it may not be periodic) to fill the window.
            filled = 0
            while start + filled < length:
                take = min(len(current), length - start - filled)
                total_current[start + filled : start + filled + take] += current[:take]
                window = total_sens[start + filled : start + filled + take]
                np.maximum(window, sens[:take], out=window)
                filled += take
            total_current[:start] += per_module_idle
        current_trace = CurrentTrace(total_current, self.chip.cycle_time_s)
        voltage = self.solve(
            self.solver.simulate,
            current_trace,
            vdd=supply,
            baseline_current_a=self.chip.module_count * per_module_idle,
        )
        return PdnResponse(
            voltage=voltage,
            sensitivity=total_sens,
            current=current_trace,
            period_cycles=None,
            supply_v=supply,
        )

    # ------------------------------------------------------------------
    # Batched solves (one matrix call per group of same-length rows)
    # ------------------------------------------------------------------
    def run_batch(self, items) -> list[PdnResponse]:
        """Solve a group of same-path, same-period candidates in one call.

        *items* is a list of ``(profile, phases, supply)`` tuples whose
        profiles all dispatch to the same path ("periodic" or "jittered")
        with one common period, so the assembled rows form a rectangular
        matrix.  Rows solve on :attr:`solver`, the one solver every supply
        shares (as the serial paths do); results are bit-identical to
        per-item serial solves.
        """
        path = items[0][0].path
        supplies = np.array([supply for _profile, _phases, supply in items])
        solver = self.solver
        dt = self.chip.cycle_time_s
        if path == "periodic":
            matrix, sensitivities = self.periodic_rows(items)
            volts = self.solve(
                solver.steady_state_periodic_batch, matrix, vdd_rows=supplies
            )
        elif path == "jittered":
            rows = [
                self.jittered_rows(profile, phases, supply)
                for profile, phases, supply in items
            ]
            matrix = np.stack([current for current, _sens, _base in rows])
            sensitivities = [sens for _current, sens, _base in rows]
            baselines = np.array([base for _current, _sens, base in rows])
            volts = self.solve(
                solver.simulate_batch, matrix,
                baselines=baselines, vdd_rows=supplies,
            )
        else:
            raise ConfigurationError(
                f"batched PDN solves support periodic/jittered paths, not {path!r}"
            )
        self.metrics.inc("pipeline.batched_solves")
        self.metrics.inc("pipeline.batched_rows", len(items))
        responses = []
        for i, (profile, phases, supply) in enumerate(items):
            voltage = VoltageTrace(volts[i], dt, float(supplies[i]))
            response = PdnResponse(
                voltage=voltage,
                sensitivity=sensitivities[i],
                current=CurrentTrace(matrix[i], dt),
                period_cycles=profile.period_cycles,
                supply_v=supply,
                batched=True,
            )
            # Populate (never consult) the response cache: later serial
            # repeats of the same point become hits.
            self.cache.put(self.response_key(profile, phases, supply), response)
            responses.append(response)
        return responses


class AnalyzeStage:
    """Stage 4: assemble the response into the public Measurement."""

    name = "analyze"

    def run(self, profile: ActivityProfile, response: PdnResponse) -> Measurement:
        return Measurement(
            voltage=response.voltage,
            sensitivity=response.sensitivity,
            current=response.current,
            period_cycles=response.period_cycles,
            supply_v=response.supply_v,
            iteration_cycles=(
                profile.iteration_cycles if profile.path != "transient" else None
            ),
        )
