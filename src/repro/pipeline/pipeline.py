"""The staged measurement pipeline: request in, measurement out.

``MeasurementPipeline`` wires the four stages together, counts into one
:class:`~repro.obs.metrics.MetricsRegistry` (``pipeline.*`` and, from
the chip simulator, ``uarch.*``), and times every stage.  Under a
tracer each measurement is a ``pipeline.measure`` span with a
``pipeline.activity`` span inside it (dispatch path, cache hit, and the
reason for a transient fallback), and every PDN solve is a
``pipeline.pdn_solve`` span.  ``measure(requests)`` is the only entry
point: it runs compile/activity per request, then groups requests whose
PDN rows stack into a rectangular matrix and solves each group in a
single scipy call.
The pipeline is the default :class:`~repro.core.platform.MeasurementBackend`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import span
from repro.pipeline.artifacts import Measurement, MeasureRequest
from repro.pipeline.stages import (
    DEFAULT_JITTER_SEED,
    DEFAULT_WARMUP_ITERATIONS,
    ActivityStage,
    AnalyzeStage,
    CompileStage,
    PdnStage,
)
from repro.power.trace import CurrentTrace


class MeasurementPipeline:
    """Compile → activity → pdn → analyze, with per-stage caches/timing.

    Pass ``activity=`` to share the chip simulator, profile cache, and
    metrics registry with another pipeline (the qualifier's perturbed
    platforms do this, so chip-simulation work is counted once no matter
    how many PDN variants consume it).
    """

    def __init__(
        self,
        chip,
        pdn,
        *,
        warmup_iterations: int = DEFAULT_WARMUP_ITERATIONS,
        jitter_seed: int = DEFAULT_JITTER_SEED,
        jitter_step_cycles: int | None = None,
        activity: ActivityStage | None = None,
    ):
        if abs(pdn.vdd_nominal - chip.vdd) > 1e-9:
            raise ConfigurationError(
                "PDN nominal voltage must match the chip supply "
                f"({pdn.vdd_nominal} != {chip.vdd})"
            )
        if warmup_iterations < 8:
            raise ConfigurationError("warmup_iterations must be >= 8")
        if jitter_step_cycles is None:
            jitter_step_cycles = PdnStage.JITTER_STEP_CYCLES
        if jitter_step_cycles < 0:
            raise ConfigurationError("jitter_step_cycles must be >= 0")
        self.chip = chip
        self.compile = CompileStage(chip)
        if activity is None:
            activity = ActivityStage(chip, warmup_iterations, MetricsRegistry())
        self.activity = activity
        self.metrics = activity.metrics
        self.pdn_stage = PdnStage(
            chip, pdn,
            jitter_seed=jitter_seed,
            jitter_step_cycles=jitter_step_cycles,
            metrics=self.metrics,
        )
        self.analyze = AnalyzeStage()

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure(self, requests) -> list[Measurement]:
        """Measure *requests*, batching compatible PDN solves.

        Compile and activity run per request (hitting their caches as
        usual), each inside its own ``pipeline.measure`` span.  Requests
        whose profiles share a dispatch path and period form rectangular
        row groups that solve in one matrix call; transient fallbacks and
        singleton groups take the serial :meth:`PdnStage.run`, the
        reference implementation.  A single measurement is a batch of
        one, and results are bit-identical however requests are grouped.
        """
        prepared = []
        for request in requests:
            phases, supply = self._validated(request)
            with span("pipeline.measure", threads=request.threads) as measure_span:
                self.metrics.inc("pipeline.measurements")
                profile = self._profile_for(request)
                self.metrics.inc(f"pipeline.path.{profile.path}")
                measure_span.set(path=profile.path)
            prepared.append((profile, phases, supply))

        groups: dict = {}
        for idx, (profile, _phases, _supply) in enumerate(prepared):
            if profile.path in ("periodic", "jittered"):
                key = (profile.path, profile.period_cycles)
            else:
                key = ("transient", idx)
            groups.setdefault(key, []).append(idx)

        responses: list = [None] * len(prepared)
        for (path, _), indices in groups.items():
            if path == "transient" or len(indices) == 1:
                for idx in indices:
                    responses[idx] = self._timed_pdn(*prepared[idx])
                continue
            start = time.perf_counter()
            with span("pipeline.pdn_solve", path=path, batched=True,
                      rows=len(indices)):
                solved = self.pdn_stage.run_batch([prepared[i] for i in indices])
            self.metrics.inc("pipeline.wall_s.pdn", time.perf_counter() - start)
            for idx, response in zip(indices, solved):
                responses[idx] = response

        measurements = []
        for (profile, _phases, _supply), response in zip(prepared, responses):
            start = time.perf_counter()
            measurements.append(self.analyze.run(profile, response))
            self.metrics.inc("pipeline.wall_s.analyze",
                             time.perf_counter() - start)
        return measurements

    #: The :class:`~repro.core.platform.MeasurementBackend` protocol name.
    measure_programs = measure

    # ------------------------------------------------------------------
    # Raw-trace measurement (synthetic workloads)
    # ------------------------------------------------------------------
    def measure_current(
        self,
        current: CurrentTrace,
        *,
        sensitivity=None,
        supply_v: float | None = None,
        baseline_current_a: float | None = None,
    ) -> Measurement:
        supply = self.chip.vdd if supply_v is None else supply_v
        if abs(current.dt - self.chip.cycle_time_s) > 1e-18:
            raise MeasurementError("current trace dt must match the chip clock")
        self.metrics.inc("pipeline.measurements")
        baseline = (
            current.samples[0] if baseline_current_a is None else baseline_current_a
        )
        start = time.perf_counter()
        voltage = self.pdn_stage.solve(
            self.pdn_stage.solver_at(supply).simulate,
            current, baseline_current_a=baseline,
        )
        self.metrics.inc("pipeline.wall_s.pdn", time.perf_counter() - start)
        sens = (
            np.ones(len(current)) if sensitivity is None else
            np.asarray(sensitivity, dtype=np.float64)
        )
        if len(sens) != len(current):
            raise MeasurementError("sensitivity length must match the current trace")
        return Measurement(
            voltage=voltage,
            sensitivity=sens,
            current=current,
            period_cycles=None,
            supply_v=supply,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validated(self, request: MeasureRequest):
        phases = (
            list(request.module_phases) if request.module_phases
            else [0] * self.chip.module_count
        )
        if len(phases) != self.chip.module_count:
            raise MeasurementError("one phase per module required")
        supply = self.chip.vdd if request.supply_v is None else request.supply_v
        if supply <= 0:
            raise ConfigurationError("supply voltage must be positive")
        return tuple(int(p) for p in phases), supply

    def _profile_for(self, request: MeasureRequest):
        start = time.perf_counter()
        compiled = self.compile.run(request)
        self.metrics.inc("pipeline.wall_s.compile", time.perf_counter() - start)

        start = time.perf_counter()
        hits_before = self.activity.cache.hits
        with span("pipeline.activity") as activity_span:
            profile = self.activity.run(compiled)
            activity_span.set(
                path=profile.path,
                cache_hit=self.activity.cache.hits > hits_before,
            )
            if profile.fallback_reason:
                activity_span.set(fallback=profile.fallback_reason)
        self.metrics.inc("pipeline.wall_s.activity", time.perf_counter() - start)
        return profile

    def _timed_pdn(self, profile, phases, supply):
        start = time.perf_counter()
        hits_before = self.pdn_stage.cache.hits
        with span("pipeline.pdn_solve", path=profile.path) as solve_span:
            response = self.pdn_stage.run(profile, phases=phases, supply=supply)
            solve_span.set(cache_hit=self.pdn_stage.cache.hits > hits_before)
        self.metrics.inc("pipeline.wall_s.pdn", time.perf_counter() - start)
        return response
