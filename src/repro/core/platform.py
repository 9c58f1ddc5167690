"""The measurement platform: AUDIT's closed-loop "Measure HW" box.

This is the only place where AUDIT touches the machine (paper Fig. 5): a
candidate stressmark goes in, a voltage measurement comes out.  On the
paper's testbed that box is a processor board plus an oscilloscope; here it
is the chip model (:mod:`repro.uarch`) feeding the PDN solver
(:mod:`repro.pdn`).  The seam is explicit: anything implementing the
:class:`MeasurementBackend` protocol — including one that runs NASM output
on real silicon — drops into :class:`MeasurementPlatform` unchanged, and
nothing above this layer knows which backend it is talking to.

The measurement itself runs as the staged pipeline in
:mod:`repro.pipeline`: compile (thread placement) → activity (module
simulation + periodicity verification) → pdn (steady-state/transient
solve) → analyze (droop/sensitivity assembly), with per-stage caches
keyed by artifact content hashes and per-stage timing telemetry.  That
pipeline is the default backend, and it has one entry point: a batch of
requests in, one measurement per request out.  A single measurement is
a batch of one.  Simulator internals (``chip_sim``, ``pdn_stage.solver``,
``pdn``) live on :attr:`MeasurementPlatform.pipeline`, and its counters
on :attr:`MeasurementPlatform.metrics`.

Measurement strategy
--------------------

Stressmark loops reach a steady periodic state; the activity stage
extracts the verified per-period profile from the module simulator and
the PDN stage evaluates the *exact periodic steady state* — the droop
after the resonance has fully built up (M iterations in the paper's
notation).  Thread/module phase offsets are applied by rolling the
periodic profiles, which is what makes dithering sweeps and GA fitness
cheap.  Runs that never become periodic (e.g. heterogeneous threads
fighting over the shared FPU) fall back to a long time-domain transient,
and the measurement's ``pipeline.activity`` span names the reason.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.isa.kernels import ThreadProgram
from repro.obs.metrics import MetricsRegistry
from repro.pdn.elements import PdnParameters
from repro.pipeline.artifacts import Measurement, MeasureRequest
from repro.pipeline.pipeline import MeasurementPipeline
from repro.pipeline.stages import (
    DEFAULT_JITTER_SEED,
    DEFAULT_WARMUP_ITERATIONS,
    FALLBACK_TILE_CYCLES,
    IDLE_PAD_CYCLES,
)
from repro.power.trace import CurrentTrace
from repro.uarch.config import ChipConfig
from repro.validation.invariants import check_measurement

__all__ = [
    "DEFAULT_JITTER_SEED",
    "DEFAULT_WARMUP_ITERATIONS",
    "FALLBACK_TILE_CYCLES",
    "IDLE_PAD_CYCLES",
    "Measurement",
    "MeasurementBackend",
    "MeasurementPlatform",
    "pipeline_of",
]


@runtime_checkable
class MeasurementBackend(Protocol):
    """The swap-in-real-silicon seam of paper Fig. 5.

    A backend knows *how* to turn programs into voltage measurements —
    the staged :class:`~repro.pipeline.pipeline.MeasurementPipeline` here,
    a board plus oscilloscope on the paper's testbed.  It must describe
    the machine it measures (``chip``) so the layers above can size
    genomes, place threads, and filter opcodes, but nothing above the
    platform may assume a simulator is underneath.  ``measure_programs``
    returns one measurement per :class:`MeasureRequest`, in request order.
    A wrapper backend exposes the pipeline it wraps as ``pipeline``
    (``None`` if it wraps none).
    """

    chip: ChipConfig

    def measure_programs(self, requests) -> list[Measurement]: ...

    def measure_current(
        self,
        current: CurrentTrace,
        *,
        sensitivity: np.ndarray | None = None,
        supply_v: float | None = None,
        baseline_current_a: float | None = None,
    ) -> Measurement: ...


def pipeline_of(backend) -> MeasurementPipeline | None:
    """The pipeline *backend* measures on: the backend itself, or the
    ``pipeline`` a wrapper backend exposes (``None`` for foreign ones)."""
    if isinstance(backend, MeasurementPipeline):
        return backend
    return getattr(backend, "pipeline", None)


class MeasurementPlatform:
    """Closed-loop measurement of programs on a pluggable backend.

    The two-argument form ``MeasurementPlatform(chip, pdn)`` builds the
    default backend, a :class:`MeasurementPipeline` (the software
    testbed).  Passing ``backend=`` instead plugs in any
    :class:`MeasurementBackend` — the paper's real-silicon path.  The
    facade validates arguments and guards every measurement's invariants.
    ``pipeline`` is the simulator the backend measures on, or ``None`` for
    a foreign backend.  ``metrics`` is the registry the pipeline and its
    chip simulator count into (an empty one for a foreign backend); the
    evaluation engine merges pool workers' counters into it, so it holds
    campaign-wide totals however the work was spread.
    """

    def __init__(
        self,
        chip: ChipConfig | None = None,
        pdn: PdnParameters | None = None,
        *,
        warmup_iterations: int = DEFAULT_WARMUP_ITERATIONS,
        jitter_seed: int = DEFAULT_JITTER_SEED,
        jitter_step_cycles: int | None = None,
        backend: MeasurementBackend | None = None,
    ):
        if backend is None:
            if chip is None or pdn is None:
                raise ConfigurationError(
                    "MeasurementPlatform needs either (chip, pdn) or backend="
                )
            backend = MeasurementPipeline(
                chip, pdn,
                warmup_iterations=warmup_iterations,
                jitter_seed=jitter_seed,
                jitter_step_cycles=jitter_step_cycles,
            )
        elif chip is not None or pdn is not None:
            raise ConfigurationError(
                "pass either (chip, pdn) or backend=, not both"
            )
        self.backend = backend
        self.pipeline = pipeline_of(backend)
        self.metrics = (
            self.pipeline.metrics if self.pipeline is not None
            else MetricsRegistry()
        )

    @property
    def chip(self) -> ChipConfig:
        return self.backend.chip

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _validate_program_args(self, threads: int, supply_v: float | None):
        chip = self.backend.chip
        if threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if threads > chip.total_threads:
            raise ConfigurationError(
                f"threads must be <= {chip.total_threads} "
                f"({chip.module.threads} per module x {chip.module_count} "
                f"modules on {chip.name})"
            )
        if supply_v is not None and supply_v <= 0:
            raise ConfigurationError("supply voltage must be positive")

    def measure_program(
        self,
        program: ThreadProgram,
        threads: int,
        *,
        module_phases: list[int] | None = None,
        supply_v: float | None = None,
        smt_phase_cycles: int | None = None,
    ) -> Measurement:
        """Measure a homogeneous *threads*-way run of *program*.

        Threads are placed by the paper's spread-first policy.
        ``module_phases`` circularly shifts each module's periodic activity
        (the dithering alignment vector; default all-aligned, which is the
        dithering algorithm's guaranteed worst case for identical modules).
        ``supply_v`` re-measures at a reduced supply for failure sweeps.

        When a module runs **two** SMT threads, the second starts
        ``smt_phase_cycles`` after the first (default: half the thread's
        solo loop period).  Dithering aligns *modules*, not SMT siblings —
        the paper's 8T runs show exactly this: shared-FPU interference
        "shifts the loop lengths, making it difficult to align the first
        droop excitation across the threads" (Section V.A.2).  Pass 0 to
        force lockstep siblings.

        This is :meth:`measure_programs` on a batch of one.
        """
        return self.measure_programs([MeasureRequest(
            program=program,
            threads=threads,
            module_phases=(
                tuple(module_phases) if module_phases is not None else None
            ),
            supply_v=supply_v,
            smt_phase_cycles=smt_phase_cycles,
        )])[0]

    def measure_programs(self, requests) -> list[Measurement]:
        """Measure a batch of :class:`MeasureRequest`\\ s, in request order.

        Validation and the invariant guards run here, so every backend
        gets the same contract.  On the pipeline, compatible PDN solves
        share one matrix call; the results match per-request
        :meth:`measure_program` calls bit for bit.
        """
        requests = list(requests)
        for request in requests:
            self._validate_program_args(request.threads, request.supply_v)
        measurements = self.backend.measure_programs(requests)
        for measurement in measurements:
            check_measurement(measurement)
        return measurements

    def measure_current(
        self,
        current: CurrentTrace,
        *,
        sensitivity: np.ndarray | None = None,
        supply_v: float | None = None,
        baseline_current_a: float | None = None,
    ) -> Measurement:
        """Measure an externally generated chip-current waveform.

        Used by the synthetic benchmark models, whose activity is produced
        statistically rather than by the pipeline scheduler.
        """
        if supply_v is not None and supply_v <= 0:
            raise ConfigurationError("supply voltage must be positive")
        measurement = self.backend.measure_current(
            current,
            sensitivity=sensitivity,
            supply_v=supply_v,
            baseline_current_a=baseline_current_a,
        )
        check_measurement(measurement)
        return measurement
