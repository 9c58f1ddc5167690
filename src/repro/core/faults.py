"""Fault tolerance for long AUDIT campaigns: policy, guard, and chaos.

The paper's closed loop runs unattended for hours against a flaky physical
target (Section IV): measurements hang, the scope misfires, thermal events
corrupt a capture.  FIRESTARTER-style stress campaigns treat those as
routine, not fatal.  This module gives the evaluation engine the same
discipline:

* :class:`FaultPolicy` — declarative per-evaluation fault handling:
  how many retries, what backoff, and what to do when a genome's
  measurement keeps failing (``raise`` / ``skip`` / ``penalize``).  Hangs
  are not this layer's job: a hung attempt never returns to be judged, so
  the hard deadline lives in :mod:`repro.supervision.executor`, which
  kills the worker process.
* :class:`GuardedFitness` — wraps any fitness callable so a backend fault
  becomes a retried attempt instead of a dead campaign.  Picklable, so the
  retry loop runs *inside* process-pool workers.
* :class:`FaultInjectingBackend` — a deterministic, seeded chaos wrapper
  around any :class:`~repro.core.platform.MeasurementBackend`: injects
  exceptions, simulated hangs, and corrupt (non-finite) droop measurements
  at configurable rates, so full campaigns can be tested under fault load.

Corrupt measurements are modelled as non-finite droop: the guard treats a
non-finite fitness value as a fault in its own right, which is exactly how
a production loop defends against a mis-triggered scope capture.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    MeasurementError,
    QuarantineExhaustedError,
)

#: Valid ``FaultPolicy.on_exhaust`` actions.
EXHAUST_ACTIONS = ("raise", "skip", "penalize")


class InjectedFaultError(MeasurementError):
    """A fault deliberately injected by :class:`FaultInjectingBackend`."""


class InjectedHangError(MeasurementError):
    """A simulated hang (a capture that timed out) from the chaos wrapper."""


class CorruptMeasurementError(MeasurementError):
    """A measurement produced a non-finite fitness value."""


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPolicy:
    """How the evaluation engine reacts to a failing measurement.

    ``on_exhaust`` decides the fate of a genome once every attempt failed:

    * ``"raise"``  — propagate the last error and kill the run (default,
      the pre-fault-tolerance behaviour);
    * ``"skip"``   — assign ``-inf`` fitness so the genome can never win
      selection, and quarantine it;
    * ``"penalize"`` — assign ``penalty_fitness`` and quarantine it.
    """

    max_retries: int = 2
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    on_exhaust: str = "raise"
    penalty_fitness: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.on_exhaust not in EXHAUST_ACTIONS:
            raise ConfigurationError(
                f"on_exhaust must be one of {EXHAUST_ACTIONS}, "
                f"got {self.on_exhaust!r}"
            )

    def exhausted_fitness(self) -> float:
        """The fitness assigned to a quarantined genome (skip/penalize)."""
        if self.on_exhaust == "skip":
            return float("-inf")
        return float(self.penalty_fitness)


# ----------------------------------------------------------------------
# Guarded evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultRecord:
    """One failed evaluation attempt.

    ``timeout`` marks an attempt killed at the supervisor's hard deadline.
    ``invariant``/``layer`` are set when the failure was a runtime
    invariant guard firing (corrupt numerics), so telemetry can record an
    ``invariant.violation`` span alongside the fault.
    """

    error: str
    timeout: bool = False
    invariant: str = ""
    layer: str = ""


def fault_record_from(error: Exception) -> FaultRecord:
    """Build the :class:`FaultRecord` describing *error*."""
    is_invariant = isinstance(error, InvariantViolation)
    return FaultRecord(
        error=f"{type(error).__name__}: {error}",
        invariant=error.guard if is_invariant else "",
        layer=error.layer if is_invariant else "",
    )


@dataclass(frozen=True)
class EvalOutcome:
    """What one guarded evaluation produced.

    ``value`` is ``None`` when every attempt failed and the policy said not
    to raise; ``faults`` records each failed attempt in order.
    """

    value: float | None
    wall_s: float
    attempts: int
    faults: tuple[FaultRecord, ...] = ()
    metrics: dict | None = None
    """The counters a pool worker's platform gathered for this evaluation,
    as a :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` payload; the
    engine merges it into the parent platform's registry so ``--workers
    N`` telemetry stays complete.  ``None`` in-process."""
    spans: tuple = ()
    """Closed :class:`~repro.core.telemetry.SpanEvent` records this
    evaluation produced in a pool worker (set by
    :class:`~repro.obs.spans.TracedTask` when tracing is active); the
    engine re-emits them to the parent's installed tracer so the JSONL
    trace stays one coherent tree."""

    @property
    def exhausted(self) -> bool:
        return self.value is None


def retry(attempt, policy: FaultPolicy, *, value_of=float, on_fault=None):
    """Call ``attempt()`` until it succeeds or *policy* runs out of retries.

    The one retry loop of the fault layer.  An attempt fails when it
    raises or when ``value_of(result)`` is not finite (a corrupt capture).
    Each failure is recorded as a :class:`FaultRecord` and handed to
    ``on_fault(error, attempt_number, final)``; backoff sleeps between
    attempts.  Returns ``(result, attempts, faults, last_error)``, where
    *result* is ``None`` and *last_error* set once every attempt failed.
    """
    faults: list[FaultRecord] = []
    attempts = policy.max_retries + 1
    for number in range(1, attempts + 1):
        try:
            result = attempt()
            value = value_of(result)
            if not math.isfinite(value):
                raise CorruptMeasurementError(
                    f"measurement produced non-finite value {value!r}"
                )
            return result, number, tuple(faults), None
        except Exception as error:
            faults.append(fault_record_from(error))
            final = number == attempts
            if on_fault is not None:
                on_fault(error, number, final)
            if final:
                return None, attempts, tuple(faults), error
            if policy.backoff_s > 0:
                time.sleep(
                    policy.backoff_s * policy.backoff_factor ** (number - 1)
                )
    raise AssertionError("unreachable")


def _exhausted(label: str, attempts: int, error: Exception):
    return QuarantineExhaustedError(
        f"{label} failed on all {attempts} attempts; "
        f"last error: {type(error).__name__}: {error}"
    )


class GuardedFitness:
    """Retry-with-backoff wrapper turning faults into :class:`EvalOutcome`.

    Picklable (provided the wrapped fitness is), so process-pool workers
    retry locally instead of shipping failures back and forth.  With
    ``on_exhaust="raise"`` exhaustion raises
    :class:`QuarantineExhaustedError` *from* the final error (the original
    fault stays reachable as ``__cause__``), so callers can tell "the
    fault budget ran out" apart from a first-attempt hard error.
    """

    def __init__(self, fitness: Callable, policy: FaultPolicy):
        self.fitness = fitness
        self.policy = policy

    def __call__(self, genome) -> EvalOutcome:
        start = time.perf_counter()
        value, attempts, faults, error = retry(
            lambda: float(self.fitness(genome)), self.policy
        )
        if error is not None and self.policy.on_exhaust == "raise":
            raise _exhausted("evaluation", attempts, error) from error
        return EvalOutcome(
            value=value,
            wall_s=time.perf_counter() - start,
            attempts=attempts,
            faults=faults,
        )


class RetryingMeasurements:
    """Measurement-level retry proxy for loop phases outside the engine.

    The engine guards GA fitness evaluations, but the closed loop also
    measures during the resonance sweep and the final verification — a
    fault there would still kill the campaign.  This proxy retries each
    individual measurement per the policy (validating that the droop is
    finite, like the guard does) and raises
    :class:`QuarantineExhaustedError` once attempts are exhausted: a sweep
    probe has no genome to quarantine, and with per-measurement retries an
    exhausted probe means the backend is down, not flaky.  A batch is
    measured and retried one request at a time, so the backend sees the
    same call sequence as single measurements.  Everything else
    (``chip``, ``metrics`` …) passes through.
    """

    def __init__(self, platform, policy: FaultPolicy, *,
                 label: str = "measurement"):
        self._platform = platform
        self._policy = policy
        self._label = label

    def __getattr__(self, name):
        return getattr(self._platform, name)

    def measure_program(self, *args, **kwargs):
        return self._retry(
            lambda: self._platform.measure_program(*args, **kwargs)
        )

    def measure_current(self, *args, **kwargs):
        return self._retry(
            lambda: self._platform.measure_current(*args, **kwargs)
        )

    def measure_programs(self, requests):
        return [
            self._retry(lambda r=request: self._platform.measure_programs([r])[0])
            for request in requests
        ]

    def _retry(self, measure):
        from repro.obs.spans import span

        def on_fault(error, attempt, final):
            if isinstance(error, InvariantViolation):
                span(
                    "invariant.violation",
                    guard=error.guard,
                    layer=error.layer,
                    error=str(error),
                    genome=self._label,
                ).close()
            span(
                "fault.quarantine" if final else "fault.retry",
                genome=self._label,
                error=f"{type(error).__name__}: {error}",
                attempt=attempt,
                timeout=False,
            ).close()

        measurement, attempts, _faults, error = retry(
            measure, self._policy,
            value_of=lambda m: m.max_droop_v, on_fault=on_fault,
        )
        if error is not None:
            raise _exhausted(self._label, attempts, error) from error
        return measurement


# ----------------------------------------------------------------------
# Chaos: deterministic fault injection around any backend
# ----------------------------------------------------------------------
#: Valid ``FaultInjectionConfig.corrupt_mode`` shapes.
CORRUPT_MODES = ("nan", "inf", "truncate")


@dataclass(frozen=True)
class FaultInjectionConfig:
    """Rates and shape of injected faults (all rates are per measurement).

    ``corrupt_mode`` picks the corruption shape: ``"nan"`` (mis-triggered
    capture, all-NaN voltage), ``"inf"`` (railed ADC, +inf samples), or
    ``"truncate"`` (capture cut short, voltage trace half the length of
    the current trace).  Each shape trips a different invariant guard.
    """

    seed: int = 0
    exception_rate: float = 0.0
    hang_rate: float = 0.0
    hang_s: float = 0.005
    corrupt_rate: float = 0.0
    corrupt_mode: str = "nan"
    hang_forever_rate: float = 0.0
    hang_forever_s: float = 3600.0
    abort_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("exception_rate", "hang_rate", "corrupt_rate",
                     "hang_forever_rate", "abort_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        total = self.exception_rate + self.hang_rate + self.corrupt_rate
        if total > 1.0:
            raise ConfigurationError("fault rates must sum to <= 1")
        if self.hang_forever_rate + self.abort_rate > 1.0:
            raise ConfigurationError(
                "hang_forever_rate + abort_rate must sum to <= 1"
            )
        if self.hang_s < 0 or self.hang_forever_s < 0:
            raise ConfigurationError("hang durations must be >= 0")
        if self.corrupt_mode not in CORRUPT_MODES:
            raise ConfigurationError(
                f"corrupt_mode must be one of {CORRUPT_MODES}, "
                f"got {self.corrupt_mode!r}"
            )


@dataclass
class FaultInjectionCounts:
    """How many of each fault kind the wrapper has injected."""

    calls: int = 0
    exceptions: int = 0
    hangs: int = 0
    corruptions: int = 0
    hang_forevers: int = 0
    aborts: int = 0

    @property
    def injected(self) -> int:
        return (self.exceptions + self.hangs + self.corruptions
                + self.hang_forevers + self.aborts)


@dataclass
class FaultInjectingBackend:
    """Deterministic chaos wrapper around any measurement backend.

    Fault decisions come from a private seeded RNG drawn once per
    measured request, so a given seed produces the same fault schedule
    every run — chaos tests stay reproducible.  Non-faulted calls pass
    through untouched, which is what lets the chaos tests assert that
    fitness values of non-faulted genomes are bit-identical to a clean run.

    Corruption mangles the voltage trace per ``config.corrupt_mode`` (NaN
    fill, +inf fill, or truncation); the platform's invariant guards catch
    it as an :class:`~repro.errors.InvariantViolation` and the fault
    policy retries.
    """

    inner: object
    config: FaultInjectionConfig = field(default_factory=FaultInjectionConfig)
    counts: FaultInjectionCounts = field(default_factory=FaultInjectionCounts)

    def __post_init__(self) -> None:
        self.chip = self.inner.chip
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    def _hard_fault(self, program) -> str | None:
        """Hard faults (worker abort / hang-forever), targeted by content.

        The soft faults above are scheduled by a per-process RNG draw —
        fine for retries, but fatal faults kill the *worker process*, and
        a respawned worker restarts its RNG stream: an early draw-based
        abort would recur forever and no batch could make progress.
        Keying on a hash of the program content instead makes the fault
        stick to the *candidate*: the same genome hangs/aborts in every
        worker (deterministic across respawns and executors), and once
        the supervisor quarantines it the campaign moves on.
        """
        cfg = self.config
        if cfg.abort_rate <= 0.0 and cfg.hang_forever_rate <= 0.0:
            return None
        key = f"{cfg.seed}:{program!r}".encode()
        digest = hashlib.sha256(key).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64
        if unit < cfg.abort_rate:
            return "abort"
        if unit < cfg.abort_rate + cfg.hang_forever_rate:
            return "hang-forever"
        return None

    def _apply_hard(self, fault: str) -> None:
        if fault == "abort":
            self.counts.aborts += 1
            # A segfault does not unwind the stack or flush buffers;
            # neither does os._exit.  The parent sees its worker pool break.
            os._exit(86)
        self.counts.hang_forevers += 1
        if self.config.hang_forever_s:
            time.sleep(self.config.hang_forever_s)
        # Only reached when hang_forever_s is short (serial test rigs).
        raise InjectedHangError(
            f"injected hang-forever outlasted its sleep "
            f"(call {self.counts.calls})"
        )

    def _draw_fault(self) -> str | None:
        cfg = self.config
        self.counts.calls += 1
        draw = float(self._rng.random())
        if draw < cfg.exception_rate:
            self.counts.exceptions += 1
            return "exception"
        if draw < cfg.exception_rate + cfg.hang_rate:
            self.counts.hangs += 1
            return "hang"
        if draw < cfg.exception_rate + cfg.hang_rate + cfg.corrupt_rate:
            self.counts.corruptions += 1
            return "corrupt"
        return None

    def _corrupt(self, measurement):
        from repro.pdn.transient import VoltageTrace

        voltage = measurement.voltage
        mode = self.config.corrupt_mode
        if mode == "truncate":
            keep = max(1, len(voltage.samples) // 2)
            samples = voltage.samples[:keep]
        elif mode == "inf":
            samples = np.full(len(voltage.samples), np.inf)
        else:
            samples = np.full(len(voltage.samples), np.nan)
        bad = VoltageTrace(samples, voltage.dt, vdd_nominal=voltage.vdd_nominal)
        return type(measurement)(
            voltage=bad,
            sensitivity=measurement.sensitivity,
            current=measurement.current,
            period_cycles=measurement.period_cycles,
            supply_v=measurement.supply_v,
            iteration_cycles=measurement.iteration_cycles,
        )

    def _raise_injected(self, fault: str | None, call: int) -> None:
        if fault == "exception":
            raise InjectedFaultError(
                f"injected backend exception (call {call})"
            )
        if fault == "hang":
            if self.config.hang_s:
                time.sleep(self.config.hang_s)
            raise InjectedHangError(
                f"injected backend hang, capture timed out (call {call})"
            )

    # ------------------------------------------------------------------
    # MeasurementBackend protocol
    # ------------------------------------------------------------------
    @property
    def pipeline(self):
        from repro.core.platform import pipeline_of

        return pipeline_of(self.inner)

    def measure_programs(self, requests):
        """One fault draw per request, in request order.

        Every draw happens before anything is measured, so a batch
        consumes the RNG exactly like the same requests measured one
        call at a time.  The first injected exception or hang fails the
        whole batch; corruption mangles only its own request's result.
        """
        requests = list(requests)
        drawn = []
        for request in requests:
            hard = self._hard_fault(request.program)
            if hard is not None:
                self.counts.calls += 1
                self._apply_hard(hard)
            drawn.append((self._draw_fault(), self.counts.calls))
        for fault, call in drawn:
            self._raise_injected(fault, call)
        measurements = self.inner.measure_programs(requests)
        return [
            self._corrupt(measurement) if fault == "corrupt" else measurement
            for measurement, (fault, _call) in zip(measurements, drawn)
        ]

    def measure_current(self, current, *, sensitivity=None, supply_v=None,
                        baseline_current_a=None):
        fault = self._draw_fault()
        self._raise_injected(fault, self.counts.calls)
        measurement = self.inner.measure_current(
            current,
            sensitivity=sensitivity,
            supply_v=supply_v,
            baseline_current_a=baseline_current_a,
        )
        return self._corrupt(measurement) if fault == "corrupt" else measurement
