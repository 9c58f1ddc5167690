"""The evaluation engine: AUDIT's batched, backend-pluggable fitness service.

On hardware every fitness call is a multi-second scope capture, so the
measurement box is *the* bottleneck of the closed loop (paper Fig. 5).
FIRESTARTER and MicroGrad-style generators pay off exactly when that box
becomes an instrumented service instead of an inline call — which is what
this module provides:

* :class:`EvaluationEngine` owns the genome → program → measurement → cost
  pipeline, memoises fitness by genome and evaluates whole batches
  (``evaluate_many``).  Each call is one ``engine.evaluate_batch`` span
  whose ``size`` (fresh genomes), ``hits`` (cache-served requests) and
  ``eval_wall_s`` attributes are the engine's telemetry; faults go out as
  :class:`~repro.core.telemetry.FaultEvent` through the installed tracer.
* Executors are pluggable: :class:`SerialExecutor` (default — deterministic,
  shares the in-process platform and all its caches) and the process pool
  :class:`~repro.supervision.executor.SupervisedExecutor` (one GA
  generation's unevaluated genomes are independent, so a 24-genome
  generation scales near-linearly with workers; hung and crashed workers
  are killed and respawned).  :func:`make_executor` picks one.
* :class:`StressmarkFitness` is the pipeline itself as a *picklable*
  callable: workers rebuild the measurement platform from a
  ``platform_factory`` exactly once per process and keep it (and its
  module-trace cache) warm across generations.

Determinism: both executors evaluate the same genomes with the same seeds
and return results in request order, so serial and parallel runs produce
identical ``GaResult``s.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Protocol, Sequence, TypeVar

from repro.core.codegen import DEFAULT_ITERATIONS, genome_to_program
from repro.core.cost import MaxDroopCost
from repro.core.faults import EvalOutcome, FaultPolicy, FaultRecord, GuardedFitness
from repro.core.platform import MeasurementPlatform
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import TracedTask, current_tracer, emit, span
from repro.pipeline.artifacts import MeasureRequest
from repro.core.telemetry import FaultEvent, InvariantEvent
from repro.errors import ConfigurationError

G = TypeVar("G", bound=Hashable)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class FitnessExecutor(Protocol):
    """How a batch of independent fitness evaluations actually runs."""

    name: str

    def map(self, fn: Callable, items: Sequence) -> list: ...

    def close(self) -> None: ...


class SerialExecutor:
    """In-process evaluation: the default, cache-warm and dependency-free."""

    name = "serial"

    def map(self, fn: Callable, items: Sequence) -> list:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass


def make_executor(
    workers: int | None,
    *,
    hard_timeout_s: float | None = None,
    max_pool_rebuilds: int | None = None,
) -> FitnessExecutor:
    """The campaign executor: serial in-process, or a supervised pool.

    ``workers`` > 1 runs a
    :class:`~repro.supervision.executor.SupervisedExecutor`, so worker
    crashes are recovered (pool respawn + crash isolation).  A
    ``hard_timeout_s`` also selects the supervised pool — with one worker
    if ``workers`` <= 1 — because only a separate process can be killed
    when an evaluation hangs past its deadline.  ``max_pool_rebuilds``
    defaults to the supervisor's budget.
    """
    pooled = workers is not None and workers > 1
    if not pooled and hard_timeout_s is None:
        return SerialExecutor()
    # Deferred: repro.supervision imports repro.core, so importing it at
    # module level would make the two packages circular.
    from repro.supervision.executor import DEFAULT_MAX_POOL_REBUILDS, SupervisedExecutor

    return SupervisedExecutor(
        workers if pooled else 1,
        task_timeout_s=hard_timeout_s,
        max_pool_rebuilds=(
            DEFAULT_MAX_POOL_REBUILDS if max_pool_rebuilds is None else max_pool_rebuilds
        ),
    )


# ----------------------------------------------------------------------
# The genome -> fitness pipeline as a picklable callable
# ----------------------------------------------------------------------
#: Worker-side platforms, keyed by the pickled factory so every task in a
#: process reuses one platform (and its module-trace cache).
_WORKER_PLATFORMS: dict[bytes, MeasurementPlatform] = {}


def _as_platform(built) -> MeasurementPlatform:
    if isinstance(built, MeasurementPlatform):
        return built
    return MeasurementPlatform(backend=built)


class StressmarkFitness(Generic[G]):
    """genome → program → measurement → cost, ready for any executor.

    In-process calls use the live *platform*; when pickled to a worker the
    platform is dropped and rebuilt from *platform_factory* (once per
    process), so the callable ships only the genome space, thread count,
    and cost function.
    """

    #: Parallel executors need the factory (see ``_check_executor``); any
    #: platform-bound fitness class sets this marker.
    requires_platform_factory = True

    def __init__(
        self,
        space,
        threads: int,
        *,
        cost=None,
        platform: MeasurementPlatform | None = None,
        platform_factory: Callable[[], MeasurementPlatform] | None = None,
        iterations: int = DEFAULT_ITERATIONS,
    ):
        if platform is None and platform_factory is None:
            raise ConfigurationError(
                "StressmarkFitness needs a platform or a platform_factory"
            )
        self.space = space
        self.threads = threads
        self.cost = cost if cost is not None else MaxDroopCost()
        self.platform_factory = platform_factory
        self.iterations = iterations
        self._platform = platform

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_platform"] = None
        return state

    def _resolve_platform(self) -> MeasurementPlatform:
        if self._platform is None:
            key = pickle.dumps(self.platform_factory)
            platform = _WORKER_PLATFORMS.get(key)
            if platform is None:
                platform = _as_platform(self.platform_factory())
                _WORKER_PLATFORMS[key] = platform
            self._platform = platform
        return self._platform

    def __call__(self, genome: G) -> float:
        program = genome_to_program(genome, self.space, iterations=self.iterations)
        measurement = self._resolve_platform().measure_program(
            program, self.threads
        )
        return float(self.cost.evaluate(measurement))

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry of the platform this fitness measures on."""
        return self._resolve_platform().metrics

    def evaluate_batch(self, genomes: Sequence[G]) -> list[EvalOutcome]:
        """Score a batch as one platform measurement batch.

        Results are bit-identical to per-genome calls (the pipeline
        guarantees it); per-genome wall time is the batch wall split
        evenly.
        """
        platform = self._resolve_platform()
        start = time.perf_counter()
        requests = [
            MeasureRequest(
                program=genome_to_program(
                    genome, self.space, iterations=self.iterations
                ),
                threads=self.threads,
            )
            for genome in genomes
        ]
        measurements = platform.measure_programs(requests)
        wall = time.perf_counter() - start
        per_genome = wall / max(1, len(genomes))
        return [
            EvalOutcome(
                value=float(self.cost.evaluate(measurement)),
                wall_s=per_genome,
                attempts=1,
            )
            for measurement in measurements
        ]


@dataclass(frozen=True)
class _TimedFitness:
    """Wraps a fitness callable into a timed :class:`EvalOutcome`."""

    fitness: Callable

    def __call__(self, genome) -> EvalOutcome:
        start = time.perf_counter()
        value = float(self.fitness(genome))
        return EvalOutcome(
            value=value, wall_s=time.perf_counter() - start, attempts=1
        )


@dataclass(frozen=True)
class _ShipMetrics:
    """Runs a fitness task in a pool worker and ships its counters home.

    A worker's platform exists only to serve the parent, so its registry
    is emptied before every task (a forked worker inherits whatever the
    parent's copy had counted) and drained onto the outcome afterwards,
    as a plain dict; the engine merges each one exactly once into the
    parent platform's registry.
    """

    task: Callable

    def __call__(self, genome) -> EvalOutcome:
        metrics = getattr(self.task.fitness, "metrics", None)
        if metrics is None:
            return self.task(genome)
        metrics.drain()
        outcome = self.task(genome)
        return dataclasses.replace(outcome, metrics=metrics.drain())


def _genome_label(genome) -> str:
    label = repr(genome)
    return label if len(label) <= 120 else label[:117] + "..."


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class EvaluationEngine(Generic[G]):
    """Batched, cached, observable fitness evaluation.

    Implements the batch-evaluator protocol the GA consumes
    (``evaluate_many`` + ``evaluations``), so an engine drops in wherever a
    plain fitness callable was accepted.  Fitness values are memoised by
    genome; cache hits are free and reported as telemetry, exactly like the
    measurement reuse that matters on the paper's hardware testbed.

    With a :class:`~repro.core.faults.FaultPolicy`, evaluation faults are
    retried (with backoff, worker-side) and genomes whose measurements keep
    failing are **quarantined** — assigned the policy's exhausted fitness
    instead of killing the campaign — with every retry and quarantine
    surfaced as :class:`~repro.core.telemetry.FaultEvent` telemetry.
    """

    def __init__(
        self,
        fitness: Callable[[G], float],
        *,
        executor: FitnessExecutor | None = None,
        platform: MeasurementPlatform | None = None,
        fault_policy: FaultPolicy | None = None,
    ):
        self.fitness = fitness
        self.executor = executor if executor is not None else SerialExecutor()
        self.platform = platform
        self.fault_policy = fault_policy
        self._cache: dict[G, float] = {}
        self.evaluations = 0
        self.cache_hits = 0
        self.retries = 0
        self.quarantines = 0
        self.timeouts = 0
        self.quarantined: set[G] = set()
        self._check_executor()

    @classmethod
    def for_stressmarks(
        cls,
        platform: MeasurementPlatform,
        space,
        *,
        threads: int,
        cost=None,
        executor: FitnessExecutor | None = None,
        platform_factory: Callable[[], MeasurementPlatform] | None = None,
        iterations: int = DEFAULT_ITERATIONS,
        fault_policy: FaultPolicy | None = None,
    ) -> "EvaluationEngine":
        """The full AUDIT pipeline over *platform* for genomes in *space*."""
        fitness = StressmarkFitness(
            space,
            threads,
            cost=cost,
            platform=platform,
            platform_factory=platform_factory,
            iterations=iterations,
        )
        return cls(
            fitness, executor=executor, platform=platform,
            fault_policy=fault_policy,
        )

    @property
    def _pooled(self) -> bool:
        """Whether fitness runs in worker processes (anything not serial)."""
        return not isinstance(self.executor, SerialExecutor)

    def _check_executor(self) -> None:
        if (
            self._pooled
            and getattr(self.fitness, "requires_platform_factory", False)
            and getattr(self.fitness, "platform_factory", None) is None
        ):
            raise ConfigurationError(
                "parallel evaluation needs a picklable platform_factory "
                "(pass platform_factory= to EvaluationEngine.for_stressmarks)"
            )

    # ------------------------------------------------------------------
    def evaluate(self, genome: G) -> float:
        return self.evaluate_many([genome])[0]

    def evaluate_many(self, genomes: Sequence[G]) -> list[float]:
        """Fitness for each genome, in request order.

        Unseen genomes are deduplicated and dispatched to the executor as
        one batch; everything else is served from the genome cache.  The
        call is one ``engine.evaluate_batch`` span: ``size`` fresh
        genomes, ``hits`` requests served from the cache, and
        ``eval_wall_s``, the fresh genomes' summed evaluation time.
        """
        genomes = list(genomes)
        if not genomes:
            return []
        fresh = list(dict.fromkeys(g for g in genomes if g not in self._cache))
        hits = len(genomes) - len(fresh)
        with span("engine.evaluate_batch", backend=self.executor.name) as batch:
            eval_wall_s = 0.0
            if fresh:
                outcomes = self._evaluate_fresh(fresh)
                for genome, outcome in zip(fresh, outcomes):
                    self._cache[genome] = self._record_outcome(genome, outcome)
                    eval_wall_s += outcome.wall_s
                self.evaluations += len(fresh)
            self.cache_hits += hits
            batch.set(size=len(fresh), hits=hits, eval_wall_s=eval_wall_s)
        return [self._cache[genome] for genome in genomes]

    # ------------------------------------------------------------------
    def _evaluate_fresh(self, fresh: Sequence[G]) -> list:
        """Dispatch the deduplicated batch and resolve supervisor faults.

        In-process without a fault policy, a fitness with
        ``evaluate_batch`` measures the whole batch as one platform call
        (batched PDN solves).  Otherwise the executor maps the fitness
        per genome, so each worker or retried attempt measures a batch
        of one; the values are bit-identical either way.

        On a process pool the task ships what the worker did back
        on its outcome: the worker platform's counters (``_ShipMetrics``)
        and, under an active tracer, the ``worker.eval`` (+ pipeline)
        spans it recorded (:class:`~repro.obs.spans.TracedTask`).  Both
        re-enter the parent here: the counters merge into the engine
        platform's registry, the spans into the installed tracer.
        """
        batch_eval = getattr(self.fitness, "evaluate_batch", None)
        if batch_eval is not None and self.fault_policy is None and not self._pooled:
            outcomes = batch_eval(fresh)
        else:
            if self.fault_policy is None:
                task = _TimedFitness(self.fitness)
            else:
                task = GuardedFitness(self.fitness, self.fault_policy)
            if self._pooled:
                task = _ShipMetrics(task)
                tracer = current_tracer()
                if tracer is not None:
                    task = TracedTask(task, tracer.context())
            outcomes = self.executor.map(task, fresh)
        outcomes = [
            self._resolve_supervised(genome, outcome)
            for genome, outcome in zip(fresh, outcomes)
        ]
        tracer = current_tracer()
        for outcome in outcomes:
            if outcome.metrics and self.platform is not None:
                self.platform.metrics.merge(
                    MetricsRegistry.from_dict(outcome.metrics)
                )
            if tracer is not None:
                for event in outcome.spans:
                    tracer.emit(event)
        return outcomes

    # ------------------------------------------------------------------
    def _resolve_supervised(self, genome: G, outcome) -> EvalOutcome:
        """Fold a :class:`SupervisorFault` sentinel into the fault taxonomy.

        The supervised executor hands back a sentinel for a task whose
        *worker* misbehaved (hang past the hard deadline, process death) —
        failures the in-worker :class:`~repro.core.faults.GuardedFitness`
        cannot see.  With a quarantining fault policy the genome is
        quarantined like any fault-exhausted one; with no policy (or
        ``on_exhaust="raise"``) the failure surfaces as a
        :class:`~repro.supervision.executor.WorkerHangError` /
        :class:`~repro.supervision.executor.WorkerCrashError`.
        """
        if isinstance(outcome, EvalOutcome):
            return outcome
        from repro.supervision.executor import WorkerCrashError, WorkerHangError

        label = _genome_label(genome)
        tracer = current_tracer()
        if tracer is not None:
            # The worker died holding its spans; close the loss in the
            # parent so the trace tree shows a "lost" leaf instead of a
            # silently missing subtree.
            tracer.lost(
                "worker.eval", wall_s=outcome.wall_s,
                genome=label, fault=outcome.kind,
            )
        if self.fault_policy is None or self.fault_policy.on_exhaust == "raise":
            error = WorkerHangError if outcome.kind == "hang" else WorkerCrashError
            raise error(f"{label}: {outcome.error}")
        record = FaultRecord(error=outcome.error, timeout=outcome.kind == "hang")
        return EvalOutcome(
            value=None,
            wall_s=outcome.wall_s,
            attempts=max(1, outcome.attempts),
            faults=(record,),
        )

    # ------------------------------------------------------------------
    def _record_outcome(self, genome: G, outcome: EvalOutcome) -> float:
        """Fold one evaluation outcome into counters + fault telemetry."""
        self.retries += max(0, outcome.attempts - 1)
        self.timeouts += sum(1 for fault in outcome.faults if fault.timeout)
        label = _genome_label(genome)
        for i, fault in enumerate(outcome.faults):
            final_failure = outcome.exhausted and i == len(outcome.faults) - 1
            if fault.invariant:
                emit(InvariantEvent(
                    guard=fault.invariant,
                    layer=fault.layer,
                    error=fault.error,
                    genome=label,
                ))
            emit(FaultEvent(
                genome=label,
                error=fault.error,
                attempt=i + 1,
                action="quarantine" if final_failure else "retry",
                timeout=fault.timeout,
            ))
        if outcome.exhausted:
            self.quarantines += 1
            self.quarantined.add(genome)
            return self.fault_policy.exhausted_fitness()
        return float(outcome.value)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def cache_snapshot(self) -> dict[G, float]:
        """A copy of the genome → fitness cache (for campaign checkpoints)."""
        return dict(self._cache)

    def restore_cache(
        self,
        cache: dict[G, float],
        *,
        cache_hits: int = 0,
        evaluations: int = 0,
    ) -> None:
        """Restore a checkpointed fitness cache and its counters."""
        self._cache.update(cache)
        self.cache_hits = cache_hits
        self.evaluations = evaluations

    def seed_cache(self, cache: dict[G, float]) -> None:
        """Pre-populate the fitness cache from another campaign's bank.

        The fleet orchestrator seeds a shard's engine with the caches of
        sibling shards that measured on an identical platform (same chip,
        PDN variant, thread count, mode), so genomes the sibling already
        scored are free here.  Unlike :meth:`restore_cache` this touches
        no counters and never overwrites an existing entry — it only adds
        known-good measurements the campaign has not requested yet.
        """
        for genome, value in cache.items():
            self._cache.setdefault(genome, value)
