"""The evaluation engine: AUDIT's batched, backend-pluggable fitness service.

On hardware every fitness call is a multi-second scope capture, so the
measurement box is *the* bottleneck of the closed loop (paper Fig. 5).
FIRESTARTER and MicroGrad-style generators pay off exactly when that box
becomes an instrumented service instead of an inline call — which is what
this module provides:

* :class:`EvaluationEngine` owns the genome → program → measurement → cost
  pipeline, memoises fitness by genome, evaluates whole batches
  (``evaluate_many``), and emits :class:`~repro.core.telemetry.EvaluationEvent`
  telemetry through any registered observers.
* Executors are pluggable: :class:`SerialExecutor` (default — deterministic,
  shares the in-process platform and all its caches) and
  :class:`ParallelExecutor` (a ``concurrent.futures.ProcessPoolExecutor``
  fan-out — one GA generation's unevaluated genomes are independent, so a
  24-genome generation scales near-linearly with workers).
* :class:`StressmarkFitness` is the pipeline itself as a *picklable*
  callable: workers rebuild the measurement platform from a
  ``platform_factory`` exactly once per process and keep it (and its
  module-trace cache) warm across generations.

Determinism: both executors evaluate the same genomes with the same seeds
and return results in request order, so serial and parallel runs produce
identical ``GaResult``s.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Protocol, Sequence, TypeVar

from repro.core.codegen import DEFAULT_ITERATIONS, genome_to_program
from repro.core.cost import MaxDroopCost
from repro.core.faults import EvalOutcome, FaultPolicy, FaultRecord, GuardedFitness
from repro.core.platform import MeasurementPlatform
from repro.obs.spans import TracedTask, current_tracer, span
from repro.pipeline.artifacts import MeasureRequest
from repro.core.telemetry import (
    EvaluationEvent,
    FaultEvent,
    InvariantEvent,
    RunObserver,
    notify,
)
from repro.errors import ConfigurationError
from repro.supervision.executor import (
    DEFAULT_MAX_POOL_REBUILDS,
    SupervisedExecutor,
    SupervisorFault,
    WorkerCrashError,
    WorkerHangError,
)

G = TypeVar("G", bound=Hashable)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class FitnessExecutor(Protocol):
    """How a batch of independent fitness evaluations actually runs."""

    name: str
    workers: int

    def map(self, fn: Callable, items: Sequence) -> list: ...

    def close(self) -> None: ...


class SerialExecutor:
    """In-process evaluation: the default, cache-warm and dependency-free."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable, items: Sequence) -> list:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass


class ParallelExecutor:
    """Process-pool evaluation via ``concurrent.futures``.

    The mapped callable and its items must be picklable — for stressmark
    fitness that means constructing the engine with a ``platform_factory``
    (a module-level function such as
    :func:`repro.experiments.setup.bulldozer_testbed`).  The pool is created
    lazily on first use and reused across batches so workers keep their
    rebuilt platforms (and module-trace caches) warm.
    """

    name = "parallel"

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None

    def map(self, fn: Callable, items: Sequence) -> list:
        items = list(items)
        if not items:
            return []
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        # One chunk per worker per batch: amortises the per-chunk pickle of
        # ``fn`` (which carries the platform spec) without starving workers.
        chunksize = max(1, -(-len(items) // self.workers))
        try:
            return list(self._pool.map(fn, items, chunksize=chunksize))
        except BaseException:
            # A worker exception mid-batch must not leak the pool: cancel
            # what has not started and shut the processes down before the
            # error propagates (callers rarely get to call close() on the
            # exception path).
            self._abort()
            raise

    def _abort(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_executor(
    workers: int | None,
    *,
    hard_timeout_s: float | None = None,
    max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS,
    observers: Sequence[RunObserver] = (),
) -> SerialExecutor | SupervisedExecutor:
    """`workers` <= 1 (or None) → serial; otherwise a supervised pool.

    Parallel evaluation always goes through the
    :class:`~repro.supervision.executor.SupervisedExecutor` so worker
    crashes are recovered (pool respawn + crash isolation) even without a
    hard deadline; pass ``hard_timeout_s`` to also kill evaluations that
    hang past it.  The bare :class:`ParallelExecutor` remains available
    for callers that explicitly want unsupervised ``pool.map`` semantics.
    """
    if workers is None or workers <= 1:
        return SerialExecutor()
    return SupervisedExecutor(
        workers,
        task_timeout_s=hard_timeout_s,
        max_pool_rebuilds=max_pool_rebuilds,
        observers=observers,
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

    def stats_probe(self):
        """Current platform counters (for worker-side stats deltas)."""
        return self._resolve_platform().stats()

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
    """Wraps a fitness callable into a stats-carrying :class:`EvalOutcome`."""

    fitness: Callable

    def __call__(self, genome) -> EvalOutcome:
        probe = getattr(self.fitness, "stats_probe", None)
        stats_before = probe() if probe is not None else None
        start = time.perf_counter()
        value = float(self.fitness(genome))
        wall_s = time.perf_counter() - start
        stats = None
        if stats_before is not None:
            stats_after = probe()
            if stats_after is not None:
                stats = stats_after.delta(stats_before)
        return EvalOutcome(value=value, wall_s=wall_s, attempts=1, stats=stats)


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
        observers: Sequence[RunObserver] = (),
        platform: MeasurementPlatform | None = None,
        fault_policy: FaultPolicy | None = None,
    ):
        self.fitness = fitness
        self.executor = executor if executor is not None else SerialExecutor()
        self.observers = tuple(observers)
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
        observers: Sequence[RunObserver] = (),
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
            fitness, executor=executor, observers=observers, platform=platform,
            fault_policy=fault_policy,
        )

    def _check_executor(self) -> None:
        if (
            getattr(self.executor, "workers", 1) > 1
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
        one batch; everything else is served from the genome cache.
        """
        genomes = list(genomes)
        fresh: list[G] = []
        seen: set[G] = set()
        for genome in genomes:
            if genome not in self._cache and genome not in seen:
                fresh.append(genome)
                seen.add(genome)
        if fresh:
            with span("engine.evaluate_batch", size=len(fresh),
                      backend=self.executor.name):
                outcomes = self._evaluate_fresh(fresh)
            self._absorb_worker_stats(outcomes)
            for genome, outcome in zip(fresh, outcomes):
                value = self._record_outcome(genome, outcome)
                self._cache[genome] = value
                self.evaluations += 1
                notify(
                    self.observers,
                    EvaluationEvent(
                        genome=_genome_label(genome),
                        fitness=value,
                        wall_s=outcome.wall_s,
                        cached=False,
                        backend=self.executor.name,
                    ),
                )
        out: list[float] = []
        for genome in genomes:
            value = self._cache[genome]
            if genome in seen:
                seen.discard(genome)  # the one request that paid for it
            else:
                self.cache_hits += 1
                notify(
                    self.observers,
                    EvaluationEvent(
                        genome=_genome_label(genome),
                        fitness=value,
                        wall_s=0.0,
                        cached=True,
                        backend=self.executor.name,
                    ),
                )
            out.append(value)
        return out

    # ------------------------------------------------------------------
    def _evaluate_fresh(self, fresh: Sequence[G]) -> list:
        """Dispatch the deduplicated batch and resolve supervisor faults.

        In-process without a fault policy, a fitness with
        ``evaluate_batch`` measures the whole batch as one platform call
        (batched PDN solves).  Otherwise the executor maps the fitness
        per genome, so each worker or retried attempt measures a batch
        of one; the values are bit-identical either way.

        Under an active tracer and a parallel executor the task callable
        is wrapped in :class:`~repro.obs.spans.TracedTask`, so each
        worker records its own ``worker.eval`` (+ pipeline) spans and
        ships them back on the outcome; they are re-emitted here, in the
        parent, into the ordinary observer chain.
        """
        batch_eval = getattr(self.fitness, "evaluate_batch", None)
        if (
            batch_eval is not None
            and self.fault_policy is None
            and getattr(self.executor, "workers", 1) <= 1
        ):
            outcomes = batch_eval(fresh)
        else:
            if self.fault_policy is None:
                task = _TimedFitness(self.fitness)
            else:
                task = GuardedFitness(self.fitness, self.fault_policy)
            tracer = current_tracer()
            if tracer is not None and getattr(self.executor, "workers", 1) > 1:
                task = TracedTask(task, tracer.context())
            outcomes = self.executor.map(task, fresh)
        outcomes = [
            self._resolve_supervised(genome, outcome)
            for genome, outcome in zip(fresh, outcomes)
        ]
        tracer = current_tracer()
        if tracer is not None:
            for outcome in outcomes:
                for event in getattr(outcome, "spans", ()):
                    tracer.emit(event)
        return outcomes

    # ------------------------------------------------------------------
    def _absorb_worker_stats(self, outcomes: Sequence[EvalOutcome]) -> None:
        """Merge per-worker measurement stats into the engine's platform.

        Worker processes accumulate :class:`MeasurementStats` in their own
        rebuilt platforms, which die with the pool; each outcome carries the
        per-evaluation delta so the run summary reports the true sim/PDN
        split.  Serial evaluations already hit the live platform directly, so
        merging there would double-count.
        """
        if getattr(self.executor, "workers", 1) <= 1:
            return
        absorb = getattr(self.platform, "absorb_worker_stats", None)
        if absorb is None:
            return
        for outcome in outcomes:
            if outcome.stats is not None:
                absorb(outcome.stats)

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
        if not isinstance(outcome, SupervisorFault):
            return outcome
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
                notify(
                    self.observers,
                    InvariantEvent(
                        guard=fault.invariant,
                        layer=fault.layer,
                        error=fault.error,
                        genome=label,
                    ),
                )
            notify(
                self.observers,
                FaultEvent(
                    genome=label,
                    error=fault.error,
                    attempt=i + 1,
                    action="quarantine" if final_failure else "retry",
                    timeout=fault.timeout,
                ),
            )
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

    # ------------------------------------------------------------------
    def platform_stats(self):
        """The platform's MeasurementStats (None without an instrumented one)."""
        if self.platform is None:
            return None
        return self.platform.stats()
