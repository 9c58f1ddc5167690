"""Generic genetic-algorithm engine.

The GA of paper Fig. 5: a population of candidates is evaluated by a cost
function (measured droop), and survivors are refined by tournament
selection, uniform crossover, and mutation until the exit condition — a
generation budget or droop stagnation ("the maximum voltage droop produced
by AUDIT does not increase for several generations") — is met.

The engine is genome-agnostic: callers provide ``random_fn``/``mutate_fn``/
``crossover_fn`` plus either a plain fitness callable (higher is better) or
a **batch evaluator** — anything with ``evaluate_many(genomes) ->
list[float]`` and an ``evaluations`` counter, such as
:class:`repro.core.engine.EvaluationEngine`.  Each generation is scored as
one batch, so a parallel evaluator overlaps the population's independent
measurements; fitness values are memoised by genome either way, because on
the paper's testbed every evaluation is a multi-second hardware measurement
and here it is a pipeline + PDN simulation.

Determinism: scoring a population in batch order evaluates exactly the same
genomes to exactly the same values as the previous one-at-a-time loop, so
fixed seeds keep producing identical :class:`GaResult`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Sequence, TypeVar

import numpy as np

from repro.errors import CampaignInterrupted, SearchError
from repro.obs.spans import span

G = TypeVar("G", bound=Hashable)


@dataclass(frozen=True)
class GaConfig:
    """GA hyper-parameters and exit conditions."""

    population_size: int = 24
    generations: int = 40
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.08
    elite_count: int = 2
    stagnation_patience: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise SearchError("population_size must be >= 2")
        if self.generations < 1:
            raise SearchError("generations must be >= 1")
        if not 2 <= self.tournament_size <= self.population_size:
            raise SearchError("tournament_size must be in [2, population_size]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise SearchError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise SearchError("mutation_rate must be in [0, 1]")
        if not 0 <= self.elite_count < self.population_size:
            raise SearchError("elite_count must be in [0, population_size)")
        if self.stagnation_patience < 1:
            raise SearchError("stagnation_patience must be >= 1")


@dataclass(frozen=True)
class GenerationStats:
    """Progress record for one generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    evaluations_so_far: int


@dataclass(frozen=True)
class GaResult(Generic[G]):
    """Outcome of one GA run."""

    best_genome: G
    best_fitness: float
    history: tuple[GenerationStats, ...]
    evaluations: int
    stopped_early: bool


@dataclass(frozen=True)
class GaSnapshot(Generic[G]):
    """Everything needed to continue a run from a generation boundary.

    Captured at the *top* of each generation, before that generation is
    scored: the population about to be evaluated, the full RNG state, and
    the search bookkeeping.  Restoring a snapshot and re-running replays
    the remaining generations exactly — a crash mid-generation re-scores
    that generation from scratch (cache-served for anything already
    measured) and lands on the identical :class:`GaResult`.
    """

    generation: int
    population: tuple[G, ...]
    rng_state: dict
    best_genome: G
    best_fitness: float
    stale: int
    history: tuple[GenerationStats, ...]
    evaluations: int


class _MemoisedFitness(Generic[G]):
    """Adapts a plain fitness callable to the batch-evaluator protocol."""

    def __init__(self, fn: Callable[[G], float]):
        self._fn = fn
        self._cache: dict[G, float] = {}
        self.evaluations = 0

    def evaluate_many(self, genomes: Sequence[G]) -> list[float]:
        out = []
        for genome in genomes:
            value = self._cache.get(genome)
            if value is None:
                value = float(self._fn(genome))
                self._cache[genome] = value
                self.evaluations += 1
            out.append(value)
        return out


class GeneticAlgorithm(Generic[G]):
    """Tournament-selection GA with elitism and fitness memoisation."""

    def __init__(
        self,
        *,
        random_fn: Callable[[np.random.Generator], G],
        mutate_fn: Callable[[G, np.random.Generator, float], G],
        crossover_fn: Callable[[G, G, np.random.Generator], G],
        fitness_fn,
        config: GaConfig,
    ):
        self._random_fn = random_fn
        self._mutate_fn = mutate_fn
        self._crossover_fn = crossover_fn
        if hasattr(fitness_fn, "evaluate_many"):
            self._evaluator = fitness_fn
        else:
            self._evaluator = _MemoisedFitness(fitness_fn)
        self.config = config
        self._scores: dict[G, float] = {}

    # ------------------------------------------------------------------
    def _score_population(self, population: list[G]) -> list[float]:
        """Score a whole generation as one batch (the evaluator dedupes)."""
        scores = [float(s) for s in self._evaluator.evaluate_many(population)]
        for genome, score in zip(population, scores):
            self._scores[genome] = score
        return scores

    def _fitness(self, genome: G) -> float:
        value = self._scores.get(genome)
        if value is None:
            value = float(self._evaluator.evaluate_many([genome])[0])
            self._scores[genome] = value
        return value

    def _tournament(self, population: list[G], rng: np.random.Generator) -> G:
        indices = rng.integers(0, len(population), size=self.config.tournament_size)
        best = max((population[int(i)] for i in indices), key=self._fitness)
        return best

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        seeds: list[G] | None = None,
        resume: GaSnapshot[G] | None = None,
        checkpoint_fn: Callable[[GaSnapshot[G]], None] | None = None,
        stop_fn: Callable[[], str | None] | None = None,
    ) -> GaResult[G]:
        """Run to the generation budget or until droop stagnates.

        ``seeds`` pre-populate the initial generation (paper Fig. 5's
        "Initial Seed Entries" — existing benchmarks or stressmarks that
        speed up convergence).

        ``checkpoint_fn`` is called with a :class:`GaSnapshot` at the top
        of every generation (before it is scored); ``resume`` restores one
        such snapshot and continues from that generation, reproducing the
        uninterrupted run exactly as long as the evaluator is deterministic.

        ``stop_fn`` is polled at each generation boundary, *after* that
        boundary's checkpoint has landed; a non-``None`` reason (SIGTERM,
        wall-clock budget — see
        :class:`~repro.supervision.shutdown.ShutdownCoordinator`) raises
        :class:`~repro.errors.CampaignInterrupted`, leaving the freshly
        written checkpoint as the resume point.  The in-flight generation
        is therefore always *finished* before a graceful stop.
        """
        cfg = self.config
        if resume is not None:
            # The state dict names its own bit generator; rebuild the same
            # kind so the stream continues bit-exactly.
            bit_generator_name = resume.rng_state.get("bit_generator", "PCG64")
            rng = np.random.Generator(getattr(np.random, bit_generator_name)())
            rng.bit_generator.state = resume.rng_state
            population = list(resume.population)
            history = list(resume.history)
            best_genome = resume.best_genome
            best_fitness = resume.best_fitness
            stale = resume.stale
            start_generation = resume.generation
            if len(population) != cfg.population_size:
                raise SearchError(
                    f"snapshot population has {len(population)} genomes, "
                    f"config wants {cfg.population_size}"
                )
        else:
            rng = np.random.default_rng(cfg.seed)
            population = list(seeds or [])[: cfg.population_size]
            while len(population) < cfg.population_size:
                population.append(self._random_fn(rng))
            history = []
            with span("ga.init-population", population=len(population)):
                self._score_population(population)
            # Python max (not np.argmax): NaN fitness must never win
            # selection.
            best_genome = max(population, key=self._fitness)
            best_fitness = self._fitness(best_genome)
            stale = 0
            start_generation = 0
        stopped_early = False

        for generation in range(start_generation, cfg.generations):
            if checkpoint_fn is not None:
                checkpoint_fn(GaSnapshot(
                    generation=generation,
                    population=tuple(population),
                    rng_state=rng.bit_generator.state,
                    best_genome=best_genome,
                    best_fitness=best_fitness,
                    stale=stale,
                    history=tuple(history),
                    evaluations=self._evaluator.evaluations,
                ))
            if stop_fn is not None:
                reason = stop_fn()
                if reason:
                    raise CampaignInterrupted(reason, generation=generation)
            evals_before = self._evaluator.evaluations
            with span("ga.generation", generation=generation,
                      population=len(population)) as generation_span:
                scores = self._score_population(population)
                gen_best = max(scores)
                if gen_best > best_fitness + 1e-12:
                    best_fitness = gen_best
                    best_genome = population[int(np.argmax(scores))]
                    stale = 0
                else:
                    stale += 1
                stats = GenerationStats(
                    generation=generation,
                    best_fitness=best_fitness,
                    mean_fitness=float(np.mean(scores)),
                    evaluations_so_far=self._evaluator.evaluations,
                )
                history.append(stats)
                generation_span.set(
                    best_fitness=stats.best_fitness,
                    mean_fitness=stats.mean_fitness,
                    batch_new=stats.evaluations_so_far - evals_before,
                    evaluations_so_far=stats.evaluations_so_far,
                )
            if stale >= cfg.stagnation_patience:
                stopped_early = True
                break

            # Breed the next generation.
            elites = sorted(population, key=self._fitness, reverse=True)
            next_population: list[G] = elites[: cfg.elite_count]
            while len(next_population) < cfg.population_size:
                parent_a = self._tournament(population, rng)
                if rng.random() < cfg.crossover_rate:
                    parent_b = self._tournament(population, rng)
                    child = self._crossover_fn(parent_a, parent_b, rng)
                else:
                    child = parent_a
                child = self._mutate_fn(child, rng, cfg.mutation_rate)
                next_population.append(child)
            population = next_population

        return GaResult(
            best_genome=best_genome,
            best_fitness=best_fitness,
            history=tuple(history),
            evaluations=self._evaluator.evaluations,
            stopped_early=stopped_early,
        )
