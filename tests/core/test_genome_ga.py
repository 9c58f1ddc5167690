"""Tests for the stressmark genome space and the GA engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import genome_to_kernel, genome_to_program
from repro.core.engine import EvaluationEngine
from repro.core.ga import GaConfig, GeneticAlgorithm
from repro.core.genome import GenomeSpace, StressmarkGenome
from repro.errors import SearchError
from repro.isa.opcodes import default_table
from repro.supervision.executor import SupervisedExecutor

TABLE = default_table()


def space_of(slots=8, reps=2, lp=(0, 64)):
    return GenomeSpace(table=TABLE, slots=slots, replications=reps,
                       lp_nops_min=lp[0], lp_nops_max=lp[1])


class TestGenomeSpace:
    def test_random_genome_in_space(self):
        space = space_of()
        rng = np.random.default_rng(0)
        for _ in range(20):
            genome = space.random_genome(rng)
            space.validate(genome)  # must not raise

    def test_mutation_stays_in_space_and_changes_something(self):
        space = space_of()
        rng = np.random.default_rng(1)
        genome = space.random_genome(rng)
        mutants = [space.mutate(genome, rng, rate=0.5) for _ in range(10)]
        for m in mutants:
            space.validate(m)
        assert any(m != genome for m in mutants)

    def test_zero_rate_mutation_is_identity_on_slots(self):
        space = space_of()
        rng = np.random.default_rng(2)
        genome = space.random_genome(rng)
        assert space.mutate(genome, rng, rate=0.0) == genome

    def test_crossover_mixes_parents(self):
        space = space_of(slots=16)
        rng = np.random.default_rng(3)
        a = StressmarkGenome(subblock=("add",) * 16, lp_nops=0)
        b = StressmarkGenome(subblock=("mulpd",) * 16, lp_nops=64)
        child = space.crossover(a, b, rng)
        space.validate(child)
        counts = {m: child.subblock.count(m) for m in ("add", "mulpd")}
        assert counts["add"] > 0 and counts["mulpd"] > 0
        assert child.lp_nops in (0, 64)

    def test_validate_rejects_foreign_genomes(self):
        space = space_of(slots=4)
        with pytest.raises(SearchError):
            space.validate(StressmarkGenome(subblock=("add",) * 5, lp_nops=0))
        with pytest.raises(SearchError):
            space.validate(StressmarkGenome(subblock=("hcf",) * 4, lp_nops=0))
        with pytest.raises(SearchError):
            space.validate(StressmarkGenome(subblock=("add",) * 4, lp_nops=999))

    def test_genome_validation(self):
        with pytest.raises(SearchError):
            StressmarkGenome(subblock=(), lp_nops=0)
        with pytest.raises(SearchError):
            StressmarkGenome(subblock=("add",), lp_nops=-1)

    def test_genomes_are_hashable_value_objects(self):
        a = StressmarkGenome(subblock=("add", "mulpd"), lp_nops=4)
        b = StressmarkGenome(subblock=("add", "mulpd"), lp_nops=4)
        assert a == b
        assert hash(a) == hash(b)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_crossover_slots_come_from_parents(self, seed):
        space = space_of(slots=12)
        rng = np.random.default_rng(seed)
        a = space.random_genome(rng)
        b = space.random_genome(rng)
        child = space.crossover(a, b, rng)
        for i, slot in enumerate(child.subblock):
            assert slot in (a.subblock[i], b.subblock[i])


class TestCodegen:
    def test_kernel_shape_follows_genome(self):
        space = space_of(slots=6, reps=3, lp=(0, 64))
        genome = StressmarkGenome(subblock=("mulpd", "add", "nop") * 2, lp_nops=10)
        kernel = genome_to_kernel(genome, space, name="g")
        assert len(kernel.hp) == 18  # 6 slots x 3 replications
        assert len(kernel.lp) == 10
        assert kernel.name == "g"

    def test_subblock_replication_is_literal(self):
        space = space_of(slots=2, reps=4)
        genome = StressmarkGenome(subblock=("imul", "mulpd"), lp_nops=0)
        kernel = genome_to_kernel(genome, space)
        mnemonics = [i.spec.mnemonic for i in kernel.hp]
        assert mnemonics == ["imul", "mulpd"] * 4

    def test_program_iterations(self):
        space = space_of(slots=2)
        genome = StressmarkGenome(subblock=("add", "add"), lp_nops=0)
        prog = genome_to_program(genome, space, iterations=77)
        assert prog.iterations == 77
        with pytest.raises(SearchError):
            genome_to_program(genome, space, iterations=0)


def toy_fitness(genome: StressmarkGenome) -> float:
    """Module-level (hence picklable) copy of the toy fitness function."""
    return genome.subblock.count("mulpd") + 0.001 * genome.lp_nops


class FakeFitness:
    """Deterministic toy fitness: count of 'mulpd' slots plus lp bonus."""

    def __init__(self):
        self.calls = 0
        self.seen: list[StressmarkGenome] = []

    def __call__(self, genome: StressmarkGenome) -> float:
        self.calls += 1
        self.seen.append(genome)
        return toy_fitness(genome)


class TestGeneticAlgorithm:
    def make_ga(self, fitness, *, generations=15, seed=0, patience=50):
        space = space_of(slots=8, lp=(0, 64))
        return GeneticAlgorithm(
            random_fn=space.random_genome,
            mutate_fn=lambda g, rng, rate: space.mutate(g, rng, rate=rate),
            crossover_fn=space.crossover,
            fitness_fn=fitness,
            config=GaConfig(population_size=12, generations=generations,
                            seed=seed, stagnation_patience=patience),
        )

    def test_ga_improves_fitness(self):
        fitness = FakeFitness()
        result = self.make_ga(fitness, generations=50).run()
        assert result.best_fitness >= 6  # near-saturated mulpd count
        assert result.history[-1].best_fitness >= result.history[0].best_fitness

    def test_history_monotone_best(self):
        result = self.make_ga(FakeFitness()).run()
        bests = [h.best_fitness for h in result.history]
        assert bests == sorted(bests)

    def test_memoisation_avoids_reevaluating(self):
        fitness = FakeFitness()
        result = self.make_ga(fitness).run()
        assert fitness.calls == result.evaluations

    def test_fitness_never_called_twice_per_genome(self):
        fitness = FakeFitness()
        self.make_ga(fitness, generations=25).run()
        assert len(fitness.seen) == len(set(fitness.seen))

    def test_evaluations_counts_unique_genomes(self):
        fitness = FakeFitness()
        result = self.make_ga(fitness, generations=25).run()
        assert result.evaluations == len(set(fitness.seen))

    def test_engine_as_fitness_matches_plain_callable(self):
        plain = self.make_ga(FakeFitness(), seed=9).run()
        engine = EvaluationEngine(toy_fitness)
        via_engine = self.make_ga(engine, seed=9).run()
        assert via_engine.best_genome == plain.best_genome
        assert via_engine.best_fitness == plain.best_fitness
        assert via_engine.evaluations == plain.evaluations

    def test_serial_and_parallel_backends_agree(self):
        serial = self.make_ga(EvaluationEngine(toy_fitness), seed=3).run()
        with SupervisedExecutor(2) as pool:
            engine = EvaluationEngine(toy_fitness, executor=pool)
            parallel = self.make_ga(engine, seed=3).run()
        assert parallel.best_genome == serial.best_genome
        assert parallel.best_fitness == serial.best_fitness
        assert parallel.evaluations == serial.evaluations

    def test_seeded_runs_reproduce(self):
        a = self.make_ga(FakeFitness(), seed=5).run()
        b = self.make_ga(FakeFitness(), seed=5).run()
        assert a.best_genome == b.best_genome
        assert a.best_fitness == b.best_fitness

    def test_stagnation_stops_early(self):
        def constant(genome):
            return 1.0

        result = self.make_ga(constant, generations=100, patience=3).run()
        assert result.stopped_early
        assert len(result.history) <= 5

    def test_seeds_enter_population(self):
        elite = StressmarkGenome(subblock=("mulpd",) * 8, lp_nops=64)
        result = self.make_ga(FakeFitness(), generations=1).run(seeds=[elite])
        assert result.best_fitness == pytest.approx(8 + 0.064)

    def test_config_validation(self):
        with pytest.raises(SearchError):
            GaConfig(population_size=1)
        with pytest.raises(SearchError):
            GaConfig(tournament_size=1)
        with pytest.raises(SearchError):
            GaConfig(mutation_rate=2.0)
        with pytest.raises(SearchError):
            GaConfig(elite_count=24, population_size=24)
