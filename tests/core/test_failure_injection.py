"""Failure-injection tests: the search stack must fail loudly and cleanly."""

from dataclasses import replace

import pytest

from repro.core.audit import AuditRunner
from repro.core.ga import GaConfig, GeneticAlgorithm
from repro.core.genome import GenomeSpace, StressmarkGenome
from repro.core.platform import MeasurementPlatform
from repro.errors import ConfigurationError, IsaError, ReproError, SearchError
from repro.isa.opcodes import OpcodeTable, default_table
from repro.pdn.elements import bulldozer_pdn
from repro.pdn.transient import shared_solver
from repro.uarch.config import bulldozer_chip

TABLE = default_table()


def make_space():
    return GenomeSpace(table=TABLE, slots=4, replications=1,
                       lp_nops_min=0, lp_nops_max=8)


class TestGaErrorPropagation:
    def make_ga(self, fitness):
        space = make_space()
        return GeneticAlgorithm(
            random_fn=space.random_genome,
            mutate_fn=lambda g, rng, rate: space.mutate(g, rng, rate=rate),
            crossover_fn=space.crossover,
            fitness_fn=fitness,
            config=GaConfig(population_size=4, generations=2),
        )

    def test_fitness_exception_propagates_unwrapped(self):
        class BoomError(RuntimeError):
            pass

        def explode(_genome):
            raise BoomError("measurement rig on fire")

        with pytest.raises(BoomError):
            self.make_ga(explode).run()

    def test_nan_fitness_does_not_crash_selection(self):
        calls = {"n": 0}

        def sometimes_nan(genome):
            calls["n"] += 1
            return float("nan") if calls["n"] % 3 == 0 else 1.0

        result = self.make_ga(sometimes_nan).run()
        # NaNs never become the best (comparisons with NaN are False).
        assert result.best_fitness == 1.0

    def test_mutation_exception_propagates(self):
        space = make_space()

        def bad_mutate(_g, _rng, _rate):
            raise SearchError("mutation table corrupted")

        ga = GeneticAlgorithm(
            random_fn=space.random_genome,
            mutate_fn=bad_mutate,
            crossover_fn=space.crossover,
            fitness_fn=lambda g: 1.0,
            config=GaConfig(population_size=4, generations=2),
        )
        with pytest.raises(SearchError):
            ga.run()


class TestAuditRunnerGuards:
    def test_empty_opcode_pool_rejected(self):
        chip = bulldozer_chip()
        platform = MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))
        # A table whose every opcode needs an unsupported extension.
        exotic = TABLE.subset(["vfmaddpd", "vfmaddps"])
        hypothetical = OpcodeTable(tuple(exotic))
        with pytest.raises((IsaError, SearchError)):
            AuditRunner(
                MeasurementPlatform(
                    chip.with_vdd(chip.vdd),
                    bulldozer_pdn(vdd=chip.vdd),
                ),
                table=OpcodeTable(tuple(
                    s for s in hypothetical if "fma9" not in s.extensions
                )).supported_on({"sse"}),
            )

    def test_thread_overcommit_rejected_at_measure_time(self):
        chip = bulldozer_chip()
        platform = MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))
        from repro.core.resonance import probe_program

        program = probe_program(TABLE, hp_count=4, lp_nops=4)
        with pytest.raises(ReproError):
            platform.measure_program(program, chip.total_threads + 1)

    def test_genome_from_wrong_space_rejected_by_codegen(self):
        from repro.core.codegen import genome_to_kernel

        space = make_space()
        foreign = StressmarkGenome(subblock=("add",) * 9, lp_nops=0)
        with pytest.raises(SearchError):
            genome_to_kernel(foreign, space)


class TestPlatformGuards:
    def test_negative_supply_rejected(self):
        chip = bulldozer_chip()
        platform = MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))
        from repro.core.resonance import probe_program

        program = probe_program(TABLE, hp_count=4, lp_nops=4)
        with pytest.raises(ConfigurationError):
            platform.measure_program(program, 1, supply_v=-1.0)

    def test_one_solver_per_network(self):
        """Every supply on a network shares one solver; a changed R, L, C,
        ESR or load line discretises its own."""
        chip = bulldozer_chip()
        dt = chip.cycle_time_s
        params = bulldozer_pdn(vdd=chip.vdd)
        solver = MeasurementPlatform(chip, params).pipeline.pdn_stage.solver
        for vdd in (1.0, 1.1, 1.2, 1.3):
            assert shared_solver(replace(params, vdd_nominal=vdd), dt) is solver
            other = MeasurementPlatform(chip.with_vdd(vdd), bulldozer_pdn(vdd=vdd))
            assert other.pipeline.pdn_stage.solver is solver
        variants = [replace(params, load_line_ohm=1e-3)]
        for stage_name in ("board", "package", "die"):
            stage = getattr(params, stage_name)
            for field in ("resistance_ohm", "inductance_h", "capacitance_f", "esr_ohm"):
                scaled = replace(stage, **{field: getattr(stage, field) * 1.1})
                variants.append(replace(params, **{stage_name: scaled}))
        solvers = [shared_solver(variant, dt) for variant in variants]
        assert len({id(s) for s in [solver, *solvers]}) == len(variants) + 1
        for variant, built in zip(variants, solvers):
            assert built.network.params.die == variant.die
            assert built.network.params.load_line_ohm == variant.load_line_ohm
