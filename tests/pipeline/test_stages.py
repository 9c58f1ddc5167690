"""Unit tests for the staged measurement pipeline's building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MeasurementError
from repro.experiments.setup import bulldozer_chip, bulldozer_pdn
from repro.isa.instruction import make_instruction
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import default_table
from repro.isa.registers import RegisterAllocator
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.artifacts import (
    ActivityProfile,
    CompiledProgram,
    MeasureRequest,
    ModuleActivity,
    PdnResponse,
    artifact_key,
)
from repro.pipeline.cache import StageCache
from repro.pipeline.pipeline import MeasurementPipeline
from repro.pipeline.stages import ActivityStage, CompileStage

TABLE = default_table()


def resonant_program():
    from repro.core.resonance import probe_program

    return probe_program(TABLE, hp_count=32, lp_nops=95)


def divider_program():
    # divpd's 20-cycle unit occupancy yields long non-repeating activity
    # patterns, so the profile never verifies as periodic.
    alloc = RegisterAllocator()
    sub = tuple(make_instruction(TABLE.get(m), alloc)
                for m in ("divpd", "mulpd", "divpd", "add"))
    kernel = build_kernel(sub, replications=3, lp_nops=17, nop_spec=TABLE.nop)
    return ThreadProgram(kernel, 4096)


@pytest.fixture(scope="module")
def pipeline():
    chip = bulldozer_chip()
    return MeasurementPipeline(chip, bulldozer_pdn(vdd=chip.vdd))


class TestArtifactKey:
    def test_deterministic(self):
        assert artifact_key("a", 1, 2.5) == artifact_key("a", 1, 2.5)

    def test_sensitive_to_every_part(self):
        base = artifact_key("a", 1)
        assert artifact_key("a", 2) != base
        assert artifact_key("b", 1) != base
        assert artifact_key("a", 1, None) != base

    def test_short_hex(self):
        key = artifact_key("anything")
        assert len(key) == 16
        int(key, 16)  # must be hex


class TestStageCache:
    def test_hit_and_miss_counters(self):
        cache = StageCache("test")
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = StageCache("test", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now least-recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2


class TestCompileStage:
    def test_produces_typed_artifact_with_key(self, pipeline):
        request = MeasureRequest(program=resonant_program(), threads=4)
        compiled = pipeline.compile.run(request)
        assert isinstance(compiled, CompiledProgram)
        assert compiled.threads == 4
        assert len(compiled.key) == 16

    def test_memoised_per_program(self, pipeline):
        request = MeasureRequest(program=resonant_program(), threads=4)
        first = pipeline.compile.run(request)
        second = pipeline.compile.run(request)
        assert second is first  # the repr-hash runs once per program

    def test_key_depends_on_threads(self, pipeline):
        program = resonant_program()
        one = pipeline.compile.run(MeasureRequest(program=program, threads=1))
        four = pipeline.compile.run(MeasureRequest(program=program, threads=4))
        assert one.key != four.key


class TestActivityStage:
    def test_periodic_profile(self, pipeline):
        compiled = pipeline.compile.run(
            MeasureRequest(program=resonant_program(), threads=4))
        profile = pipeline.activity.run(compiled)
        assert isinstance(profile, ActivityProfile)
        assert profile.path == "periodic"
        assert profile.period_cycles is not None
        assert profile.fallback_reason == ""

    def test_profile_cache_counts_hits(self):
        chip = bulldozer_chip()
        metrics = MetricsRegistry()
        stage = ActivityStage(chip, 48, metrics)
        compiled = CompileStage(chip).run(
            MeasureRequest(program=resonant_program(), threads=4))
        stage.run(compiled)
        assert metrics.counter("pipeline.profile_cache_hits") == 0
        stage.run(compiled)
        assert metrics.counter("pipeline.profile_cache_hits") == 1

    def test_transient_fallback_names_the_reason(self):
        # With the minimum warmup budget the div-heavy kernel cannot
        # verify a steady period, so the stage must fall back and say why.
        chip = bulldozer_chip()
        tight = MeasurementPipeline(
            chip, bulldozer_pdn(vdd=chip.vdd), warmup_iterations=8)
        compiled = tight.compile.run(
            MeasureRequest(program=divider_program(), threads=4))
        profile = tight.activity.run(compiled)
        assert profile.path == "transient"
        assert "periodic" in profile.fallback_reason
        assert "8 iterations" in profile.fallback_reason


class TestPdnStage:
    def test_response_artifact(self, pipeline):
        compiled = pipeline.compile.run(
            MeasureRequest(program=resonant_program(), threads=4))
        profile = pipeline.activity.run(compiled)
        phases = (0,) * pipeline.chip.module_count
        response = pipeline.pdn_stage.run(
            profile, phases=phases, supply=pipeline.chip.vdd)
        assert isinstance(response, PdnResponse)
        assert not response.batched
        assert response.supply_v == pipeline.chip.vdd
        assert np.min(response.voltage.samples) < pipeline.chip.vdd

    def test_response_cache_hit_on_repeat(self, pipeline):
        compiled = pipeline.compile.run(
            MeasureRequest(program=resonant_program(), threads=4))
        profile = pipeline.activity.run(compiled)
        phases = (0,) * pipeline.chip.module_count
        hits = pipeline.pdn_stage.cache.hits
        first = pipeline.pdn_stage.run(
            profile, phases=phases, supply=1.17)
        second = pipeline.pdn_stage.run(
            profile, phases=phases, supply=1.17)
        assert pipeline.pdn_stage.cache.hits == hits + 1
        assert second.voltage.max_droop_v == first.voltage.max_droop_v

    @given(rows=st.lists(
        st.tuples(st.tuples(*[st.integers(-80, 200)] * 4),
                  st.floats(0.9, 1.4, allow_nan=False)),
        min_size=1, max_size=6,
    ), threads=st.sampled_from((1, 2, 4)))
    @settings(max_examples=25, deadline=None)
    def test_periodic_rows_match_the_per_row_roll_loop(self, pipeline, rows, threads):
        """The matrix assembly reproduces the one-row np.roll loop exactly."""
        stage = pipeline.pdn_stage
        profile = pipeline.activity.run(pipeline.compile.run(
            MeasureRequest(program=resonant_program(), threads=threads)))
        items = [(profile, phases, supply) for phases, supply in rows]
        currents, sensitivities = stage.periodic_rows(items)
        for (_profile, phases, supply), current, sens in zip(
                items, currents, sensitivities):
            active = [(m, phases[i]) for i, m in enumerate(profile.modules)
                      if m is not None]
            idle = pipeline.chip.module_count - len(active)
            want_current = np.full(profile.period_cycles,
                                   idle * stage.idle_module_current())
            want_sens = np.zeros(profile.period_cycles)
            for module, phase in active:
                energy, module_sens, _p = module.profile
                want_current += np.roll(stage.current_from_energy(
                    energy, active_threads=module.count, supply_v=supply), phase)
                np.maximum(want_sens, np.roll(module_sens, phase), out=want_sens)
            assert np.array_equal(current, want_current)
            assert np.array_equal(sens, want_sens)

    @given(data=st.data(), period=st.integers(1, 97))
    @settings(max_examples=30, deadline=None)
    def test_jittered_rows_match_the_per_repetition_roll(self, pipeline, data, period):
        """The gathered SMT rows equal np.roll per repetition, concatenated."""
        stage = pipeline.pdn_stage
        levels = st.floats(0.0, 50.0, allow_nan=False)
        modules = []
        for _ in range(pipeline.chip.module_count):
            if data.draw(st.booleans()):
                modules.append(None)
                continue
            energy = np.array(data.draw(st.lists(levels, min_size=period, max_size=period)))
            sens = np.array(data.draw(st.lists(levels, min_size=period, max_size=period)))
            modules.append(ModuleActivity(
                trace=None, profile=(energy, sens, period),
                count=data.draw(st.sampled_from((1, 2))),
            ))
        profile = ActivityProfile(
            modules=tuple(modules), period_cycles=period, iteration_cycles=None,
            smt=True, path="jittered", fallback_reason="", key="",
        )
        phases = data.draw(st.tuples(*[st.integers(-300, 300)] * len(modules)))
        supply = data.draw(st.floats(0.9, 1.4, allow_nan=False))
        current, sens, mean = stage.jittered_rows(profile, phases, supply)

        reps = stage.JITTER_REPETITIONS
        active = [(m, phases[i]) for i, m in enumerate(modules) if m is not None]
        want_current = np.full(reps * period, (len(modules) - len(active))
                               * stage.idle_module_current())
        want_sens = np.zeros(reps * period)
        rng = np.random.default_rng(stage.jitter_seed)
        for module, phase in active:
            energy, module_sens, _p = module.profile
            row = stage.current_from_energy(
                energy, active_threads=module.count, supply_v=supply)
            steps = rng.integers(-stage.jitter_step_cycles,
                                 stage.jitter_step_cycles + 1, size=reps)
            offsets = phase + np.cumsum(steps)
            want_current += np.concatenate([np.roll(row, int(k)) for k in offsets])
            np.maximum(want_sens, np.concatenate(
                [np.roll(module_sens, int(k)) for k in offsets]), out=want_sens)
        assert np.array_equal(current, want_current)
        assert np.array_equal(sens, want_sens)
        assert mean == float(want_current.mean())


class TestPipelineValidation:
    def test_vdd_mismatch_rejected(self):
        chip = bulldozer_chip()
        with pytest.raises(ConfigurationError):
            MeasurementPipeline(chip, bulldozer_pdn(vdd=chip.vdd + 0.1))

    def test_phase_vector_length_checked(self, pipeline):
        with pytest.raises(MeasurementError):
            pipeline.measure([MeasureRequest(
                program=resonant_program(), threads=4, module_phases=(1, 2))])

    def test_nonpositive_supply_rejected(self, pipeline):
        with pytest.raises(ConfigurationError):
            pipeline.measure([MeasureRequest(
                program=resonant_program(), threads=4, supply_v=-1.0)])
