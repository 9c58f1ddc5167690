"""Unit tests for the staged measurement pipeline's building blocks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.experiments.setup import bulldozer_chip, bulldozer_pdn
from repro.isa import (
    RegisterAllocator,
    ThreadProgram,
    build_kernel,
    default_table,
    make_instruction,
)
from repro.pipeline import (
    ActivityProfile,
    ActivityStage,
    CompiledProgram,
    CompileStage,
    MeasurementPipeline,
    MeasureRequest,
    PdnResponse,
    PipelineCounters,
    StageCache,
    artifact_key,
)

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
        counters = PipelineCounters()
        stage = ActivityStage(chip, 48, counters)
        compiled = CompileStage(chip).run(
            MeasureRequest(program=resonant_program(), threads=4))
        stage.run(compiled)
        assert counters.profile_cache_hits == 0
        stage.run(compiled)
        assert counters.profile_cache_hits == 1

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
