"""Tests for machine configuration, caches, and resource trackers."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.uarch.caches import CacheHierarchy, CacheLevel, CacheLevelSpec
from repro.uarch.config import (
    ChipConfig,
    CoreConfig,
    ModuleConfig,
    bulldozer_chip,
    phenom_chip,
)
from repro.uarch.resources import PerCycleLimiter, TokenPool, UnitPool


class TestConfigs:
    def test_bulldozer_preset_matches_paper(self):
        chip = bulldozer_chip()
        assert chip.module_count == 4
        assert chip.module.threads == 2
        assert chip.total_threads == 8
        assert "fma4" in chip.extensions

    def test_phenom_preset_matches_paper(self):
        chip = phenom_chip()
        assert chip.module.threads == 1          # no multi-threading
        assert chip.total_threads == 4
        assert "fma4" not in chip.extensions
        # Less aggressive power management -> weaker clock gating.
        assert (chip.power.clock_gating_efficiency
                < bulldozer_chip().power.clock_gating_efficiency)

    def test_core_config_validation(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(int_alu_count=0)

    def test_module_thread_limit(self):
        with pytest.raises(ConfigurationError):
            ModuleConfig(threads=3)

    def test_fp_throttle_validation(self):
        with pytest.raises(ConfigurationError):
            ModuleConfig(fp_arith_pipes=2, fp_simd_pipes=2, fp_throttle=5)
        with pytest.raises(ConfigurationError):
            ModuleConfig(fp_throttle=0)

    def test_fp_pipe_count_sums_pools(self):
        assert ModuleConfig(fp_arith_pipes=2, fp_simd_pipes=2).fp_pipe_count == 4

    def test_with_fp_throttle_round_trip(self):
        chip = bulldozer_chip().with_fp_throttle(2)
        assert chip.module.fp_throttle == 2
        assert chip.with_fp_throttle(None).module.fp_throttle is None
        # Original untouched (frozen dataclasses).
        assert bulldozer_chip().module.fp_throttle is None

    def test_with_vdd(self):
        chip = bulldozer_chip().with_vdd(1.1)
        assert chip.vdd == pytest.approx(1.1)
        assert chip.frequency_hz == bulldozer_chip().frequency_hz

    def test_chip_validation(self):
        base = bulldozer_chip()
        with pytest.raises(ConfigurationError):
            ChipConfig(name="x", module=base.module, module_count=0,
                       frequency_hz=3e9, vdd=1.2, power=base.power,
                       extensions=frozenset())

    def test_cycle_time(self):
        assert bulldozer_chip().cycle_time_s == pytest.approx(1 / 3.2e9)


class TestCaches:
    def test_latencies_increase_down_the_hierarchy(self):
        caches = CacheHierarchy()
        lat = [caches.load_latency(level) for level in
               (CacheLevel.L1, CacheLevel.L2, CacheLevel.L3, CacheLevel.MEMORY)]
        assert lat == sorted(lat)
        assert lat[0] < lat[-1]

    def test_energies_increase_down_the_hierarchy(self):
        caches = CacheHierarchy()
        e = [caches.access_energy(level) for level in
             (CacheLevel.L1, CacheLevel.L2, CacheLevel.L3, CacheLevel.MEMORY)]
        assert e == sorted(e)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CacheLevelSpec(0, 10.0)
        with pytest.raises(ConfigurationError):
            CacheLevelSpec(4, -1.0)


class TestTokenPool:
    def test_acquire_until_exhausted(self):
        pool = TokenPool(2)
        assert pool.try_acquire()
        assert pool.try_acquire()
        assert not pool.try_acquire()
        assert pool.available == 0

    def test_release_at_future_cycle(self):
        pool = TokenPool(1)
        assert pool.try_acquire()
        pool.release_at(5)
        pool.advance_to(4)
        assert not pool.try_acquire()
        pool.advance_to(5)
        assert pool.try_acquire()

    def test_over_release_detected(self):
        pool = TokenPool(1)
        pool.release_at(1)
        pool.release_at(2)
        with pytest.raises(SchedulingError):
            pool.advance_to(3)

    def test_capacity_validation(self):
        with pytest.raises(SchedulingError):
            TokenPool(0)


class TestUnitPool:
    def test_pipes_block_while_busy(self):
        pool = UnitPool(1)
        assert pool.try_issue(0, occupy_cycles=3)
        assert not pool.try_issue(1, occupy_cycles=1)
        assert pool.try_issue(3, occupy_cycles=1)

    def test_multiple_pipes(self):
        pool = UnitPool(2)
        assert pool.try_issue(0, 1)
        assert pool.try_issue(0, 1)
        assert not pool.try_issue(0, 1)
        assert not pool.any_free(0)
        # Both pipes are idle again one cycle on.
        assert pool.any_free(1)
        assert pool.try_issue(1, 1)
        assert pool.try_issue(1, 1)

    def test_any_free_sees_one_idle_pipe_beside_a_busy_one(self):
        pool = UnitPool(2)
        assert pool.try_issue(0, occupy_cycles=4)
        assert pool.any_free(0)
        assert pool.try_issue(0, 1)
        assert not pool.any_free(0)
        assert pool.any_free(1)

    def test_validation(self):
        with pytest.raises(SchedulingError):
            UnitPool(0)
        with pytest.raises(SchedulingError):
            UnitPool(1).try_issue(0, 0)


class TestPerCycleLimiter:
    def test_limits_per_cycle_independently(self):
        lim = PerCycleLimiter(2)
        assert lim.try_take(0)
        assert lim.try_take(0)
        assert not lim.try_take(0)
        assert lim.try_take(1)

    def test_used_counts(self):
        lim = PerCycleLimiter(3)
        lim.try_take(7)
        lim.try_take(7)
        assert lim.used(7) == 2
        assert lim.used(8) == 0

    def test_forget_before_bounds_memory(self):
        lim = PerCycleLimiter(1)
        for c in range(10):
            lim.try_take(c)
        lim.forget_before(8)
        assert lim.used(5) == 0
        assert lim.used(9) == 1

    def test_validation(self):
        with pytest.raises(SchedulingError):
            PerCycleLimiter(0)
