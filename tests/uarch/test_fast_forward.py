"""Fast-forwarding a repeated machine state must change nothing.

``ModuleSimulator.run`` skips whole periods once the scheduler state at
thread 0's iteration starts repeats.  Every run here is compared with the
same run with the skip turned off (``_fast_forward`` patched to skip
nothing): every array byte-equal, every statistic equal.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.uarch.module as module
from repro.errors import SchedulingError
from repro.isa.instruction import make_independent
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import default_table
from repro.uarch.config import bulldozer_chip
from repro.uarch.module import ModuleSimulator
from repro.uarch.resources import PerCycleLimiter
from repro.workloads.stressmarks import CANNED_STRESSMARKS
from tests.uarch.simcases import (
    CHIPS,
    LAYOUTS,
    canned_kernel,
    chip_layouts,
    genome_case,
    programs,
)

TABLE = default_table()


def run_full(chip, progs, cap):
    """The run simulated cycle by cycle, with no period skipped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_fast_forward", lambda *args: 0)
        return ModuleSimulator(chip).run(progs, max_iterations=cap)


def assert_identical(fast, full):
    assert fast.energy_pj.tobytes() == full.energy_pj.tobytes()
    assert fast.sensitivity.tobytes() == full.sensitivity.tobytes()
    assert fast.iter_start_cycles == full.iter_start_cycles
    assert fast.cycles == full.cycles
    assert fast.stats == full.stats


def count_skips(monkeypatch):
    """Record the cycles each ``_fast_forward`` call skipped."""
    skips = []
    original = module._fast_forward

    def recording(*args):
        skipped = original(*args)
        skips.append(skipped)
        return skipped

    monkeypatch.setattr(module, "_fast_forward", recording)
    return skips


kernels = st.one_of(
    st.sampled_from(CANNED_STRESSMARKS),
    st.integers(0, 9_999).map(lambda seed: f"genome-{seed}"),
)


@settings(max_examples=40, deadline=None)
@given(chip_name=st.sampled_from(sorted(CHIPS)), kernel_name=kernels,
       layout=st.sampled_from(LAYOUTS), phase=st.integers(1, 48),
       cap=st.integers(1, 64))
def test_fast_forward_matches_full_simulation(chip_name, kernel_name, layout,
                                              phase, cap):
    chip = CHIPS[chip_name]()
    assume(layout in chip_layouts(chip))
    if kernel_name.startswith("genome-"):
        kernel, _ = genome_case(int(kernel_name.removeprefix("genome-")), chip)
    else:
        kernel = canned_kernel(kernel_name, chip)
        assume(kernel is not None)
    progs = programs(kernel, layout, phase)
    fast = ModuleSimulator(chip).run(progs, max_iterations=cap)
    assert_identical(fast, run_full(chip, progs, cap))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_steady_loops_are_fast_forwarded(monkeypatch, layout):
    chip = bulldozer_chip()
    skips = count_skips(monkeypatch)
    progs = programs(canned_kernel("a-res", chip), layout, 16)
    fast = ModuleSimulator(chip).run(progs, max_iterations=48)
    assert sum(skips) > fast.cycles // 2
    assert_identical(fast, run_full(chip, progs, 48))


def test_run_longer_than_cycle_cap_still_raises(monkeypatch):
    chip = bulldozer_chip()
    progs = programs(canned_kernel("a-res", chip), "1t", 0)
    full = run_full(chip, progs, 48)
    monkeypatch.setattr(module, "_MAX_CYCLES", full.cycles // 2)
    skips = count_skips(monkeypatch)
    with pytest.raises(SchedulingError, match="cycle cap"):
        ModuleSimulator(chip).run(progs, max_iterations=48)
    assert sum(skips) > 0


def test_fp_throttle_counts_are_pruned(monkeypatch):
    sizes = []

    class Recording(PerCycleLimiter):
        def try_take(self, cycle):
            taken = super().try_take(cycle)
            sizes.append(len(self._counts))
            return taken

    monkeypatch.setattr(module, "PerCycleLimiter", Recording)
    kernel = build_kernel(make_independent(TABLE.get("mulpd"), 8),
                          replications=1, lp_nops=4, nop_spec=TABLE.nop)
    chip = bulldozer_chip().with_fp_throttle(1)
    trace = run_full(chip, [ThreadProgram(kernel, 100)], 48)
    assert trace.stats.issues_by_unit["fpu"] == 8 * 48
    assert sizes and max(sizes) <= 4  # cycles c-2 .. c+1
