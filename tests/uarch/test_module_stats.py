"""Tests for pipeline occupancy/stall statistics."""

import pytest

from repro.isa.instruction import make_independent
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import default_table
from repro.uarch.config import bulldozer_chip
from repro.uarch.module import ModuleSimulator

TABLE = default_table()


def run_kernel(mnemonic, count, lp_nops=8, iters=30, chip=None):
    kernel = build_kernel(
        make_independent(TABLE.get(mnemonic), count),
        replications=1, lp_nops=lp_nops, nop_spec=TABLE.nop,
    )
    sim = ModuleSimulator(chip or bulldozer_chip())
    return sim.run([ThreadProgram(kernel, 10_000)], max_iterations=iters)


class TestModuleStats:
    def test_stats_attached_to_every_run(self):
        trace = run_kernel("add", 4)
        assert trace.stats is not None
        assert trace.stats.decoded_instructions > 0

    def test_issue_counters_match_instruction_mix(self):
        trace = run_kernel("mulpd", 8, iters=20)
        stats = trace.stats
        # 8 mulpd (fpu) + 1 loop close (ialu) per iteration.
        assert stats.issues_by_unit["fpu"] == 8 * 20
        assert stats.issues_by_unit["ialu"] == 20
        assert "fsimd" not in stats.issues_by_unit

    def test_issue_share(self):
        trace = run_kernel("paddd", 9, iters=20)
        stats = trace.stats
        assert stats.issue_share("fsimd") == pytest.approx(0.9)
        assert stats.issue_share("agu") == 0.0

    def test_decoded_counts_include_nops(self):
        trace = run_kernel("add", 2, lp_nops=10, iters=10)
        # (2 adds + 10 nops + 1 close) per iteration.
        assert trace.stats.decoded_instructions == 13 * 10

    def test_retired_counts_exclude_nops(self):
        trace = run_kernel("add", 2, lp_nops=10, iters=10)
        assert trace.stats.retired_instructions == 3 * 10

    def test_window_stalls_appear_under_backpressure(self):
        # A divider-bound loop fills the window and stalls decode.
        trace = run_kernel("divpd", 12, lp_nops=0, iters=30)
        assert trace.stats.decode_stalls["window"] > 0

    def test_quiet_loop_has_no_stalls(self):
        trace = run_kernel("add", 2, lp_nops=16, iters=20)
        stalls = trace.stats.decode_stalls
        assert stalls["window"] == 0
        assert stalls["int_tokens"] == 0

    def test_token_stalls_for_register_hungry_loops(self):
        # More in-flight int dests than the 28-token PRF while a slow op
        # holds retirement.
        from repro.isa.kernels import LoopKernel, nop_region

        slow = make_independent(TABLE.get("divpd"), 2)
        adds = make_independent(TABLE.get("add"), 40)
        kernel = LoopKernel(hp=slow + adds, lp=nop_region(TABLE.nop, 8))
        sim = ModuleSimulator(bulldozer_chip())
        trace = sim.run([ThreadProgram(kernel, 10_000)], max_iterations=30)
        assert trace.stats.decode_stalls["int_tokens"] > 0
