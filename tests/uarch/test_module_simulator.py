"""Tests for the cycle-level module simulator.

These encode the microarchitectural behaviours the paper's analysis depends
on: NOPs are front-end-only, FPU sharing stretches co-scheduled loops, the
FPU throttle limits FP issue, and dependence chains serialise.
"""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.isa.instruction import make_instruction, nop
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import default_table
from repro.isa.registers import RegisterAllocator
from repro.uarch.config import bulldozer_chip, phenom_chip
from repro.uarch.module import ModuleSimulator

TABLE = default_table()


def independent_ops(mnemonic, count):
    """Ops with shared never-written sources and rotating dests: zero RAW.

    The round-robin allocator can create accidental cross-instruction RAW
    chains via register reuse (a real hazard the GA navigates); these tests
    isolate unit-pool behaviour, so they need genuinely independent ops.
    """
    from repro.isa.registers import Register, RegClass

    spec = TABLE.get(mnemonic)
    if spec.operand_class is RegClass.XMM:
        srcs = tuple(Register(f"xmm{15 - i}", RegClass.XMM)
                     for i in range(spec.num_sources))
        dests = [Register(f"xmm{i % 12}", RegClass.XMM) for i in range(count)]
    else:
        from repro.isa.registers import GPRS

        srcs = tuple(GPRS[-(i + 1)] for i in range(spec.num_sources))
        dests = [GPRS[i % (len(GPRS) - spec.num_sources)] for i in range(count)]
    from repro.isa.instruction import Instruction

    return tuple(
        Instruction(spec=spec, dest=d if spec.has_dest else None, sources=srcs)
        for d in dests
    )


def subblock(mnemonics, dependent=False):
    alloc = RegisterAllocator()
    return tuple(
        make_instruction(TABLE.get(m), alloc, dependent=dependent) for m in mnemonics
    )


def kernel_of(mnemonics, lp_nops=8, replications=1, name="k"):
    return build_kernel(
        subblock(mnemonics), replications=replications, lp_nops=lp_nops,
        nop_spec=TABLE.nop, name=name,
    )


def run_single(kernel, iters=40, chip=None):
    sim = ModuleSimulator(chip or bulldozer_chip())
    return sim.run([ThreadProgram(kernel, 10_000)], max_iterations=iters)


class TestBasicExecution:
    def test_energy_trace_is_nonnegative_and_active(self):
        trace = run_single(kernel_of(["mulpd", "add", "load"]))
        assert np.all(trace.energy_pj >= 0)
        assert trace.energy_pj.max() > 0

    def test_iteration_starts_recorded(self):
        trace = run_single(kernel_of(["add"]), iters=10)
        assert len(trace.iter_start_cycles[0]) == 10

    def test_steady_period_reached(self):
        trace = run_single(kernel_of(["mulpd", "add", "nop", "load"]))
        assert trace.steady_period() is not None

    def test_periodic_profile_verified_repeating(self):
        trace = run_single(kernel_of(["mulpd", "add"]))
        profile = trace.periodic_profile()
        assert profile is not None
        energy, sens, period = profile
        assert len(energy) == period
        assert len(sens) == period
        assert period > 0

    def test_nop_only_kernel_runs_at_decode_width(self):
        # 16 NOPs + loop close through a 4-wide decoder: >= 4 cycles/iter.
        from repro.isa.kernels import LoopKernel, nop_region

        kernel = LoopKernel(hp=(), lp=nop_region(TABLE.nop, 16))
        trace = run_single(kernel)
        period = trace.steady_period()
        assert period is not None
        assert 4 <= period <= 6

    def test_thread_count_validation(self):
        sim = ModuleSimulator(bulldozer_chip())
        prog = ThreadProgram(kernel_of(["add"]), 10)
        with pytest.raises(SchedulingError):
            sim.run([])
        with pytest.raises(SchedulingError):
            sim.run([prog, prog, prog])

    def test_an_op_without_a_unit_pool_fails_when_it_issues(self):
        from repro.isa.instruction import Instruction
        from repro.isa.kernels import LoopKernel
        from repro.isa.opcodes import IClass, OpcodeSpec, Unit

        stray = OpcodeSpec(mnemonic="stray", iclass=IClass.BRANCH, unit=Unit.NONE,
                           latency=1, issue_interval=1, energy_pj=10.0,
                           num_sources=0, has_dest=False, operand_class=None)
        kernel = LoopKernel(hp=(Instruction(spec=stray),), lp=())
        with pytest.raises(SchedulingError, match="no unit pool for <Unit.NONE: 'none'>"):
            run_single(kernel)

    def test_max_iterations_caps_work(self):
        trace = run_single(kernel_of(["add"]), iters=5)
        assert len(trace.iter_start_cycles[0]) == 5


class TestStructuralHazards:
    def test_alu_pool_limits_int_throughput(self):
        # 24 independent ADDs on 2 ALUs need >= 12 cycles/iteration.
        trace = run_single(kernel_of(["add"] * 24, lp_nops=0))
        assert trace.steady_period() >= 12

    def test_nops_cheaper_than_adds_in_loop_length(self):
        """Paper Section V.A.5: replacing NOPs with ADDs stretches the loop."""
        mixed = ["add" if i % 2 == 0 else "nop" for i in range(24)]
        all_adds = ["add"] * 24
        period_mixed = run_single(kernel_of(mixed, lp_nops=0)).steady_period()
        period_adds = run_single(kernel_of(all_adds, lp_nops=0)).steady_period()
        assert period_adds > period_mixed

    def test_fp_pipe_pool_limits_fp_throughput(self):
        # 16 independent FP adds on 2 shared FMAC pipes need >= 8 cycles.
        kernel = build_kernel(independent_ops("addpd", 16), replications=1,
                              lp_nops=0, nop_spec=TABLE.nop)
        assert run_single(kernel, iters=60).steady_period() >= 8

    def test_simd_int_uses_separate_pipes_from_fp_arith(self):
        # 8 FP-arith + 8 SIMD-int split over both pools beat 16 FP-arith.
        mixed = build_kernel(
            independent_ops("mulpd", 8) + independent_ops("paddd", 8),
            replications=1, lp_nops=0, nop_spec=TABLE.nop,
        )
        arith_only = build_kernel(independent_ops("mulpd", 16), replications=1,
                                  lp_nops=0, nop_spec=TABLE.nop)
        assert (run_single(mixed, iters=60).steady_period()
                < run_single(arith_only, iters=60).steady_period())

    def test_divider_blocks_its_unit(self):
        fast_kernel = build_kernel(independent_ops("mulpd", 4), replications=1,
                                   lp_nops=0, nop_spec=TABLE.nop)
        slow_kernel = build_kernel(independent_ops("divpd", 4), replications=1,
                                   lp_nops=0, nop_spec=TABLE.nop)
        fast = run_single(fast_kernel, iters=60).steady_period()
        slow = run_single(slow_kernel, iters=60).steady_period()
        assert slow > 2 * fast

    def test_loop_carried_chain_serialises(self):
        from repro.isa.instruction import make_chain

        chain = make_chain(TABLE.get("mulpd"), 6)
        independent = subblock(["mulpd"] * 6)
        k_chain = build_kernel(chain, replications=1, lp_nops=0, nop_spec=TABLE.nop)
        k_indep = build_kernel(independent, replications=1, lp_nops=0,
                               nop_spec=TABLE.nop)
        p_chain = run_single(k_chain).steady_period()
        p_indep = run_single(k_indep).steady_period()
        # Chain: 6 ops x 5-cycle latency serialised across iterations too;
        # independent: pipelined at 2 FMAC pipes.
        assert p_chain > 3 * p_indep
        assert p_chain >= 30


class TestSharedResources:
    def test_two_fp_threads_interfere(self):
        """Paper Section V.A.2: the shared FPU stretches co-resident loops."""
        kernel = kernel_of(["vfmaddpd", "mulpd", "addpd", "mulpd"], lp_nops=4)
        prog = ThreadProgram(kernel, 10_000)
        sim = ModuleSimulator(bulldozer_chip())
        solo = sim.run([prog], max_iterations=40).steady_period()
        pair = sim.run([prog, prog], max_iterations=40).steady_period()
        assert pair > 1.5 * solo

    def test_int_threads_interfere_less_than_fp(self):
        # Integer clusters are dedicated: an ALU-bound integer loop barely
        # stretches when co-scheduled, an FP-bound loop doubles.
        int_kernel = kernel_of(["add"] * 8, lp_nops=0)
        fp_kernel = kernel_of(["mulpd", "addpd"] * 4, lp_nops=0)
        sim = ModuleSimulator(bulldozer_chip())

        def stretch(kernel):
            prog = ThreadProgram(kernel, 10_000)
            solo = sim.run([prog], max_iterations=60).steady_period()
            pair = sim.run([prog, prog], max_iterations=60).steady_period()
            return pair / solo

        assert stretch(fp_kernel) > stretch(int_kernel)

    def test_fp_throttle_slows_fp_loops(self):
        kernel = build_kernel(independent_ops("mulpd", 8), replications=1,
                              lp_nops=0, nop_spec=TABLE.nop)
        prog = ThreadProgram(kernel, 10_000)
        free = ModuleSimulator(bulldozer_chip())
        throttled = ModuleSimulator(bulldozer_chip().with_fp_throttle(1))
        p_free = free.run([prog], max_iterations=60).steady_period()
        p_throttled = throttled.run([prog], max_iterations=60).steady_period()
        assert p_throttled >= 2 * p_free
        assert p_throttled > p_free

    def test_fp_throttle_does_not_slow_integer_loops(self):
        kernel = kernel_of(["add", "xor", "sub"], lp_nops=2)
        prog = ThreadProgram(kernel, 10_000)
        p_free = ModuleSimulator(bulldozer_chip()).run(
            [prog], max_iterations=40).steady_period()
        p_thr = ModuleSimulator(bulldozer_chip().with_fp_throttle(1)).run(
            [prog], max_iterations=40).steady_period()
        assert p_thr == p_free


class TestPhaseAndSensitivity:
    def test_phase_cycles_delays_thread_start(self):
        kernel = kernel_of(["add"])
        sim = ModuleSimulator(bulldozer_chip())
        base = sim.run([ThreadProgram(kernel, 10)], max_iterations=10)
        shifted = sim.run([ThreadProgram(kernel, 10, phase_cycles=7)],
                          max_iterations=10)
        assert shifted.iter_start_cycles[0][0] == base.iter_start_cycles[0][0] + 7

    def test_sensitive_ops_mark_sensitivity_trace(self):
        plain = run_single(kernel_of(["add"] * 4, lp_nops=0))
        sensitive = run_single(kernel_of(["imul"] * 4, lp_nops=0))
        assert sensitive.sensitivity.max() > plain.sensitivity.max()
        assert plain.sensitivity.max() == pytest.approx(1.0)

    def test_sensitivity_survives_the_trace_buffer_boundary(self):
        # 100 iterations of a 3-deep idiv chain start with 4800-cycle
        # buffers and run 5383 cycles; the divide issued just before
        # cycle 4800 must mark its cycles past it, as in a 200-iteration
        # run, whose buffers start twice as long.
        kernel = build_kernel(subblock(["idiv"] * 3, dependent=True),
                              replications=1, lp_nops=0, nop_spec=TABLE.nop)
        short = run_single(kernel, iters=100)
        long = run_single(kernel, iters=200)
        assert short.cycles > 4800
        assert short.sensitivity[4800:4806].min() > 1.0
        np.testing.assert_array_equal(short.sensitivity[:5200],
                                      long.sensitivity[:5200])

    def test_extension_check_rejects_fma_on_phenom(self):
        kernel = kernel_of(["vfmaddpd"])
        sim = ModuleSimulator(phenom_chip())
        with pytest.raises(SchedulingError):
            sim.run([ThreadProgram(kernel, 10)])

    def test_phenom_runs_sse2_code(self):
        kernel = kernel_of(["mulpd", "add"])
        trace = run_single(kernel, chip=phenom_chip())
        assert trace.energy_pj.max() > 0
