"""Tests for the Joseph-Brooks baseline stressmark and cache-level memory ops."""

import pytest

from repro.core.platform import MeasurementPlatform
from repro.errors import IsaError
from repro.isa.instruction import Instruction, make_independent
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import default_table
from repro.isa.registers import GPRS
from repro.pdn.elements import bulldozer_pdn
from repro.uarch.config import bulldozer_chip
from repro.uarch.module import ModuleSimulator
from repro.workloads.stressmarks import a_res_canned, joseph_brooks, sm_res, stressmark_program

TABLE = default_table()


@pytest.fixture(scope="module")
def platform():
    chip = bulldozer_chip()
    return MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))


class TestMemoryLevels:
    def test_default_level_is_l1(self):
        inst = make_independent(TABLE.get("load"), 1)[0]
        assert inst.memory_level == "l1"

    def test_invalid_level_rejected(self):
        with pytest.raises(IsaError):
            Instruction(spec=TABLE.get("load"), dest=GPRS[0],
                        sources=(GPRS[1],), memory_level="l9")

    def test_deeper_hits_slow_the_loop(self):
        from dataclasses import replace

        sim = ModuleSimulator(bulldozer_chip())

        def period_for(level):
            loads = tuple(replace(i, memory_level=level)
                          for i in make_independent(TABLE.get("load"), 4))
            kernel = build_kernel(loads, replications=1, lp_nops=0,
                                  nop_spec=TABLE.nop)
            trace = sim.run([ThreadProgram(kernel, 10_000)], max_iterations=60)
            return trace.steady_period()

        assert period_for("memory") > period_for("l2") > period_for("l1")

    def test_deeper_hits_cost_more_energy(self):
        from dataclasses import replace

        sim = ModuleSimulator(bulldozer_chip())

        def energy_per_iter(level):
            loads = tuple(replace(i, memory_level=level)
                          for i in make_independent(TABLE.get("load"), 4))
            kernel = build_kernel(loads, replications=1, lp_nops=0,
                                  nop_spec=TABLE.nop)
            trace = sim.run([ThreadProgram(kernel, 10_000)], max_iterations=40)
            return trace.energy_pj.sum() / len(trace.iter_start_cycles[0])

        assert energy_per_iter("l3") > energy_per_iter("l1")


class TestJosephBrooks:
    def test_structure_matches_the_papers_description(self):
        kernel = joseph_brooks(TABLE)
        # High-current phase: loads and stores, mixing L1 and L2 hits.
        assert all(i.spec.memory for i in kernel.hp)
        levels = {i.memory_level for i in kernel.hp if i.spec.mnemonic == "load"}
        assert levels == {"l1", "l2"}
        # Low-current phase: a serial divide chain, not NOPs.
        assert all(i.spec.mnemonic == "idiv" for i in kernel.lp)

    def test_divide_chain_serialises(self):
        kernel = joseph_brooks(TABLE)
        reads = [i.reads for i in kernel.lp]
        writes = [i.writes for i in kernel.lp]
        for i in range(1, len(kernel.lp)):
            assert writes[i - 1] & reads[i]

    def test_produces_a_real_but_subresonant_droop(self, platform):
        """A strong single-event stressmark — but never tuned to the PDN."""
        jb = platform.measure_program(
            stressmark_program(joseph_brooks(TABLE)), 4).max_droop_v
        resonant = platform.measure_program(
            stressmark_program(sm_res(TABLE)), 4).max_droop_v
        audit = platform.measure_program(
            stressmark_program(a_res_canned(TABLE)), 4).max_droop_v
        assert jb > 0.03               # a genuine stressmark...
        assert jb < resonant           # ...but below the resonance-tuned ones
        assert jb < audit

    def test_scales_with_threads(self, platform):
        program = stressmark_program(joseph_brooks(TABLE))
        d1 = platform.measure_program(program, 1).max_droop_v
        d4 = platform.measure_program(program, 4).max_droop_v
        assert d4 > 2 * d1
