"""Validity invariants on emitted NASM: the artifact must be assemblable.

No NASM binary is available in CI, so these tests enforce the structural
invariants instead: only legal two/three-operand forms, reserved registers
never clobbered by generated code, and loop integrity.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import genome_to_program
from repro.core.genome import GenomeSpace
from repro.isa.encoder import encode_program
from repro.isa.instruction import make_chain, make_independent
from repro.isa.kernels import LoopKernel, ThreadProgram, nop_region
from repro.isa.opcodes import default_table
from repro.workloads.stressmarks import (
    a_ex_canned,
    a_res_canned,
    sm1,
    sm2,
    sm_res,
    stressmark_program,
)

TABLE = default_table()

#: Mnemonics legal at the start of an emitted line.
LEGAL_LINE = re.compile(
    r"^(nop|mov|movaps|movdqu|movdqa|cqo|lea|add|sub|xor|and|or|rol|imul|idiv"
    r"|pxor|paddd|pmulld|addps|addpd|mulps|mulpd|divpd|vfmaddpd|vfmaddps"
    r"|dec|jnz|syscall)\b"
)

#: Two-operand-only legacy mnemonics: a third comma-separated register
#: operand would not assemble.
TWO_OPERAND = {
    "add", "sub", "xor", "and", "or", "imul", "mulpd", "mulps", "addpd",
    "addps", "divpd", "paddd", "pxor", "pmulld", "movaps", "movdqa",
}


def body_lines(asm: str) -> list[str]:
    lines = asm.splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith("_loop:"))
    end = next(i for i, line in enumerate(lines) if line.strip() == "dec rcx")
    return [line.strip() for line in lines[start + 1 : end]
            if line.strip() and not line.strip().startswith(";")]


def all_stressmark_programs():
    return [
        stressmark_program(sm1(TABLE)),
        stressmark_program(sm2(TABLE)),
        stressmark_program(sm_res(TABLE)),
        stressmark_program(a_res_canned(TABLE)),
        stressmark_program(a_ex_canned(TABLE)),
    ]


class TestEmittedAssembly:
    @pytest.mark.parametrize("program", all_stressmark_programs(),
                             ids=lambda p: p.kernel.name)
    def test_every_line_uses_a_legal_mnemonic(self, program):
        for line in body_lines(encode_program(program)):
            assert LEGAL_LINE.match(line), line

    @pytest.mark.parametrize("program", all_stressmark_programs(),
                             ids=lambda p: p.kernel.name)
    def test_no_three_operand_legacy_forms(self, program):
        for line in body_lines(encode_program(program)):
            mnemonic = line.split()[0]
            if mnemonic in TWO_OPERAND:
                operands = line[len(mnemonic):].split(",")
                assert len(operands) <= 2, line

    @pytest.mark.parametrize("program", all_stressmark_programs(),
                             ids=lambda p: p.kernel.name)
    def test_loop_counter_never_clobbered_by_body(self, program):
        for line in body_lines(encode_program(program)):
            destination = line.split()[1].rstrip(",") if " " in line else ""
            assert destination != "rcx", line

    @pytest.mark.parametrize("program", all_stressmark_programs(),
                             ids=lambda p: p.kernel.name)
    def test_rax_rdx_only_written_by_idiv_lowering(self, program):
        lines = body_lines(encode_program(program))
        for i, line in enumerate(lines):
            parts = line.split()
            if len(parts) < 2:
                continue
            destination = parts[1].rstrip(",")
            if destination in ("rax", "rdx"):
                # Must be part of an idiv sequence: mov rax / cqo nearby.
                window = lines[max(0, i - 1) : i + 4]
                assert any(w.startswith(("cqo", "idiv", "mov rax"))
                           for w in window), line

    def test_program_structure_is_complete(self):
        asm = encode_program(stressmark_program(sm_res(TABLE)))
        assert asm.count("_loop:") == 1
        assert "dec rcx" in asm
        assert "jnz" in asm
        assert asm.rstrip().endswith("syscall")

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_genomes_encode_to_legal_assembly(self, seed):
        space = GenomeSpace(table=TABLE, slots=12, replications=2,
                            lp_nops_min=0, lp_nops_max=64)
        genome = space.random_genome(np.random.default_rng(seed))
        program = genome_to_program(genome, space)
        for line in body_lines(encode_program(program)):
            assert LEGAL_LINE.match(line), line

    def test_chain_and_independent_builders_encode(self):
        chain = make_chain(TABLE.get("mulpd"), 4)
        indep = make_independent(TABLE.get("add"), 4)
        kernel = LoopKernel(hp=chain + indep, lp=nop_region(TABLE.nop, 4))
        for line in body_lines(encode_program(ThreadProgram(kernel, 10))):
            assert LEGAL_LINE.match(line), line
