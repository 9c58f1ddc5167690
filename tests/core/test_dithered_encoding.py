"""Tests for the dithered-program NASM artifact (Section III.B mechanics)."""

import pytest

from repro.core.dithering import DitherSchedule, dither_schedules, encode_dithered_program
from repro.errors import SearchError
from repro.isa.opcodes import default_table
from repro.workloads.stressmarks import sm_res, stressmark_program

TABLE = default_table()


@pytest.fixture()
def program():
    return stressmark_program(sm_res(TABLE))


class TestDitheredEncoding:
    def test_reference_core_emits_plain_stressmark(self, program):
        schedules = dither_schedules(cores=4, period_cycles=32, m_cycles=320)
        asm = encode_dithered_program(program, schedules[0], name="core0")
        assert "core0_loop:" in asm
        assert "_outer" not in asm

    def test_padding_core_gets_outer_loop_with_nop_padding(self, program):
        schedules = dither_schedules(cores=4, period_cycles=32, m_cycles=320)
        asm = encode_dithered_program(program, schedules[1], name="core1")
        assert "core1_outer:" in asm
        assert "dither padding: 1 cycle(s)" in asm
        assert "dec qword [rsp - 128]" in asm
        assert "jnz core1_outer" in asm
        # One cycle of padding = decode_width NOPs.
        pad_section = asm.split("dither padding")[1]
        nops_before_dec = pad_section.split("dec qword")[0]
        assert nops_before_dec.count("nop") == 4

    def test_approximate_schedule_pads_delta_plus_one_cycles(self, program):
        schedules = dither_schedules(cores=2, period_cycles=32,
                                     m_cycles=320, delta=3)
        asm = encode_dithered_program(program, schedules[1], name="c")
        pad_section = asm.split("dither padding")[1].split("dec qword")[0]
        assert pad_section.count("nop") == 4 * 4  # (delta+1) cycles

    def test_inner_iterations_scale_with_interval(self, program):
        schedules = dither_schedules(cores=3, period_cycles=32, m_cycles=3200)
        asm1 = encode_dithered_program(program, schedules[1], name="a")
        asm2 = encode_dithered_program(program, schedules[2], name="b")
        def inner_count(asm):
            line = next(l for l in asm.splitlines() if "mov rcx," in l)
            return int(line.split(",")[1])
        # Core 2 pads every M*(L+H) cycles: a longer interval -> more inner trips.
        assert inner_count(asm2) > inner_count(asm1)

    def test_outer_iterations_validated(self, program):
        schedule = DitherSchedule(core_index=1, pad_cycles=1, interval_cycles=100)
        with pytest.raises(SearchError):
            encode_dithered_program(program, schedule, outer_iterations=0)

    def test_structure_still_exits_cleanly(self, program):
        schedules = dither_schedules(cores=2, period_cycles=32, m_cycles=320)
        asm = encode_dithered_program(program, schedules[1])
        assert asm.rstrip().endswith("syscall")
