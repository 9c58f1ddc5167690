"""The program content key: one deterministic cache key per program.

Equal programs share a key however they were built; any change to what
the simulator runs changes it; and it is a pure function of content, so it
survives pickling and does not depend on ``PYTHONHASHSEED``.
"""

import os
import pickle
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.isa.data_patterns import DataPattern
from repro.isa.kernels import ThreadProgram, _encode, _encode_instruction, with_data_pattern
from repro.isa.opcodes import default_table
from repro.uarch.config import bulldozer_chip, phenom_chip
from repro.workloads.stressmarks import (
    CANNED_STRESSMARKS,
    a_res_canned,
    canned_stressmark,
    stressmark_program,
)
from tests.uarch.simcases import genome_case

SRC = Path(__file__).resolve().parents[2] / "src"

#: Builds a program whose opcode needs several ISA extensions (a frozenset
#: whose iteration order follows the string hash seed) and prints its key.
SCRIPT = """
from dataclasses import replace
from repro.isa.opcodes import default_table
from repro.workloads.stressmarks import a_res_canned, stressmark_program

def build():
    table = default_table()
    program = stressmark_program(a_res_canned(table))
    spec = program.kernel.hp[0].spec
    multi = replace(spec, extensions=frozenset({"fma4", "sse2", "avx", "xop"}))
    hp = tuple(replace(i, spec=multi) if i.spec == spec else i
               for i in program.kernel.hp)
    return replace(program, kernel=replace(program.kernel, hp=hp))

if __name__ == "__main__":
    print(build().content_key)
"""


def build() -> ThreadProgram:
    return stressmark_program(a_res_canned(default_table()))


def test_equal_programs_built_separately_share_a_key():
    a, b = build(), build()
    assert a is not b and a == b
    assert a.content_key == b.content_key
    assert len(a.content_key) == 64


def test_key_is_computed_once_per_instance():
    program = build()
    assert "content_key" not in vars(program)
    key = program.content_key
    assert vars(program)["content_key"] is key
    assert program.content_key is key


@pytest.mark.parametrize("change", ["phase", "iterations", "instruction", "data", "name"])
def test_changing_what_runs_changes_the_key(change):
    program = build()
    kernel = program.kernel
    if change == "phase":
        other = program.with_phase(program.phase_cycles + 3)
    elif change == "iterations":
        other = replace(program, iterations=program.iterations + 1)
    elif change == "instruction":
        nop = default_table().nop
        hp = (replace(kernel.hp[0], spec=nop, dest=None, sources=()),) + kernel.hp[1:]
        other = replace(program, kernel=replace(kernel, hp=hp))
    elif change == "data":
        other = replace(program, kernel=with_data_pattern(kernel, DataPattern.ZEROS))
    else:
        other = replace(program, kernel=kernel.with_name("renamed"))
    assert other != program
    assert other.content_key != program.content_key


def test_key_survives_a_pickle_round_trip():
    program = build()
    key = program.content_key
    clone = pickle.loads(pickle.dumps(program))
    assert clone.content_key == key
    # A copy pickled before the key was computed derives the same one.
    assert pickle.loads(pickle.dumps(build())).content_key == key


def test_key_is_independent_of_the_hash_seed(tmp_path):
    script = tmp_path / "key.py"
    script.write_text(SCRIPT)
    keys = set()
    for seed in ("1", "2", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, str(script)], env=env,
                             capture_output=True, text=True, check=True)
        keys.add(out.stdout.strip())
    here = runpy.run_path(str(script))["build"]()
    assert keys == {here.content_key}


#: Kernel keys recorded from the recursive encoder, before instructions
#: got their flat encoding: a faster key must still be the same key.
PINNED_KEYS = {
    "a-res": "5d4a525348f881d452bf40013d097259083953f9f8f61bb17f159b21fd45e886",
    "a-ex": "6e6c62e3c07d88f3034844d73d7d723296578105b82724ddf56688d3786a885f",
    "sm-res": "48fe778d9102f881e21118936f6e6fc9e9049a64db04aea60f1ac37c4278bb67",
    "sm1": "427569c5a5127ff464922f271468cd6c99df5869c3d890850fdca081747e9046",
    "sm2": "a50dfea260c25cb4e20ef15415e718e2bd49725f1cc1e32a464edbaa244b2c84",
    "joseph-brooks": "397772ca0c55cc5d8f7af377a3bb7d93a2125e34f0de486f690aade61b99a549",
    "a-res/zeros": "114ae1b932e0059df1f1d9cee3cb264e064900d7ed0a6bd0128213de3f8c8318",
    "bulldozer/genome-0": "76a28e6881add6b1130d5d272db5489e9656fab68188c7c650c5d8bb76a2dd8d",
    "bulldozer/genome-1": "fe245d6bdb13cb02abaef50451b44166eede4318205b6b35b0c60a4708366819",
    "bulldozer/genome-2": "8789516db6296043a121a918ea4836c32960a500543334d7bbcf2b92ca3ec9ad",
    "bulldozer/genome-3": "fca1d487128a6e7aa32be147c7dd875ee19ce9e77d109ef59c2d4b6ea7784e6c",
    "bulldozer/genome-4": "a0d2327d8181d5aed51e760f064513001ad4b62b8e299de45a84c512adcc20d5",
    "phenom/genome-0": "5e33eb4c440d3df5e00da291096c64366f74e78dca10deb2664b5a6a1436b46c",
    "phenom/genome-1": "98f9f48354ed1ee8499a62962a9f7e7dd92cd47b77a9e5e70861a89d56beba3f",
    "phenom/genome-2": "9a1af8f119d997b71a1a337384d9c24d9c890aca964c3981a052291b9654d230",
    "phenom/genome-3": "be42959893e845aaaceaf921d09b32d142144ba0ad04a225b30b253e82266993",
    "phenom/genome-4": "ae23b2cd7bc3c0453acff9106bb2fefda9ca62ce0cf8cd6c87959b68c64311fc",
}


def pinned_kernel(name):
    table = default_table()
    if name == "a-res/zeros":
        return with_data_pattern(canned_stressmark("a-res", table), DataPattern.ZEROS)
    if name in CANNED_STRESSMARKS:
        return canned_stressmark(name, table)
    chip_name, genome = name.split("/")
    chip = bulldozer_chip() if chip_name == "bulldozer" else phenom_chip()
    return genome_case(int(genome.removeprefix("genome-")), chip)[0]


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_kernel_key_matches_the_recorded_digest(name):
    assert pinned_kernel(name).content_key == PINNED_KEYS[name]


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_flat_instruction_encoding_matches_the_recursive_one(name):
    for inst in pinned_kernel(name).body:
        assert _encode_instruction(inst, {}) == _encode(inst, {})
