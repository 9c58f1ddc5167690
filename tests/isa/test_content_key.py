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
from repro.isa.kernels import ThreadProgram, with_data_pattern
from repro.isa.opcodes import default_table
from repro.workloads.stressmarks import a_res_canned, stressmark_program

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
