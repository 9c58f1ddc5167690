"""Golden corpus: SHA-256s of module-simulator traces that must never change.

Every case (chip × thread layout × kernel × iteration cap, see
``simcases``) records digests of four things: the energy trace, the
sensitivity trace, the iteration starts with the cycle count, and the
sorted ``ModuleStats``.  A faster or restructured simulator has to
reproduce all of them bit for bit; a digest that moves means a droop can
move.

The corpus is regenerated only by a change that means to alter simulator
behaviour:

    PYTHONPATH=src python -m tests.uarch.test_golden_traces
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.uarch.module import ModuleSimulator, ModuleTrace
from tests.uarch.simcases import CHIPS, case_kernel, chip_layouts, kernel_names, programs

CORPUS = Path(__file__).with_name("golden_traces.json")
ROOT = Path(__file__).resolve().parents[2]
ITERATION_CAPS = (3, 48)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digests(trace: ModuleTrace) -> dict[str, str]:
    """The four digests the corpus records for one trace."""
    def array(values):
        return np.ascontiguousarray(values, dtype="<f8").tobytes()

    starts = [list(s) for s in trace.iter_start_cycles]
    stats = dataclasses.asdict(trace.stats)
    return {
        "energy_pj": _sha(array(trace.energy_pj)),
        "sensitivity": _sha(array(trace.sensitivity)),
        "iter_start_cycles": _sha(json.dumps([starts, trace.cycles]).encode()),
        "stats": _sha(json.dumps(stats, sort_keys=True).encode()),
    }


def cases():
    """Every ``(case_id, chip_name, layout, kernel_name, cap)`` in the corpus."""
    for chip_name, make_chip in CHIPS.items():
        chip = make_chip()
        for layout in chip_layouts(chip):
            for name in kernel_names():
                if case_kernel(name, chip) is None:
                    continue
                for cap in ITERATION_CAPS:
                    yield f"{chip_name}/{layout}/{name}/{cap}", chip_name, layout, name, cap


def run_case(chip_name: str, layout: str, name: str, cap: int) -> ModuleTrace:
    chip = CHIPS[chip_name]()
    kernel, phase = case_kernel(name, chip)
    return ModuleSimulator(chip).run(programs(kernel, layout, phase), max_iterations=cap)


@functools.cache
def _load_corpus() -> dict:
    return json.loads(CORPUS.read_text())


CASES = list(cases())


def test_corpus_covers_every_case():
    assert sorted(_load_corpus()) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case_id, chip_name, layout, name, cap", CASES,
                         ids=[case[0] for case in CASES])
def test_trace_matches_golden_digests(case_id, chip_name, layout, name, cap):
    trace = run_case(chip_name, layout, name, cap)
    assert trace_digests(trace) == _load_corpus()[case_id]


#: Runs the corpus cases named on the command line; prints their digests.
CHILD = """
import json, sys
from tests.uarch.test_golden_traces import CASES, run_case, trace_digests
wanted = set(sys.argv[1:])
print(json.dumps({case_id: trace_digests(run_case(*rest))
                  for case_id, *rest in CASES if case_id in wanted}))
"""


def test_digests_do_not_depend_on_the_hash_seed():
    # Register sets iterate in string-hash order, and the simulator reads
    # them when it decodes a loop body; another seed must change nothing.
    sample = [case[0] for case in CASES[::21]]
    seed = "4242" if os.environ.get("PYTHONHASHSEED") != "4242" else "0"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run([sys.executable, "-c", CHILD, *sample], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    corpus = _load_corpus()
    assert json.loads(out.stdout) == {case_id: corpus[case_id] for case_id in sample}


if __name__ == "__main__":
    corpus = {case_id: trace_digests(run_case(*rest)) for case_id, *rest in CASES}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
