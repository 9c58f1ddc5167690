"""Import hygiene: what a launch loads, and what can be imported first.

``scipy.signal`` loads on a process's first time-domain PDN solve, not
when ``repro`` starts or a platform is built.  Launches that never solve
(``--version``, registry listings, fleet status, a fleet resume served
from its bank) and launches whose solves are all periodic (``qualify`` at
one thread per module, ``registry verify``) must not pay the import; an
SMT launch, whose jittered solves run in the time domain, does.  Every
``repro.supervision`` module imports cleanly as the first module of a
fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fleet import FleetOrchestrator, ScenarioMatrix

SRC = str(Path(__file__).resolve().parents[1] / "src")

MATRIX = ScenarioMatrix(chip=("bulldozer",), threads=(1,), budget=("4x2",), seed=(1,))


#: ``python -m repro ARGS``, then report whether ``scipy.signal`` was
#: imported and the launch's exit status.
LAUNCH = """
import runpy, sys
status = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    status = stop.code or 0
print("scipy.signal" in sys.modules, status)
"""


def loads_signal(*code_and_args) -> bool:
    """Whether a fresh interpreter running ``python -c *code_and_args``
    imports ``scipy.signal``; the code prints the answer last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", *code_and_args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    loaded, *status = out.stdout.split("\n")[-2].split()
    assert status in ([], ["0"]), out.stdout[-2000:]
    return loaded == "True"


@pytest.fixture(scope="module")
def finished_fleet(tmp_path_factory):
    """A one-shard fleet, run to completion, that published to a registry."""
    root = tmp_path_factory.mktemp("guarded-fleet")
    FleetOrchestrator(MATRIX, root / "fleet", workers=1,
                      registry_dir=root / "registry").run()
    return root


class TestLaunchesThatNeverSolve:
    def test_importing_the_cli(self):
        assert not loads_signal("import sys, repro.cli; print('scipy.signal' in sys.modules)")

    def test_version(self):
        assert not loads_signal(LAUNCH, "--version")

    def test_registry_list_on_an_empty_registry(self, tmp_path):
        assert not loads_signal(LAUNCH, "registry", "list", str(tmp_path / "empty"))

    def test_fleet_status_of_a_finished_fleet(self, finished_fleet):
        assert not loads_signal(LAUNCH, "fleet", "status", str(finished_fleet / "fleet"))

    def test_banked_fleet_resume_with_registry(self, finished_fleet):
        assert not loads_signal(LAUNCH, "fleet", "run", "--resume",
                                str(finished_fleet / "fleet"))

    def test_periodic_qualify(self):
        assert not loads_signal(LAUNCH, "qualify", "a-res", "--threads", "2")

    def test_registry_verify(self, finished_fleet):
        registry = finished_fleet / "registry"
        record_id = json.loads((registry / "index.jsonl").read_text().splitlines()[0])["record_id"]
        assert not loads_signal(LAUNCH, "registry", "verify", str(registry), record_id)

    def test_a_launch_that_solves_does_load_it(self):
        # 8T pairs two threads per module: SMT jitter takes the
        # time-domain path.
        assert loads_signal(LAUNCH, "qualify", "a-res", "--threads", "8")


@pytest.mark.parametrize("module", [
    "repro.supervision",
    "repro.supervision.chaos",
    "repro.supervision.executor",
    "repro.supervision.shutdown",
])
def test_supervision_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", f"import {module}"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]


def test_building_a_platform_resolves_no_solver():
    assert not loads_signal(
        "import sys\n"
        "from repro.experiments.setup import bulldozer_testbed\n"
        "from repro.pdn import transient\n"
        "bulldozer_testbed()\n"
        "assert not transient._SOLVERS, transient._SOLVERS\n"
        "print('scipy.signal' in sys.modules)"
    )


def test_the_first_transient_solve_discretises_once(monkeypatch):
    import numpy as np

    from repro.pdn import transient
    from repro.power.trace import CurrentTrace

    builds = []
    ss_to_sos = transient._ss_to_sos

    def counting_ss_to_sos(*state_space):
        builds.append(state_space)
        return ss_to_sos(*state_space)

    monkeypatch.setattr(transient, "_ss_to_sos", counting_ss_to_sos)
    monkeypatch.setattr(transient, "_SOLVERS", {})
    from repro.experiments.setup import bulldozer_testbed

    platform = bulldozer_testbed()
    stage = platform.pipeline.pdn_stage
    solver = stage.solver
    pdn = stage.pdn
    key = (pdn.board, pdn.package, pdn.die, pdn.load_line_ohm, platform.chip.cycle_time_s)
    assert transient._SOLVERS == {key: solver}
    load = CurrentTrace(np.linspace(5.0, 30.0, 64), solver.dt)
    solver.steady_state_periodic(load, vdd=1.2)
    solver.steady_state_periodic_batch(np.stack([load.samples] * 2), vdd_rows=[1.2, 1.1])
    assert builds == []
    solver.simulate(load, vdd=1.2)
    solver.simulate_batch(np.stack([load.samples] * 2), baselines=[0.0, 5.0],
                          vdd_rows=[1.2, 1.1])
    solver.impulse_response(16)
    assert len(builds) == 1
    assert stage.solver is solver
