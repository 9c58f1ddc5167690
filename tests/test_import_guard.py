"""Import hygiene: what a launch loads, and what can be imported first.

No launch loads ``scipy.signal`` or ``scipy.linalg``: the time-domain
PDN solver loads the compiled scipy kernels it calls from their files on
a process's first time-domain solve, not when ``repro`` starts or a
platform is built.  Launches that never solve (``--version``, registry
listings, fleet status, a fleet resume served from its bank) and
launches whose solves are all periodic (``qualify`` at one thread per
module, ``registry verify``) load no scipy at all; an SMT launch, whose
jittered solves run in the time domain, loads the kernels and neither
package.  A missing kernel fails that first solve loudly.
Parsing arguments loads no numpy: the CLI imports the simulator inside
the commands that run it.  Every module under ``src/repro`` imports
cleanly as the first ``repro`` module of a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fleet.matrix import ScenarioMatrix
from repro.fleet.orchestrator import FleetOrchestrator

SRC = str(Path(__file__).resolve().parents[1] / "src")

MATRIX = ScenarioMatrix(chip=("bulldozer",), threads=(1,), budget=("4x2",), seed=(1,))


#: ``python -m repro ARGS``, then report the launch's exit status and
#: every module it imported.
LAUNCH = """
import runpy, sys
status = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    status = stop.code or 0
print(status, *sys.modules)
"""

IMPORT_CLI = "import sys, repro.cli; print(0, *sys.modules)"


def imported(*code_and_args) -> set[str]:
    """The modules a fresh interpreter running ``python -c *code_and_args``
    imports; the code's last line is its exit status, then the names in
    ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", *code_and_args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    status, *loaded = out.stdout.split("\n")[-2].split()
    assert status == "0", out.stdout[-2000:]
    return set(loaded)


def loads(module, *code_and_args) -> bool:
    """Whether ``python -c *code_and_args`` imports *module*."""
    return module in imported(*code_and_args)


@pytest.fixture(scope="module")
def finished_fleet(tmp_path_factory):
    """A one-shard fleet, run to completion, that published to a registry."""
    root = tmp_path_factory.mktemp("guarded-fleet")
    FleetOrchestrator(MATRIX, root / "fleet", workers=1,
                      registry_dir=root / "registry").run()
    return root


class TestLaunchesThatNeverSolve:
    def test_importing_the_cli(self):
        assert not loads("scipy", IMPORT_CLI)

    def test_version(self):
        assert not loads("scipy", LAUNCH, "--version")

    def test_registry_list_on_an_empty_registry(self, tmp_path):
        assert not loads("scipy", LAUNCH, "registry", "list", str(tmp_path / "empty"))

    def test_fleet_status_of_a_finished_fleet(self, finished_fleet):
        assert not loads("scipy", LAUNCH, "fleet", "status", str(finished_fleet / "fleet"))

    def test_banked_fleet_resume_with_registry(self, finished_fleet):
        assert not loads("scipy", LAUNCH, "fleet", "run", "--resume",
                         str(finished_fleet / "fleet"))

    def test_periodic_qualify(self):
        assert not loads("scipy", LAUNCH, "qualify", "a-res", "--threads", "2")

    def test_registry_verify(self, finished_fleet):
        registry = finished_fleet / "registry"
        record_id = json.loads((registry / "index.jsonl").read_text().splitlines()[0])["record_id"]
        assert not loads("scipy", LAUNCH, "registry", "verify", str(registry), record_id)

    def test_a_launch_that_solves_does_load_it(self):
        # 8T pairs two threads per module: SMT jitter takes the
        # time-domain path, which calls scipy's compiled kernels without
        # importing their packages.
        modules = imported(LAUNCH, "qualify", "a-res", "--threads", "8")
        assert "scipy.linalg" not in modules
        assert "scipy.signal" not in modules
        assert {"scipy.signal._sosfilt", "scipy.linalg._matfuncs_expm",
                "scipy.linalg._flapack"} <= modules


class TestParsingArgumentsLoadsNoNumpy:
    def test_importing_the_cli(self):
        assert not loads("numpy", IMPORT_CLI)

    def test_version(self):
        assert not loads("numpy", LAUNCH, "--version")


#: Runs with numpy preloaded (third-party, so it hides no ``repro``
#: cycle) and no ``repro`` module: forks once per module named in argv,
#: imports it in the child, and prints ``{module: error}`` for failures.
IMPORT_EACH = """
import importlib, json, os, sys, traceback
import numpy

failures = {}
for name in sys.argv[1:]:
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            importlib.import_module(name)
        except BaseException:
            os.write(write, traceback.format_exc().encode())
            os._exit(1)
        os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        error = pipe.read().decode().strip()
    _pid, status = os.waitpid(pid, 0)
    if status:
        failures[name] = error.splitlines()[-1] if error else f"wait status {status}"
print(json.dumps(failures))
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    root = Path(SRC)
    modules = []
    for path in sorted((root / "repro").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        modules.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    assert "repro.cli._main" in modules
    # One BLAS thread, so forking the numpy-loaded parent is safe.
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", IMPORT_EACH, *modules],
                         capture_output=True, text=True, env=env, timeout=240)
    assert out.returncode == 0, out.stderr[-2000:]
    assert json.loads(out.stdout.splitlines()[-1]) == {}


def test_building_a_platform_resolves_no_solver():
    assert not loads(
        "scipy",
        "import sys\n"
        "from repro.experiments.setup import bulldozer_testbed\n"
        "from repro.pdn import transient\n"
        "bulldozer_testbed()\n"
        "assert not transient._SOLVERS, transient._SOLVERS\n"
        "print(0, *sys.modules)",
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


def test_a_missing_kernel_fails_the_first_transient_solve(monkeypatch, tmp_path):
    import functools

    import numpy as np
    import scipy

    from repro.errors import PdnError
    from repro.pdn import transient
    from repro.pdn.elements import bulldozer_pdn
    from repro.pdn.network import PdnNetwork
    from repro.power.trace import CurrentTrace

    # A scipy tree without its extension modules, and a fresh loader.
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    monkeypatch.setattr(transient, "_kernels", functools.cache(transient._kernels.__wrapped__))
    for package, stem, _symbols in transient._KERNELS:
        monkeypatch.delitem(sys.modules, f"scipy.{package}.{stem}", raising=False)
    solver = transient.TransientSolver(PdnNetwork(bulldozer_pdn()), 3e-10)
    with pytest.raises(PdnError) as failure:
        solver.simulate(CurrentTrace(np.full(8, 5.0), 3e-10), vdd=1.2)
    message = str(failure.value)
    assert str(tmp_path / "signal" / "_sosfilt") in message
    assert scipy.__version__ in message
