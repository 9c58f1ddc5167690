"""Where a fleet pays for the time-domain PDN filter: nowhere, when
every solve is periodic.

A 1T-per-module fleet scores its shards by periodic steady state, so
neither the orchestrator nor its shard workers discretise a network or
import scipy; a fully banked resume builds no solver at all,
registry publishing included.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main
from repro.pdn import transient
from repro.registry import record as registry

SRC = str(Path(__file__).resolve().parents[2] / "src")

MATRIX = ["--matrix", "pdn=nominal,+10%", "--matrix", "threads=1",
          "--matrix", "budget=4x2", "--matrix", "seed=1"]

#: ``repro ARGS`` in a fresh interpreter.  Each shard worker appends
#: ``<pid> <scipy loaded?>`` to the log named by ``argv[1]`` after
#: its shard; the orchestrator prints the same line, then its status.
FLEET = """
import os, sys
from repro.cli import main
from repro.fleet import orchestrator, shard

run_shard = shard.run_shard

def probe(spec):
    result = run_shard(spec)
    with open(sys.argv[1], "a") as handle:
        handle.write(f"{os.getpid()} {'scipy' in sys.modules}\\n")
    return result

# Pickled by reference: forked workers resolve the same patched name.
probe.__module__, probe.__qualname__ = shard.__name__, "run_shard"
shard.run_shard = orchestrator.run_shard = probe
status = main(sys.argv[2:])
print(os.getpid(), "scipy" in sys.modules, status)
"""


def test_a_periodic_fleet_never_loads_the_filter(tmp_path, monkeypatch):
    log = tmp_path / "shards.log"
    fleet_dir = tmp_path / "fleet"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", FLEET, str(log), "fleet", "run", *MATRIX,
         "--workers", "2", "--dir", str(fleet_dir),
         "--registry", str(tmp_path / "registry")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    here, loaded, status = out.stdout.split("\n")[-2].split()
    assert (loaded, status) == ("False", "0")
    shards = [line.split() for line in log.read_text().splitlines()]
    assert len(shards) == 2
    assert all(pid != here and loaded == "False" for pid, loaded in shards)

    log = tmp_path / "events.log"

    def note(event: str) -> None:
        with open(log, "a") as handle:
            handle.write(f"{event} {os.getpid()}\n")

    init = transient.TransientSolver.__init__

    def counting_init(self, network, dt):
        note("build")
        init(self, network, dt)

    monkeypatch.setattr(transient.TransientSolver, "__init__", counting_init)

    # A fully banked resume still republishes both records, and builds nothing.
    published = []
    record_from_shard = registry.record_from_shard

    def counting_record(result, **kwargs):
        published.append(result.scenario_id)
        return record_from_shard(result, **kwargs)

    monkeypatch.setattr(registry, "record_from_shard", counting_record)
    monkeypatch.setattr(transient, "_SOLVERS", {})
    assert main(["fleet", "run", "--resume", str(fleet_dir)]) == 0
    assert len(published) == 2
    assert not log.exists()
