"""Where a fleet discretises its PDN networks.

The orchestrator builds each pending network's solver once, before its
pool forks, so the shard workers inherit it instead of building their
own; a fully banked resume builds none, registry publishing included.
"""

import os

from repro import registry
from repro.cli import main
from repro.pdn import transient
from repro.supervision import executor

MATRIX = ["--matrix", "pdn=nominal,+10%", "--matrix", "threads=1",
          "--matrix", "budget=4x2", "--matrix", "seed=1"]


def test_networks_are_discretised_once_before_the_pool_forks(tmp_path, monkeypatch):
    log = tmp_path / "events.log"

    def note(event: str) -> None:
        with open(log, "a") as handle:  # forked workers append here too
            handle.write(f"{event} {os.getpid()}\n")

    init = transient.TransientSolver.__init__

    def counting_init(self, network, dt):
        note("build")
        init(self, network, dt)

    class MarkedPool(executor.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            note("pool")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(transient.TransientSolver, "__init__", counting_init)
    # The fleet's pool is the supervisor's.
    monkeypatch.setattr(executor, "ProcessPoolExecutor", MarkedPool)
    monkeypatch.setattr(transient, "_SOLVERS", {})
    fleet_dir = tmp_path / "fleet"
    assert main(["fleet", "run", *MATRIX, "--workers", "2", "--dir", str(fleet_dir),
                 "--registry", str(tmp_path / "registry")]) == 0
    here = os.getpid()
    # One build per pending network (nominal, +10%), all in the
    # orchestrator and before the pool; the workers build none.
    assert log.read_text().splitlines() == [f"build {here}", f"build {here}", f"pool {here}"]

    # A fully banked resume still republishes both records, and builds nothing.
    published = []
    record_from_shard = registry.record_from_shard

    def counting_record(result, **kwargs):
        published.append(result.scenario_id)
        return record_from_shard(result, **kwargs)

    monkeypatch.setattr(registry, "record_from_shard", counting_record)
    monkeypatch.setattr(transient, "_SOLVERS", {})
    log.unlink()
    assert main(["fleet", "run", "--resume", str(fleet_dir)]) == 0
    assert len(published) == 2
    assert not log.exists()
