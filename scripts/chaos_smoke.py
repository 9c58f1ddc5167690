#!/usr/bin/env python
"""CI chaos smoke: the supervision layer under real injected failures.

Three checks, any failure exits non-zero:

1. **Chaos campaign** — a supervised campaign whose workers measure
   through a :class:`FaultInjectingBackend` armed with hang-forever and
   worker-abort (``os._exit``) injections must complete, with stuck
   workers killed at the hard deadline, the pool respawned after
   crashes, and the poisoned genomes quarantined.  Supervisor telemetry
   is appended to ``--telemetry`` as JSON lines (the CI artifact).
2. **Graceful shutdown** — ``repro audit --max-wall-clock 0`` (the same
   code path as SIGTERM) must exit 75 and leave a resumable checkpoint.
3. **Checkpoint truncation** — truncating ``state.json`` of a finished
   checkpointed campaign must salvage the rotated snapshot, and the
   resumed campaign must reproduce the uncorrupted control bit-exactly.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core.audit import AuditConfig, AuditRunner
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.faults import (
    FaultInjectingBackend,
    FaultInjectionConfig,
    FaultPolicy,
)
from repro.core.ga import GaConfig
from repro.core.platform import MeasurementPlatform
from repro.core.telemetry import JsonlObserver, TelemetryCollector
from repro.experiments.setup import bulldozer_testbed
from repro.supervision.chaos import truncate_file
from repro.supervision.executor import SupervisedExecutor

CHAOS = FaultInjectionConfig(
    seed=2,
    abort_rate=0.18,
    hang_forever_rate=0.12,
    hang_forever_s=3600.0,
)

CONFIG = AuditConfig(
    threads=2,
    ga=GaConfig(population_size=8, generations=2, seed=5),
)


def chaotic_platform():
    return MeasurementPlatform(
        backend=FaultInjectingBackend(bulldozer_testbed().backend,
                                      config=CHAOS)
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def chaos_campaign(telemetry_path: str) -> None:
    collector = TelemetryCollector()
    observers = [collector]
    jsonl = None
    if telemetry_path:
        jsonl = JsonlObserver(telemetry_path)
        observers.append(jsonl)
    executor = SupervisedExecutor(
        2, task_timeout_s=3.0, max_pool_rebuilds=30, poll_s=0.05,
        observers=observers,
    )
    runner = AuditRunner(
        bulldozer_testbed(),
        config=CONFIG,
        executor=executor,
        observers=observers,
        platform_factory=chaotic_platform,
        fault_policy=FaultPolicy(max_retries=0, on_exhaust="skip"),
    )
    try:
        result = runner.run()
    finally:
        executor.close()
        if jsonl is not None:
            jsonl.close()
    check(result.max_droop_v > 0, "chaos campaign completed with a winner")
    hangs = collector.metrics.counter("supervisor.hang-kill")
    crashes = collector.metrics.counter("supervisor.crash")
    quarantines = collector.metrics.counter("fault.quarantines")
    check(hangs >= 1, f"hung workers were killed ({hangs})")
    check(crashes >= 1, f"worker aborts were recovered ({crashes})")
    check(quarantines >= 1,
          f"poisoned genomes were quarantined ({quarantines})")


def graceful_shutdown(workdir: Path) -> None:
    store = workdir / "budget-campaign"
    command = [
        sys.executable, "-m", "repro", "audit",
        "--chip", "bulldozer", "--threads", "2",
        "--population", "4", "--generations", "2", "--seed", "1",
        "--checkpoint-dir", str(store), "--max-wall-clock", "0",
    ]
    proc = subprocess.run(command, capture_output=True, text=True)
    check(proc.returncode == 75,
          f"wall-clock stop exits 75 (got {proc.returncode})")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "audit", "--resume", str(store)],
        capture_output=True, text=True,
    )
    check(proc.returncode == 0,
          f"interrupted campaign resumes cleanly (got {proc.returncode})")


def truncation_resume() -> None:
    control = AuditRunner(bulldozer_testbed(), config=CONFIG).run()
    with tempfile.TemporaryDirectory() as tmp:
        store = CampaignCheckpoint(Path(tmp) / "campaign")
        AuditRunner(bulldozer_testbed(), config=CONFIG).run(checkpoint=store)
        truncate_file(store.state_path, keep_fraction=0.5)
        state = store.load()
        check(state is not None and state.salvaged,
              "truncated checkpoint salvages the rotated snapshot")
        resumed = AuditRunner(bulldozer_testbed(), config=CONFIG).run(
            checkpoint=store, resume=True
        )
    check(resumed.genome == control.genome
          and resumed.max_droop_v == control.max_droop_v
          and resumed.ga_result.history == control.ga_result.history,
          "resume after truncation is bit-identical to the control")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--telemetry", default="",
                        help="append supervisor telemetry JSONL here")
    args = parser.parse_args()
    chaos_campaign(args.telemetry)
    with tempfile.TemporaryDirectory() as tmp:
        graceful_shutdown(Path(tmp))
    truncation_resume()
    print("chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
