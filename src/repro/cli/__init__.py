"""Command-line interface: run AUDIT and regenerate paper experiments.

Usage (also available as ``python -m repro``)::

    python -m repro sweep --chip bulldozer
    python -m repro audit --threads 4 --mode resonant --asm-out a_res.asm
    python -m repro audit --workers 4 --progress --telemetry-out run.jsonl
    python -m repro audit --generations 40 --checkpoint-dir campaign/
    python -m repro audit --resume campaign/
    python -m repro audit --eval-retries 3 --on-fault penalize
    python -m repro audit --qualify --checkpoint-dir campaign/
    python -m repro fleet run --matrix chip=bulldozer,phenom \\
        --matrix threads=2,4 --dir fleet/ --workers 4
    python -m repro fleet run --resume fleet/
    python -m repro fleet status fleet/
    python -m repro fleet report fleet/ --check
    python -m repro qualify a-res --threads 4
    python -m repro audit --registry library/ --registry-campaign nightly
    python -m repro registry list library/
    python -m repro registry verify library/ <id-prefix>
    python -m repro registry compare library/ campaign:before campaign:after
    python -m repro registry export library/ marks.tar.gz
    python -m repro telemetry analyze run.jsonl
    python -m repro telemetry compare golden.jsonl run.jsonl --check
    python -m repro telemetry export run.jsonl --md-out telemetry.md
    python -m repro bench-evals --generations 6
    python -m repro experiment table1
    python -m repro list

Exit codes: 0 success, 1 run error, 2 bad configuration, 3 fault policy
exhausted, 4 invariant violation (corrupt numerics), 70 internal crash
(a ``crash_report.json`` is written next to the checkpoint, or in the
working directory).

Measurement has one path.  In-process runs measure each GA generation,
qualification grid, and resonance sweep as one batch, so compatible PDN
solves share one matrix call; ``--workers N`` measures a batch of one per
genome in each worker.  The results are bit-identical either way.

The package is split by concern: :mod:`repro.cli._common` (shared flags
and platform builders), one module per command family, and
:mod:`repro.cli._main` (parser assembly + crash reporting).
"""

from __future__ import annotations

from repro.cli._common import (
    EXIT_CONFIG,
    EXIT_CRASH,
    EXIT_FAULTS,
    EXIT_FAILURE,
    EXIT_INVARIANT,
    EXIT_OK,
    _fault_policy,
    _observers,
    _platform,
    _platform_factory,
)
from repro.cli._audit import cmd_audit
from repro.cli._experiments import EXPERIMENTS, cmd_experiment, cmd_list
from repro.cli._fleet import cmd_fleet_report, cmd_fleet_run, cmd_fleet_status
from repro.cli._main import build_parser, main
from repro.cli._qualify import CANNED_STRESSMARKS, cmd_qualify
from repro.cli._registry import (
    cmd_registry_compare,
    cmd_registry_export,
    cmd_registry_import,
    cmd_registry_list,
    cmd_registry_query,
    cmd_registry_show,
    cmd_registry_verify,
)
from repro.cli._telemetry import (
    cmd_telemetry_analyze,
    cmd_telemetry_compare,
    cmd_telemetry_export,
)
from repro.cli._tools import cmd_bench_evals, cmd_netlist, cmd_sweep

__all__ = [
    "CANNED_STRESSMARKS",
    "EXIT_CONFIG",
    "EXIT_CRASH",
    "EXIT_FAILURE",
    "EXIT_FAULTS",
    "EXIT_INVARIANT",
    "EXIT_OK",
    "EXPERIMENTS",
    "build_parser",
    "cmd_audit",
    "cmd_bench_evals",
    "cmd_experiment",
    "cmd_fleet_report",
    "cmd_fleet_run",
    "cmd_fleet_status",
    "cmd_list",
    "cmd_netlist",
    "cmd_qualify",
    "cmd_registry_compare",
    "cmd_registry_export",
    "cmd_registry_import",
    "cmd_registry_list",
    "cmd_registry_query",
    "cmd_registry_show",
    "cmd_registry_verify",
    "cmd_sweep",
    "cmd_telemetry_analyze",
    "cmd_telemetry_compare",
    "cmd_telemetry_export",
    "main",
    "_fault_policy",
    "_observers",
    "_platform",
    "_platform_factory",
]
