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

from repro.cli._main import main
