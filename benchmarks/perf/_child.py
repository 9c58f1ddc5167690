"""One repetition of an in-process workload, in a fresh interpreter.

    python benchmarks/perf/_child.py WORKLOAD --seed N --result PATH
        [--trace-dir DIR] [--slowdown LAYER=FACTOR ...]

Writes PATH as JSON: the ``time.monotonic_ns()`` stamp taken once the
platform is built (the end of set-up; the parent's launch stamp uses the
same clock), the fresh fitness evaluations, and the outputs the runner
checks.  With ``--trace-dir`` every layer is wrapped, the repo's own
tracer records spans, and both are written to DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

import probe

#: GA budgets.  Three of the initial genomes are AuditRunner's expert
#: seeds, so small populations keep per-seed cost steady while every
#: generation still runs selection, crossover and mutation.
GA_WORKLOADS = {
    "ga-4t": {"threads": 4, "population": 8, "generations": 3},
    "ga-smt-8t": {"threads": 8, "population": 4, "generations": 3},
}

#: Supply-axis points per qualification: each distinct supply builds its
#: own PDN solver, which is the work this workload is about.
QUALIFY_SUPPLY_POINTS = 61
QUALIFY_THREADS = (1, 2, 4)


def run_ga(platform, seed: int, *, threads: int, population: int, generations: int):
    from repro.core.audit import AuditConfig, AuditRunner
    from repro.experiments.setup import quick_ga

    config = AuditConfig(
        threads=threads,
        ga=quick_ga(seed, population=population, generations=generations),
    )
    result = AuditRunner(platform, config=config).run()
    evaluations = result.ga_result.evaluations
    return evaluations, {"evaluations": evaluations, "max_droop_v": result.max_droop_v}


def run_qualify_sweep(platform, seed: int):
    from repro.core.qualify import QualifyConfig, StressmarkQualifier
    from repro.isa.opcodes import default_table
    from repro.workloads.stressmarks import (
        CANNED_STRESSMARKS,
        canned_stressmark,
        stressmark_program,
    )

    pool = default_table().supported_on(platform.chip.extensions)
    config = QualifyConfig(seed=seed, supply_points=QUALIFY_SUPPLY_POINTS)
    reports = []
    for name in CANNED_STRESSMARKS:
        program = stressmark_program(canned_stressmark(name, pool))
        for threads in QUALIFY_THREADS:
            qualifier = StressmarkQualifier(platform, threads=threads, config=config)
            reports.append(qualifier.qualify_program(program, name=name))
    droops = json.dumps([[axis.droops for axis in report.axes] for report in reports])
    evaluations = sum(report.evaluations for report in reports)
    return evaluations, {
        "evaluations": evaluations,
        "verdicts": [report.verdict for report in reports],
        "droops_sha256": hashlib.sha256(droops.encode()).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=(*GA_WORKLOADS, "qualify-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--slowdown", action="append", default=[])
    args = parser.parse_args()
    traced = args.trace_dir is not None

    tally = probe.Tally()
    tally.enter("startup")
    start = time.perf_counter()
    from repro.experiments.setup import bulldozer_testbed
    from repro.obs.spans import SpanBuffer, Tracer, tracing

    tally.sample("startup_s", time.perf_counter() - start)
    probe.install(tally, traced=traced, slowdown=probe.parse_slowdown(args.slowdown))
    platform = bulldozer_testbed()
    setup_ns = time.monotonic_ns()
    tally.leave()

    buffer = SpanBuffer(cap=10**7)
    with tracing(Tracer([buffer]) if traced else None):
        if args.workload == "qualify-sweep":
            evals, outputs = run_qualify_sweep(platform, args.seed)
        else:
            evals, outputs = run_ga(platform, args.seed, **GA_WORKLOADS[args.workload])
    args.result.write_text(json.dumps({"setup_ns": setup_ns, "evals": evals, "outputs": outputs}))
    if traced:
        tally.dump(args.trace_dir)
        probe.write_spans(args.trace_dir, buffer.records)


if __name__ == "__main__":
    main()
