#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/perf/run.py --out .perf-out      # every workload: 5 runs, then a traced run
    python3 benchmarks/perf/run.py --workloads ga-4t --seed 7 --repeat 10 --out DIR
    python3 benchmarks/perf/run.py --workload ga-4t --seed 1 --seconds 30 --trace 0
    python3 benchmarks/perf/run.py --slowdown uarch=2.0 --out slow
    python3 benchmarks/perf/compare.py .perf-out/results.json slow/results.json

Every run of a workload starts fresh processes and times them from launch
to exit.  Run ``r`` of ``--seed s`` uses workload seed ``s + 1000 * r``, so
a median over runs covers several inputs, all fixed by ``--seed``.

``--trace 0`` makes untraced runs only; ``--trace 1`` alternates each
untraced run with a traced run of the same input (per-layer metrics come
from the traced ones, tracing overhead from the pairs); without
``--trace`` the untraced runs are followed by one traced run.  Runs stop
after ``--repeat`` runs (pairs), or before ``--seconds`` would be
exceeded.

Every metric is printed by name with its unit, and ``DIR/results.json``
keeps the raw per-run samples for ``compare.py``.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Outputs are checked against ``oracle.json`` where it has
the input, and traced runs must reproduce their untraced partner exactly;
any mismatch makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import probe
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ORACLE = HERE / "oracle.json"

#: Workload seed of run r is seed + SEED_STRIDE * r.
SEED_STRIDE = 1000
#: Outputs of these workloads do not depend on the seed: they never place
#: two threads on one module, so the SMT jitter seed reaches no measurement.
SEED_FREE = ("qualify-sweep",)
LAUNCH_TIMEOUT_S = 170
VERSION_LAUNCHES = 3
FLEET_WORKERS = 2
FLEET_MATRIX = ("threads=2,4", "budget=6x2", "pdn=nominal,+10%")


@dataclass
class Run:
    """One repetition of one workload, as the parent measured it.

    Every end-to-end metric of BENCHMARK.json is an attribute of a run.
    """

    rep: int
    traced: bool
    seed: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    evals: int = 0
    launches: int = 0
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    layers: dict | None = None

    @property
    def evals_per_s(self) -> float:
        busy = self.wall_s - self.setup_s
        return self.evals / busy if busy > 0 else 0.0

    @property
    def attempted(self) -> int:
        """Operations: fitness evaluations plus process launches."""
        return max(1, self.evals + self.launches)

    @property
    def failed(self) -> int:
        """A failed launch or a wrong output taints every operation of the run."""
        return self.attempted if self.errors else 0

    def to_dict(self) -> dict:
        return {**asdict(self), "evals_per_s": self.evals_per_s,
                "attempted": self.attempted, "failed": self.failed}


# ----------------------------------------------------------------------
# Launching processes
# ----------------------------------------------------------------------
def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _launch(argv, *, cwd: Path, log: Path) -> tuple[int, int, int, object]:
    """Run *argv* to exit: (exit code, start ns, end ns, resource usage).

    The process leads its own group, so a timeout or an interrupt kills it
    together with any workers it forked.  ``os.wait4`` reports the largest
    RSS of the process and of the children it waited for.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    with open(log, "wb") as out:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        watchdog = threading.Timer(LAUNCH_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage


def _tail(log: Path, lines: int = 5) -> str:
    return " | ".join(log.read_text(errors="replace").splitlines()[-lines:])


def _probe_flags(trace_dir, slowdown: list) -> list:
    flags = [] if trace_dir is None else ["--trace-dir", str(trace_dir)]
    for item in slowdown:
        flags += ["--slowdown", item]
    return flags


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
def run_in_process(workload: str, run: Run, work: Path, trace_dir, slowdown: list) -> None:
    """ga-4t, ga-smt-8t, qualify-sweep: one ``_child.py`` process."""
    result = work / "result.json"
    log = work / "child.log"
    argv = [sys.executable, str(HERE / "_child.py"), workload, "--seed", str(run.seed),
            "--result", str(result), *_probe_flags(trace_dir, slowdown)]
    code, start, end, usage = _launch(argv, cwd=work, log=log)
    run.launches = 1
    run.wall_s = (end - start) / 1e9
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.peak_rss_mb = usage.ru_maxrss / 1024
    if code != 0:
        run.errors.append(f"child exited {code}: {_tail(log)}")
        return
    payload = json.loads(result.read_text())
    run.setup_s = (payload["setup_ns"] - start) / 1e9
    run.evals = payload["evals"]
    run.outputs = payload["outputs"]


def run_cli_fleet(workload: str, run: Run, work: Path, trace_dir, slowdown: list) -> None:
    """cli-fleet: a sequence of ``repro`` launches, timed one by one.

    Set-up is the median wall time of ``repro --version``; the fleet's
    shard workers are children of its launch, so its peak RSS covers them.
    """
    if trace_dir is None and not slowdown:
        base = [sys.executable, "-m", "repro"]
    else:
        base = [sys.executable, str(HERE / "_cli_shim.py"), *_probe_flags(trace_dir, slowdown), "--"]

    def cli(*args) -> tuple[int, float, str]:
        log = work / f"launch-{run.launches}.log"
        code, start, end, usage = _launch([*base, *args], cwd=work, log=log)
        run.launches += 1
        run.wall_s += (end - start) / 1e9
        run.cpu_s += usage.ru_utime + usage.ru_stime
        run.peak_rss_mb = max(run.peak_rss_mb, usage.ru_maxrss / 1024)
        if code != 0:
            run.errors.append(f"repro {' '.join(args)} exited {code}: {_tail(log)}")
        return code, (end - start) / 1e9, log.read_text(errors="replace")

    run.setup_s = statistics.median(cli("--version")[1] for _ in range(VERSION_LAUNCHES))
    _code, _wall, text = cli("qualify", "a-res", "--seed", str(run.seed))
    match = re.search(r"verdict: .*?(\d+) evaluations", text)
    qualify_evals = int(match.group(1)) if match else 0
    registry, fleet = work / "registry", work / "fleet"
    cli("fleet", "run", *(f"--matrix={axis}" for axis in FLEET_MATRIX),
        f"--matrix=seed={run.seed}", "--workers", str(FLEET_WORKERS),
        "--registry", str(registry), "--dir", str(fleet))
    try:
        report_bytes = (fleet / "report.json").read_bytes()
        shards = json.loads(report_bytes)["shards"]
        index = (registry / "index.jsonl").read_text().splitlines()
        record_id = json.loads(index[0])["record_id"]
    except (OSError, ValueError, KeyError, IndexError) as error:
        run.errors.append(f"fleet left no report or registry record: {error!r}")
        return
    verify_code, _wall, _text = cli("registry", "verify", str(registry), record_id)
    cli("fleet", "run", "--resume", str(fleet))
    run.evals = qualify_evals + sum(shard["evaluations"] or 0 for shard in shards)
    run.outputs = {
        "qualify_evaluations": qualify_evals,
        "shard_droops": {shard["scenario_id"]: shard["droop_v"] for shard in shards},
        "shards_ok": len(shards) == 4 and all(shard["status"] == "ok" for shard in shards),
        "verify_ok": verify_code == 0,
        "resume_identical": (fleet / "report.json").read_bytes() == report_bytes,
    }


def sanity_errors(workload: str, outputs: dict) -> list:
    """Checks that hold on every seed."""
    if workload == "cli-fleet":
        return [f"{name} is false" for name in ("shards_ok", "verify_ok", "resume_identical")
                if not outputs.get(name)]
    if workload == "qualify-sweep":
        return [] if len(outputs.get("verdicts", ())) == 18 else ["expected 18 verdicts"]
    droop = outputs.get("max_droop_v", math.nan)
    if outputs.get("evaluations", 0) < 1 or not (math.isfinite(droop) and droop > 0):
        return [f"implausible campaign outputs {outputs}"]
    return []


def run_once(workload: str, rep: int, traced: bool, args, out: Path, oracle: dict) -> Run:
    run = Run(rep=rep, traced=traced, seed=args.seed + SEED_STRIDE * rep)
    work = out / "work" / f"{workload}-{rep}{'-traced' if traced else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_dir = work / "trace" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir()
    body = run_cli_fleet if workload == "cli-fleet" else run_in_process
    try:
        body(workload, run, work, trace_dir, args.slowdown)
        if not run.errors:
            run.errors += sanity_errors(workload, run.outputs)
            expected = oracle.get(workload, {}).get("*" if workload in SEED_FREE else str(run.seed))
            if expected is not None and expected != run.outputs:
                run.errors.append(f"outputs {run.outputs} differ from the oracle {expected}")
        if trace_dir is not None and not run.errors:
            tallies = [json.loads(path.read_text()) for path in trace_dir.glob("tally-*.json")]
            run.layers = probe.layer_metrics(tallies, wall_s=run.wall_s, fleet_workers=FLEET_WORKERS)
            spans = [line for path in sorted(trace_dir.glob("spans-*.jsonl"))
                     for line in path.read_text().splitlines()]
            run.layers["obs.spans"] = len(spans)
            with open(out / f"trace-{workload}.jsonl", "a") as handle:
                handle.writelines(line + "\n" for line in spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def run_workload(workload: str, args, out: Path, oracle: dict, benchmark: dict) -> dict:
    """Every run of one workload, then its summary."""
    (out / f"trace-{workload}.jsonl").unlink(missing_ok=True)
    plain: dict[int, Run] = {}
    traced: dict[int, Run] = {}
    started = time.monotonic()
    longest = 0.0
    rep = 0
    while args.repeat is None or rep < args.repeat:
        steps = [False, True] if args.trace == 1 else [False]
        if args.seconds is not None and plain:
            remaining = args.seconds - (time.monotonic() - started)
            if longest * len(steps) > remaining:
                break
        for is_traced in steps:
            tick = time.monotonic()
            run = run_once(workload, rep, is_traced, args, out, oracle)
            (traced if is_traced else plain)[rep] = run
            longest = max(longest, time.monotonic() - tick)
        rep += 1
    if args.trace is None:
        traced[0] = run_once(workload, 0, True, args, out, oracle)

    for rep, run in traced.items():
        partner = plain.get(rep)
        if partner is not None and not run.errors and not partner.errors \
                and run.outputs != partner.outputs:
            run.errors.append(f"traced outputs {run.outputs} differ from untraced {partner.outputs}")
    runs = [*plain.values(), *traced.values()]
    good = [run for run in plain.values() if not run.errors]
    end_to_end = {}
    for metric in benchmark["end_to_end"]:
        values = [getattr(run, metric["name"]) for run in good]
        if values:
            q1, median, q3 = stats.quartiles(values)
            end_to_end[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                          "n": len(values), "unit": metric["unit"]}
    per_layer = {}
    layered = [run for run in traced.values() if run.layers is not None and not run.errors]
    if layered:
        ratios = [run.wall_s / plain[run.rep].wall_s - 1.0 for run in layered
                  if run.rep in plain and not plain[run.rep].errors]
        for run in layered:
            run.layers["obs.trace_overhead_frac"] = statistics.median(ratios) if ratios else 0.0
        for metric in benchmark["per_layer"]:
            values = [run.layers[metric["name"]] for run in layered]
            per_layer[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    return {
        "correct": not any(run.errors for run in runs),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "runs": [run.to_dict() for run in runs],
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_describe():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def print_summary(name: str, summary: dict) -> None:
    plain = sum(1 for run in summary["runs"] if not run["traced"])
    traced = len(summary["runs"]) - plain
    state = "correct" if summary["correct"] else "INCORRECT"
    print(f"== {name}: {plain} untraced + {traced} traced runs, {state}")
    for run in summary["runs"]:
        for error in run["errors"]:
            print(f"   run {run['rep']}{' (traced)' if run['traced'] else ''}: {error}")
    for metric, row in summary["end_to_end"].items():
        print(f"   {metric:<30} {row['median']:<14.6g} {row['unit']:<6} "
              f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}")
    print(f"   {'failed_frac':<30} {summary['failed_frac']:<14.6g} {'ratio':<6} "
          f"{summary['failed']}/{summary['attempted']} operations")
    for metric, row in summary["per_layer"].items():
        print(f"   {metric:<30} {row['value']:<14.6g} {row['unit']}")


def record_oracle(summaries: dict) -> None:
    """Merge the untraced runs' outputs into oracle.json (keyed by workload seed)."""
    oracle = json.loads(ORACLE.read_text()) if ORACLE.exists() else {}
    for name, summary in summaries.items():
        entries = oracle.setdefault(name, {})
        for run in summary["runs"]:
            if not run["traced"] and not run["errors"]:
                entries["*" if name in SEED_FREE else str(run["seed"])] = run["outputs"]
    ORACLE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", nargs="+",
                        action="extend", choices=names, metavar="NAME",
                        help=f"workloads to run (default: all of {', '.join(names)})")
    parser.add_argument("--seed", type=int, default=1)
    limit = parser.add_mutually_exclusive_group()
    limit.add_argument("--repeat", type=int, default=None,
                       help="untraced runs (or pairs, with --trace 1) per workload (default 5)")
    limit.add_argument("--seconds", type=float, default=None,
                       help="stop starting runs of a workload once this budget would be exceeded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=ROOT / ".perf-out",
                        help="results.json, trace-<workload>.jsonl and working files")
    parser.add_argument("--slowdown", action="append", default=[], metavar="LAYER=FACTOR",
                        help="self-test: make a layer's wrapped calls FACTOR times slower")
    parser.add_argument("--record-oracle", action="store_true",
                        help="store the untraced runs' outputs in oracle.json")
    args = parser.parse_args(argv)
    if args.repeat is None and args.seconds is None:
        args.repeat = 5
    probe.parse_slowdown(args.slowdown)
    workloads = args.workloads or names
    args.out.mkdir(parents=True, exist_ok=True)
    oracle = json.loads(ORACLE.read_text()) if ORACLE.exists() else {}

    summaries = {}
    for name in workloads:
        summaries[name] = run_workload(name, args, args.out, oracle, benchmark)
        print_summary(name, summaries[name])
    shutil.rmtree(args.out / "work", ignore_errors=True)
    results = {
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": args.seconds,
        "trace": args.trace,
        "slowdown": args.slowdown,
        "git": _git_describe(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "workloads": summaries,
    }
    (args.out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    if args.record_oracle:
        record_oracle(summaries)

    prefixed = len(workloads) > 1
    metrics = {}
    for name, summary in summaries.items():
        rows = {}
        if args.trace != 1:
            rows.update({metric: (row["median"], row["unit"])
                         for metric, row in summary["end_to_end"].items()})
        if args.trace != 0:
            rows.update({metric: (row["value"], row["unit"])
                         for metric, row in summary["per_layer"].items()})
        for metric, (value, unit) in rows.items():
            metrics[f"{name}:{metric}" if prefixed else metric] = {"value": value, "unit": unit}
    correct = all(summary["correct"] for summary in summaries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(summary["attempted"] for summary in summaries.values()),
        "failed": sum(summary["failed"] for summary in summaries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
