#!/usr/bin/env python3
"""Compare two benchmark results files, metric by metric.

    python3 benchmarks/perf/compare.py BASE/results.json CHANGE/results.json

One row per workload and end-to-end metric of ``BENCHMARK.json``: each
side's median and quartiles over its untraced runs, the share of runs the
change wins (run r of one file pairs with run r of the other, which had
the same input when both used the same ``--seed``; ties count for neither
side), and a verdict by ``stats.verdict`` with the metric's bound: better,
no worse, regressed or unresolved.  A ``failed_frac`` row per workload
regresses on any increase.  Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[2]


def compare(base: dict, change: dict, benchmark: dict) -> list[dict]:
    """The comparison rows for every workload present in both files."""
    rows = []
    for name, base_summary in base["workloads"].items():
        change_summary = change["workloads"].get(name)
        if change_summary is None:
            continue
        a_runs = {run["rep"]: run for run in base_summary["runs"]
                  if not run["traced"] and not run["errors"]}
        b_runs = {run["rep"]: run for run in change_summary["runs"]
                  if not run["traced"] and not run["errors"]}
        if not a_runs or not b_runs:
            rows.append({"workload": name, "metric": "runs", "verdict": "unresolved",
                         "note": "no successful untraced runs on one side"})
            continue
        common = sorted(a_runs.keys() & b_runs.keys())
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            a = [run[key] for run in a_runs.values()]
            b = [run[key] for run in b_runs.values()]
            pairs = [(a_runs[rep][key], b_runs[rep][key]) for rep in common]
            verdict, wins = stats.verdict(a, b, bound=metric["bound"],
                                          better=metric["better"], pairs=pairs)
            rows.append({"workload": name, "metric": key, "unit": metric["unit"],
                         "base": stats.quartiles(a), "change": stats.quartiles(b),
                         "wins": wins, "verdict": verdict})
        base_failed, change_failed = base_summary["failed_frac"], change_summary["failed_frac"]
        rows.append({"workload": name, "metric": "failed_frac", "unit": "ratio",
                     "base": (base_failed,) * 3, "change": (change_failed,) * 3, "wins": None,
                     "verdict": "regressed" if change_failed > base_failed else "no worse"})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if base["seed"] != change["seed"]:
        print(f"warning: seeds differ ({base['seed']} vs {change['seed']}); "
              "runs pair up across different inputs", file=sys.stderr)
    rows = compare(base, change, benchmark)
    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>5}  verdict")
    for row in rows:
        if "note" in row:
            print(f"{row['workload']:<14} {row['metric']:<12} {row['note']}  {row['verdict']}")
            continue
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (row["base"], row["change"])]
        wins = "" if row["wins"] is None else f"{row['wins']:.2f}"
        print(f"{row['workload']:<14} {row['metric']:<12} {cells[0]:<30} {cells[1]:<30} "
              f"{wins:>5}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
