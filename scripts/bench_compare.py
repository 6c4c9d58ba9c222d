#!/usr/bin/env python3
"""Compare the wire-level benchmark of a parent checkout and the working tree.

    python3 scripts/bench_compare.py --parent ../parent-checkout --pairs 10

For every workload in ``BENCHMARK.json`` the script runs the benchmark's
command (``wirebench/run.py``) in alternating pairs, parent and change, each
pair on its own seed and at the file's ``run_seconds``.  The pairs alternate
which side runs first, so a slow stretch of the machine does not always hit
the same side.  A parent checkout is any directory holding the older commit's
files, for example one made with ``git worktree add``.

For each end-to-end metric and workload it prints, from the last JSON line of
every run:

* each side's median and quartiles;
* the share of all pairs run that the change won (ties and failed runs count
  for neither side), and whether the medians differ by more than the parent's
  interquartile range (a claimed gain needs both: nine tenths of the pairs
  and that gap);
* ``WORSE`` when the change's median is worse than the parent's by more than
  the metric's ``bound`` (a fraction of the parent's median);
* ``UNRESOLVED`` when either side's interquartile range is wider than the
  metric's ``bound`` (again as a fraction of that side's median): the runs
  spread too widely to tell the sides apart at that bound, unless every run
  of the change reads better than every run of the parent;
* the median and quartiles of the per-pair ratio change/parent, over the
  pairs where both runs succeeded.  A metric whose value depends on the
  seed spreads both sides across seeds, while two runs on one seed can
  still agree closely; the ratio shows that.  It is information only and
  enters neither rule above.

It reads ``BENCHMARK.json`` and ``wirebench/`` of each checkout and edits
neither.  ``--json FILE`` also writes every run's metrics and the summary.
The exit status is 1 when a run failed or a metric is ``WORSE`` or
``UNRESOLVED``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark(checkout: Path) -> dict:
    with open(checkout / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_once(checkout: Path, command: List[str], workload: str, seed: int, seconds: float):
    """One benchmark run; returns its metric values, or ``None`` if it failed."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode != 0 or report is None or not report.get("correct"):
        sys.stderr.write(f"run failed ({checkout}, {workload}, seed {seed}, "
                         f"exit {done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}\n")
        return None
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def relative_spread(q1: float, median: float, q3: float) -> float:
    """Interquartile range as a fraction of the median."""
    if median:
        return (q3 - q1) / abs(median)
    return 0.0 if q3 == q1 else float("inf")


def summarise(metric: dict, pairs: List[tuple]) -> Optional[dict]:
    """Medians, quartiles, win share, spread and bound check of one metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    complete = [(p[name], c[name]) for p, c in pairs
                if p is not None and c is not None and name in p and name in c]
    if not complete:
        return None
    parent = [p for p, _ in complete]
    change = [c for _, c in complete]
    won = sum((c < p) if lower else (c > p) for p, c in complete)
    ratios = [c / p for p, c in complete if p]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if p_med:
        worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med)
    else:
        worse_by = 0.0 if c_med == p_med else float("inf")
    spread = max(relative_spread(p_q1, p_med, p_q3), relative_spread(c_q1, c_med, c_q3))
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    return {
        "pairs": len(pairs),
        "complete_pairs": len(complete),
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "win_share": won / len(pairs),
        "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > (p_q3 - p_q1),
        "worse_by": worse_by,
        "worse_than_bound": worse_by > metric["bound"],
        "spread": spread,
        "unresolved": spread > metric["bound"] and not separated,
        "ratio": dict(zip(("q1", "median", "q3"), quartiles(ratios))) if ratios else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--workloads", nargs="*", help="subset of BENCHMARK.json workloads")
    parser.add_argument("--json", type=Path, help="also write runs and summary here")
    args = parser.parse_args(argv)

    parent, change = args.parent.resolve(), ROOT
    benchmark = load_benchmark(change)
    if load_benchmark(parent)["workloads"] != benchmark["workloads"]:
        print("warning: the checkouts' BENCHMARK.json list different workloads", file=sys.stderr)
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workloads or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    seconds = benchmark["run_seconds"]

    runs: Dict[str, List[tuple]] = {}
    summary: Dict[str, Dict[str, dict]] = {}
    failed = 0
    for workload in workloads:
        runs[workload] = []
        for number in range(args.pairs):
            seed = args.seed + number
            sides = {}
            order = (("parent", parent), ("change", change))
            for side, checkout in order if number % 2 == 0 else reversed(order):
                start = time.monotonic()
                sides[side] = run_once(checkout, benchmark["command"], workload, seed, seconds)
                failed += sides[side] is None
                print(f"{workload} seed {seed} {side}: "
                      f"{'failed' if sides[side] is None else 'ok'} "
                      f"({time.monotonic() - start:.0f} s)", file=sys.stderr, flush=True)
            runs[workload].append((sides["parent"], sides["change"]))
        summary[workload] = {}
        for metric in benchmark["end_to_end"]:
            result = summarise(metric, runs[workload])
            if result is not None:
                summary[workload][metric["name"]] = result

    for workload, metrics in summary.items():
        print(f"\n{workload} ({seconds} s runs)")
        print(f"  {'metric':<15} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
              f"{'won':>6} {'gap>IQR':>7} {'worse by':>9} {'change/parent q1/median/q3':>26}")
        for name, result in metrics.items():
            p, c = result["parent"], result["change"]
            flag = ("  WORSE" if result["worse_than_bound"] else "") + (
                "  UNRESOLVED" if result["unresolved"] else "")
            r = result["ratio"]
            ratio = f"{r['q1']:.3f}/{r['median']:.3f}/{r['q3']:.3f}" if r else "n/a"
            print(f"  {name:<15} {p['q1']:>10.4g} {p['median']:>10.4g} {p['q3']:>10.4g} "
                  f"{c['q1']:>10.4g} {c['median']:>10.4g} {c['q3']:>10.4g} "
                  f"{result['win_share']:>6.0%} "
                  f"{'yes' if result['median_gap_exceeds_parent_iqr'] else 'no':>7} "
                  f"{result['worse_by']:>+9.1%} {ratio:>26}{flag}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seconds": seconds, "first_seed": args.seed, "runs": runs,
                       "summary": summary}, handle, indent=2)
    flagged = any(r["worse_than_bound"] or r["unresolved"]
                  for m in summary.values() for r in m.values())
    return 1 if failed or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
