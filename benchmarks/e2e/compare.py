"""Compare two sets of benchmark runs, A (the parent, or the first set) and
B (the change, or the second set).

    python3 benchmarks/e2e/compare.py A.json B.json [--strict]

A file is what ``run.py --out`` wrote: one record, or the records of every
workload over ``--repeat`` seeds.  For every workload and end-to-end metric
this prints both medians, B's relative difference and the metric's bound
from ``BENCHMARK.json``, and exits non-zero if B is worse than A by more
than the bound, if any count marked deterministic differs between runs of
the same workload and seed, or if B failed more operations than A.  With
``--strict`` a difference beyond the bound in B's favour also fails: two
sets of runs of the same code must agree in both directions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import layers  # noqa: E402


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        data = json.load(fh)
    runs = data["runs"] if "runs" in data else [data]
    return [r for r in runs if not r["trace"]]


def by_workload(runs: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    out: Dict[str, List[Dict[str, Any]]] = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def relative_worsening(a: float, b: float, better: str) -> float:
    """How much worse B's median is than A's, as a share of A's; negative
    when B is better."""
    change = (b - a) / a
    return change if better == "lower" else -change


def compare(a_runs, b_runs, bench, strict: bool) -> Tuple[List[str], int]:
    lines = ["%-15s %-12s %12s %12s %8s %6s  %s"
             % ("workload", "metric", "A median", "B median", "B worse", "bound", "")]
    bad = 0
    a_by, b_by = by_workload(a_runs), by_workload(b_runs)
    for workload in sorted(set(a_by) | set(b_by)):
        if workload not in a_by or workload not in b_by:
            lines.append("%-15s only in %s" % (workload, "A" if workload in a_by else "B"))
            bad += 1
            continue
        for m in bench["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in a_by[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in b_by[workload])
            worse = relative_worsening(a, b, m["better"])
            verdict = ""
            if worse > m["bound"]:
                verdict = "WORSE"
            elif strict and worse < -m["bound"]:
                verdict = "DIFFERS"
            bad += bool(verdict)
            lines.append("%-15s %-12s %12.6g %12.6g %+7.1f%% %5.0f%%  %s"
                         % (workload, m["name"], a, b, 100 * worse, 100 * m["bound"], verdict))

        a_failed = sum(r["failed"] for r in a_by[workload])
        b_failed = sum(r["failed"] for r in b_by[workload])
        if b_failed > a_failed:
            lines.append("%-15s failed operations rose from %d to %d  FAILED"
                         % (workload, a_failed, b_failed))
            bad += 1

        if workload in layers.SINGLE_THREADED:
            a_seed = {r["seed"]: r["deterministic"] for r in a_by[workload]}
            for r in b_by[workload]:
                if r["seed"] in a_seed and r["deterministic"] != a_seed[r["seed"]]:
                    lines.append("%-15s seed %d deterministic counts differ: %s vs %s  NONDETERMINISTIC"
                                 % (workload, r["seed"], a_seed[r["seed"]], r["deterministic"]))
                    bad += 1
    return lines, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--strict", action="store_true",
                    help="also fail when B is better than A by more than the bound")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    lines, bad = compare(load_runs(args.a), load_runs(args.b), bench, args.strict)
    print("\n".join(lines))
    print("%d finding(s)" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
