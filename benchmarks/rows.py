"""Two ``run.py --out`` records side by side, row by row.

    python3 benchmarks/rows.py A.json B.json [--workload W]

Per workload (same seed in both files): every row of the record — a program, and on
``phase-change`` a phase — with its times in A and B (``flip_ms`` and ``recovered_ms``
there, ``median_ms`` elsewhere) and B over A, then the deterministic counts that differ.
``compare.py`` gives the workload medians; this is the view under them: a geomean over
34 rows hid the 25x row that ISSUE 24 is about.
"""
import argparse, json

TIMES = ("flip_ms", "recovered_ms", "median_ms", "cold_start_ms")


def untraced(path):
    data = json.load(open(path))
    return {(r["workload"], r["seed"]): r for r in data.get("runs", [data]) if not r["trace"]}


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a"), ap.add_argument("b"), ap.add_argument("--workload")
    args = ap.parse_args()
    a_runs, b_runs = untraced(args.a), untraced(args.b)
    for key in sorted(k for k in a_runs if k in b_runs and args.workload in (None, k[0])):
        ra, rb = a_runs[key], b_runs[key]
        print("== %s seed %s" % key)
        for row, other in zip(ra["rows"], rb["rows"]):  # one seed: one order
            cells = ["%s %9.3f %9.3f %5.2fx" % (t, row[t], other[t], other[t] / row[t])
                     for t in TIMES if t in row and t in other]
            print("%-16s %-34s" % (row.get("tenant", row.get("program", row.get("round"))),
                                   row.get("phase", "")[-34:]), "  ".join(cells))
        ca, cb = ra["counts"]["all"], rb["counts"]["all"]
        for c in sorted(c for c in ca if c in cb and ca[c] != cb[c]):
            print("   %-28s %14s %14s" % (c, ca[c], cb[c]))
