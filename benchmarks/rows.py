"""Two sides of ``run.py --out`` records, row by row.

    python3 benchmarks/rows.py A B [--workload W]
    python3 benchmarks/rows.py 'benchmarks/results/ablate/rev-suite-chaos-*.json' \\
        'benchmarks/results/ablate/this-suite-chaos-*.json'

A and B are each a record or a quoted glob of several (``ablate.py`` keeps one per side,
workload and seed).  Per workload, over the seeds both sides ran: every row (a program, on
``phase-change`` a phase, on ``serve-fleet`` a tenant; keyed by that name, since the seed
shuffles the order) with each of its times (``flip_ms`` and ``recovered_ms`` there,
``median_ms`` elsewhere) as A's median, B's median, B over A and the seeds on which B is
faster; then each count that differs on some seed, as both medians.  ``ablate.py`` gives the
workload medians; this is the view under them: a geomean over 34 rows once hid a 25x row.
"""
import argparse, glob, json, statistics

TIMES = ("flip_ms", "recovered_ms", "median_ms", "cold_start_ms")


def untraced(pattern):
    runs = {}
    for path in sorted(glob.glob(pattern)) or [pattern]:
        with open(path) as fh:
            data = json.load(fh)
        runs.update({(r["workload"], r["seed"]): r for r in data.get("runs", [data]) if not r["trace"]})
    return runs


def by_name(run):
    return {row.get("tenant", row.get("phase", row.get("program", row.get("round")))): row
            for row in run["rows"]}


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a"), ap.add_argument("b"), ap.add_argument("--workload")
    args = ap.parse_args()
    a_runs, b_runs, med = untraced(args.a), untraced(args.b), statistics.median
    for w in sorted({w for w, s in a_runs if (w, s) in b_runs and args.workload in (None, w)}):
        seeds = sorted(s for v, s in a_runs if v == w and (w, s) in b_runs)
        a, b = ([runs[w, s] for s in seeds] for runs in (a_runs, b_runs))
        print("== %s, seeds %s" % (w, " ".join(map(str, seeds))))
        rows_a, rows_b = [by_name(r) for r in a], [by_name(r) for r in b]
        for name in sorted(set().union(*rows_a), key=str):
            cells = []
            for t in TIMES:
                pairs = [(x[name][t], y[name][t]) for x, y in zip(rows_a, rows_b)
                         if t in x.get(name, {}) and t in y.get(name, {})]
                if pairs:
                    ma, mb = med(p[0] for p in pairs), med(p[1] for p in pairs)
                    cells.append("%s %9.3f %9.3f %5.2fx %2d/%-2d" % (
                        t, ma, mb, mb / ma, sum(y < x for x, y in pairs), len(pairs)))
            print("%-34s" % str(name)[-34:], "  ".join(cells))
        ca, cb = [r["counts"]["all"] for r in a], [r["counts"]["all"] for r in b]
        for c in sorted(set(ca[0]) & set(cb[0])):
            if any(x[c] != y[c] for x, y in zip(ca, cb)):
                print("   %-28s %14s %14s" % (c, med(x[c] for x in ca), med(y[c] for y in cb)))
