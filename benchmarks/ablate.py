"""Take a claim against another commit, or re-take a row of DESIGN.md, "What each feature buys".

    python3 benchmarks/ablate.py --against REV [--workloads W,...] [--passes 10] [--seconds S]
    python3 benchmarks/ablate.py inline=False [field=value ...] [--workloads W,...] [--passes 3] [--seconds S]

``--against REV`` checks REV out into a temporary local ``git worktree``, removed on exit, and refuses to run
unless ``benchmarks/e2e`` is the same there as in this tree (``git diff --quiet REV -- benchmarks/e2e``): the
two sides are measured by one tool.  Each side runs its own ``benchmarks/e2e/run.py --workload W --trace 0``,
which imports its own tree's ``src/``.  Pass p uses seed p and runs REV first when p is odd.  Printed per
workload and metric: REV's and this tree's medians with their quartiles, the change, the passes this tree wins
(same seed, lower), REV's interquartile range as a share of its median, and ``**`` where every run of this tree
reads worse than every REV run (``*``: better).  Then each ``deterministic`` count that differs between the sides,
per workload but the threaded serve-fleet and seed; ``--out`` records stay in ``benchmarks/results/ablate/``.

``field=value`` runs the workloads by turns with ``Config``'s defaults and with the named fields' defaults
changed, each in a child whose bootstrap wraps ``Config.__init__`` (every ``Config()`` the runner builds is
reached; explicit arguments still win).  Prints both medians, the change, the default's own min-max spread,
and ``**`` where every changed run reads worse than every default run (``*``: better).
"""
import argparse, ast, json, os, statistics, subprocess, sys, tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("steady_ms", "cold_ms", "run_s", "peak_rss_mb")
RECORDS = os.path.join(ROOT, "benchmarks", "results", "ablate")
BOOT = """
import json, runpy, sys
sys.path.insert(0, %r)
from repro.jit.config import Config
over, init = json.loads(sys.argv[1]), Config.__init__
assert set(over) <= set(Config.__dataclass_fields__), "no such Config field"
def patched(self, *args, **kw):
    init(self, *args, **dict(over, **kw))
Config.__init__ = patched
sys.argv = [%r] + sys.argv[2:]
runpy.run_path(sys.argv[0], run_name="__main__")
""" % (os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks", "e2e", "run.py"))


def run(workload, seed, seconds, over, tree, side):
    """One ``run.py`` child: ``tree``'s own runner, or this tree's with ``over`` as Config defaults."""
    head = [os.path.join(tree, "benchmarks", "e2e", "run.py")] if tree else ["-c", BOOT, json.dumps(over)]
    record = os.path.join(RECORDS, "%s-%s-%d.json" % (side, workload, seed))
    cmd = [sys.executable] + head + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0", "--out", record]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout
    last = json.loads(out.splitlines()[-1]) if out.rstrip().endswith("}") else sys.exit(out[-2000:])
    if not last["correct"]:
        print("  (%s %s seed %d: not correct, %d failed)" % (workload, tree or over, seed, last["failed"]))
    with open(record) as fh:
        counts = json.load(fh)["deterministic"]
    return dict({m: last["metrics"][m]["value"] for m in METRICS}, counts=counts)


def against(rev, names, passes, seconds):
    if subprocess.run(["git", "-C", ROOT, "diff", "--quiet", rev, "--", "benchmarks/e2e"]).returncode:
        sys.exit("benchmarks/e2e differs between %s and this tree: the sides would not be measured alike" % rev)
    sides = ((tempfile.mkdtemp(prefix="ablate-"), "rev"), (ROOT, "this"))
    subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet", "--detach", sides[0][0], rev], check=True)
    try:
        runs = {}
        for seed in range(1, passes + 1):
            for w in names:
                for side in ((0, 1) if seed % 2 else (1, 0)):
                    runs.setdefault((w, side), []).append(run(w, seed, seconds, {}, *sides[side]))
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", sides[0][0]])
    quart = lambda xs: statistics.quantiles(xs, n=4, method="inclusive")
    print("%s against %s, %d passes" % (ROOT, rev, passes))
    print("%-15s %-12s %27s %27s %8s %5s %6s" % ("workload", "metric", "REV median [q1-q3]",
                                                  "this tree [q1-q3]", "change", "wins", "IQR"))
    for w, m in ((w, m) for w in names for m in METRICS):
        a, b = ([r[m] for r in runs[w, side]] for side in (0, 1))
        (qa1, ma, qa3), (qb1, mb, qb3) = quart(a), quart(b)
        mark = "**" if min(b) > max(a) else "*" if max(b) < min(a) else ""
        print("%-15s %-12s %9.4g [%7.4g-%7.4g] %9.4g [%7.4g-%7.4g] %+7.1f%% %2d/%-2d %5.1f%% %s" % (
            w, m, ma, qa1, qa3, mb, qb1, qb3, 100 * (mb / ma - 1), sum(y < x for x, y in zip(a, b)),
            passes, 100 * (qa3 - qa1) / ma, mark))
    for w, seed in ((w, s) for w in names if w != "serve-fleet" for s in range(1, passes + 1)):
        a, b = (runs[w, side][seed - 1]["counts"] for side in (0, 1))
        for k in sorted(k for k in a if a[k] != b.get(k)):
            print("%-15s seed %-3d %s: REV %s, this tree %s" % (w, seed, k, a[k], b.get(k)))


def ablate(over, names, passes, seconds):
    runs = {}
    for seed in range(1, passes + 1):
        for w, o in ((w, o) for w in names for o in ("default", "changed")):  # by turns: the host drifts
            runs.setdefault((w, o), []).append(run(w, seed, seconds, over if o == "changed" else {}, None, o))
    print("%-15s %-12s %9s %9s %8s %7s" % ("workload", "metric", "default", "changed", "change", "spread"))
    for w, m in ((w, m) for w in names for m in METRICS):
        a, b = ([r[m] for r in runs[w, o]] for o in ("default", "changed"))
        ma, mb = statistics.median(a), statistics.median(b)
        mark = "**" if min(b) > max(a) else "*" if max(b) < min(a) else ""
        print("%-15s %-12s %9.4g %9.4g %+7.1f%% %6.1f%% %s" % (
            w, m, ma, mb, 100 * (mb / ma - 1), 100 * (max(a) - min(a)) / ma, mark))


if __name__ == "__main__":
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("fields", nargs="*", metavar="field=value")
    ap.add_argument("--against", metavar="REV")
    ap.add_argument("--workloads", type=lambda s: s.split(","), default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--passes", type=int)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    os.makedirs(RECORDS, exist_ok=True)
    if bool(args.fields) == bool(args.against):
        ap.error("give either field=value changes or --against REV")
    if args.against:
        if (args.passes or 10) < 2:
            ap.error("--against needs two passes for quartiles")
        against(args.against, args.workloads, args.passes or 10, args.seconds)
    else:
        over = {k: ast.literal_eval(v) for k, v in (f.split("=", 1) for f in args.fields)}
        ablate(over, args.workloads, args.passes or 3, args.seconds)
