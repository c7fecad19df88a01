"""Re-take a row of DESIGN.md, "What each feature buys".

    python3 benchmarks/ablate.py inline=False [field=value ...] [--passes 3] [--seconds S]

Runs every workload of BENCHMARK.json through the frozen ``benchmarks/e2e/run.py
--workload W --trace 0``, by turns with ``Config``'s defaults and with the named
fields' defaults changed, each in a child whose bootstrap wraps ``Config.__init__``
(every ``Config()`` the runner builds is reached; explicit arguments still win).
Prints both medians, the change, the default's own min-max spread, and ``**``
where every changed run reads worse than every default run (``*``: better).
"""
import argparse, ast, json, os, statistics, subprocess, sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("steady_ms", "cold_ms", "run_s", "peak_rss_mb")
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


def run(workload, seed, seconds, over):
    cmd = [sys.executable, "-c", BOOT, json.dumps(over), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout
    last = json.loads(out.splitlines()[-1]) if out.rstrip().endswith("}") else sys.exit(out[-2000:])
    if not last["correct"]:
        print("  (%s %s seed %d: not correct, %d failed)" % (workload, over, seed, last["failed"]))
    return {m: last["metrics"][m]["value"] for m in METRICS}


if __name__ == "__main__":
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("fields", nargs="+", metavar="field=value")
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    over = {k: ast.literal_eval(v) for k, v in (f.split("=", 1) for f in args.fields)}
    names = [w["name"] for w in bench["workloads"]]
    runs = {}
    for seed in range(1, args.passes + 1):
        for w, o in ((w, o) for w in names for o in (0, 1)):  # by turns: the host drifts
            runs.setdefault((w, o), []).append(run(w, seed, args.seconds, over if o else {}))
    print("%-15s %-12s %9s %9s %8s %7s" % ("workload", "metric", "default", "changed", "change", "spread"))
    for w, m in ((w, m) for w in names for m in METRICS):
        a, b = ([r[m] for r in runs[w, o]] for o in (0, 1))
        ma, mb = statistics.median(a), statistics.median(b)
        mark = "**" if min(b) > max(a) else "*" if max(b) < min(a) else ""
        print("%-15s %-12s %9.4g %9.4g %+7.1f%% %6.1f%% %s" % (
            w, m, ma, mb, 100 * (mb / ma - 1), 100 * (max(a) - min(a)) / ma, mark))
