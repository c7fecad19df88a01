"""The end-to-end benchmark: seven workloads, wall-clock metrics, per-layer trace.

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--trace]
                                  [--repeat N] [--out FILE]
        runs every workload in its own subprocess, one after another (with
        --trace a second, traced pass follows each untraced one), prints
        every metric by name with its unit and exits non-zero on a wrong
        result or a failed validity check.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        runs one workload in this process; the last line of standard output
        is one JSON object {"correct", "attempted", "failed", "metrics"} with
        the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
        Times are at reference host speed (hostspeed.py); the wall-clock
        ones are printed beside them as wall_*.

    python3 benchmarks/e2e/run.py --regen-expected
        rewrites expected.json from the bytecode interpreter alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results", "e2e")
EXPECTED = os.path.join(HERE, "expected.json")

for _p in (HERE, SRC):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (no repro import: safe before the set-up clock)

#: how often each half of the set-up is repeated for its median; the import
#: is cheap and by far the noisier, so it gets more
IMPORT_REPEATS = 9
PREPARE_REPEATS = 3
#: a run that is still going after this many seconds reports what is left
#: as failed; the driver's own limit is 180 s
RUN_LIMIT_S = 150.0


def benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------

def _import_spans(repeats: int, clock: hostspeed.HostClock) -> List[hostspeed.Span]:
    """Interpreter start plus ``import repro``: what every fresh process
    pays before it can build a VM.  Measured in child processes, because a
    module is imported only once in this one."""
    code = "import sys; sys.path.insert(0, %r); import repro, repro.serve" % SRC
    spans = []
    for _ in range(repeats):
        clock.calibrate()
        t0 = time.perf_counter()
        if subprocess.run([sys.executable, "-c", code]).returncode != 0:
            raise SystemExit("cannot import repro from %s" % SRC)
        spans.append((t0, time.perf_counter()))
    clock.calibrate()
    return spans


def _validity(workload: str, counts: Dict[str, Dict[str, float]]) -> List[str]:
    """Count-exact checks that the workload exercised what it is for.  A
    counter the VM no longer has cannot be checked and is skipped."""
    import layers
    total = layers.merge_counts(counts)
    bad = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    def have(section: Dict[str, float], *keys: str) -> bool:
        return all(k in section for k in keys)

    if workload == "interp-only" and have(total, "compiles", "native_ops"):
        check(total["compiles"] == 0 and total["native_ops"] == 0,
              "interp-only ran the JIT: %d compiles, %d native ops"
              % (total["compiles"], total["native_ops"]))
    if workload in ("interp-only", "suite-tierdown") and have(total, "deoptless_dispatches"):
        check(total["deoptless_dispatches"] == 0,
              "%s made %d deoptless dispatches" % (workload, total["deoptless_dispatches"]))
    if workload == "suite-chaos" and have(total, "deoptless_dispatches"):
        check(total["deoptless_dispatches"] > 0, "suite-chaos made no deoptless dispatch")
    if workload == "compile-cold":
        cold, warm = counts["cold"], counts["warm"]
        if have(warm, "codecache_disk_hits"):
            check(warm["codecache_disk_hits"] > 0,
                  "compile-cold warm rounds read nothing from the persisted cache")
        if have(cold, "lowered_instrs") and have(warm, "lowered_instrs"):
            check(warm["lowered_instrs"] <= 0.10 * cold["lowered_instrs"],
                  "compile-cold warm rounds lowered %d instrs, cold rounds %d"
                  % (warm["lowered_instrs"], cold["lowered_instrs"]))
    return bad


def run_one(args) -> int:
    t_start = time.perf_counter()
    bench = benchmark_json()
    hostspeed.pin_to_one_cpu()    # before the children start: they inherit it
    clock = hostspeed.HostClock()
    import_spans = _import_spans(1 if args.smoke else IMPORT_REPEATS, clock)

    import layers
    import runner
    from tracer import Tracer

    with open(EXPECTED) as fh:
        expected = json.load(fh)

    prepare_spans = []
    state, release = None, (lambda: None)
    for _ in range(1 if args.smoke else PREPARE_REPEATS):
        release()
        state = None
        clock.calibrate()
        t0 = time.perf_counter()
        programs = workloads.load_programs()
        plan = workloads.make_plan(args.workload, programs, args.seed,
                                   args.seconds, args.smoke)
        state, release = runner.prepare(plan)
        prepare_spans.append((t0, time.perf_counter()))
    clock.calibrate()

    def setup(length: Callable[[hostspeed.Span], float]) -> float:
        return (statistics.median(map(length, import_spans))
                + statistics.median(map(length, prepare_spans)))

    deadline = t_start + RUN_LIMIT_S
    rec = runner.Recorder(expected, runner.planned_operations(plan), deadline)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            span_cost_s = tracer.calibrate()
            tracer.install()
        try:
            out = runner.run(plan, state, rec, clock,
                             tracer.mark if tracer else runner.no_mark,
                             scratch_dir=RESULTS_DIR)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        release()

    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(bool(args.trace)), "smoke": bool(args.smoke),
        "attempted": rec.attempted, "failed": rec.failed,
        "failures": rec.failures, "rows": out["rows"], "counts": out["counts"],
    }
    total = layers.merge_counts(out["counts"])
    record["deterministic"] = {
        metric: total.get(source[1])
        for metric, _u, _b, source in layers.PER_LAYER
        if metric in layers.DETERMINISTIC
    }

    end_to_end = {
        "setup_s": setup(clock.seconds),
        "run_s": out["run_s"],
        "cold_ms": out["cold_ms"],
        "steady_ms": out["steady_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    #: the same aggregates of the spans as measured
    record["wall"] = {"setup_s": setup(runner.wall), **out["wall"]}
    info: List[Tuple[str, float, str]] = list(out.get("info", []))
    # as measured, and how much slower than the reference the calibration
    # kernel ran
    info += [("wall_" + m["name"], record["wall"][m["name"]], m["unit"])
             for m in bench["end_to_end"] if m["name"] in record["wall"]]
    slow = sorted(clock.slowdowns())
    info += [("host_slowdown_p10", slow[len(slow) // 10], "ratio"),
             ("host_slowdown_median", statistics.median(slow), "ratio"),
             ("host_slowdown_p90", slow[-1 - len(slow) // 10], "ratio"),
             ("calibrations", len(slow), "count"),
             ("import_s", statistics.median(map(clock.seconds, import_spans)), "s"),
             ("prepare_s", statistics.median(map(clock.seconds, prepare_spans)), "s"),
             ("fail_share", rec.failed / max(1, rec.attempted), "ratio")]

    if tracer is not None:
        record["traced"] = end_to_end
        # spans are wall-clock, so is the run time they are set against
        metrics = _per_layer_metrics(args, tracer, total, span_cost_s,
                                     out["wall"]["run_s"], record)
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    record.update(metrics=metrics, violations=_validity(args.workload, out["counts"]),
                  info=[{"name": n, "value": v, "unit": u} for n, v, u in info])
    _print_report(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    correct = rec.failed == 0 and not record["violations"]
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


def _per_layer_metrics(args, tracer, counts: Dict[str, float], span_cost_s: float,
                       run_s: float, record: Dict[str, Any]) -> Dict[str, Any]:
    """The traced pass's output: writes the span file, records each layer's
    share of the traced time, returns the per-layer metrics."""
    import layers
    added = tracer.span_count() * span_cost_s
    totals = tracer.totals()
    values = layers.per_layer(counts, tracer, totals, added / max(run_s - added, 1e-9))
    sections = sorted({sec for sec, _ in totals}, key=str)
    record["shares"] = {str(sec): layers.layer_shares(totals, sec) for sec in sections}
    record["shares"]["all"] = layers.layer_shares(totals)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "trace-%s.jsonl" % args.workload)
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "run_s": run_s})
    record["trace_file"] = os.path.relpath(path, ROOT)
    return {m: {"value": values[m], "unit": unit} for m, unit, _b, _s in layers.PER_LAYER}


def _print_report(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then what went wrong."""
    from layers import UNAVAILABLE
    print("== %s  seed %d  %g s  %s" % (
        record["workload"], record["seed"], record["seconds"],
        "traced" if record["trace"] else "untraced"))
    for name, m in record["metrics"].items():
        shown = "unavailable" if m["value"] == UNAVAILABLE else "%.6g" % m["value"]
        print("  %-32s %14s %s" % (name, shown, m["unit"]))
    for i in record["info"]:
        print("  (info) %-25s %14.6g %s" % (i["name"], i["value"], i["unit"]))
    for sec, row in record.get("shares", {}).items():
        print("  (share of traced time, %s) %s" % (
            sec, "  ".join("%s %.1f%%" % (k, 100 * v) for k, v in row.items())))
    if "trace_file" in record:
        print("  (trace) %s" % record["trace_file"])
    print("  operations %d  failed %d" % (record["attempted"], record["failed"]))
    for f in record["failures"]:
        print("  FAILED %s" % f)
    for v in record["violations"]:
        print("  INVALID %s" % v)


# ---------------------------------------------------------------------------
# every workload, each in its own subprocess
# ---------------------------------------------------------------------------

def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool
           ) -> Tuple[int, Optional[Dict[str, Any]]]:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, "run-%s-%d.json" % (workload, trace))
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_path] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S + 30)
    except subprocess.TimeoutExpired as e:
        print("== %s: killed after %.0f s" % (workload, e.timeout))
        return 1, None
    # everything but the machine-readable last line
    sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
    sys.stdout.flush()
    if not os.path.exists(out_path):
        return proc.returncode or 1, None
    with open(out_path) as fh:
        record = json.load(fh)
    os.remove(out_path)
    return proc.returncode, record


def run_all(args) -> int:
    selected = args.workloads or list(workloads.WORKLOADS)
    runs: List[Dict[str, Any]] = []
    status = 0
    for rep in range(args.repeat):
        seed = args.seed + rep
        by_workload: Dict[str, Dict[str, Any]] = {}
        for workload in selected:
            code, plain = _child(workload, seed, args.seconds, 0, args.smoke)
            status |= code
            if plain is None:
                continue
            runs.append(plain)
            by_workload[workload] = plain
            if args.trace:
                code, traced = _child(workload, seed, args.seconds, 1, args.smoke)
                status |= code
                if traced is None:
                    continue
                runs.append(traced)
                measured = traced["traced"]["run_s"] / plain["metrics"]["run_s"]["value"] - 1
                print("  (info) measured trace overhead: traced run_s / untraced - 1 = %.3f"
                      % measured)
                traced["measured_trace_overhead_share"] = measured
                by_workload[workload + "+trace"] = traced

        chaos, tierdown = by_workload.get("suite-chaos"), by_workload.get("suite-tierdown")
        if chaos and tierdown:
            # informational, never an end-to-end metric: a faster
            # interpreter lowers it
            print("== deoptless_speedup (suite-tierdown steady_ms / suite-chaos steady_ms)"
                  " %.3f ratio" % (tierdown["metrics"]["steady_ms"]["value"]
                                   / chaos["metrics"]["steady_ms"]["value"]))
        cold, steady = by_workload.get("compile-cold+trace"), by_workload.get("suite-steady+trace")
        if cold and steady:
            a = cold["shares"]["cold"]["compile"]
            b = steady["shares"]["timed"]["compile"]
            print("== compile layers: %.1f%% of compile-cold's cold rounds, %.1f%% of"
                  " suite-steady's timed section" % (100 * a, 100 * b))
            # a sizing check of the benchmark itself: if a later change makes
            # compilation so cheap that this trips, shrink compile-cold's sizes
            if a < 0.5 or a < 5 * b:
                print("  INVALID compile-cold no longer isolates the compile layers"
                      " (wants >= 50%% and >= 5x suite-steady's share)")
                status |= 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"python": sys.version.split()[0], "cpus": os.cpu_count(),
                       "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("== %s" % ("all results correct" if status == 0 else "FAILED"))
    return 1 if status else 0


def regen_expected() -> int:
    import runner
    values = runner.reference_values(
        workloads.expected_scripts(workloads.load_programs()))
    with open(EXPECTED, "w") as fh:
        json.dump(values, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %d expected values to %s" % (len(values), os.path.relpath(EXPECTED, ROOT)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="run this one workload in-process (the driver's form)")
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    help="restrict a run of all workloads to these")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs of every workload, with seeds seed, seed+1, ...")
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes and counts; checks the harness, measures nothing")
    ap.add_argument("--out", help="write the full record(s) to this JSON file")
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args(argv)
    if args.regen_expected:
        return regen_expected()
    if args.seconds is None:
        args.seconds = benchmark_json()["run_seconds"]
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
