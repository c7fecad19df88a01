"""Line census: the executable lines of ``src/repro`` that no workload runs.

``python3 benchmarks/linecensus.py [native/pycodegen.py ...] [--seconds S] [--seed N]`` runs every workload of
BENCHMARK.json through ``benchmarks/e2e/run.py --trace 0 --seconds 0.6`` (options passed through) in this process
under ``sys.settrace`` and ``threading.settrace``, then prints per file the lines (``co_lines()``) no workload
executed and the totals for ``src/repro`` and its JIT side (``ir opt native jit deoptless osr serve`` less
``native/executor.py``, the oracle).  For each file named (relative to ``src/repro``) it also lists those lines.
"""
import contextlib, json, os, runpy, sys, threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG, RUN = os.path.join(ROOT, "src", "repro") + os.sep, os.path.join(ROOT, "benchmarks", "e2e", "run.py")
JIT, ORACLE, hit = ("ir", "opt", "native", "jit", "deoptless", "osr", "serve"), os.path.join("native", "executor.py"), set()


def trace(frame, event, arg):  # global (a call) and local (a line) at once
    if frame.f_code.co_filename.startswith(PKG):
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return trace


if __name__ == "__main__":
    workloads = [w["name"] for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]
    show = [a for a in sys.argv[1:] if a.endswith(".py")]
    extra = [a for a in sys.argv[1:] if a not in show]
    threading.settrace(trace), sys.settrace(trace)
    for w in workloads:
        sys.argv = [RUN, "--workload", w, "--trace", "0", "--seconds", "0.6"] + extra
        with contextlib.suppress(SystemExit):
            runpy.run_path(RUN, run_name="__main__")
    sys.settrace(None), threading.settrace(None)
    unrun, total = {}, 0
    for f in (os.path.join(d, f) for d, _, fs in os.walk(PKG) for f in fs if f.endswith(".py")):
        codes, ex = [compile(open(f).read(), f, "exec")], set()
        while codes:  # every code object the module holds, nested ones included
            code = codes.pop()
            ex |= {ln for _, _, ln in code.co_lines() if ln is not None}
            codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
        total, unrun[f[len(PKG):]] = total + len(ex), sorted(ln for ln in ex if (f, ln) not in hit)
    print("\n".join("%5d  %s" % (len(n), f) for f, n in sorted(unrun.items(), key=lambda kv: -len(kv[1])) if n))
    jit = sum(len(n) for f, n in unrun.items() if f.split(os.sep)[0] in JIT and f != ORACLE)
    print("never executed: %d of %d executable lines; JIT side %d" % (sum(map(len, unrun.values())), total, jit))
    for f in show:
        print("%s never executed: %s" % (f, " ".join(map(str, unrun[f]))))
