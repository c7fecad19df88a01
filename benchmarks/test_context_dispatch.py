"""Contextual-dispatch benchmark — per-call-context versions vs one generic.

The acceptance bar for the entry-context dispatch layer: a call site that
alternates between 2–3 argument contexts (int vector / dbl vector / scalar
mixes) must run >=1.5x geomean faster with contextual dispatch than the
single-version baseline.  The baseline speculates on the first context,
deopts on the second, re-speculates on the lub, deopts again and settles on
generic boxed code; contextual dispatch gives each context its own typed,
unboxed version selected once at entry.

Both engines (codegen and reference loops) must produce bit-identical
dispatch signatures *within* each ctxdispatch setting: version selection is
a policy decision made by the VM, not the executor, so only wall-clock may
differ between engines.

Results are persisted to ``BENCH_context.json`` at the repo root (the
tracked acceptance artifact checked by ``benchmarks/check_artifacts.py``).
"""

import time

from conftest import bench_scale, report
from repro import Config, RVM, from_r
from repro.bench.harness import format_speedup_table, geomean, save_json
from repro.bench.programs import REGISTRY

#: the entry-polymorphic group: one closure, alternating argument contexts
CTX_KERNELS = {
    "ctx_poly_sum": (60, 600),
    "ctx_poly_acc": (3000, 30000),
    "ctx_poly_mix3": (90, 900),
}


def _time_ctx(name, ctxdispatch, threaded, n, warmup=3, iters=7):
    """Time one workload under the given dispatch/engine configuration.

    Returns (best wall-clock, result, dispatch signature, snapshot).
    """
    w = REGISTRY.get(name)
    cfg = Config(compile_threshold=1, osr_threshold=50)
    cfg.ctxdispatch = ctxdispatch
    cfg.threaded_dispatch = threaded
    # dispatched OSR registers the hot loop's live context as entry-dispatch
    # evidence, which settles these workloads into a different (deopt-free,
    # single-version) equilibrium — pin it off so this bench keeps measuring
    # the multi-version-vs-deopt-and-widen dynamics it asserts on (the same
    # isolation the hop bench applies in reverse by pinning ctxdispatch=False)
    cfg.osr_hop = False
    vm = RVM(cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(n))
    call = w.call_code(n)
    result = None
    for _ in range(warmup):
        result = vm.eval(call)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        result = vm.eval(call)
        times.append(time.perf_counter() - t0)
    return min(times), from_r(result), vm.state.dispatch_signature(), vm.state.snapshot()


def test_context_dispatch_speedup(bench_scale):
    rows = []
    payload = {"scale": bench_scale, "kernels": {}}
    for name, (n_test, n_full) in CTX_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        c_time, c_res, c_sig, c_snap = _time_ctx(name, ctxdispatch=True, threaded=True, n=n)
        g_time, g_res, g_sig, g_snap = _time_ctx(name, ctxdispatch=False, threaded=True, n=n)
        speedup = g_time / c_time
        rows.append((name, speedup, "n=%d versions=%d" % (n, c_snap["ctx_compiles"])))
        payload["kernels"][name] = {
            "n": n,
            "context_s": c_time,
            "generic_s": g_time,
            "speedup": speedup,
            "ctx_compiles": c_snap["ctx_compiles"],
            "ctx_dispatches": c_snap["ctx_dispatches"],
            "baseline_deopts": g_snap["deopts"],
        }
        # dispatch is an optimization, not a semantics change
        assert c_res == g_res, "%s: contextual dispatch changed the result" % name
        # the feature actually engaged: several specialized versions live
        # side by side and the entry check selected them
        assert c_snap["ctx_compiles"] >= 2, "%s: fewer than 2 context versions" % name
        assert c_snap["ctx_dispatches"] > 0, "%s: entry dispatch never hit" % name

        # engine equivalence within each setting: the reference loops make
        # the same policy decisions, so the signatures are bit-identical
        _, r_res, cr_sig, _ = _time_ctx(name, ctxdispatch=True, threaded=False, n=n)
        assert r_res == c_res
        assert cr_sig == c_sig, "%s: engines diverged under ctxdispatch" % name
        _, r_res, gr_sig, _ = _time_ctx(name, ctxdispatch=False, threaded=False, n=n)
        assert r_res == g_res
        assert gr_sig == g_sig, "%s: engines diverged under generic dispatch" % name

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup"] = geomean(speedups)
    path = save_json("BENCH_context", payload)
    report(
        "Contextual dispatch: per-context versions vs single generic",
        format_speedup_table(rows)
        + "\ngeomean %.2fx  (results -> %s)" % (payload["geomean_speedup"], path),
    )

    # acceptance: specialized versions must beat the deopt-and-widen
    # baseline by >=1.5x overall, and every workload must improve
    assert payload["geomean_speedup"] >= 1.5, (
        "contextual dispatch below the 1.5x bar (%.2fx)"
        % payload["geomean_speedup"]
    )
    for name, speedup, _ in rows:
        assert speedup >= 1.1, "%s: contextual dispatch barely helps (%.2fx)" % (name, speedup)
