"""Native-tier micro-benchmark — codegen vs reference, vectorized vs scalar.

Three acceptance bars on the native tier:

* guard-hoisted loop vectorization (``opt/vectorize.py``) must buy a >=3x
  geomean, ``Config.vectorize`` on vs off on the default engine (the switch
  a user can actually flip), on the headline kernels (sum, colsum,
  spectralnorm, dotprod).  The loop-nest planner fuses spectralnorm's
  closure-call-per-element inner loops (map→reduce through the inlined
  ``eval_A``) and dotprod's VDOT/gather reductions into bulk kernels, so
  every kernel in the set must cover elements and clear its own per-kernel
  floor — there is no legitimately-scalar freeloader in the geomean;
* speculative call-target inlining (``opt/inline.py``) must buy a >=1.5x
  geomean over the guarded-call path (``Config.inline`` off) on the
  call-heavy group — small closures invoked from hot loops.  The
  ``call_poly`` workload drives a genuinely megamorphic site through the
  polymorphic inline cache; it is not inlinable by design and is reported
  separately (speedup ~1.0x, PIC hits on both configurations);
* the Python-codegen engine (``native/pycodegen.py`` — one specialized
  exec'd function per unit, no per-op dispatch at all) must buy a >=2x
  geomean over the reference loop (``threaded_dispatch=False``), the only
  other engine, across a mixed group of loop kernels and call-heavy
  workloads (``BENCH_pycodegen.json``).

Both engines must produce identical dispatch signatures, vectorized or not:
kernel accounting charges covered elements at exact scalar rates (the
per-element op totals of the replaced loop), so only wall-clock may differ.

Results are persisted as JSON via the harness (``benchmarks/results/`` or
``$REPRO_BENCH_JSON_DIR``) so CI can track both layers over time.
"""

import time

from conftest import bench_scale, report
from repro import Config, RVM, from_r
from repro.bench.harness import format_speedup_table, geomean, save_json
from repro.bench.programs import REGISTRY

#: the vectorization headline set — (workload, test-scale n, full-scale n):
#: the original bulk kernels plus the two loop-nest/fusion workloads
#: (closure-fused spectralnorm, VDOT+gather dotprod) that the nest planner
#: promoted from scalar to kernelized
VEC_KERNELS = {
    "sum_phases": (4000, 40000),
    "colsum": (200, 2000),
    "spectralnorm": (16, 40),
    "dotprod": (2000, 20000),
}

#: per-kernel wall-clock floors (speedup vs vectorize=False on the default
#: engine), each at most half of what BENCH_vectorize.json records
VEC_FLOORS = {
    "sum_phases": 6.0,
    "colsum": 8.0,
    "spectralnorm": 2.0,
    "dotprod": 2.5,
}

#: the call-heavy group: monomorphic call sites the inliner splices
CALL_KERNELS = {
    "call_scalar": (6000, 60000),
    "call_chain": (4000, 40000),
    "call_nested": (5000, 50000),
    "call_default": (6000, 60000),
}

#: the codegen group: a mixed bag of loop kernels and call-heavy workloads —
#: the tier must pay for itself across both shapes, not just on one
CODEGEN_KERNELS = {
    "sum_phases": (4000, 40000),
    "colsum": (200, 2000),
    "call_scalar": (6000, 60000),
    "call_default": (6000, 60000),
    "spectralnorm": (16, 40),
}


def _time_engine(name, threaded, n, vectorize=False, warmup=3, iters=7):
    w = REGISTRY.get(name)
    cfg = Config(compile_threshold=1, osr_threshold=50)
    cfg.threaded_dispatch = threaded
    cfg.vectorize = vectorize
    vm = RVM(cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(n))
    call = w.call_code(n)
    for _ in range(warmup):
        vm.eval(call)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        vm.eval(call)
        times.append(time.perf_counter() - t0)
    return min(times), vm.state.dispatch_signature(), vm.state.kernel_elements


def test_vectorize_speedup(bench_scale):
    rows = []
    payload = {
        "scale": bench_scale,
        "baseline": "vectorize=False on the default engine "
                    "(threaded_dispatch=True: per-unit Python codegen); "
                    "reference_s is vectorize=False on the reference loop",
        "kernels": {},
    }
    for name, (n_test, n_full) in VEC_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        v_time, v_sig, v_ke = _time_engine(name, threaded=True, n=n, vectorize=True)
        s_time, s_sig, _ = _time_engine(name, threaded=True, n=n)
        r_time, r_sig, _ = _time_engine(name, threaded=False, n=n)
        speedup = s_time / v_time
        rows.append((name, speedup, "n=%d ke=%d" % (n, v_ke)))
        payload["kernels"][name] = {
            "n": n,
            "vectorized_s": v_time,
            "scalar_s": s_time,
            "reference_s": r_time,
            "speedup_vs_scalar": speedup,
            "speedup_vs_reference": r_time / v_time,
            "kernel_elements": v_ke,
            "native_ops": v_sig["native_ops"],
        }
        # kernel accounting is exact: one signature, vectorized or scalar,
        # on either engine
        assert v_sig == s_sig, "%s: vectorized vs scalar diverged" % name
        assert v_sig == r_sig, "%s: vectorized vs reference diverged" % name

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup_vs_scalar"] = geomean(speedups)
    # covered-only geomean: the same statistic over just the kernels whose
    # bulk kernels actually covered elements.  Reported alongside the
    # all-kernels figure so a future decline regression (a kernel silently
    # dropping back to scalar) shows up as the two numbers separating
    # instead of one blended mean drifting.
    covered = [
        (name, s) for (name, s, _), k in zip(rows, payload["kernels"].values())
        if k["kernel_elements"] > 0
    ]
    payload["covered_kernels"] = [name for name, _ in covered]
    payload["covered_geomean_speedup_vs_scalar"] = (
        geomean([s for _, s in covered]) if covered else 0.0
    )
    payload["floors"] = dict(VEC_FLOORS)
    path = save_json("BENCH_vectorize", payload)
    report(
        "Vectorize: bulk kernels vs scalar loops (default engine)",
        format_speedup_table(rows)
        + "\ngeomean %.2fx (covered-only %.2fx over %d/%d)  (results -> %s)"
        % (
            payload["geomean_speedup_vs_scalar"],
            payload["covered_geomean_speedup_vs_scalar"],
            len(covered), len(rows), path,
        ),
    )

    # acceptance: >=3x geomean on the headline kernels, every kernel covers
    # elements (the nest planner leaves no scalar freeloaders in this set),
    # and each kernel clears its own floor
    assert payload["geomean_speedup_vs_scalar"] >= 3.0, (
        "vectorization below the 3x bar (%.2fx)"
        % payload["geomean_speedup_vs_scalar"]
    )
    for name in VEC_KERNELS:
        assert payload["kernels"][name]["kernel_elements"] > 0, (
            "%s: bulk kernels never covered an element" % name
        )
    assert payload["covered_geomean_speedup_vs_scalar"] >= 3.0
    for name, speedup, _ in rows:
        assert speedup >= VEC_FLOORS[name], (
            "%s: below its %.1fx floor (%.2fx)" % (name, VEC_FLOORS[name], speedup)
        )


def _time_calls(name, inline, n, warmup=2, iters=5):
    """Time one call-heavy workload with the inliner on or off; returns
    (best wall-clock, result, pic hits, inlined frames)."""
    w = REGISTRY.get(name)
    cfg = Config(compile_threshold=1, osr_threshold=50)
    cfg.inline = inline
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
    return min(times), from_r(result), vm.state.pic_hits, vm.state.inlined_frames


def test_inline_speedup(bench_scale):
    rows = []
    payload = {"scale": bench_scale, "kernels": {}}
    for name, (n_test, n_full) in CALL_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        i_time, i_res, _, i_frames = _time_calls(name, inline=True, n=n)
        g_time, g_res, _, g_frames = _time_calls(name, inline=False, n=n)
        speedup = g_time / i_time
        rows.append((name, speedup, "n=%d frames=%d" % (n, i_frames)))
        payload["kernels"][name] = {
            "n": n,
            "inlined_s": i_time,
            "guarded_s": g_time,
            "speedup": speedup,
            "inlined_frames": i_frames,
        }
        # inlining is an optimization, not a semantics change
        assert i_res == g_res, "%s: inline changed the result" % name
        assert i_frames > 0, "%s: nothing was inlined" % name
        assert g_frames == 0, "%s: inline=False still spliced frames" % name

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup"] = geomean(speedups)

    # the megamorphic workload exercises the PIC on both configurations and
    # is reported alongside (it is not part of the inlining geomean: the
    # site is polymorphic, so the inliner correctly leaves it alone)
    n_poly = REGISTRY.get("call_poly").n if bench_scale == "full" else 1500
    p_time, p_res, p_hits, _ = _time_calls("call_poly", inline=True, n=n_poly)
    q_time, q_res, q_hits, _ = _time_calls("call_poly", inline=False, n=n_poly)
    assert p_res == q_res
    assert p_hits > 0 and q_hits > 0, "megamorphic site never hit the PIC"
    payload["poly"] = {
        "n": n_poly,
        "inlined_s": p_time,
        "guarded_s": q_time,
        "speedup": q_time / p_time,
        "pic_hits": p_hits,
    }

    path = save_json("BENCH_inline", payload)
    report(
        "Inline: spliced callees vs guarded calls (native tier)",
        format_speedup_table(rows)
        + "\ncall_poly (PIC, not inlinable) %.2fx, %d pic hits"
        % (payload["poly"]["speedup"], p_hits)
        + "\ngeomean %.2fx  (results -> %s)" % (payload["geomean_speedup"], path),
    )

    # acceptance: splicing the callee must beat re-running the guarded call
    # protocol by >=1.5x overall, and every workload must improve
    assert payload["geomean_speedup"] >= 1.5, (
        "inlining below the 1.5x bar (%.2fx)" % payload["geomean_speedup"]
    )
    for name, speedup, _ in rows:
        assert speedup >= 1.1, "%s: inlining barely helps (%.2fx)" % (name, speedup)


def test_pycodegen_speedup(bench_scale):
    rows = []
    payload = {
        "scale": bench_scale,
        "baseline": "the reference loop (threaded_dispatch=False), "
                    "vectorize=False on both engines",
        "kernels": {},
    }
    for name, (n_test, n_full) in CODEGEN_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        c_time, c_sig, _ = _time_engine(name, threaded=True, n=n)
        r_time, r_sig, _ = _time_engine(name, threaded=False, n=n)
        speedup = r_time / c_time
        rows.append((name, speedup, "n=%d" % n))
        payload["kernels"][name] = {
            "n": n,
            "codegen_s": c_time,
            "reference_s": r_time,
            "speedup_vs_reference": speedup,
            "native_ops": c_sig["native_ops"],
        }
        # the generated functions execute the same op stream: one signature
        # on both engines, only wall-clock may differ
        assert c_sig == r_sig, "%s: codegen vs reference diverged" % name

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup_vs_reference"] = geomean(speedups)
    path = save_json("BENCH_pycodegen", payload)
    report(
        "Codegen: exec'd per-unit functions vs the reference loop (native tier)",
        format_speedup_table(rows)
        + "\ngeomean %.2fx  (results -> %s)"
        % (payload["geomean_speedup_vs_reference"], path),
    )

    # acceptance: eliminating per-op dispatch must pay >=2x overall, and
    # every workload must improve
    assert payload["geomean_speedup_vs_reference"] >= 2.0, (
        "codegen below the 2x bar (%.2fx)"
        % payload["geomean_speedup_vs_reference"]
    )
    for name, speedup, _ in rows:
        assert speedup >= 1.1, "%s: codegen barely helps (%.2fx)" % (name, speedup)
