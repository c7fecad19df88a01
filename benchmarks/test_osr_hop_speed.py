"""Dispatched-OSR benchmark — version hops + continuation tier-up vs the
terminal-continuation baseline.

The phase-change group (``src/repro/bench/programs/phaseflip.py``) warms a
hot loop monomorphically, then flips a variable's type mid-iteration under
chaos mode (fig6-style randomly failing assumptions).  Mis-speculations
*inside* deoptless continuations are where the two configurations diverge:

* ``osr_hop=0`` (the terminal baseline): the continuation is dropped and
  the rest of the activation runs in the interpreter — up to
  ``osr_threshold`` backedges before OSR-in compiles a single-use
  continuation from scratch.
* ``osr_hop=1``: ``RVM.deopt`` arms the backedge counter, the very next
  backedge consults the version tables, and the frame hops back into the
  *surviving* compiled version at the loop header (the generic is
  chaos-exempt from retirement when the failing origin was a continuation).
  Hot continuations additionally tier up into full entry versions, giving
  later hops a context-specialized target.

Both legs run ``enable_deoptless=True, ctxdispatch=False`` (entry-context
dispatch would absorb the phase change at the call boundary and neither
mechanism would be exercised) with an identical ``chaos_seed``, so the
comparison is deterministic and measured in cost-model cycles
(``vm.cycles()``), not wall-clock.

Acceptance (the ISSUE-9 bar): >=1.5x geomean cycles speedup across the
group, with ``osr_hops > 0`` and ``cont_tierups > 0`` in the hop leg, and
the two executors bit-identical per leg.  Results are persisted as
``BENCH_osr_hop.json`` at the repo root (tracked;
``benchmarks/check_artifacts.py`` enforces freshness).
"""

from conftest import bench_scale, report
from repro import Config, RVM, from_r
from repro.bench.harness import format_speedup_table, geomean, save_json
from repro.bench.programs import REGISTRY

#: the phase-change group — (workload, test-scale n, full-scale n)
PHASEFLIP_KERNELS = {
    "phaseflip_sum": (2000, 20000),
    "phaseflip_dot": (2000, 20000),
    "phaseflip_twice": (2000, 20000),
}

#: chaos rates chosen so a handful of continuation-interior guards fire per
#: measured call at either scale (draw count scales with n)
CHAOS_RATE = {"test": 2e-3, "full": 2e-4}

MEASURED_CALLS = 10


def _run_phaseflip(name, osr_hop, n, chaos_rate, threaded=True,
                   calls=MEASURED_CALLS):
    """Run one workload under one osr_hop leg; returns cycle cost + telemetry.

    The workload's setup performs the monomorphic (integer) warmup; the
    measured calls all flip mid-loop.  Cost is the ``vm.cycles()`` delta
    over the measured calls — deterministic given ``chaos_seed``.
    """
    w = REGISTRY.get(name)
    cfg = Config(compile_threshold=1, enable_deoptless=True,
                 ctxdispatch=False, chaos_rate=chaos_rate, chaos_seed=42)
    cfg.osr_hop = osr_hop
    cfg.threaded_dispatch = threaded
    vm = RVM(cfg)
    vm.eval(w.source)
    vm.eval(w.setup_code(n))
    call = w.call_code(n)
    c0 = vm.cycles()
    s = vm.state
    base = {k: getattr(s, k) for k in
            ("osr_hops", "cont_tierups", "osr_hop_declines",
             "deoptless_dispatches", "interp_ops")}
    result = None
    for _ in range(calls):
        result = vm.eval(call)
    cycles = vm.cycles() - c0
    delta = {k: getattr(s, k) - v for k, v in base.items()}
    return cycles, from_r(result), s.dispatch_signature(), delta


def test_osr_hop_speedup(bench_scale):
    chaos = CHAOS_RATE["full" if bench_scale == "full" else "test"]
    rows = []
    payload = {"scale": bench_scale, "chaos_rate": chaos, "kernels": {}}
    total_hops = 0
    total_tierups = 0
    for name, (n_test, n_full) in PHASEFLIP_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        h_cyc, h_res, _, h_d = _run_phaseflip(name, osr_hop=True, n=n,
                                              chaos_rate=chaos)
        b_cyc, b_res, _, b_d = _run_phaseflip(name, osr_hop=False, n=n,
                                              chaos_rate=chaos)
        speedup = b_cyc / h_cyc
        rows.append((name, speedup, "n=%d hops=%d tierups=%d interp %d->%d"
                     % (n, h_d["osr_hops"], h_d["cont_tierups"],
                        b_d["interp_ops"], h_d["interp_ops"])))
        payload["kernels"][name] = {
            "n": n,
            "hop_cycles": h_cyc,
            "baseline_cycles": b_cyc,
            "speedup": speedup,
            "osr_hops": h_d["osr_hops"],
            "cont_tierups": h_d["cont_tierups"],
            "osr_hop_declines": h_d["osr_hop_declines"],
            "deoptless_dispatches_hop": h_d["deoptless_dispatches"],
            "deoptless_dispatches_base": b_d["deoptless_dispatches"],
            "interp_ops_hop": h_d["interp_ops"],
            "interp_ops_base": b_d["interp_ops"],
        }
        # a version hop is an optimization, not a semantics change
        assert h_res == b_res, "%s: osr_hop changed the result" % name
        # the baseline leg must never hop (the escape hatch is real)
        assert b_d["osr_hops"] == 0, "%s: osr_hop=0 leg hopped" % name
        total_hops += h_d["osr_hops"]
        total_tierups += h_d["cont_tierups"]

    # the mechanisms under test must actually fire on their target group
    assert total_hops > 0, "no version hop occurred in the hop leg"
    assert total_tierups > 0, "no continuation tiered up in the hop leg"

    speedups = [s for _, s, _ in rows]
    payload["geomean_speedup"] = geomean(speedups)
    path = save_json("BENCH_osr_hop", payload)
    report(
        "Dispatched OSR: version hops vs terminal continuations (cycles)",
        format_speedup_table(rows)
        + "\ngeomean %.2fx  (results -> %s)" % (payload["geomean_speedup"], path),
    )

    # acceptance: hopping back into compiled code must beat interpreting the
    # rest of the activation by >=1.5x overall, and no workload may regress
    assert payload["geomean_speedup"] >= 1.5, (
        "dispatched OSR below the 1.5x bar (%.2fx)" % payload["geomean_speedup"]
    )
    for name, speedup, _ in rows:
        assert speedup >= 1.0, "%s: osr_hop regressed (%.2fx)" % (name, speedup)


def test_osr_hop_engines_agree(bench_scale):
    """Both executors produce one dispatch signature per osr_hop leg.

    Every hop seeds a register file mid-stream (``execute_at``); the
    contract is that the reference loop and pycodegen then execute the
    identical op/guard/chaos-draw stream.  Checked under
    osr_hop=1 and osr_hop=0 separately — the legs differ by design.
    """
    chaos = CHAOS_RATE["full" if bench_scale == "full" else "test"]
    for name, (n_test, n_full) in PHASEFLIP_KERNELS.items():
        n = n_full if bench_scale == "full" else n_test
        for hop in (True, False):
            c_cyc, c_res, c_sig, _ = _run_phaseflip(
                name, osr_hop=hop, n=n, chaos_rate=chaos, threaded=True, calls=3)
            r_cyc, r_res, r_sig, _ = _run_phaseflip(
                name, osr_hop=hop, n=n, chaos_rate=chaos, threaded=False, calls=3)
            leg = "osr_hop=%d" % hop
            assert c_res == r_res, "%s %s: results diverged" % (name, leg)
            assert c_sig == r_sig, "%s %s: codegen vs reference diverged" % (name, leg)
            assert c_cyc == r_cyc, "%s %s: cycle accounting diverged" % (name, leg)
