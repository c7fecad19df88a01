"""The per-layer metrics: what each one is made of.

Layers are the ``src/repro/`` subpackages.  A ``*_ms`` metric is the
**self** time of the named spans from the traced pass (duration minus the
part child spans cover) unless its source says ``total``; counts are VM
counters summed over the workload's VMs.  A counter the VM no longer has
reports ``UNAVAILABLE`` instead of failing the run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

UNAVAILABLE = -1

#: (metric, unit, better, source) — source is one of
#:   ("self", span names...)    summed self time, ms
#:   ("total", span names...)   summed duration, ms
#:   ("calls", span names...)   spans entered
#:   ("sum", span name, field)  a detail field summed over the spans
#:   ("errors", span name)      spans that ended in an exception
#:   ("count", counter)         a VM counter
#:   ("derived",)               computed in :func:`per_layer` below
PER_LAYER: Tuple[Tuple[str, str, str, tuple], ...] = (
    ("rlang.parse_ms", "ms", "lower", ("self", "rlang.parse")),
    ("rlang.parse_calls", "count", "lower", ("calls", "rlang.parse")),
    ("rlang.source_bytes", "count", "lower", ("sum", "rlang.parse", "source_bytes")),

    ("bytecode.compile_ms", "ms", "lower", ("self", "bytecode.compile")),
    ("bytecode.compile_calls", "count", "lower", ("calls", "bytecode.compile")),
    ("bytecode.interp_ms", "ms", "lower", ("self", "bytecode.interp")),
    ("bytecode.interp_runs", "count", "lower", ("calls", "bytecode.interp")),
    ("bytecode.interp_ops", "count", "lower", ("count", "interp_ops")),
    ("bytecode.interp_ns_per_op", "ns", "lower", ("derived",)),

    ("runtime.allocations", "count", "lower", ("count", "allocations")),

    ("ir.build_ms", "ms", "lower", ("self", "ir.build")),
    ("ir.build_calls", "count", "lower", ("calls", "ir.build")),
    ("ir.build_failures", "count", "lower", ("errors", "ir.build")),
    ("ir.verify_ms", "ms", "lower", ("self", "ir.verify")),
    ("ir.verify_calls", "count", "lower", ("calls", "ir.verify")),
    ("ir.instrs_built", "count", "lower", ("sum", "ir.build", "instrs")),

    ("opt.inline_ms", "ms", "lower", ("self", "opt.inline")),
    ("opt.simplify_ms", "ms", "lower", ("self", "opt.simplify")),
    ("opt.dse_ms", "ms", "lower", ("self", "opt.dse")),
    ("opt.dce_ms", "ms", "lower", ("self", "opt.dce")),
    ("opt.vectorize_ms", "ms", "lower", ("self", "opt.vectorize")),
    ("opt.total_ms", "ms", "lower", ("total", "opt.optimize")),
    ("opt.instrs_out", "count", "lower", ("sum", "opt.optimize", "instrs")),
    ("opt.inlined_frames", "count", "higher", ("count", "inlined_frames")),
    ("opt.vec_plans", "count", "higher", ("count", "vec_plans")),
    ("opt.vec_declines", "count", "lower", ("count", "vec_declines")),
    ("opt.env_elided", "count", "higher", ("count", "env_elided")),
    ("opt.promise_elided", "count", "higher", ("count", "promise_elided")),

    ("native.lower_ms", "ms", "lower", ("self", "native.lower")),
    ("native.lower_calls", "count", "lower", ("calls", "native.lower")),
    ("native.lowered_instrs", "count", "lower", ("count", "lowered_instrs")),
    ("native.codegen_emit_ms", "ms", "lower", ("self", "native.codegen_emit")),
    ("native.codegen_bind_ms", "ms", "lower", ("self", "native.codegen_bind")),
    ("native.codegen_units", "count", "lower", ("count", "pycodegen_units")),
    ("native.codegen_failures", "count", "lower", ("count", "pycodegen_failures")),
    ("native.exec_ms", "ms", "lower", ("self", "native.exec", "native.exec_at")),
    ("native.exec_calls", "count", "lower", ("calls", "native.exec", "native.exec_at")),
    ("native.ops", "count", "lower", ("count", "native_ops")),
    ("native.generic_ops", "count", "lower", ("count", "native_generic_ops")),
    ("native.guards", "count", "lower", ("count", "guards")),
    ("native.kernel_elements", "count", "higher", ("count", "kernel_elements")),
    ("native.ns_per_op", "ns", "lower", ("derived",)),

    ("osr.in_ms", "ms", "lower", ("self", "osr.in")),
    ("osr.in_count", "count", "higher", ("count", "osr_ins")),
    ("osr.out_ms", "ms", "lower", ("self", "osr.out")),
    ("osr.out_count", "count", "lower", ("calls", "osr.out")),
    ("osr.hop_ms", "ms", "lower", ("self", "osr.hop_in", "osr.hop_out")),
    ("osr.hops", "count", "higher", ("count", "osr_hops")),
    ("osr.hop_declines", "count", "lower", ("count", "osr_hop_declines")),

    ("deoptless.try_ms", "ms", "lower", ("self", "deoptless.try")),
    ("deoptless.compile_ms", "ms", "lower", ("total", "deoptless.compile")),
    ("deoptless.dispatches", "count", "higher", ("count", "deoptless_dispatches")),
    ("deoptless.compiles", "count", "lower", ("count", "deoptless_compiles")),
    ("deoptless.misses", "count", "lower", ("count", "deoptless_misses")),
    ("deoptless.bailouts", "count", "lower", ("count", "deoptless_bailouts")),
    ("deoptless.cont_tierups", "count", "higher", ("count", "cont_tierups")),
    ("deoptless.dispatch_ratio", "ratio", "higher", ("derived",)),

    ("jit.deopt_ms", "ms", "lower", ("self", "jit.deopt")),
    ("jit.deopts", "count", "lower", ("count", "deopts")),
    ("jit.tierup_ms", "ms", "lower", ("total", "jit.tierup", "jit.ctx_compile")),
    ("jit.compiles", "count", "lower", ("count", "compiles")),
    ("jit.compiled_instrs", "count", "lower", ("count", "compiled_instrs")),
    ("jit.ctx_dispatches", "count", "higher", ("count", "ctx_dispatches")),
    ("jit.ctx_compiles", "count", "lower", ("count", "ctx_compiles")),
    ("jit.invalidations", "count", "lower", ("count", "invalidations")),
    ("jit.code_size_instrs", "count", "lower", ("count", "code_size")),
    ("jit.codecache_lookup_ms", "ms", "lower", ("self", "jit.codecache_lookup")),
    ("jit.codecache_insert_ms", "ms", "lower", ("self", "jit.codecache_insert")),
    ("jit.codecache_hits", "count", "higher", ("count", "codecache_hits")),
    ("jit.codecache_misses", "count", "lower", ("count", "codecache_misses")),
    ("jit.codecache_hit_ratio", "ratio", "higher", ("derived",)),
    ("jit.codecache_disk_hits", "count", "higher", ("count", "codecache_disk_hits")),
    ("jit.persist_save_ms", "ms", "lower", ("self", "jit.persist_save")),
    ("jit.model_cycles", "count", "lower", ("count", "model_cycles")),

    ("serve.queue_wait_ms", "ms", "lower", ("derived",)),
    ("serve.run_ms", "ms", "lower", ("total", "serve.run")),
    ("serve.requests", "count", "higher", ("count", "serve_requests")),
    ("serve.shared_hits", "count", "higher", ("count", "shared_cache_hits")),
    ("serve.shared_rebinds", "count", "higher", ("count", "shared_rebinds")),
    ("serve.batched_compiles", "count", "higher", ("count", "batched_compiles")),
    ("serve.shared_hit_ratio", "ratio", "higher", ("derived",)),
    ("serve.fleet_builds", "count", "lower", ("count", "fleet_builds")),

    ("harness.trace_overhead_share", "ratio", "lower", ("derived",)),
    ("harness.unattributed_ms", "ms", "lower", ("self", "jit.eval")),
    ("harness.spans", "count", "lower", ("derived",)),
)

#: counts that must repeat exactly between two runs of one seed on the
#: single-threaded workloads
DETERMINISTIC = ("jit.deopts", "jit.model_cycles", "native.lowered_instrs")
SINGLE_THREADED = ("suite-steady", "suite-chaos", "suite-tierdown",
                   "phase-change", "compile-cold", "interp-only")

#: the spans that make code rather than run it — what compile-cold is for
COMPILE_SPANS = (
    "rlang.parse", "bytecode.compile", "ir.build", "ir.verify", "opt.optimize",
    "opt.inline", "opt.simplify", "opt.dse", "opt.dce", "opt.vectorize",
    "native.lower", "native.codegen_emit", "native.codegen_bind",
    "jit.codecache_lookup", "jit.codecache_insert",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def merge_counts(counts: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Counters summed over a workload's sections."""
    out: Dict[str, float] = {}
    for section in counts.values():
        for key, v in section.items():
            out[key] = out.get(key, 0) + v
    return out


def queue_wait_ms(spans: List[Dict[str, Any]]) -> float:
    """Summed time between ``Server.submit`` and the start of the matching
    ``Server._run``.  A tenant's requests run in the order submitted."""
    submits: Dict[str, List[int]] = {}
    runs: Dict[str, List[int]] = {}
    for s in spans:
        if s["name"] == "serve.submit":
            submits.setdefault(s["tenant"], []).append(s["t0_ns"])
        elif s["name"] == "serve.run":
            runs.setdefault(s["tenant"], []).append(s["t0_ns"])
    wait = 0
    for tenant, starts in runs.items():
        for sent, started in zip(sorted(submits.get(tenant, [])), sorted(starts)):
            wait += max(0, started - sent)
    return wait / 1e6


def per_layer(counts: Dict[str, float], tracer, totals, overhead_share: float
              ) -> Dict[str, float]:
    """Every metric of ``PER_LAYER`` from a traced run's spans (``totals``
    is ``tracer.totals()``) and the workload's summed counters."""
    spans = tracer.spans()
    by_name: Dict[str, Dict[str, float]] = {}
    for (_, name), t in totals.items():
        row = by_name.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        for k in row:
            row[k] += t[k]

    def span_sum(names, field):
        return sum(by_name.get(n, {}).get(field, 0) for n in names)

    out: Dict[str, float] = {}
    for metric, _unit, _better, source in PER_LAYER:
        kind = source[0]
        if kind == "self":
            out[metric] = span_sum(source[1:], "self_ns") / 1e6
        elif kind == "total":
            out[metric] = span_sum(source[1:], "total_ns") / 1e6
        elif kind == "calls":
            out[metric] = span_sum(source[1:], "count")
        elif kind == "sum":
            out[metric] = sum(s.get(source[2], 0) for s in spans if s["name"] == source[1])
        elif kind == "errors":
            out[metric] = sum(1 for s in spans if s["name"] == source[1] and "error" in s)
        elif kind == "count":
            out[metric] = counts.get(source[1], UNAVAILABLE)

    def have(*names):
        return all(out[n] != UNAVAILABLE for n in names)

    out["bytecode.interp_ns_per_op"] = (
        _ratio(out["bytecode.interp_ms"] * 1e6, out["bytecode.interp_ops"])
        if have("bytecode.interp_ops") else UNAVAILABLE)
    out["native.ns_per_op"] = (
        _ratio(out["native.exec_ms"] * 1e6, out["native.ops"])
        if have("native.ops") else UNAVAILABLE)
    out["deoptless.dispatch_ratio"] = (
        _ratio(out["deoptless.dispatches"], out["jit.deopts"])
        if have("deoptless.dispatches", "jit.deopts") else UNAVAILABLE)
    out["jit.codecache_hit_ratio"] = (
        _ratio(out["jit.codecache_hits"],
               out["jit.codecache_hits"] + out["jit.codecache_misses"])
        if have("jit.codecache_hits", "jit.codecache_misses") else UNAVAILABLE)
    hits, misses = counts.get("fleet_shared_hits"), counts.get("fleet_shared_misses")
    out["serve.shared_hit_ratio"] = (
        _ratio(hits, hits + misses) if hits is not None and misses is not None
        else UNAVAILABLE)
    out["serve.queue_wait_ms"] = queue_wait_ms(spans)
    out["harness.trace_overhead_share"] = overhead_share
    out["harness.spans"] = tracer.span_count()
    return out


def layer_shares(totals, section: Optional[str] = None) -> Dict[str, float]:
    """Each layer's share of the traced time (Σ self time = Σ root span
    durations), over one section or all of them.  ``compile`` is the share
    of ``COMPILE_SPANS``, counted across layers."""
    by_layer: Dict[str, float] = {}
    compile_ns = 0
    total = 0
    for (sec, name), t in totals.items():
        if section is not None and sec != section:
            continue
        layer = "harness" if name == "jit.eval" else name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0) + t["self_ns"]
        total += t["self_ns"]
        if name in COMPILE_SPANS:
            compile_ns += t["self_ns"]
    shares = {layer: _ratio(ns, total) for layer, ns in sorted(by_layer.items())}
    shares["compile"] = _ratio(compile_ns, total)
    return shares
