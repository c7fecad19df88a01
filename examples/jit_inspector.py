"""Inspect a function across all compilation tiers.

    python examples/jit_inspector.py

Shows, for the paper's sum function: the bytecode the baseline interpreter
runs, the collected type feedback, the speculative IR (with Assume guards
and FrameStates), the lowered register code, and the deoptless dispatch
table after a phase change.

Then, for a call-heavy driver: the speculative inline tree, the nested
FrameState chains its compiled code carries for checkpoints inside inlined
bodies, and an end-to-end deopt-through-inlinee trace (the free variable
``k`` changes type, failing a guard three frames deep; deoptless compiles
a continuation for the chained state and the outer frames resume).
"""

from repro import Config, RVM
from repro.bytecode.opcodes import disassemble as bc_disassemble
from repro.ir.builder import GraphBuilder
from repro.ir.cfg import print_graph
from repro.native.ops import disassemble as native_disassemble
from repro.serve import FleetCompileQueue

SRC = """
sumfn <- function(data, len) {
  total <- 0
  for (i in 1:len) total <- total + data[[i]]
  total
}
"""


def main() -> None:
    vm = RVM(Config(enable_deoptless=True, compile_threshold=3))
    vm.eval(SRC)
    clo = vm.global_env.get("sumfn")

    print("=" * 70)
    print("1. BYTECODE (the profiling baseline tier)")
    print("=" * 70)
    print(bc_disassemble(clo.code))

    # warm up on doubles so the profile has something to say
    vm.eval("x <- c(1.5, 2.5, 3.5)")
    for _ in range(6):
        vm.eval("sumfn(x, 3L)")

    print()
    print("=" * 70)
    print("2. TYPE FEEDBACK (collected by the interpreter)")
    print("=" * 70)
    for pc in sorted(clo.code.feedback):
        print("  pc %3d: %r" % (pc, clo.code.feedback[pc]))

    print()
    print("=" * 70)
    print("3. SPECULATIVE IR (Assume guards reference FrameStates)")
    print("=" * 70)
    graph = GraphBuilder(vm, clo.code, clo).build()
    print(print_graph(graph))

    print()
    print("=" * 70)
    print("4. NATIVE REGISTER CODE (the optimized tier)")
    print("=" * 70)
    print(native_disassemble(clo.jit.version))

    # provoke a deoptless dispatch
    vm.eval("xi <- c(1L, 2L, 3L)")
    vm.eval("sumfn(xi, 3L)")
    print()
    print("=" * 70)
    print("5. DEOPTLESS DISPATCH TABLE after the int phase change")
    print("=" * 70)
    for ctx, ncode in clo.jit.deoptless_table.entries:
        print("  %r\n    -> %r" % (ctx, ncode))

    print()
    print("=" * 70)
    print("6. EVENT LOG")
    print("=" * 70)
    for e in vm.state.events:
        details = {k: v for k, v in e.details.items()}
        print("  %-20s %-10s %s" % (e.kind, e.fn_name, details))

    inspect_inlining()
    inspect_code_cache()
    inspect_context_dispatch()
    inspect_vectorizer_declines()
    inspect_vectorizer_plans()
    inspect_osr_hops()
    inspect_fleet()


#: ``inc`` reads the free variable ``k`` from its lexical environment, so
#: its inlined copies keep a type guard the optimizer cannot fold away —
#: the checkpoint that makes the nested FrameState chains observable
INLINE_SRC = """
k <- 1
inc <- function(x) x + k
twice <- function(x) {
  a <- inc(x)
  inc(a)
}
driver <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + twice(i)
    i <- i + 1
  }
  s
}
"""


def _chain_str(descr) -> str:
    parts = []
    while descr is not None:
        fun = " (%s)" % descr.fun.name if descr.fun is not None else ""
        parts.append("%s@pc%d%s" % (descr.code.name, descr.pc, fun))
        descr = descr.parent
    return " -> ".join(parts)


def inspect_inlining() -> None:
    vm = RVM(Config(enable_deoptless=True, compile_threshold=3))
    vm.eval(INLINE_SRC)
    for _ in range(6):
        vm.eval("driver(40)")
    clo = vm.global_env.get("driver")

    print()
    print("=" * 70)
    print("7. SPECULATIVE INLINE TREE (for the compiled driver)")
    print("=" * 70)
    print("  driver")
    for e in vm.state.events_of("inline"):
        if e.fn_name != "driver":
            continue
        print("  %s%s  (call pc %d, %d bytecode ops)"
              % ("    " * e.details["depth"], e.details["callee"],
                 e.details["pc"], e.details["size"]))

    print()
    print("=" * 70)
    print("8. NESTED FRAMESTATE CHAINS (innermost frame first)")
    print("=" * 70)
    seen = set()
    for d in clo.jit.version.deopts:
        if d.parent is None:
            continue
        s = _chain_str(d)
        if s not in seen:
            seen.add(s)
            print("  " + s)

    print()
    print("=" * 70)
    print("9. DEOPT THROUGH AN INLINED FRAME (k becomes an int)")
    print("=" * 70)
    vm.eval("k <- 2L")
    r = vm.eval("driver(5)")
    print("  driver(5) =", r, " (exact: every frame of the chain resumed)")
    for e in vm.state.events:
        if e.kind in ("deopt", "deoptless_dispatch") or (
                e.kind == "compile" and e.details["unit"] == "cont"):
            details = {k: v for k, v in e.details.items()}
            print("  %-20s %-10s %s" % (e.kind, e.fn_name, details))
    inc_clo = vm.global_env.get("inc")
    if inc_clo.jit.deoptless_table is not None:
        print("  inc's dispatch table:")
        for ctx, ncode in inc_clo.jit.deoptless_table.entries:
            print("    %r\n      -> %r" % (ctx, ncode))


def inspect_code_cache() -> None:
    """The context-keyed code cache and tier-up through a fleet queue."""
    vm = RVM(Config(enable_deoptless=True, compile_threshold=3, codecache=True))
    fleet = FleetCompileQueue(0)  # no workers: built only when drained
    vm.compile_queue.attach(fleet)
    vm.eval(SRC)
    vm.eval(SRC.replace("sumfn", "sumfn2"))  # identical body, new name
    vm.eval("x <- c(1.5, 2.5, 3.5)")
    vm.eval("xi <- c(1L, 2L, 3L)")

    print()
    print("=" * 70)
    print("10. TIER-UP QUEUE (a fleet with no workers: enqueue, drain, install)")
    print("=" * 70)
    for _ in range(6):
        vm.eval("sumfn(x, 3L)")
    print("  pending=%d  enqueues=%d  installs=%d"
          % (len(fleet), vm.state.tierup_enqueues, vm.state.tierup_installs))
    n = fleet.drain()
    print("  drained %d request(s): built and staged=%d" % (n, len(vm.compile_queue.ready)))
    vm.compile_queue.install_ready()  # what the VM's next call does
    print("  installed on the VM's thread: installs=%d compiles=%d"
          % (vm.state.tierup_installs, vm.state.compiles))

    print()
    print("=" * 70)
    print("11. CODE CACHE (sumfn2 shares sumfn's unit; a phase change adds a cont)")
    print("=" * 70)
    for _ in range(6):
        vm.eval("sumfn2(x, 3L)")
    fleet.drain()
    vm.eval("sumfn(xi, 3L)")   # deoptless continuation, cached
    vm.eval("sumfn2(xi, 3L)")  # same context in the sibling: served from cache
    print(vm.code_cache.describe())
    print("  hits=%d stable_hits=%d misses=%d  compiles=%d (sumfn2 paid zero:"
          " rebound from sumfn's live unit," % (
              vm.state.codecache_hits, vm.state.codecache_stable_hits,
              vm.state.codecache_misses, vm.state.compiles))
    print("  through bytes made on the spot; with a store attached they are"
          " made at insert)")
    for e in vm.state.events_of("codecache_hit"):
        details = {k: v for k, v in e.details.items()}
        print("  %-20s %-10s %s" % (e.kind, e.fn_name, details))


#: a driver so the CALL site's argument-kind profiles are observable in a
#: closure's persistent feedback (top-level code objects are transient)
CTX_SRC = SRC + """
ctxdriver <- function(v, n, m) {
  s <- 0
  j <- 0
  while (j < m) {
    s <- s + sumfn(v, n)
    j <- j + 1
  }
  s
}
"""


def inspect_context_dispatch() -> None:
    """The entry version tables: one compiled version per call context."""
    vm = RVM(Config(compile_threshold=3, ctxdispatch=True,
                    dispatch_versions=2))
    vm.eval(CTX_SRC)
    vm.eval("xi <- c(1L, 2L, 3L)")
    vm.eval("xd <- c(1.5, 2.5, 3.5)")
    vm.eval("xl <- c(TRUE, FALSE, TRUE)")
    # sumfn is entry-polymorphic: three argument contexts hit the same call
    # boundary.  dbl runs first so the int context cannot ride on a wider
    # dbl version (int <= dbl) and compiles its own; the lgl calls then
    # dispatch into the int version (lgl <= int in the context order)
    for _ in range(6):
        vm.eval("ctxdriver(xd, 3L, 4L)")
        vm.eval("ctxdriver(xi, 3L, 4L)")
        vm.eval("ctxdriver(xl, 3L, 4L)")

    print()
    print("=" * 70)
    print("12. ENTRY VERSION TABLE (one compiled version per call context)")
    print("=" * 70)
    clo = vm.global_env.get("sumfn")
    st = clo.jit
    driver = vm.global_env.get("ctxdriver")
    fb = next((s for s in driver.code.feedback.values()
               if getattr(s, "arg_profiles", None)), None)
    if fb is not None:
        print("  ctxdriver's call-site arg-kind profiles: %s"
              % ", ".join("(%s)" % ", ".join(k.name for k in p)
                          for p in fb.arg_profiles))
    if st.versions is None:
        print("  (no versions)")
        return
    print("  versions (scanned most-specific first, generic falls through):")
    for ctx, code in st.versions.entries:
        print("    spec=%2d %r\n      -> %r" % (ctx.specificity(), ctx, code))
    print("  ctx_compiles=%d ctx_dispatches=%d"
          % (vm.state.ctx_compiles, vm.state.ctx_dispatches))
    print("  table refusals=%d (dispatch_versions=%d)"
          % (vm.state.dispatch_refusals, vm.config.dispatch_versions))
    for e in vm.state.events_of("compile"):
        if e.details["ctx"] is not None:
            details = {k: v for k, v in e.details.items()}
            print("  %-20s %-10s %s" % (e.kind, e.fn_name, details))


#: spectralnorm in miniature: the hot loop calls a closure per element.
#: After inlining, the fused ``s + av(v[[i]])`` expression is a map→reduce
#: the vectorizer recognizes, so ``dot`` now kernelizes instead of being
#: refused.  ``cond`` keeps the decline panel honest: branching inside the
#: body still declines, and the log says why instead of silently reporting
#: ``kernel_elements: 0``
VEC_SRC = """
av <- function(x) x / 2
dot <- function(v, n) {
  s <- 0
  for (i in 1:n) s <- s + av(v[[i]])
  s
}
plain <- function(v, n) {
  s <- 0
  for (i in 1:n) s <- s + v[[i]]
  s
}
cond <- function(v, n) {
  s <- 0
  for (i in 1:n) if (i < 100) s <- s + v[[i]]
  s
}
"""


def inspect_vectorizer_declines() -> None:
    """Why hot loops were (not) kernelized."""
    vm = RVM(Config(compile_threshold=3, vectorize=True))
    vm.eval(VEC_SRC)
    vm.eval("x <- 1.5 * (1:32)")
    for _ in range(6):
        vm.eval("dot(x, 32L)")
        vm.eval("plain(x, 32L)")
        vm.eval("cond(x, 32L)")

    print()
    print("=" * 70)
    print("13. VECTORIZER DECLINES (why a loop was not kernelized)")
    print("=" * 70)
    print("  kernel_elements=%d  vec_declines=%d"
          % (vm.state.kernel_elements, vm.state.vec_declines))
    print("  declines by reason:")
    for reason, count in sorted(vm.state.vec_decline_reasons.items()):
        print("    %-28s %d" % (reason, count))
    print("  decline log (fn, bytecode pc, reason, times seen):")
    for fn, pc, reason, count in vm.state.vec_decline_log:
        print("    %-12s pc %3d  %-24s x%d" % (fn, pc, reason, count))


#: a loop nest (inner counted reduction under a scalar outer driver)
NEST_SRC = """
nest <- function(v, n, m) {
  total <- 0
  for (o in 1:m) {
    s <- 0
    for (i in 1:n) s <- s + v[[i]] * o
    total <- total + s
  }
  total
}
"""


def inspect_vectorizer_plans() -> None:
    """The nest planner: which loops became kernels, under which driver."""
    vm = RVM(Config(compile_threshold=3, vectorize=True))
    vm.eval(NEST_SRC)
    vm.eval("x <- 1.5 * (1:32)")
    for _ in range(6):
        vm.eval("nest(x, 32L, 8L)")

    print()
    print("=" * 70)
    print("14. VECTORIZER NEST PLANS (loops that became kernels)")
    print("=" * 70)
    print("  kernel_elements=%d  plans=%d"
          % (vm.state.kernel_elements, len(vm.state.vec_plans)))
    print("  plan (fn, inner pc, kernel kind, outer driver pc):")
    for fn, pc, kind, outer_pc in vm.state.vec_plans:
        outer = "pc %3d" % outer_pc if outer_pc is not None else "(flat) "
        print("    %-8s pc %3d  %-10s outer %s" % (fn, pc, kind, outer))


#: the fig6-style phase flip: the loop body calls a global helper closure,
#: so its speculatively-inlined identity guard executes every iteration and
#: chaos mode can fail an assumption *inside* a deoptless continuation —
#: continuations may not recurse, so that is exactly where the hop
#: machinery takes over and re-enters a surviving compiled version at the
#: loop header instead of interpreting the rest of the activation
HOP_SRC = """
hop_step <- function(v, k) v + k
hop_flip <- function(a, b, n) {
  s <- 0
  x <- a
  h <- n %/% 2L
  i <- 1L
  while (i <= n) {
    if (i == h) x <- b
    s <- s + hop_step(x[[i]], 1L)
    i <- i + 1L
  }
  s
}
"""


def inspect_osr_hops() -> None:
    """Dispatched OSR: the per-pc entry maps a compiled version exposes,
    the version hops taken through them, and continuation tier-up."""
    vm = RVM(Config(compile_threshold=1, enable_deoptless=True,
                    ctxdispatch=False, osr_hop=True,
                    chaos_rate=2e-3, chaos_seed=42))
    vm.eval(HOP_SRC)
    vm.eval("hn <- 2000L")
    vm.eval("hai <- integer(hn)")
    vm.eval("for (i in 1:hn) hai[[i]] <- i")
    vm.eval("hbr <- numeric(hn)")
    vm.eval("for (i in 1:hn) hbr[[i]] <- i * 1.0")
    for _ in range(3):
        vm.eval("hop_flip(hai, hai, hn)")  # monomorphic int warmup
    for _ in range(8):
        vm.eval("hop_flip(hai, hbr, hn)")  # flips int -> double mid-loop

    print()
    print("=" * 70)
    print("15. DISPATCHED OSR (version hops & continuation tier-up)")
    print("=" * 70)
    clo = vm.global_env.get("hop_flip")
    print("  OSR entry map of the generic version (pc -> seedable slots):")
    for pc, entry in sorted(clo.jit.version.osr_entries.items()):
        slots = ", ".join(
            "%s:r%d%s" % (name, reg, ":" + kind.name if kind else "")
            for name, reg, kind, _rtype in entry.var_slots)
        print("    pc %3d -> op %3d  [%s]" % (pc, entry.index, slots))
    print("  osr_hops=%d cont_tierups=%d declines=%d"
          % (vm.state.osr_hops, vm.state.cont_tierups,
             vm.state.osr_hop_declines))
    print("  hop trajectories (per closure; via deopt = mid-loop exit hop,"
          " via osr_in = hot-interpreter re-entry):")
    traj = {}
    for e in vm.state.events_of("osr_hop"):
        traj.setdefault(e.fn_name, []).append(
            "pc%d:%s->%s" % (e.details["pc"], e.details["via"],
                             e.details["target"]))
    for fn, hops in sorted(traj.items()):
        shown = "  ".join(hops[:5])
        if len(hops) > 5:
            shown += "  ... (%d hops total)" % len(hops)
        print("    %-10s %s" % (fn, shown))
    for e in vm.state.events_of("cont_tierup"):
        print("  tier-up: %-10s promoted to an entry version "
              "(size=%d, specificity=%d)"
              % (e.fn_name, e.details["size"], e.details["specificity"]))
    if vm.state.osr_hop_decline_log:
        print("  decline log (fn, bytecode pc, reason, times seen):")
        for fn, pc, reason, count in vm.state.osr_hop_decline_log:
            print("    %-12s pc %3d  %-24s x%d" % (fn, pc, reason, count))


def inspect_fleet() -> None:
    """Multi-tenant serving: the shared code cache between sessions, who
    published what, and what each tenant actually paid the pipeline for."""
    from repro.serve import Server

    srv = Server(config_factory=lambda: Config(
        enable_deoptless=True, compile_threshold=2, codecache=True,
        serve=True))
    # three tenants run the same workload; only the first compiles it
    for tenant in ("alice", "bob", "carol"):
        srv.eval(tenant, SRC)
        srv.eval(tenant, "x <- c(1.5, 2.5, 3.5)")
        srv.eval(tenant, "xi <- c(1L, 2L, 3L)")
        for _ in range(4):
            srv.eval(tenant, "sumfn(x, 3L)")
        srv.eval(tenant, "sumfn(xi, 3L)")  # phase flip -> shared continuation

    print()
    print("=" * 70)
    print("16. FLEET VIEW (one shared code cache behind three sessions)")
    print("=" * 70)
    st = srv.stats()
    sc = st["shared_cache"]
    print("  shared cache: %d entries, hits=%d (cross-tenant %d), puts=%d,"
          " evictions=%d" % (len(srv.shared), sc["hits"],
                             sc["cross_tenant_hits"], sc["puts"],
                             sc["evictions"]))
    print("  per tenant (compiled = the pipeline ran; saved = instrs a cache"
          " hit stood in for):")
    print("    %-8s %9s %9s %9s %9s" % ("tenant", "requests", "compiled",
                                        "saved", "shared"))
    for tenant in sorted(st["per_tenant"]):
        t = st["per_tenant"][tenant]
        print("    %-8s %9d %9d %9d %9d"
              % (tenant, t["serve_requests"], t["compiled_instrs"],
                 t["codecache_instrs_saved"], t["shared_cache_hits"]))
    done = st["compiled_instrs"] + st["codecache_instrs_saved"]
    print("  fleet: compiled %d instrs, %d served from caches (%.0f%% of the"
          " pipeline work skipped)"
          % (st["compiled_instrs"], st["codecache_instrs_saved"],
             100.0 * st["codecache_instrs_saved"] / done))
    print("  publishers by digest:")
    by_tenant = {}
    for entry in srv.shared.entries.values():
        by_tenant[entry.origin] = by_tenant.get(entry.origin, 0) + 1
    for tenant, count in sorted(by_tenant.items()):
        print("    %-8s published %d stable form(s)" % (tenant, count))
    srv.close()


if __name__ == "__main__":
    main()
