"""Tests for the bytecode→IR builder: speculation placement, unboxing,
environment elision, continuation entry, and the guard-soundness rules."""

import pytest

from conftest import make_vm
from repro import from_r
from repro.bytecode import opcodes as O
from repro.ir import instructions as I
from repro.ir.builder import GraphBuilder, env_escapes, partition_bytecode
from repro.runtime.rtypes import ANY, Kind, RType, scalar, vector


def build_for(vm, fn_name, **kw):
    clo = vm.global_env.get(fn_name)
    return GraphBuilder(vm, clo.code, clo, **kw).build()


def warmed_vm(src, calls, jit=False):
    vm = make_vm(enable_jit=jit, compile_threshold=10**9)
    vm.eval(src)
    for c in calls:
        vm.eval(c)
    return vm


def instrs_of(graph, cls):
    return [i for i in graph.iter_instrs() if isinstance(i, cls)]


SUM_SRC = """
sumfn <- function(data, len) {
  total <- 0
  for (i in 1:len) total <- total + data[[i]]
  total
}
"""


def test_sum_compiles_to_unboxed_loop():
    vm = warmed_vm(SUM_SRC, ["x <- c(1.5, 2.5)", "sumfn(x, 2L)", "sumfn(x, 2L)"])
    g = build_for(vm, "sumfn")
    assert g.env_elided
    prim_adds = [i for i in instrs_of(g, I.PrimArith) if i.op == "+"]
    assert any(i.kind == Kind.DBL for i in prim_adds)
    assert instrs_of(g, I.VecLoad), "data[[i]] should be a typed vector load"
    assert instrs_of(g, I.Assume), "type guards must be present"


def test_guards_survive_optimization():
    from repro.opt.pipeline import optimize

    vm = warmed_vm(SUM_SRC, ["x <- c(1.5, 2.5)", "sumfn(x, 2L)", "sumfn(x, 2L)"])
    g = build_for(vm, "sumfn")
    optimize(g, vm.config)
    assert instrs_of(g, I.Assume), "optimization must not delete live guards"


def test_loop_accumulator_phi_unboxed():
    vm = warmed_vm(SUM_SRC, ["x <- c(1.5, 2.5)", "sumfn(x, 2L)", "sumfn(x, 2L)"])
    g = build_for(vm, "sumfn")
    unboxed_phis = [p for p in instrs_of(g, I.Phi) if p.unboxed]
    assert unboxed_phis, "the loop counter/accumulator should live unboxed"


def test_without_feedback_code_is_generic():
    vm = make_vm(enable_jit=False)
    vm.eval(SUM_SRC)  # never called: no feedback
    g = build_for(vm, "sumfn")
    assert not instrs_of(g, I.VecLoad)
    assert instrs_of(g, I.Extract2)


def test_env_escape_closure_forces_env_mode():
    # any capture keeps the whole frame in a materialized environment
    vm = make_vm(enable_jit=False)
    vm.eval("mk <- function(x) function() x\n")
    for c in ["mk(1)", "mk(2)", "mk(3)"]:
        vm.eval(c)
    g = build_for(vm, "mk")
    assert not g.env_elided
    assert instrs_of(g, I.MkClosure)


def test_env_escape_promise_forces_env_mode():
    vm = warmed_vm(
        "g <- function(a) a\nh <- function(v) g(length(v))\n",
        ["h(c(1,2))", "h(c(1,2))"])
    # length(v) is effect-free => eager; use an effectful argument instead
    vm.eval("h2 <- function(v) g(print(v))")
    vm.eval("h2(1)")
    clo = vm.global_env.get("h2")
    assert env_escapes(clo.code)


def test_env_escapes_scan_from_offset():
    vm = make_vm()
    vm.eval("f <- function() { x <- function() 1\nwhile (TRUE) break\n0 }")
    code = vm.global_env.get("f").code
    assert env_escapes(code, 0)
    # scanning from past the closure creation misses the escape — this is
    # the unsound variant kept for the section 4.2 regression test
    assert not env_escapes(code, len(code.code) - 2)


def test_monomorphic_call_becomes_guarded_static_call():
    src = """
callee <- function(x) x + 1
caller <- function(n) { s <- 0\nfor (i in 1:n) s <- s + callee(i)\ns }
"""
    vm = warmed_vm(src, ["caller(5L)", "caller(5L)"])
    g = build_for(vm, "caller")
    assert instrs_of(g, I.StaticCall)
    assert any(
        a.reason_kind.value == "call_target" for a in instrs_of(g, I.Assume)
    )


def test_builtin_call_becomes_call_builtin():
    src = "lenfn <- function(v) length(v)\n"
    vm = warmed_vm(src, ["lenfn(c(1,2))", "lenfn(c(1,2))"])
    g = build_for(vm, "lenfn")
    assert instrs_of(g, I.CallBuiltin)


def test_cold_branch_speculated_away():
    src = """
clamp <- function(x) { if (x < 0) stop("neg")\nx * 2 }
"""
    vm = warmed_vm(src, ["clamp(%d)" % i for i in range(1, 9)])
    g = build_for(vm, "clamp")
    assert any(
        a.reason_kind.value == "cold_branch" for a in instrs_of(g, I.Assume)
    )


def test_loop_exit_never_speculated():
    vm = warmed_vm(SUM_SRC, ["x <- c(1.5, 2.5)", "sumfn(x, 2L)", "sumfn(x, 2L)"] * 4)
    g = build_for(vm, "sumfn")
    assert not any(
        a.reason_kind.value == "cold_branch" for a in instrs_of(g, I.Assume)
    ), "the loop exit condition must not be speculated away"


def test_doomed_guard_suppressed():
    """Feedback must not narrow a statically-known kind to a different kind
    (the guard could never pass)."""
    vm = make_vm()
    b = GraphBuilder.__new__(GraphBuilder)
    assert not GraphBuilder._guardable(scalar(Kind.INT), scalar(Kind.DBL))
    assert GraphBuilder._guardable(scalar(Kind.INT), ANY)
    assert GraphBuilder._guardable(
        scalar(Kind.DBL), vector(Kind.DBL)
    ), "same-kind narrowing is allowed"


def test_maybe_undefined_variable_builds_with_its_environment():
    """``x`` may be read unbound: the unit keeps its environment, where the
    read finds ``x`` or an enclosing binding as the interpreter does."""
    vm = warmed_vm(
        "weird <- function(c) { if (c) x <- 1\nx }\n",
        ["weird(TRUE)", "weird(TRUE)"])
    clo = vm.global_env.get("weird")
    assert not GraphBuilder(vm, clo.code, clo).build().env_elided


def _sum_continuation_builder():
    """A builder for ``sumfn`` entered at its last INDEX2 — a realistic deopt
    target inside the loop, mid-expression."""
    vm = warmed_vm(SUM_SRC, ["x <- c(1.5, 2.5)", "sumfn(x, 2L)", "sumfn(x, 2L)"])
    clo = vm.global_env.get("sumfn")
    code = clo.code
    pcs = [pc for pc, ins in enumerate(code.code) if ins[0] == O.INDEX2]
    entry = pcs[-1]
    var_types = {
        "total": scalar(Kind.DBL), "data": vector(Kind.DBL),
        "len": scalar(Kind.INT), "i": scalar(Kind.INT),
    }
    # the for-loop's hidden state variables have gensym'd names
    for n in code.names:
        if n.startswith(".fs"):
            var_types[n] = vector(Kind.INT)
        elif n.startswith(".fn") or n.startswith(".fi"):
            var_types[n] = scalar(Kind.INT)
    return GraphBuilder(
        vm, code, clo,
        entry_pc=entry,
        entry_var_types=var_types,
        # interpreter stack before `data[[i]]` inside `total + data[[i]]`:
        # [total, data, i]
        entry_stack_types=[scalar(Kind.DBL), vector(Kind.DBL), scalar(Kind.INT)],
        is_continuation=True,
    )


def test_continuation_entry_mid_loop_builds_phis():
    g = _sum_continuation_builder().build()
    assert g.is_continuation
    assert g.cont_stack_size == 3
    # the loop header (re-entered from below) must carry phis
    assert instrs_of(g, I.Phi)


def test_continuation_entry_mid_loop_joins_an_empty_stack_at_the_header():
    """The three stack slots of the entry are used up by the prologue; the
    loop is the function's own: its header joins variables only, and the
    accumulator is an unboxed phi there, not a boxed stack slot."""
    builder = _sum_continuation_builder()
    g = builder.build()
    entry = builder.bc_order[0]
    assert entry.prologue and len(builder.in_states[entry].stack) == 3
    joins = [b for b in builder.bc_order if b.is_join or b.is_loop_header]
    assert joins and not any(b.prologue or builder.in_states[b].stack for b in joins)
    (head,) = [b for b in joins if b.is_loop_header]
    anchor = g.osr_anchors[head.start]
    assert not anchor.stack
    total = anchor.vars["total"]
    assert isinstance(total, I.Phi) and total.unboxed and total.block is anchor.header
    # one entry-only edge from the prologue beside the function's back edge
    assert sorted(p.prologue for p in head.preds) == [False, True]


def test_partition_reachability_from_offset():
    vm = make_vm()
    vm.eval("f <- function(n) { s <- 0\nfor (i in 1:n) s <- s + i\ns }")
    code = vm.global_env.get("f").code
    full = partition_bytecode(code, 0)
    # entering mid-way reaches no pc the whole function does not, and at most
    # one copy of each block on top of the function's own
    mid = sorted(b.start for b in full)[len(full) // 2]
    partial = partition_bytecode(code, mid)
    assert partial[0].start == mid
    assert {b.start for b in partial} <= {b.start for b in full}
    assert len(partial) <= 2 * len(full)


def test_framestates_reference_loop_state():
    vm = warmed_vm(SUM_SRC, ["x <- c(1.5, 2.5)", "sumfn(x, 2L)", "sumfn(x, 2L)"])
    g = build_for(vm, "sumfn")
    guards = instrs_of(g, I.Assume)
    in_loop = [a for a in guards if a.framestate.env_slots]
    assert in_loop
    names = {n for a in in_loop for n, _ in a.framestate.env_slots}
    assert "total" in names


# -- phis are made where simplify would keep them ------------------------------------

INVARIANT_SRC = """
scale <- function(v, n) {
  k <- 2L
  s <- 0L
  for (i in 1:n) s <- s + v[[i]] * k
  s
}
"""


def test_loop_invariant_scalar_is_unboxed_once_in_the_preheader():
    """``k`` is a boxed constant nothing in the loop rebinds: the header gets
    no phi for it, the loop reads the one Unbox at the end of the preheader,
    and the header's OSR anchor names that Unbox."""
    from repro.native.lower import lower
    from repro.opt.pipeline import optimize

    vm = warmed_vm(INVARIANT_SRC, ["x <- c(1L, 2L, 3L)", "scale(x, 3L)", "scale(x, 3L)"])
    g = build_for(vm, "scale")
    (k,) = [c for c in instrs_of(g, I.Const) if getattr(c.value, "data", None) == [2]]
    (unbox,) = [u for u in instrs_of(g, I.Unbox) if u.args[0] is k]
    (pc, anchor), = g.osr_anchors.items()
    assert anchor.vars["k"] is unbox
    assert unbox.block in anchor.header.preds and unbox.block is not anchor.header
    assert isinstance(anchor.vars["s"], I.Phi)  # stored in the loop
    # every phi built is one simplify keeps
    from repro.opt.simplify import simplify

    phis = instrs_of(g, I.Phi)
    simplify(g)
    assert [p for p in phis if p.block is None] == []
    optimize(g, vm.config)
    assert pc in lower(g).osr_entries


def test_sum_phases_executes_the_ops_it_did_with_every_phi_pre_created():
    """The builder binds a variable to what the first phi sweep would have
    substituted, so the code is the same: counts taken with the pre-created
    phis (a change that means to move them re-takes the two numbers; the
    coalesced phi copies took ``native_ops`` from 9656 to 7256)."""
    from repro.bench.programs import REGISTRY

    w = REGISTRY.get("sum_phases")
    vm = make_vm(enable_deoptless=True)
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    for _ in range(6):
        vm.eval(w.call_code(w.n_test))
    assert (vm.state.native_ops, vm.state.guards_executed) == (7256, 804)


def test_header_with_two_forward_edges_still_compiles():
    """No source construct jumps straight to a loop head from both arms of
    a branch; hand-written bytecode does.  Such a header keeps a phi per
    slot (only a single forward edge's value can stand for the variable)."""
    from repro.bytecode import opcodes as O
    from repro.runtime.values import RVector

    def const(v):
        vec = RVector(Kind.INT, [v])
        vec.named = 2
        return vec

    results = {}
    for tier in ("interp", "jit"):
        vm = make_vm(**({"enable_jit": False} if tier == "interp" else {"compile_threshold": 2}))
        vm.eval("f <- function(c, n) NULL")
        code = vm.global_env.get("f").code
        code.names = ["c", "n", "s", "i"]
        code.consts = [const(0), const(5), const(1)]
        code.code = [
            (O.PUSH_CONST, 0), (O.ST_VAR, 2),      # s <- 0L
            (O.PUSH_CONST, 0), (O.ST_VAR, 3),      # i <- 0L
            (O.LD_VAR, 0), (O.BRFALSE, 8),         # if (c)
            (O.PUSH_CONST, 1), (O.ST_VAR, 2),      #   s <- 5L     (falls into the head)
            (O.LD_VAR, 3), (O.LD_VAR, 1), (O.COMPARE, "<"), (O.BRFALSE, 21),  # 8: head
            (O.LD_VAR, 3), (O.PUSH_CONST, 2), (O.BINOP, "+"), (O.ST_VAR, 3),  # i <- i + 1L
            (O.LD_VAR, 2), (O.LD_VAR, 3), (O.BINOP, "+"), (O.ST_VAR, 2),      # s <- s + i
            (O.BR, 8),
            (O.LD_VAR, 2), (O.RETURN,),
        ]
        code.lines = [1] * len(code.code)
        code.feedback = {}
        code.seal_feedback()
        results[tier] = [from_r(vm.eval(c)) for c in ["f(TRUE, 4L)", "f(FALSE, 4L)"] * 3]
        if tier == "jit":
            assert vm.state.compiles > 0 and vm.state.compile_failures == 0
            head = next(b for b in partition_bytecode(code, 0) if b.start == 8)
            assert sorted(p.start for p in head.preds) == [0, 6, 12] and head.is_loop_header
            g = build_for(vm, "f")
            assert {"s", "i"} <= set(n for n, v in g.osr_anchors[8].vars.items()
                                     if isinstance(v, I.Phi) and v.block is g.osr_anchors[8].header)
    assert results["interp"] == results["jit"] == [15, 10] * 3


NEST_SRC = """
nest <- function(m, n) {
  s <- 0L
  for (i in 1:m) {
    if (i %% 2L == 0L) next
    j <- 0L
    while (j < n) {
      j <- j + 1L
      if (j > 3L) s <- s + j else s <- s - 1L
      if (s > 1000L) break
    }
    s <- s + i * 2L
  }
  s
}
"""


def _dominators(blocks):
    dom = {b: set(blocks) for b in blocks}
    dom[blocks[0]] = {blocks[0]}
    changed = True
    while changed:
        changed = False
        for b in blocks[1:]:
            new = set.intersection(*(dom[p] for p in b.preds)) | {b}
            changed |= new != dom[b]
            dom[b] = new
    return dom


def test_entering_anywhere_keeps_every_loop_the_functions_own():
    """``partition_bytecode`` from every pc of a loop nest.  What is not
    prologue is the whole function's block, edge for edge; the prologue is
    entry-only and hands over at one loop header — the innermost around the
    entry — or where no cycle passes; so a loop header keeps its bytecode
    predecessors and gains prologue blocks only, and the unit is reducible:
    every edge that arrives late in the order goes back to a dominator."""
    vm = make_vm()
    vm.eval(NEST_SRC)
    code = vm.global_env.get("nest").code
    full = {b.start: b for b in partition_bytecode(code, 0)}
    assert not any(b.prologue for b in full.values())
    loops = [(h, max(p.end for p in b.preds if p.start >= h))
             for h, b in full.items() if b.is_loop_header]
    assert len(loops) == 2
    latches = {p.start for h, b in full.items() if b.is_loop_header
               for p in b.preds if p.start >= h}
    seen = set()
    live = [pc for b in full.values() for pc in range(b.start, b.end)]  # not what follows a `next`
    for pc in live:
        blocks = partition_bytecode(code, pc)
        entry = blocks[0]
        stop = max((h for h, end in loops if h <= pc < end), default=pc)
        assert entry.start == pc and entry.prologue == (stop != pc)
        at = max(s for s in full if s <= pc)
        if stop != pc and at != pc:
            seen.add("mid-latch" if at in latches else "mid-body")
        copies = [b for b in blocks if b.prologue]
        assert len({b.start for b in copies}) == len(copies), "one copy at most"
        for b in copies:
            assert all(p.prologue for p in b.preds), "entry-only"
            assert b.end == full[at if b is entry else b.start].end
            assert all(t.prologue or t.start == stop or not any(h <= t.start < end for h, end in loops)
                       for t in b.succs), "one way into the function's loops"
        for b in blocks:
            if not b.prologue and b.start in full:
                own = full[b.start]
                assert (b.end, [t.start for t in b.succs]) == (own.end, [t.start for t in own.succs])
                assert {p.start for p in b.preds if p.start in full and not p.prologue} \
                    <= {p.start for p in own.preds}
                assert not b.is_loop_header or own.is_loop_header
            elif not b.prologue:
                assert b is entry and stop == pc  # entered between leaders, outside every loop
        dom, pos = _dominators(blocks), {b: i for i, b in enumerate(blocks)}
        for b in blocks:
            for t in b.succs:
                assert pos[t] > pos[b] or (t in dom[b] and t.is_loop_header), (pc, b.start, t.start)
    assert seen == {"mid-latch", "mid-body"}
