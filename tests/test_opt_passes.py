"""Tests for the optimization passes: simplify, DCE (framestate liveness),
and the continuation-aware DSE."""

from conftest import make_vm
from repro.ir import instructions as I
from repro.ir.builder import GraphBuilder
from repro.ir.cfg import Graph
from repro.opt.dce import dce
from repro.opt.dse import dse
from repro.opt.simplify import simplify
from repro.osr.framestate import FrameStateDescr
from repro.runtime.rtypes import ANY, Kind, RType, scalar


def mini_graph():
    g = Graph("t")
    bb = g.new_block()
    return g, bb


def test_dce_removes_unused_pure_instruction():
    g, bb = mini_graph()
    a = bb.append(I.Const(1.0, scalar(Kind.DBL)))
    dead = bb.append(I.Box(Kind.DBL, a))
    live = bb.append(I.Box(Kind.DBL, a))
    bb.append(I.Return(live))
    removed = dce(g)
    assert removed == 1
    assert dead not in bb.instrs and live in bb.instrs


def test_dce_keeps_values_referenced_only_by_framestates():
    """The paper's metadata obligation: values alive only for deoptimization
    must survive DCE."""
    g, bb = mini_graph()
    a = bb.append(I.Const(1.0, scalar(Kind.DBL)))
    only_in_fs = bb.append(I.Box(Kind.DBL, a))
    cond = bb.append(I.Const(True, scalar(Kind.LGL)))
    cond.unboxed = True

    class FakeCode:
        name = "f"

    fs = FrameStateDescr(FakeCode(), 3, [("x", only_in_fs)], [])
    from repro.osr.framestate import DeoptReasonKind

    bb.append(I.Assume(cond, fs, DeoptReasonKind.TYPECHECK, 3))
    bb.append(I.Return(a))
    dce(g)
    assert only_in_fs in bb.instrs


def test_simplify_folds_constant_arith():
    g, bb = mini_graph()
    a = bb.append(I.Const(2.0, scalar(Kind.DBL)))
    a.unboxed = True
    b = bb.append(I.Const(3.0, scalar(Kind.DBL)))
    b.unboxed = True
    add = bb.append(I.PrimArith("+", Kind.DBL, a, b))
    box = bb.append(I.Box(Kind.DBL, add))
    bb.append(I.Return(box))
    simplify(g)
    consts = [i for i in bb.instrs if isinstance(i, I.Const)]
    assert any(i.value == 5.0 for i in consts)


def test_simplify_removes_box_unbox_pair():
    g, bb = mini_graph()
    a = bb.append(I.Const(2.0, scalar(Kind.DBL)))
    a.unboxed = True
    boxed = bb.append(I.Box(Kind.DBL, a))
    unboxed = bb.append(I.Unbox(Kind.DBL, boxed))
    r = bb.append(I.Box(Kind.DBL, unboxed))
    bb.append(I.Return(r))
    simplify(g)
    dce(g)
    # the round trip collapsed: at most one box remains
    assert sum(isinstance(i, (I.Box, I.Unbox)) for i in bb.instrs) <= 1


def test_simplify_keeps_the_one_unbox_behind_a_reboxed_value():
    """``Unbox(Box(Unbox(x)))`` folds to the inner Unbox, whichever of the
    pair the sweep meets first: folding ``Box(Unbox(x))`` to ``x`` before its
    consumer is seen left a second ``Unbox(x)`` where the consumer is — inside
    the loop, for an inlined callee reading a loop-invariant argument."""
    g, bb = mini_graph()
    x = bb.append(I.Param(0, "x", scalar(Kind.DBL)))
    u = bb.append(I.Unbox(Kind.DBL, x))
    boxed = bb.append(I.Box(Kind.DBL, u))        # the argument at the call
    again = bb.append(I.Unbox(Kind.DBL, boxed))  # the inlined callee's read
    add = bb.append(I.PrimArith("+", Kind.DBL, again, again))
    bb.append(I.Return(bb.append(I.Box(Kind.DBL, add))))
    simplify(g)
    dce(g)
    assert [i for i in bb.instrs if isinstance(i, I.Unbox)] == [u]
    assert add.args == [u, u]


def test_simplify_removes_self_referential_phi():
    g = Graph("t")
    b0 = g.new_block()
    b1 = g.new_block()
    v = b0.append(I.Const(1, scalar(Kind.INT)))
    b0.append(I.Jump(b1))
    phi = I.Phi(scalar(Kind.INT))
    b1.insert_front(phi)
    phi.add_input(b0, v)
    phi.add_input(b1, phi)
    b1.append(I.Return(phi))
    g.recompute_preds()
    simplify(g)
    assert phi not in b1.instrs


def test_simplify_folds_statically_true_istype():
    g, bb = mini_graph()
    a = bb.append(I.Const(1.0, scalar(Kind.DBL)))
    t = bb.append(I.IsType(a, RType(Kind.DBL, scalar=True, maybe_na=True)))
    bb.append(I.Return(t))
    simplify(g)
    assert not any(isinstance(i, I.IsType) for i in bb.instrs)


def _env_graph_with_dead_store(is_continuation):
    g = Graph("t")
    g.env_elided = False
    g.is_continuation = is_continuation
    bb = g.new_block()
    env = bb.append(I.EnvParam())
    g.env_param = env
    v1 = bb.append(I.Const(1.0, scalar(Kind.DBL)))
    v2 = bb.append(I.Const(2.0, scalar(Kind.DBL)))
    dead = bb.append(I.StVarEnv(env, "x", v1))
    bb.append(I.StVarEnv(env, "x", v2))
    bb.append(I.Return(v2))
    return g, bb, dead


def test_dse_removes_shadowed_store():
    g, bb, dead = _env_graph_with_dead_store(is_continuation=False)
    assert dse(g) == 1
    assert dead not in bb.instrs


def test_dse_refuses_continuations():
    """The paper's section 4.2 anecdote: DSE is unsound for OSR
    continuations, so the pass must skip them."""
    g, bb, dead = _env_graph_with_dead_store(is_continuation=True)
    assert dse(g) == 0
    assert dead in bb.instrs


def test_dse_can_be_forced_for_the_regression_experiment():
    g, bb, dead = _env_graph_with_dead_store(is_continuation=True)
    assert dse(g, force=True) == 1


def test_dse_blocked_by_intervening_load():
    g = Graph("t")
    g.env_elided = False
    bb = g.new_block()
    env = bb.append(I.EnvParam())
    g.env_param = env
    v1 = bb.append(I.Const(1.0, scalar(Kind.DBL)))
    bb.append(I.StVarEnv(env, "x", v1))
    bb.append(I.LdVarEnv(env, "x"))  # observer
    bb.append(I.StVarEnv(env, "x", v1))
    bb.append(I.Return(v1))
    assert dse(g) == 0


def test_dse_blocked_by_deopt_point():
    g = Graph("t")
    g.env_elided = False
    bb = g.new_block()
    env = bb.append(I.EnvParam())
    g.env_param = env
    v1 = bb.append(I.Const(1.0, scalar(Kind.DBL)))
    cond = bb.append(I.Const(True, scalar(Kind.LGL)))
    cond.unboxed = True
    bb.append(I.StVarEnv(env, "x", v1))

    class FakeCode:
        name = "f"

    from repro.osr.framestate import DeoptReasonKind, FrameStateDescr

    fs = FrameStateDescr(FakeCode(), 0, [], [], env_value=env)
    bb.append(I.Assume(cond, fs, DeoptReasonKind.TYPECHECK, 0))
    bb.append(I.StVarEnv(env, "x", v1))
    bb.append(I.Return(v1))
    assert dse(g) == 0, "a deopt point observes the whole environment"


def test_dedup_guards_same_block():
    vm = make_vm(enable_jit=False, compile_threshold=10**9)
    vm.eval("f <- function(a) a + a + a\n")
    vm.eval("f(1.5)")
    vm.eval("f(2.5)")
    clo = vm.global_env.get("f")
    g = GraphBuilder(vm, clo.code, clo).build()
    simplify(g)
    guards = [i for i in g.iter_instrs() if isinstance(i, I.IsType)]
    # one guard for `a`, not three
    assert len(guards) <= 1


# ---------------------------------------------------------------------------
# the use index: structure, not speed
# ---------------------------------------------------------------------------
#
# One instrumented run per program compiles everything the program tiers up
# (whole functions, OSR-in units, continuations under chaos) and keeps what
# the tests below assert on; a second run, with the whole-graph scan the use
# index replaced standing in for ``Graph.replace_all_uses``, is the oracle.

import contextlib
import functools
import importlib
import re
from unittest import mock

import pytest
from hypothesis import given, settings

import test_differential_fuzz as fuzz
from repro.bench.programs import REGISTRY
from repro.ir.cfg import OsrAnchor, print_graph
from repro.jit import unit
from repro.opt import pipeline

simplify_mod = importlib.import_module("repro.opt.simplify")  # repro.opt.simplify is the function

_RUN_CFG = dict(compile_threshold=1, osr_threshold=25, enable_deoptless=True,
                chaos_rate=0.02, chaos_seed=7)


def _scan_replace_all_uses(self, old, new):
    """``Graph.replace_all_uses`` as it was before the use index: visit every
    instruction, every frame of every checkpoint and every anchor."""
    for ins in self.iter_instrs():
        if old in ins.args:
            ins.replace_value(old, new)
        fs = getattr(ins, "framestate", None)
        while fs is not None:
            fs.replace_value(old, new)
            fs = fs.parent
    for anchor in self.osr_anchors.values():
        anchor.replace_value(old, new)


def _dangling(graph):
    """Holders reachable in ``graph`` that name an instruction no block has."""
    bad = []
    for bb in graph.rpo():
        for ins in bb.instrs:
            bad += [(ins.name, a.name) for a in ins.args if a.block is None]
            fs = getattr(ins, "framestate", None)
            if fs is not None:
                bad += [("fs of " + ins.name, v.name) for v in fs.iter_values()
                        if v.block is None]
    bad += [("anchor %d" % pc, a.dead_value().name)
            for pc, a in graph.osr_anchors.items() if a.dead_value() is not None]
    return bad


def _after(owner, attr, hook):
    """Patch ``owner.attr`` to call ``hook(args, result)`` after every call."""
    fn = getattr(owner, attr)

    def wrapped(*args, **kw):
        result = fn(*args, **kw)
        hook(args, result)
        return result

    return mock.patch.object(owner, attr, wrapped)


def _compile_log(sources, calls, scan=False):
    """Run ``calls`` on a fresh chaos VM; returns ``{"graphs": printed IR of
    every optimized graph, "dangling": holders left dangling by some pass,
    "rounds": per ``simplify`` call the rewrite count of each sub-pass run,
    "builds": per ``unit.build`` (instructions built, holders visited)}``."""
    log = {"graphs": [], "dangling": [], "rounds": [], "builds": []}
    work = [0, 0]  # instructions built, holders visited — of the running build

    def built(args, graph):
        work[0] += sum(len(bb.instrs) for bb in graph.blocks)

    def visited(args, result):
        work[1] += 1

    def unit_built(args, ncode):
        log["builds"].append(tuple(work))
        work[:] = [0, 0]

    def optimized(args, graph):
        log["graphs"].append(re.sub(r"0x[0-9a-f]+", "0x", print_graph(graph)))

    def pass_ran(name):
        def hook(args, result):
            log["dangling"] += [(name,) + d for d in _dangling(args[0])]
        return hook

    with contextlib.ExitStack() as stack:
        if scan:
            stack.enter_context(
                mock.patch.object(Graph, "replace_all_uses", _scan_replace_all_uses))
        for owner in (I.Instr, FrameStateDescr, OsrAnchor):
            stack.enter_context(_after(owner, "replace_value", visited))
        stack.enter_context(_after(GraphBuilder, "build", built))
        stack.enter_context(_after(unit, "build", unit_built))
        stack.enter_context(_after(unit, "optimize", optimized))
        for name in ("inline_calls", "simplify", "dse", "dce", "vectorize_loops"):
            stack.enter_context(_after(pipeline, name, pass_ran(name)))
        # (outermost on simplify: opens the list its sub-passes append to)
        checked_simplify = pipeline.simplify
        stack.enter_context(mock.patch.object(
            pipeline, "simplify", lambda g: (log["rounds"].append([]), checked_simplify(g))[1]))
        for sub in ("_simplify_phis", "_peephole", "_dedup_guards"):
            stack.enter_context(_after(simplify_mod, sub,
                                       lambda a, n: log["rounds"][-1].append(n)))
        vm = make_vm(**_RUN_CFG)
        for src in sources:
            vm.eval(src)
        for call in calls:
            vm.eval(call)
        assert vm.state.compile_failures == 0
    return log


@functools.lru_cache(maxsize=None)
def _registry_log(name, scan=False):
    w = REGISTRY.get(name)
    return _compile_log((w.source, w.setup_code(w.n_test)),
                        (w.call_code(w.n_test),) * 2, scan)


@pytest.mark.parametrize("name", REGISTRY.names())
def test_use_index_rewrites_as_the_whole_graph_scan_did(name):
    log = _registry_log(name)
    assert log["graphs"], "nothing compiled"
    assert log["graphs"] == _registry_log(name, scan=True)["graphs"]


_IVEC, _DVEC = "c(3L, -2L, 5L, 1L, 4L, -6L)", "c(3.5, -2.5, 5.5, 1.5, 4.5, -6.5)"
_LONG = "c(%s)" % ", ".join("%dL" % (i % 7 - 3) for i in range(48))
_LONGD = _LONG.replace("L", ".5")
#: every strategy of tests/test_differential_fuzz.py, with calls that take
#: its programs through tier-up, a phase change and (chaos) continuations
_FUZZ = [
    (fuzz.loop_program, ["kernel(%s, 6L)" % _IVEC] * 4 + ["kernel(%s, 6L)" % _DVEC] * 3),
    (fuzz.call_chain_program, ["drive(h1, 6L)"] * 4 + ["drive(h2, 6L)"] * 3),
    (fuzz.inline_program, ["drive(9L)"] * 4),
    (fuzz.polymorphic_entry_program,
     ["pksum(%s, 6L, 2L)" % v for v in (_IVEC, _DVEC, _IVEC, _DVEC)] * 2),
    (fuzz.nested_loop_program, ["nest(%s, 3L, 6L)" % _IVEC] * 3),
    (fuzz.gather_program, ["gsum(%s, c(2L, 6L, 1L, 3L), 4L)" % _IVEC] * 3),
    (fuzz.envcapture_program, ["ecap(2L, 9L)"] * 4),
    (fuzz.phaseflip_program, ["vh_flip(%s, %s, 48L)" % (_LONG, _LONG)] * 3
     + ["vh_flip(%s, %s, 48L)" % (_LONG, _LONGD)] * 4),
]


@pytest.mark.parametrize("program, calls", _FUZZ, ids=[p.__name__ for p, _ in _FUZZ])
def test_use_index_rewrites_as_the_scan_did_on_fuzzed_programs(program, calls):
    @given(program())
    @settings(max_examples=4, deadline=None)
    def check(src):
        log = _compile_log((src,), calls)
        assert log["graphs"] and not log["dangling"]
        assert log["graphs"] == _compile_log((src,), calls, scan=True)["graphs"]

    check()


@pytest.mark.parametrize("name", REGISTRY.names())
def test_no_pass_leaves_a_dangling_holder(name):
    """After each pass no reachable operand, frame-state slot (any frame of
    a chain) or OSR anchor names an instruction that is in no block."""
    assert not _registry_log(name)["dangling"]


@pytest.mark.parametrize("name", REGISTRY.names())
def test_simplify_converges_below_its_round_cap(name):
    """``simplify`` stops after ten rounds without saying so: no registry
    program may get there with rewrites still coming."""
    for rounds in _registry_log(name)["rounds"]:
        assert len(rounds) <= 30 and sum(rounds[-3:]) == 0, rounds


@pytest.mark.parametrize("name", ["nbody", "storage"])  # nbody_step, storage_build
def test_rewrites_cost_their_uses_not_the_graph(name):
    """All the rewrites of one build together visit at most four holders per
    instruction built, and under half of what a scan per rewrite visits."""
    builds = _registry_log(name)["builds"]
    assert builds and all(visits <= 4 * instrs for instrs, visits in builds), builds
    scanned = _registry_log(name, scan=True)["builds"]
    assert 2 * sum(v for _, v in builds) < sum(v for _, v in scanned)
