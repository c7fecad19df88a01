"""Every way into a continuation, one failed guard at a time.

A deoptless continuation entered inside a loop runs the rest of the
iteration as an entry-only prologue (copies of the loop's blocks) and then
the loop from its own header (``ir/builder.py::partition_bytecode``).  A
prologue copy and its in-loop twin share pcs, frame states and feedback, so
both must hand the interpreter the same baseline state.  The sweep checks
that by the paper's contract: fail exactly one chaos draw of one call —
draw ``k`` for ``k`` strided over every draw the call makes — and the
value, the output and the globals are the interpreter's.  A draw that fails
in the function's own code compiles and enters a continuation at that pc; a
draw that fails inside a continuation (the phase programs are in one by
then) leaves it through OSR-out, from a prologue block or from the loop.
"""

from __future__ import annotations

import sys

import pytest

from conftest import FireAt, engine_signature, make_vm
from repro.bench.programs import REGISTRY
from repro.bench.programs.paper_examples import SUM_PHASE_SETUPS
from repro.bytecode import opcodes as O
from repro.native import ops as N
from repro.osr.osr_hop import stale_site
from repro.runtime.values import RClosure, RVector

#: fresh VMs per program: the stride is the smallest prime that keeps the
#: sweep at or under this many draws (a prime, so that successive ``k`` fall
#: on different guards of a loop body)
POINTS = 24

_FLOAT = SUM_PHASE_SETUPS["float"].format(n=REGISTRY.get("sum_phases").n_test)
#: case -> (program, statements between set-up and the swept call — None:
#: three calls, which compile it —, a draw must fail in the function's own
#: loop, a draw must fail inside a continuation the call is in by then)
CASES = {
    "sum_phases": ("sum_phases", None, True, False),
    # the float phase fails `sum@26` on its first element: the call is the continuation
    "sum_phases/float": ("sum_phases", ["sum()", "sum()", _FLOAT, "sum()"], False, True),
    "colsum": ("colsum", None, True, False),
    # the first half is a guard-free kernel, the flip enters a continuation
    # and every later draw is made there
    "phaseflip_sum": ("phaseflip_sum", None, False, True),
    "phaseflip_dot": ("phaseflip_dot", None, False, True),
    "phaseflip_twice": ("phaseflip_twice", None, False, True),
    "bounce": ("bounce", None, True, False),
    "nbody": ("nbody", None, True, False),
    "volcano": ("volcano", None, True, False),
}


def _plain(v):
    """Values by structure (a list's elements are values again)."""
    if isinstance(v, RVector):
        return (v.kind, [_plain(x) for x in v.data])
    if isinstance(v, RClosure):
        return ("closure", v.code.name)
    return v  # element payloads, NULL, builtins


def _run(case, k=None, **cfg):
    """Set up ``case`` on a fresh VM and make its call with chaos draw ``k``
    failing (None: no draw fails)."""
    w = REGISTRY.get(CASES[case][0])
    stmts = CASES[case][1] or [w.call_code(w.n_test)] * 3
    return _run_calls(w, stmts, (-1,) if k is None else (k,), **cfg)


def _run_calls(w, stmts, fire, **cfg):
    """Set up program ``w`` on a fresh VM, run ``stmts``, then make its call
    with the chaos draws ``fire`` failing.  Returns the VM, the RNG, where
    the call's events start and what the program left behind."""
    vm = make_vm(**cfg)
    vm.chaos_rng = FireAt(-1)  # counts down from -1: never fires
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    for stmt in stmts:
        vm.eval(stmt)
    mark = len(vm.state.events)
    rng = vm.chaos_rng = FireAt(*fire)
    value = _plain(vm.eval(w.call_code(w.n_test)))
    globals_ = {n: _plain(v) for n, v in vm.global_env.bindings.items()}
    return vm, rng, mark, (value, list(vm.output), globals_)


def _in_loop(code, pc):
    return any(ins[0] in (O.BR, O.BRFALSE, O.BRTRUE) and ins[1] <= pc <= at
               for at, ins in enumerate(code.code))


def _stride(draws, points=POINTS):
    step = max(1, -(-draws // points))
    while any(step % d == 0 for d in range(2, int(step ** 0.5) + 1)):
        step += 1
    return step


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_failed_draw_anywhere_leaves_the_interpreters_state(case):
    _, _, _, expected = _run(case, enable_jit=False)
    _, rng, _, got = _run(case, enable_deoptless=True, chaos_rate=0.5)
    assert got == expected
    draws = -1 - rng.left
    assert draws > 100, "the call draws: it runs compiled code"

    entered = left = 0
    for k in range(0, draws, _stride(draws)):
        vm, rng, mark, got = _run(case, k, enable_deoptless=True, chaos_rate=0.5)
        assert rng.left < 0, "draw %d was not reached" % k
        assert got == expected, "draw %d" % k
        assert vm.state.compile_failures == 0 and vm.state.pycodegen_failures == 0
        events = vm.state.events[mark:]
        at, deopt = next((i, e) for i, e in enumerate(events)
                         if e.kind == "deopt" and e.details["reason"] == "chaos")
        if deopt.details["from_continuation"]:
            left += 1  # no recursive deoptless: OSR-out of the continuation
            continue
        fn = vm.global_env.bindings.get(deopt.fn_name)
        if isinstance(fn, RClosure) and _in_loop(fn.code, deopt.details["pc"]):
            nxt = events[at + 1:at + 3]
            assert any(e.kind == "deoptless_dispatch" and e.details["pc"] == deopt.details["pc"]
                       for e in nxt), "draw %d at %s@%d was not dispatched: %r" % (
                           k, deopt.fn_name, deopt.details["pc"], nxt)
            entered += 1
    assert entered or not CASES[case][2], "no draw entered a continuation inside a loop"
    assert left or not CASES[case][3], "no draw failed inside a continuation"


def _continuation(vm, fn, pc):
    table = vm.global_env.get(fn).jit.deoptless_table
    return next(code for ctx, code in table.entries if ctx.pc == pc)


def test_the_fig4_and_fig10_continuations_vectorize():
    """``sum@26`` of ``sum_phases`` and ``f@34`` of ``colsum`` — the
    continuations every call of a changed phase runs in — keep the loop a
    counted loop: a kernel is planned for it and its header admits OSR entry,
    as in the whole-function unit."""
    vm = make_vm(enable_deoptless=True)
    w = REGISTRY.get("sum_phases")
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    for stmt in CASES["sum_phases/float"][1]:
        vm.eval(stmt)
    sum_code = vm.global_env.get("sum").code

    w = REGISTRY.get("colsum")
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    for col in ("1L", "2L", "1L"):  # f@34 is where the version promoted in phase two fails
        for _ in range(6):
            vm.eval("f(%s, tbl)" % col)
    f_code = vm.global_env.get("f").code

    for fn, pc, code in (("sum", 26, sum_code), ("f", 34, f_code)):
        assert code.code[pc][0] == O.LD_VAR and _in_loop(code, pc)
        head = max(at for at, ins in enumerate(code.code) if ins[0] == O.BR and at > pc)
        ncode = _continuation(vm, fn, pc)
        assert ncode.kernels, "%s@%d plans no kernel" % (fn, pc)
        assert code.code[head][1] in ncode.osr_entries
    assert vm.state.compile_failures == 0


#: second draws, this many after the first: the continuation the first
#: dispatched to makes them
GAPS = (1, 5)


@pytest.mark.parametrize("program", ["fannkuchredux", "nbody", "primes", "spectralnorm"])
def test_chaos_inside_a_continuation_comes_back_compiled(program):
    """Deoptless never recurses, so a guard that fails inside a continuation
    takes a real deopt.  Fire one draw in the whole-function unit and a later
    one inside the continuation it dispatched to: the value, the output and
    the globals are the interpreter's on both engines, and the interpreter
    re-enters compiled code at the next loop header it reaches.  Where the
    function's generic version stands there with an entry, that is a hop,
    and no hop is declined for a binding.  A generic version a real deopt
    refuted after it was placed is stale, and is not re-entered:
    ``fannkuch``'s, whose cold branch at pc 219 fails during its warm-up."""
    w = REGISTRY.get(program)
    warm = [w.call_code(w.n_test)] * 3
    _, _, _, expected = _run_calls(w, warm, (-1,), enable_jit=False)
    _, rng, _, _ = _run_calls(w, warm, (-1,), enable_deoptless=True, chaos_rate=0.5)
    draws = -1 - rng.left
    step = _stride(draws, 5)
    pairs = 0
    for k in range(step // 2, draws, step):
        for gap in GAPS:
            runs = []
            for threaded in (True, False):
                vm, rng, mark, got = _run_calls(w, warm, (k, k + gap), enable_deoptless=True,
                                                chaos_rate=0.5, threaded_dispatch=threaded)
                where = "draws %d, %d (threaded=%s)" % (k, k + gap, threaded)
                assert rng.left < 0 and got == expected, where
                assert vm.state.compile_failures == 0 and vm.state.pycodegen_failures == 0
                declined = {why for _, _, why, _ in vm.state.osr_hop_decline_log}
                assert all(why.startswith("stale:") for why in declined), where
                runs.append(engine_signature(vm))
                events = vm.state.events[mark:]
                deopts = [i for i, e in enumerate(events)
                          if e.kind == "deopt" and e.details["reason"] == "chaos"]
                first, second = events[deopts[0]], events[deopts[1]]
                if first.details["from_continuation"] or not second.details["from_continuation"]:
                    continue
                assert any(e.kind == "deoptless_dispatch"
                           for e in events[deopts[0]:deopts[1]]), where
                resume = next((e for e in events[deopts[1] + 1:] if e.kind in ("osr_hop", "osr_in")
                               and e.fn_name == second.fn_name), None)
                if resume is None:
                    continue  # the activation returned before its next backedge
                pairs += 1
                gen = vm.global_env.get(second.fn_name).jit.version
                stale = gen is not None and stale_site(gen)
                if stale:
                    assert "stale:" + stale in declined, where
                elif gen is not None and resume.details["pc"] in gen.osr_entries:
                    assert resume.kind == "osr_hop", where
            assert runs[0] == runs[1], "draws %d, %d" % (k, k + gap)
    assert pairs, "no second draw failed inside a continuation"


@pytest.mark.parametrize("deoptless", [False, True])
def test_a_failed_guard_inside_an_eager_argument_resumes_there(deoptless):
    """``bt_make``'s two recursive calls are arguments of ``list``, a base
    builtin, so they are evaluated in place and no promise is made: a deopt
    at either call resumes at that ``CALL``, in the interpreter or in a
    continuation, with ``list`` and the arguments so far on the operand
    stack.  Fail one draw at a time over one ``binarytrees_run(4L)`` on
    both engines: the value is the interpreter's.  The compile threshold
    lets every call site of ``bt_make`` record its target before the unit
    is compiled (at 2, it is compiled on the way down the first tree, and
    its later call sites stay generic calls that no guard protects)."""
    w = REGISTRY.get("binarytrees")
    warm = [w.call_code(w.n_test)]
    cfg = dict(chaos_rate=0.5, compile_threshold=8, enable_deoptless=deoptless)
    _, _, _, expected = _run_calls(w, warm, (-1,), enable_jit=False)
    vm, rng, _, _ = _run_calls(w, warm, (-1,), **cfg)
    draws = -1 - rng.left
    calls = [pc for pc, ins in enumerate(vm.global_env.get("bt_make").code.code)
             if ins[0] == O.CALL and ins[1] == 1]
    hit = set()
    for k in range(0, draws, _stride(draws, 2 * POINTS)):
        for threaded in (True, False):
            vm, rng, mark, got = _run_calls(w, warm, (k,), threaded_dispatch=threaded, **cfg)
            assert rng.left < 0 and got == expected, "draw %d (threaded=%s)" % (k, threaded)
            deopt = next(e for e in vm.state.events[mark:] if e.kind == "deopt")
            if deopt.fn_name == "bt_make":
                hit.add(deopt.details["pc"])
    assert len(calls) == 2 and hit >= set(calls), (calls, hit)


class _Where(FireAt):
    """``FireAt(-1)`` that records where the reference engine makes each
    draw: the unit and op index (None for a kernel's draws)."""

    def __init__(self):
        FireAt.__init__(self, -1)
        self.at = []

    def random(self):
        f = sys._getframe(1)
        self.at.append((f.f_locals["ncode"], f.f_locals["pc"])
                       if f.f_code.co_name == "execute_ref" else None)
        return FireAt.random(self)


def _coalesced_loops(nc):
    """The op indices of the loops (a backedge's target up to it) that hold
    an op writing a register it reads: an induction ``i + 1`` or an in-place
    store that shares its phi's register, so the latch copy is gone."""
    at = set()
    for j, op in enumerate(nc.ops):
        if op[0] == N.JMP and op[1] <= j:
            body = [nc.ops[i] for i in range(op[1], j + 1)]
            if any((o[0] in (N.PADD, N.PSUB) and o[1] in o[2:4])
                   or (o[0] == N.VSTORE and o[1] == o[2]) for o in body):
                at.update(range(op[1], j + 1))
    return at


@pytest.mark.parametrize("program", ["fannkuchredux", "nbody", "bounce", "primes"])
def test_one_failed_draw_in_a_coalesced_loop(program):
    """Where a phi and its latch value share a register, a guard failing in
    that loop must still hand back the frame it names.  Fail one draw at a
    time, strided over the draws the guards of the coalesced inner loops
    make in one call, on both engines with deoptless on and off: the value,
    the output and the globals are the interpreter's, and the two engines'
    ``engine_signature`` agree.  ``bounce`` and ``primes`` hold ``if``/``else``
    joins inside nested Python loops: a draw failing there raises out of two
    loops with the pending counts of its path."""
    w = REGISTRY.get(program)
    warm = [w.call_code(w.n_test)] * 3
    _, _, _, expected = _run_calls(w, warm, (-1,), enable_jit=False)
    vm = make_vm(enable_deoptless=True, chaos_rate=0.5, threaded_dispatch=False)
    vm.chaos_rng = FireAt(-1)
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    for stmt in warm:
        vm.eval(stmt)
    seen = vm.chaos_rng = _Where()
    vm.eval(w.call_code(w.n_test))
    loops = {}
    inside = [k for k, at in enumerate(seen.at) if at is not None and at[1] in loops.setdefault(
        id(at[0]), _coalesced_loops(at[0]))]
    assert len(inside) > 20, "the call makes few draws in a coalesced loop"
    swept = inside[::_stride(len(inside), 8)]
    for k in swept:
        unit = seen.at[k][0].name
        for deoptless in (True, False):
            runs = []
            for threaded in (True, False):
                vm, rng, mark, got = _run_calls(w, warm, (k,), enable_deoptless=deoptless,
                                                chaos_rate=0.5, threaded_dispatch=threaded)
                where = "draw %d (deoptless=%s, threaded=%s)" % (k, deoptless, threaded)
                assert rng.left < 0 and got == expected, where
                assert vm.state.compile_failures == 0 and vm.state.pycodegen_failures == 0
                first = next(e for e in vm.state.events[mark:]
                             if e.kind == "deopt" and e.details["reason"] == "chaos")
                assert first.fn_name == unit, where  # the draw fails in that loop
                runs.append(engine_signature(vm))
            assert runs[0] == runs[1], "draw %d (deoptless=%s)" % (k, deoptless)
    assert len(swept) >= 4
