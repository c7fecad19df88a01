"""The deoptless engine (paper Listing 6).

The first option of the VM's ``deopt`` (``RVM.recover``, DESIGN.md "The
deopt tail: refute, then recover"):

    if (deoptlessCondition(fs, r)) {      // RVM.recover
        ctx = computeCtx(fs, r)           // try_deoptless
        fun = dispatch(ctx)
        if (!fun) fun = deoptlessCompile(ctx)
        if (fun) return fun(fs)           // RVM.deopt -> call_continuation
    }
    // rest same as normal deopt          // RVM.refute, then hop or interpreter

Listing 6's ``recompile(fun, ctx)`` clause is not taken: a continuation
that dispatch finds serves, and only a miss with room in the table
compiles.

The origin version of the function is **retained**: deoptless never
invalidates it (that is the whole point — Figure 2 versus Figure 1).
"""

from __future__ import annotations

from typing import Any, Optional

from ..jit import unit
from ..native.executor import execute
from ..native.lower import NativeCode
from ..osr.framestate import DeoptReason, FrameState
from ..osr.osr_hop import live_context
from ..osr.osr_out import unwind_parents
from ..runtime.rtypes import RType
from .context import DeoptContext, compute_context
from .feedback_repair import repair_feedback

#: sentinel: deoptless did not handle the deopt, fall through to normal path
MISS = object()

#: dispatches into one continuation (same compiled context) before it is
#: promoted to a full version in the closure's version table
CONT_TIERUP_THRESHOLD = 3


def try_deoptless(vm, fs: FrameState, reason: DeoptReason, refused: list) -> Any:
    """Listing 6 once ``RVM.recover`` found ``deoptlessCondition`` true: the
    continuation dispatched or compiled for this deopt's context, or MISS
    with why appended to ``refused``.  Runs nothing."""
    ctx = compute_context(fs, reason, vm.config)
    if ctx is None:
        vm.state.deoptless_bailouts += 1
        refused.append(("continuation", "context-bound"))
        return MISS
    table = fs.fun.jit.deoptless_table
    fun: Optional[NativeCode] = table.dispatch(ctx)
    if fun is None:
        if table.full:
            # never fetch or compile what cannot be inserted: real deopt
            vm.state.dispatch_refusals += 1
            vm.state.deoptless_bailouts += 1
            refused.append(("continuation", "table-full"))
            return MISS
        fun = deoptless_compile(vm, fs, reason, ctx)
        if fun is None:
            vm.state.deoptless_misses += 1
            refused.append(("continuation", "compile-failed"))
            return MISS
        table.insert(ctx, fun)
        vm.state.code_size += fun.size

    vm.state.deoptless_dispatches += 1
    vm.state.emit(
        "deoptless_dispatch", fs.code.name,
        pc=fs.pc, reason=reason.kind.value, table_size=len(table),
    )
    return fun


def _repaired(vm, code, reason: DeoptReason, ctx: DeoptContext):
    """The profile a recovery compiles from: the live one cleaned of the
    refuted fact (section 4.3), unless the repair pass is switched off."""
    if vm.config.deoptless_feedback_repair:
        return repair_feedback(code, reason, ctx)
    return code.feedback


def deoptless_compile(vm, fs: FrameState, reason: DeoptReason, ctx: DeoptContext) -> Optional[NativeCode]:
    """``deoptlessCompile``: a specialized continuation for ``ctx``, tagged
    with it for dispatch and tier-up.  Obtained like any unit
    (:func:`repro.jit.unit.obtain`), so a repeat context — the same
    mis-speculation in a sibling closure, a re-evaluated program, another
    tenant, a restarted VM — recovers in O(lookup) instead of O(pipeline):
    the cache key holds everything the builder reads, the full dispatch
    context and the *repaired* feedback signature included."""
    injected = {}
    if isinstance(reason.observed, RType):
        injected[reason.pc] = reason.observed
    return unit.obtain(vm, unit.UnitSpec(fs.code, fs.fun, ctx=ctx, injected=injected,
                                         feedback=_repaired(vm, fs.code, reason, ctx)))


def call_continuation(vm, ncode: NativeCode, fs: FrameState, reason=None) -> Any:
    """Invoke a continuation, passing the extracted state directly (the
    paper's calling convention, :func:`repro.jit.unit.continuation_args`)."""
    # Register hotness with the owning closure's jit state: every dispatch
    # into a continuation (cached or fresh) counts toward tier-up.  Keyed on
    # the context the continuation was *compiled* for, so repeat recoveries
    # that dispatch to the same entry accumulate on one counter.  A None
    # entry marks a context already promoted to a full entry version.
    ctx = ncode.ctx
    if ctx is not None and fs.fun is not None and fs.fun.jit is not None:
        st = fs.fun.jit
        hits = st.cont_hits
        if hits is None:
            hits = st.cont_hits = {}
        cur = hits.get(ctx, 0)
        if cur is not None:
            hits[ctx] = cur + 1
            if reason is not None and cur + 1 >= CONT_TIERUP_THRESHOLD:
                maybe_tier_up_continuation(vm, fs, reason, ctx, st)
    args = unit.continuation_args(ncode, fs)
    closure_env = fs.closure_env if fs.closure_env is not None else (
        fs.fun.env if fs.fun is not None else None
    )
    # If the deopt happened inside an *inlined* frame, the continuation only
    # covered the innermost (callee) frame: the recorded parent chain resumes
    # in the interpreter, as after a real deopt.
    return unwind_parents(vm, fs, execute(ncode, args, vm, closure_env=closure_env))


def maybe_tier_up_continuation(vm, fs: FrameState, reason: DeoptReason,
                               ctx: DeoptContext, st) -> None:
    """Continuation tier-up (dispatched OSR, part 2).

    A continuation dispatched ``CONT_TIERUP_THRESHOLD`` times is evidence
    the entry speculation is systematically wrong for this calling pattern:
    promote it to a *full* entry version compiled under the repaired
    feedback (no re-speculation of the refuted fact) and install it in the
    closure's version table, so repeat recoveries are absorbed at the call
    boundary instead of re-entering through a deopt.  Root frames only — an
    inlined-frame recovery context has no entry calling convention to
    promote to.  One attempt per context, success or not (``cont_hits``
    keeps a None tombstone).

    Known hole, measured and left to the next policy PR (ROADMAP item
    3(ii)): the promoted version is keyed on the live *call* context, which
    cannot express the refuted fact when that fact is about a value the
    function computes.  ``t[[colIndex]]`` in ``colsum``: both phases call
    under ``(int$^, list)``; likewise the interpolation closure in
    ``volcano``.  The promoted version then takes every call of the old
    phase too, deopts on each (``f(1L, tbl)`` at pc 34: 18 of 18 calls on
    ``phase-change``; ``trace_rays@193``: 12 of 12), is never retired
    (deoptless keeps its origin) and never re-promoted (``lookup_exact``
    finds it).  Each of those calls runs in a continuation: 0.55 ms against
    0.36 ms without the deopt for ``f`` at n = 10,000 (7.2 ms before
    continuations kept their loops, which is what hid this behind
    ``osr_hop``).  The rule to write: a promotion its own call context
    refutes is retired.
    """
    st.cont_hits[ctx] = None
    if not vm.config.osr_hop or fs.parent is not None or ctx.depth != 1:
        return
    closure = fs.fun
    if st.cant_compile:
        return
    values = fs.bindings()
    if values is None:
        return
    call_ctx = live_context(closure, values)
    if call_ctx is None or call_ctx.specificity() == 0:
        # a context with no discriminating information (zero formals, or
        # nothing known about any argument) would match *every* call: the
        # promoted version would shadow the generic unconditionally and the
        # next phase change deopts it right back out — promotion is pure
        # churn without an entry check to stand behind
        return
    vt = st.versions
    if vt is not None and vt.lookup_exact(call_ctx) is not None:
        return  # an entry version for this calling pattern already stands
    if not vm.admits(st):
        return
    # through the compile queue, so an attached fleet keeps compilation off
    # the recovery path; compiled under the repaired feedback and
    # content-addressed in the code cache like any entry version
    vm.compile_queue.request(unit.UnitSpec(
        closure.code, closure, ctx=call_ctx,
        feedback=_repaired(vm, fs.code, reason, ctx)), promote=True)
