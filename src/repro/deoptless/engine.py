"""The deoptless engine (paper Listing 6).

Extends the VM's ``deopt`` with:

    if (deoptlessCondition(fs, r)) {
        ctx = computeCtx(fs, r)
        fun = dispatch(ctx)
        if (!fun || recompile(fun, ctx)) fun = deoptlessCompile(ctx)
        if (fun) return fun(fs)
    }
    // rest same as normal deopt

The origin version of the function is **retained**: deoptless never
invalidates it (that is the whole point — Figure 2 versus Figure 1).
"""

from __future__ import annotations

from typing import Any, Optional

from ..jit import unit
from ..native.executor import execute
from ..native.lower import NativeCode
from ..osr.framestate import CATASTROPHIC_REASONS, DeoptReason, FrameState
from ..osr.osr_hop import live_context
from ..osr.osr_out import unwind_parents
from ..runtime.rtypes import RType
from .context import DeoptContext, compute_context
from .feedback_repair import repair_feedback

#: sentinel: deoptless did not handle the deopt, fall through to normal path
MISS = object()

#: recompile when the best matching continuation is more than this many
#: lattice steps more generic than the current context
RECOMPILE_DISTANCE = 4
#: dispatches into one continuation (same compiled context) before it is
#: promoted to a full version in the closure's VersionTable
CONT_TIERUP_THRESHOLD = 3


def deoptless_condition(vm, fs: FrameState, reason: DeoptReason, origin) -> bool:
    """``deoptlessCondition`` — which deopts deoptless even attempts."""
    if not vm.config.enable_deoptless:
        return False
    if reason.kind in CATASTROPHIC_REASONS:
        return False  # code is permanently invalid; must be discarded
    if origin is not None and origin.is_deoptless_continuation:
        return False  # no recursive deoptless (paper section 4.3)
    # NOTE: deopts inside inlined code (fs.parent is not None) are *not*
    # excluded — this lifts the paper's section-4.3 limitation.  The context
    # is keyed on the inlinee's pc, the frame depth, and the reason; the
    # continuation runs the innermost frame natively and the enclosing
    # frames resume in the interpreter (call_continuation).
    if fs.fun is None or fs.fun.jit is None:
        return False  # no per-function dispatch table to hang the code on
    return True


def try_deoptless(vm, fs: FrameState, reason: DeoptReason, origin) -> Any:
    """Attempt dispatched OSR; returns the continuation's result or MISS."""
    if not deoptless_condition(vm, fs, reason, origin):
        return MISS
    ctx = compute_context(fs, reason, vm.config)
    if ctx is None:
        vm.state.deoptless_bailouts += 1
        return MISS

    table = fs.fun.jit.deoptless_table
    fun: Optional[NativeCode] = table.dispatch(ctx)
    if fun is None or _recompile(fun, ctx):
        if table.full:
            # never fetch or compile what cannot be inserted: a too-generic
            # continuation keeps serving; with nothing compatible, real deopt
            if fun is None:
                vm.state.dispatch_refusals += 1
                vm.state.deoptless_bailouts += 1
                return MISS
        else:
            new = deoptless_compile(vm, fs, reason, ctx)
            if new is not None:
                table.insert(ctx, new)
                vm.state.code_size += new.size
                fun = new
            elif fun is None:
                vm.state.deoptless_misses += 1
                return MISS

    vm.state.deoptless_dispatches += 1
    vm.state.emit(
        "deoptless_dispatch", fs.code.name,
        pc=fs.pc, reason=reason.kind.value, table_size=len(table),
    )
    return call_continuation(vm, fun, fs, reason)


def _recompile(fun: NativeCode, ctx: DeoptContext) -> bool:
    """``recompile`` heuristic: the matching continuation is too generic."""
    return ctx.distance(fun.deoptless_ctx) > RECOMPILE_DISTANCE


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
    return unit.obtain(vm, unit.UnitSpec(
        "cont", fs.code, fs.fun, pc=fs.pc,
        var_types=dict(ctx.env_types), stack_types=list(ctx.stack_types),
        ctx=ctx, injected=injected,
        feedback=_repaired(vm, fs.code, reason, ctx)))


def call_continuation(vm, ncode: NativeCode, fs: FrameState, reason=None) -> Any:
    """Invoke a continuation, passing the extracted state directly (the
    paper's calling convention, :func:`repro.jit.unit.continuation_args`)."""
    # Register hotness with the owning closure's jit state: every dispatch
    # into a continuation (cached or fresh) counts toward tier-up.  Keyed on
    # the context the continuation was *compiled* for, so repeat recoveries
    # that dispatch to the same entry accumulate on one counter.  A None
    # entry marks a context already promoted to a full entry version.
    ctx = getattr(ncode, "deoptless_ctx", None)
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
    values = unit.frame_values(fs)
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
    # through the compile queue, so step/bg modes keep compilation off the
    # recovery path; compiled under the repaired feedback and
    # content-addressed in the code cache like any entry version
    vm.compile_queue.request(unit.UnitSpec(
        "ctxfn", closure.code, closure, ctx=call_ctx,
        feedback=_repaired(vm, fs.code, reason, ctx)), promote=True)
