"""Speculative call-target inlining.

Call-target speculation only pays off when the optimizer can *see through*
the call: for a monomorphic ``CallFeedback`` site the builder already emits
``IsIdentical(fn, target) + Assume`` in front of a ``StaticCall``.  This
pass splices the callee's IR into the caller under that existing guard:

* arguments become direct value substitutions for the callee's ``Param``
  instructions — no boxing step, no argument matching, and no
  ``REnvironment`` allocation (only callees whose environment is
  non-escaping are inlined, so the env stays elided and the callee's locals
  live in caller registers);
* the callee's ``RETURN`` becomes a jump to the continuation block (the
  tail of the caller block, split at the call), with a phi collecting the
  return values;
* every checkpoint inside the inlined body gets a *nested*
  :class:`FrameStateDescr`: the callee frame, whose ``parent`` is the
  caller frame re-entered at the post-call pc with the callee and its
  arguments already popped.  A deopt inside the inlined body therefore
  materializes both interpreter frames exactly (see ``osr/osr_out.py``),
  and the deoptless engine can dispatch on the chained state.

Cost model (pass gated behind ``Config.inline``):

* callee bytecode size bounded by ``Config.inline_max_size`` and a per-unit
  total :data:`BUDGET`;
* nesting bounded by :data:`MAX_DEPTH`; recursive targets (the callee's
  code already on the inline chain) are never inlined;
* no inlining of callees with escaping environments (``MK_CLOSURE`` /
  ``MK_PROMISE``), ``<<-`` assignments (their elided-env semantics start
  the search at a different env than the explicit-env form), loops (they
  are hot on their own and would interact with OSR/kernels), non-constant
  argument defaults, or named-argument call shapes.

Free-variable loads in the callee (``LdVarEnv``/``LdFun`` without an env
operand) resolve against the *callee's* lexical environment, which at an
inline site is a compile-time constant (``target.env``); they are rewritten
to the explicit-env forms over a constant.  Vector arguments get a
:class:`~repro.ir.instructions.Share` mark at the inline boundary so
copy-on-write (NAMED) behavior matches the interpreter's argument binding.
"""

from __future__ import annotations

from typing import List, Optional

from ..bytecode import opcodes as O
from ..deoptless.context import CallContext
from ..ir import instructions as I
from ..ir.builder import CompilationFailure, GraphBuilder, _const_default, env_escapes
from ..ir.cfg import Graph
from ..osr.framestate import DeoptReasonKind, FrameStateDescr
from ..runtime.rtypes import ANY, Kind, RType
from ..runtime.values import NULL, RClosure, rtype_quick

#: max inlined frame depth (1 = calls from the root function); the code
#: cache's feedback signature follows callee profiles to the same depth
MAX_DEPTH = 3
#: total callee bytecode ops inlined per compilation unit
BUDGET = 200

_ENV_T = RType(Kind.ENV, scalar=True, maybe_na=False)
_MISSING = object()


def _has_loop(code) -> bool:
    for i, ins in enumerate(code.code):
        if ins[0] in (O.BR, O.BRFALSE, O.BRTRUE) and ins[1] <= i:
            return True
    return False


def _default_values(target: RClosure) -> Optional[list]:
    """Constant default values per formal (``_MISSING`` where there is no
    default), or None when any default is a non-constant thunk."""
    out = []
    for _, default in target.formals:
        if default is None:
            out.append(_MISSING)
        elif _const_default(default):
            ins0 = default.code[0]
            out.append(NULL if ins0[0] == O.PUSH_NULL else default.consts[ins0[1]])
        else:
            return None
    return out


def _chain_depth(fs: FrameStateDescr) -> int:
    d = 1
    while fs.parent is not None:
        d += 1
        fs = fs.parent
    return d


def _chain_codes(fs: Optional[FrameStateDescr]) -> list:
    codes = []
    while fs is not None:
        codes.append(fs.code)
        fs = fs.parent
    return codes


def inline_calls(graph: Graph, vm) -> int:
    """Inline speculated (guarded) calls into ``graph``; returns the number
    of callee frames spliced.  Iterates to a fixpoint so calls inside
    inlined bodies are considered too (bounded by depth/budget)."""
    spent = 0
    inlined = 0
    worklist: List[I.StaticCall] = [
        ins for bb in graph.blocks for ins in bb.instrs if isinstance(ins, I.StaticCall)
    ]
    while worklist:
        call = worklist.pop(0)
        if call.block is None:  # removed by an earlier splice
            continue
        res = _try_inline(graph, vm, call, BUDGET - spent)
        if res is None:
            continue
        n_ops, new_calls = res
        spent += n_ops
        inlined += 1
        worklist.extend(new_calls)
    if inlined:
        vm.state.inlined_frames += inlined
        graph.inlined_frames += inlined
    return inlined


def _try_inline(graph: Graph, vm, call: I.StaticCall, budget_left: int):
    config = vm.config
    target = call.closure
    if not isinstance(target, RClosure):
        return None
    names = call.call_names
    if names is not None and any(n is not None for n in names):
        return None  # named-argument shapes keep the guarded-call path
    bb = call.block
    idx = bb.instrs.index(call)
    if idx < 2:
        return None
    assume = bb.instrs[idx - 1]
    test = bb.instrs[idx - 2]
    if not (
        isinstance(assume, I.Assume)
        and assume.reason_kind is DeoptReasonKind.CALL_TARGET
        and isinstance(test, I.IsIdentical)
    ):
        return None
    guard_fs = assume.framestate
    if _chain_depth(guard_fs) > MAX_DEPTH:
        return None
    code = target.code
    if code is graph.bc_code or code in _chain_codes(guard_fs):
        return None  # recursive: the callee is already on the inline chain
    n_ops = len(code.code)
    if n_ops > config.inline_max_size or n_ops > budget_left:
        return None
    if env_escapes(code) or _has_loop(code):
        return None
    if any(ins[0] == O.ST_VAR_SUPER for ins in code.code):
        return None
    formals = target.formals
    nargs = len(call.args)
    if nargs > len(formals):
        return None
    defaults = None
    if nargs < len(formals):
        defaults = _default_values(target)
        if defaults is None:
            return None
        if any(defaults[j] is _MISSING for j in range(nargs, len(formals))):
            return None

    # When the argument types are statically known at the splice site, build
    # the callee under that entry context: the context-matched version of
    # the body, with its redundant entry guards dropped (they are implied by
    # the caller's types).  Params stay boxed — the substituted argument
    # values are boxed IR values, not dispatch-unboxed registers.
    sub_ctx = None
    if config.ctxdispatch:
        ats = [a.type for a in call.args]
        if defaults is not None:
            ats += [rtype_quick(defaults[j]) for j in range(nargs, len(formals))]
        if len(ats) == len(formals) and any(t.kind is not Kind.ANY for t in ats):
            sub_ctx = CallContext(
                tuple(ats), tuple(t.kind is not Kind.ANY for t in ats)
            )
    try:
        sub = GraphBuilder(vm, code, target,
                           entry_ctx=sub_ctx, unbox_params=False).build()
    except CompilationFailure:
        return None
    if not sub.env_elided:
        return None
    params = [p for p in sub.params if isinstance(p, I.Param)]
    if len(params) != len(formals):
        return None
    rets = [ins for sbb in sub.blocks for ins in sbb.instrs if isinstance(ins, I.Return)]
    if not rets:
        return None
    needs_env = any(
        isinstance(ins, (I.LdVarEnv, I.LdFun)) and not ins.args
        for sbb in sub.blocks
        for ins in sbb.instrs
    )

    # -- the caller frame for nested FrameStates --------------------------------
    # The guard's framestate describes the caller *at* the call pc, with the
    # callee and arguments on top of the recorded stack.  The parent frame
    # of every checkpoint inside the inlined body is the caller re-entered
    # at the post-call pc (each bytecode op is one pc slot) with callee and
    # args popped — the callee's return value is pushed on resume.  One
    # frame serves them all, on the guard's own parents: every frame is a
    # use holder of its own, so a rewrite reaches a shared one once.
    caller_frame = FrameStateDescr(
        guard_fs.code, call.bc_pc + 1,
        list(guard_fs.env_slots), guard_fs.stack[: len(guard_fs.stack) - nargs - 1],
        env_value=guard_fs.env_value, parent=guard_fs.parent, fun=guard_fs.fun,
    )

    # -- split the caller block at the call -------------------------------------
    tail = bb.instrs[idx + 1:]
    del bb.instrs[idx:]
    call.block = None
    cont = graph.new_block()
    cont.instrs = tail
    for t in tail:
        t.block = cont
    for succ in cont.successors():
        for phi in succ.phis():
            phi.inputs = [(cont if b is bb else b, v) for b, v in phi.inputs]

    # -- transfer the callee blocks into the caller graph ------------------------
    for sbb in sub.blocks:
        sbb.graph = graph
        sbb.id = len(graph.blocks)
        graph.blocks.append(sbb)
        for ins in sbb.instrs:
            ins.id = graph.next_id()

    # -- argument values: direct substitutions (plus constant defaults) ----------
    argvals = list(call.args)
    if defaults is not None:
        for j in range(nargs, len(formals)):
            c = I.Const(defaults[j], rtype_quick(defaults[j]))
            c.bc_pc = call.bc_pc
            bb.append(c)
            argvals.append(c)
    env_c = None
    if needs_env:
        # free-variable accesses in the callee resolve in its lexical env,
        # a compile-time constant at a speculated site
        env_c = I.Const(target.env, _ENV_T)
        env_c.bc_pc = call.bc_pc
        bb.append(env_c)
    for a in argvals:
        # a Box is a fresh per-call allocation nobody else aliases, so the
        # NAMED bump is unobservable — skipping it keeps the boxed argument
        # dead once the peephole folds the callee's re-guarding of it
        if isinstance(a, I.Box):
            continue
        share = I.Share(a)
        share.bc_pc = call.bc_pc
        bb.append(share)
    bb.append(I.Jump(sub.entry))

    if env_c is not None:
        for sbb in sub.blocks:
            for ins in sbb.instrs:
                if isinstance(ins, (I.LdVarEnv, I.LdFun)) and not ins.args:
                    ins.args = [env_c]

    # -- nest every checkpoint of the inlined body ------------------------------
    seen = set()
    for sbb in sub.blocks:
        for ins in sbb.instrs:
            fs = getattr(ins, "framestate", None)
            if fs is None or id(fs) in seen:
                continue
            seen.add(id(fs))
            root = fs
            while root.parent is not None:
                root = root.parent
            if root.fun is None:
                root.fun = target
            root.parent = caller_frame

    # -- RETURN becomes a jump to the continuation ------------------------------
    phi = I.Phi(ANY)
    for ret in rets:
        rbb = ret.block
        v = ret.args[0]
        rbb.remove(ret)
        rbb.append(I.Jump(cont))
        phi.add_input(rbb, v)
    cont.insert_front(phi)

    # -- the splice is in place: index it once, then substitute ------------------
    graph.compute_uses()
    for p, a in zip(params, argvals):
        graph.replace_all_uses(p, a)
        if p.block is not None:
            p.block.remove(p)
    graph.replace_all_uses(call, phi)

    graph.recompute_preds()
    vm.state.emit(
        "inline", graph.name,
        callee=code.name, pc=call.bc_pc, depth=_chain_depth(guard_fs), size=n_ops,
    )
    new_calls = [
        ins for sbb in sub.blocks for ins in sbb.instrs if isinstance(ins, I.StaticCall)
    ]
    return n_ops, new_calls
