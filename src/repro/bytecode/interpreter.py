"""The baseline bytecode interpreter — the profiling lower tier.

Executes full generic R semantics through :mod:`repro.runtime.coerce` and
records type/call/branch feedback at every relevant site.  Two properties
matter for the OSR machinery:

* :func:`run` can **enter at any pc with a pre-seeded operand stack**.  This
  is what deoptimization (OSR-out) uses to continue a function in the
  interpreter from the middle (paper Figure 1 / Listing 4).
* Backward branches are **counted**; hot loops trigger OSR-in through the
  VM (paper Listing 5), compiling a continuation from the current pc.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..runtime import coerce
from ..runtime.env import REnvironment
from ..runtime.rtypes import Kind, kind_lub
from ..runtime.values import (
    NULL,
    RBuiltin,
    RClosure,
    RError,
    RPromise,
    RVector,
    mk_lgl,
)
from . import opcodes as O
from .opcodes import (
    BINOP, BR, BRFALSE, BRTRUE, CALL, CHECK_FUN, COLON, COMPARE, DUP, INDEX1,
    INDEX2, LD_FUN, LD_VAR, LOGIC, MK_CLOSURE, MK_PROMISE, POP, PUSH_CONST,
    PUSH_NULL, RETURN, ROT3, SEQ_LENGTH, SET_INDEX1, SET_INDEX2, ST_VAR,
    ST_VAR_SUPER, UNOP,
)
from .feedback import BinopFeedback, BranchFeedback, CallFeedback, ObservedType

# global loads; ``Kind.X`` is a metaclass lookup before CPython 3.12
_INT, _DBL, _CPLX, _LIST = Kind.INT, Kind.DBL, Kind.CPLX, Kind.LIST


def force(value: Any, vm) -> Any:
    """Force a promise (at most once); other values pass through."""
    if isinstance(value, RPromise):
        if not value.forced:
            value.value = run(value.code, value.env, vm)
            value.forced = True
            v = value.value
            if isinstance(v, RVector):
                v.named = 2
        return value.value
    return value


def force_args(args: List[Any], vm) -> List[Any]:
    """The argument list of a builtin call, promises forced.  Most arguments
    are plain values: only promises pay for the :func:`force` call."""
    return [a if a.__class__ is not RPromise else force(a, vm) for a in args]


def bind_value(env: REnvironment, name: str, value: Any) -> None:
    """Store with NAMED bookkeeping (enables in-place subscript updates)."""
    if isinstance(value, RVector):
        if value.named == 0:
            value.named = 1
        elif env.bindings.get(name) is not value:
            value.named = 2
    env.set(name, value)


def match_arguments(closure: RClosure, args: List[Any], names, vm) -> REnvironment:
    """R-style argument matching: exact names first, then positional;
    missing formals fall back to defaults (evaluated lazily in the callee
    environment)."""
    env = REnvironment(parent=closure.env)
    formals = closure.formals

    if names is None and len(args) <= len(formals):
        # all positional: argument i binds formal i, the rest take defaults
        for (nm, _), a in zip(formals, args):
            _bind_arg(env, nm, a)
        for nm, default in formals[len(args):]:
            if default is not None:
                env.set(nm, RPromise(default, env))
        return env

    formal_names = [f[0] for f in formals]
    bound = [False] * len(formals)
    used = [False] * len(args)

    if names is not None:
        for i, nm in enumerate(names):
            if nm is None:
                continue
            try:
                j = formal_names.index(nm)
            except ValueError:
                raise RError("unused argument (%s) in call to '%s'" % (nm, closure.name))
            if bound[j]:
                raise RError("formal argument '%s' matched by multiple arguments" % nm)
            _bind_arg(env, nm, args[i])
            bound[j] = True
            used[i] = True

    pos = 0
    for i, a in enumerate(args):
        if used[i]:
            continue
        while pos < len(formals) and bound[pos]:
            pos += 1
        if pos >= len(formals):
            raise RError("unused arguments in call to '%s'" % closure.name)
        _bind_arg(env, formal_names[pos], a)
        bound[pos] = True
        pos += 1

    for j, (nm, default) in enumerate(formals):
        if not bound[j]:
            if default is None:
                # R binds the "missing" marker; touching it errors at LD_VAR.
                continue
            env.set(nm, RPromise(default, env))
    return env


def _bind_arg(env: REnvironment, name: str, value: Any) -> None:
    if isinstance(value, RVector):
        value.named = 2  # argument values may be referenced by the caller too
    env.set(name, value)


def call_function(fn: Any, args: List[Any], names, vm) -> Any:
    """Common call path (also used by the native tier for generic calls)."""
    if isinstance(fn, RBuiltin):
        return fn.fn(force_args(args, vm), vm)
    if isinstance(fn, RClosure):
        return vm.call_closure(fn, args, names)
    raise RError("attempt to apply non-function")


def run(
    code,
    env: REnvironment,
    vm,
    stack: Optional[List[Any]] = None,
    pc: int = 0,
    closure=None,
) -> Any:
    """Interpret ``code`` in ``env`` starting at ``pc`` with operand ``stack``.

    The non-default ``pc``/``stack`` entry is how deoptimization resumes a
    function mid-flight after OSR-out.

    This is the production loop: feedback is recorded through the per-pc
    slot array preallocated by the compiler (a list index instead of a dict
    probe-and-insert), and ``state.interp_ops`` is maintained as straight-
    line *batches* — ops retire into a local accumulator that is settled at
    control-flow edges and flushed once on exit, so the totals the cost
    model reads are exactly those of the per-op reference loop.  Opcodes
    are compared against this module's own int globals, most frequently
    executed first (DESIGN.md, "Baseline tier", has the histogram).  Set
    ``RERPO_REF_EXEC=1`` (or ``Config.threaded_dispatch=False``) to run
    :func:`run_ref` instead for differential testing.
    """
    if not vm.config.threaded_dispatch:
        return run_ref(code, env, vm, stack, pc, closure)
    if stack is None:
        stack = []
    instrs = code.code
    consts = code.consts
    names = code.names
    fbslots = code.feedback_slots
    if fbslots is None:
        code.seal_feedback()
        fbslots = code.feedback_slots
    bindings = env.bindings
    state = vm.state
    n = 0       # ops retired into the batch accumulator
    base = pc   # first pc of the current straight-line batch

    try:
        while True:
            ins = instrs[pc]
            op = ins[0]

            if op == LD_VAR:
                name = names[ins[1]]
                v = bindings.get(name)
                if v is None:  # not a local: walk the scope chain (or raise)
                    v = env.get(name)
                if v.__class__ is RPromise:
                    v = force(v, vm)
                fbslots[pc].record(v)
                stack.append(v)

            elif op == BINOP:
                rhs = stack.pop()
                lhs = stack.pop()
                fbslots[pc].record(lhs, rhs)
                stack.append(coerce.arith(ins[1], lhs, rhs))

            elif op == ST_VAR:
                # bind_value, written out
                name = names[ins[1]]
                v = stack.pop()
                if v.__class__ is RVector:
                    if v.named == 0:
                        v.named = 1
                    elif bindings.get(name) is not v:
                        v.named = 2
                bindings[name] = v

            elif op == PUSH_CONST:
                stack.append(consts[ins[1]])

            elif op == POP:
                stack.pop()

            elif op == DUP:
                stack.append(stack[-1])

            elif op == INDEX2:
                idx = stack.pop()
                obj = stack.pop()
                fbslots[pc].record(obj, idx)
                stack.append(coerce.extract2(obj, idx))

            elif op == BRFALSE or op == BRTRUE:
                cond = stack.pop()
                truth = cond.is_true() if cond.__class__ is RVector else _truthy(cond)
                fbslots[pc].record(truth)
                if (op == BRFALSE) != truth:
                    target = ins[1]
                    n += pc - base + 1
                    pc = target
                    base = target
                    continue

            elif op == COMPARE:
                rhs = stack.pop()
                lhs = stack.pop()
                fbslots[pc].record(lhs, rhs)
                stack.append(coerce.compare(ins[1], lhs, rhs))

            elif op == BR:
                target = ins[1]
                n += pc - base + 1
                base = pc + 1
                if target <= pc:
                    code.backedge_count += 1
                    if (
                        state.osr_in_enabled
                        and not code.osr_disabled
                        and code.backedge_count >= state.osr_threshold
                    ):
                        done, result = vm.try_osr_in(code, env, target, closure)
                        if done:
                            del stack[:]
                            return result
                pc = target
                base = target
                continue

            elif op == LD_FUN:
                stack.append(env.get_function(names[ins[1]]))

            elif op == CALL:
                nargs = ins[1]
                if nargs:
                    args = stack[-nargs:]
                    del stack[-nargs:]
                else:
                    args = []
                fn = stack.pop()
                call_names = consts[ins[2]] if ins[2] >= 0 else None
                fbslots[pc].record(fn, args)
                stack.append(call_function(fn, args, call_names, vm))

            elif op == ROT3:
                c = stack.pop()
                b = stack.pop()
                a = stack.pop()
                stack.append(b)
                stack.append(c)
                stack.append(a)

            elif op == SET_INDEX2:
                val = stack.pop()
                idx = stack.pop()
                obj = stack.pop()
                fbslots[pc].record(obj, val)
                stack.append(_set_index2(obj, idx, val))

            elif op == PUSH_NULL:
                stack.append(NULL)

            elif op == RETURN:
                return stack.pop()

            elif op == MK_PROMISE:
                stack.append(RPromise(consts[ins[1]], env))

            elif op == COLON:
                rhs = stack.pop()
                lhs = stack.pop()
                fbslots[pc].record(lhs, rhs)
                stack.append(coerce.colon(lhs, rhs))

            elif op == SEQ_LENGTH:
                v = stack.pop()
                fbslots[pc].record(v)
                if isinstance(v, RVector):
                    ln = len(v.data)
                elif v is NULL:
                    ln = 0
                else:
                    ln = 1
                stack.append(RVector(_INT, [ln]))

            elif op == UNOP:
                stack.append(coerce.unary(ins[1], stack.pop()))

            elif op == LOGIC:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(coerce.logic(ins[1], lhs, rhs))

            elif op == INDEX1:
                idx = stack.pop()
                obj = stack.pop()
                fbslots[pc].record(obj, idx)
                stack.append(coerce.extract1(obj, idx))

            elif op == SET_INDEX1:
                val = stack.pop()
                idx = stack.pop()
                obj = stack.pop()
                fbslots[pc].record(obj, val)
                stack.append(coerce.assign1(obj, idx, val))

            elif op == ST_VAR_SUPER:
                v = stack.pop()
                if isinstance(v, RVector):
                    v.named = 2
                env.set_super(names[ins[1]], v)

            elif op == MK_CLOSURE:
                body, formals, fname = consts[ins[1]]
                stack.append(RClosure(formals, body, env, fname))

            elif op == CHECK_FUN:
                mode = ins[1]
                if mode == "callable":
                    if not isinstance(stack[-1], (RClosure, RBuiltin)):
                        raise RError("attempt to apply non-function")
                else:  # as_lgl_scalar for && / ||
                    v = stack.pop()
                    stack.append(mk_lgl(v.is_true() if isinstance(v, RVector) else _truthy(v)))

            else:  # pragma: no cover - unreachable with a correct compiler
                raise RError("unknown opcode %d" % op)

            pc += 1
    finally:
        # settle the open batch: everything from base through the current pc
        # (inclusive) executed sequentially, including a raising op
        state.interp_ops += n + (pc - base + 1)


def run_ref(
    code,
    env: REnvironment,
    vm,
    stack: Optional[List[Any]] = None,
    pc: int = 0,
    closure=None,
) -> Any:
    """Reference interpreter loop: per-op telemetry bumps and dict-probed
    feedback.  Kept as the differential-testing baseline for :func:`run`
    (selected with ``RERPO_REF_EXEC=1``); results, recorded feedback and
    final telemetry totals must be identical between the two.
    """
    if stack is None:
        stack = []
    instrs = code.code
    consts = code.consts
    names = code.names
    feedback = code.feedback
    state = vm.state

    while True:
        ins = instrs[pc]
        op = ins[0]
        state.interp_ops += 1

        if op == O.PUSH_CONST:
            stack.append(consts[ins[1]])

        elif op == O.LD_VAR:
            v = env.get(names[ins[1]])
            if isinstance(v, RPromise):
                v = force(v, vm)
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = ObservedType()
            fb.record(v)
            stack.append(v)

        elif op == O.ST_VAR:
            bind_value(env, names[ins[1]], stack.pop())

        elif op == O.ST_VAR_SUPER:
            v = stack.pop()
            if isinstance(v, RVector):
                v.named = 2
            env.set_super(names[ins[1]], v)

        elif op == O.LD_FUN:
            stack.append(env.get_function(names[ins[1]]))

        elif op == O.POP:
            stack.pop()

        elif op == O.DUP:
            stack.append(stack[-1])

        elif op == O.ROT3:
            c = stack.pop()
            b = stack.pop()
            a = stack.pop()
            stack.append(b)
            stack.append(c)
            stack.append(a)

        elif op == O.BINOP:
            rhs = stack.pop()
            lhs = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(lhs, rhs)
            stack.append(coerce.arith(ins[1], lhs, rhs))

        elif op == O.COMPARE:
            rhs = stack.pop()
            lhs = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(lhs, rhs)
            stack.append(coerce.compare(ins[1], lhs, rhs))

        elif op == O.LOGIC:
            rhs = stack.pop()
            lhs = stack.pop()
            stack.append(coerce.logic(ins[1], lhs, rhs))

        elif op == O.UNOP:
            stack.append(coerce.unary(ins[1], stack.pop()))

        elif op == O.COLON:
            rhs = stack.pop()
            lhs = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(lhs, rhs)
            stack.append(coerce.colon(lhs, rhs))

        elif op == O.INDEX2:
            idx = stack.pop()
            obj = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(obj, idx)
            stack.append(coerce.extract2(obj, idx))

        elif op == O.INDEX1:
            idx = stack.pop()
            obj = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(obj, idx)
            stack.append(coerce.extract1(obj, idx))

        elif op == O.SET_INDEX2:
            val = stack.pop()
            idx = stack.pop()
            obj = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(obj, val)
            stack.append(_set_index2(obj, idx, val))

        elif op == O.SET_INDEX1:
            val = stack.pop()
            idx = stack.pop()
            obj = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BinopFeedback()
            fb.record(obj, val)
            stack.append(coerce.assign1(obj, idx, val))

        elif op == O.SEQ_LENGTH:
            v = stack.pop()
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = ObservedType()
            fb.record(v)
            if isinstance(v, RVector):
                n = len(v.data)
            elif v is NULL:
                n = 0
            else:
                n = 1
            stack.append(RVector(Kind.INT, [n]))

        elif op == O.PUSH_NULL:
            stack.append(NULL)

        elif op == O.BR:
            target = ins[1]
            if target <= pc:
                code.backedge_count += 1
                if (
                    state.osr_in_enabled
                    and not code.osr_disabled
                    and code.backedge_count >= state.osr_threshold
                ):
                    done, result = vm.try_osr_in(code, env, target, closure)
                    if done:
                        del stack[:]
                        return result
            pc = target
            continue

        elif op == O.BRFALSE or op == O.BRTRUE:
            cond = stack.pop()
            truth = cond.is_true() if isinstance(cond, RVector) else _truthy(cond)
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = BranchFeedback()
            fb.record(truth)
            if (op == O.BRFALSE) != truth:
                pc = ins[1]
                continue

        elif op == O.CALL:
            nargs = ins[1]
            args = stack[len(stack) - nargs :] if nargs else []
            del stack[len(stack) - nargs :]
            fn = stack.pop()
            call_names = consts[ins[2]] if ins[2] >= 0 else None
            fb = feedback.get(pc)
            if fb is None:
                fb = feedback[pc] = CallFeedback()
            fb.record(fn, args)
            stack.append(call_function(fn, args, call_names, vm))

        elif op == O.MK_CLOSURE:
            body, formals, fname = consts[ins[1]]
            stack.append(RClosure(formals, body, env, fname))

        elif op == O.MK_PROMISE:
            stack.append(RPromise(consts[ins[1]], env))

        elif op == O.CHECK_FUN:
            mode = ins[1]
            if mode == "callable":
                if not isinstance(stack[-1], (RClosure, RBuiltin)):
                    raise RError("attempt to apply non-function")
            else:  # as_lgl_scalar for && / ||
                v = stack.pop()
                stack.append(mk_lgl(v.is_true() if isinstance(v, RVector) else _truthy(v)))

        elif op == O.RETURN:
            return stack.pop()

        else:  # pragma: no cover - unreachable with a correct compiler
            raise RError("unknown opcode %d" % op)

        pc += 1


def _truthy(value: Any) -> bool:
    if isinstance(value, RVector):
        return value.is_true()
    raise RError("argument is not interpretable as logical")


def _set_index2(obj: Any, idx: Any, val: Any) -> Any:
    """``x[[i]] <- v`` with GNU-R-style in-place fast path when unshared."""
    if (
        obj.__class__ is RVector
        and obj.named <= 1
        and val.__class__ is RVector
        and len(val.data) == 1
    ):
        kind = obj.kind
        if kind != _LIST and (val.kind == kind or kind_lub(val.kind, kind) == kind):
            if idx.__class__ is RVector and len(idx.data) == 1 and (
                idx.kind == _INT or idx.kind == _DBL
            ):
                i = idx.data[0]
                if i is not None:
                    i = int(i)
                    if 1 <= i <= len(obj.data):
                        x = val.data[0]
                        if kind == _DBL:
                            if isinstance(x, int):  # bool too; NA stays None
                                x = float(x)
                        elif kind == _CPLX:
                            if isinstance(x, (int, float)):
                                x = complex(x)
                        elif kind == _INT and isinstance(x, bool):
                            x = int(x)
                        obj.data[i - 1] = x
                        return obj
    return coerce.assign2(obj, idx, val)
