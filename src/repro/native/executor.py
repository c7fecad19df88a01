"""The register-machine executor — the "native" tier.

Runs :class:`~repro.native.lower.NativeCode`: raw Python scalars in
registers, one tuple per op, no boxing, no feedback recording, no generic
dispatch.  This is the stand-in for Ř's LLVM-generated machine code; the
performance gap against the baseline interpreter is real (each interpreter
step does boxed allocation, coercion dispatch and profile recording; a
register op here is a couple of Python bytecodes).

Guard failures build a runtime :class:`FrameState` from the op's
:class:`DeoptDescr` and **tail-call** ``vm.deopt`` exactly as in the paper's
Listing 3: the deopt result becomes this activation's return value.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

from ..bytecode.interpreter import (
    _set_index2,
    call_function,
    force as force_value,
)
from ..osr.framestate import DeoptReason, DeoptReasonKind, FrameState
from ..runtime import coerce
from ..runtime.rtypes import Kind, RType, kind_lub
from ..runtime.values import (
    NULL,
    RBuiltin,
    RClosure,
    RError,
    RPromise,
    RVector,
    rtype_quick,
)
from . import ops as N
from .lower import NativeCode

#: python value -> boxed vector, per kind (representation-correcting: see BOX)
def _box(value: Any, kind: Optional[Kind]) -> Any:
    if kind is None:
        return value
    if kind == Kind.DBL and type(value) is int:
        value = float(value)
    elif kind == Kind.INT and type(value) is bool:
        value = int(value)
    elif kind == Kind.CPLX and value is not None and not isinstance(value, complex):
        value = complex(value)
    return RVector(kind, [value])


def _type_matches(value: Any, t: RType) -> bool:
    """The runtime semantics of ``IsType``/``GTYPE`` guards."""
    if not isinstance(value, RVector):
        if t.kind == Kind.CLO:
            return isinstance(value, RClosure)
        if t.kind == Kind.BUILTIN:
            return isinstance(value, RBuiltin)
        return False
    if value.kind != t.kind:
        return False
    if t.scalar:
        if len(value.data) != 1:
            return False
        if not t.maybe_na and value.data[0] is None:
            return False
    return True


def build_framestate(ncode: NativeCode, regs: List[Any], descr, closure_env) -> FrameState:
    parent = None
    if descr.parent is not None:
        # inlined code: rebuild the whole caller chain from the same register
        # file (every parent-frame value is live at the checkpoint)
        parent = build_framestate(ncode, regs, descr.parent, closure_env)
    env_values = None
    env = None
    if descr.env_reg is not None:
        env = regs[descr.env_reg]
    else:
        env_values = {}
        for name, reg, kind in descr.env_slots:
            env_values[name] = _box(regs[reg], kind)
    stack = [_box(regs[reg], kind) for reg, kind in descr.stack]
    if descr.fun is not None:
        # an inlined frame belongs to the speculated callee: its elided env
        # re-materializes under the callee's lexical environment
        fun = descr.fun
        frame_env = fun.env
    else:
        fun = ncode.closure
        frame_env = closure_env
    return FrameState(
        descr.code, descr.pc, env_values, stack, frame_env, env=env,
        parent=parent, fun=fun,
    )


def execute(ncode: NativeCode, args: List[Any], vm, closure_env=None,
            entry: Optional[int] = None, regs: Optional[List[Any]] = None) -> Any:
    """Run native code on the engine ``Config.threaded_dispatch`` selects:
    the per-unit generated function (native/pycodegen.py, the default) or
    the if/elif reference loop below (``RERPO_REF_EXEC=1``), which is also
    what runs a unit codegen declines.  Both produce identical results and
    telemetry.

    ``args`` bind to the parameter registers of a fresh register file;
    ``entry``/``regs`` are the mid-unit form, see :func:`execute_at`.
    """
    if vm.config.threaded_dispatch:
        return execute_codegen(ncode, args, vm, closure_env, entry, regs)
    return execute_ref(ncode, args, vm, closure_env, entry or 0, regs)


def execute_at(ncode: NativeCode, entry: int, regs: List[Any], vm,
               closure_env=None) -> Any:
    """Enter native code mid-stream — the dispatched-OSR hop.

    ``regs`` is a full register image seeded by ``osr_hop`` from an
    ``OsrEntry`` (constants from ``reg_init``, live frame slots per the
    entry map); execution starts at op index ``entry``, a loop header.
    """
    return execute(ncode, (), vm, closure_env, entry, regs)


def execute_ref(ncode: NativeCode, args: List[Any], vm, closure_env=None,
                entry: int = 0, regs: Optional[List[Any]] = None) -> Any:
    """The reference register-machine loop: the specification the generated
    code is tested against, and the fallback for units codegen declines."""
    if regs is None:
        regs = list(ncode.reg_init)
        pu = ncode.param_unbox
        if pu is None:
            for r, a in zip(ncode.param_regs, args):
                regs[r] = a
        else:
            # entry-specialized version: dispatch already proved the context,
            # so unboxable params bind their raw scalar payload directly (the
            # body was compiled without the corresponding entry guards)
            for r, a, k in zip(ncode.param_regs, args, pu):
                regs[r] = a if k is None else a.data[0]
    if closure_env is None and ncode.closure is not None:
        closure_env = ncode.closure.env

    ops = ncode.ops
    state = vm.state
    chaos = vm.chaos_rng if vm.config.chaos_rate > 0.0 else None
    chaos_rate = vm.config.chaos_rate
    pc = entry
    nexec = 0
    ngen = 0
    nguards = 0

    def deopt(deopt_id: int, observed=None, kind_override=None):
        descr = ncode.deopts[deopt_id]
        fs = build_framestate(ncode, regs, descr, closure_env)
        reason = DeoptReason(
            kind_override or descr.reason_kind,
            descr.reason_pc,
            observed=observed,
            expected=descr.expected,
        )
        state.native_ops += nexec
        state.native_generic_ops += ngen
        state.guards_executed += nguards
        return vm.deopt(fs, reason, origin=ncode)

    while True:
        ins = ops[pc]
        op = ins[0]
        nexec += 1

        if op == N.PADD:
            regs[ins[1]] = regs[ins[2]] + regs[ins[3]]
        elif op == N.PLT:
            regs[ins[1]] = regs[ins[2]] < regs[ins[3]]
        elif op == N.VLOAD:
            v = regs[ins[2]]
            i = regs[ins[3]]
            d = v.data
            if i < 1 or i > len(d):
                raise RError("subscript out of bounds")
            x = d[int(i) - 1]
            if x is None:
                return deopt(ins[4], observed=RType(v.kind, scalar=True, maybe_na=True))
            regs[ins[1]] = x
        elif op == N.MOVE:
            regs[ins[1]] = regs[ins[2]]
        elif op == N.JMP:
            pc = ins[1]
            continue
        elif op == N.BRT:
            pc = ins[2] if regs[ins[1]] else ins[3]
            continue
        elif op == N.PSUB:
            regs[ins[1]] = regs[ins[2]] - regs[ins[3]]
        elif op == N.PMUL:
            regs[ins[1]] = regs[ins[2]] * regs[ins[3]]
        elif op == N.PLE:
            regs[ins[1]] = regs[ins[2]] <= regs[ins[3]]
        elif op == N.PGT:
            regs[ins[1]] = regs[ins[2]] > regs[ins[3]]
        elif op == N.PGE:
            regs[ins[1]] = regs[ins[2]] >= regs[ins[3]]
        elif op == N.PEQ:
            regs[ins[1]] = regs[ins[2]] == regs[ins[3]]
        elif op == N.PNE:
            regs[ins[1]] = regs[ins[2]] != regs[ins[3]]
        elif op == N.PDIV:
            a = regs[ins[2]]
            b = regs[ins[3]]
            if b == 0:
                if isinstance(a, complex) or isinstance(b, complex):
                    raise RError("complex division by zero")
                regs[ins[1]] = float("nan") if a == 0 else math.copysign(math.inf, a)
            else:
                regs[ins[1]] = a / b
        elif op == N.GTYPE:
            nguards += 1
            v = regs[ins[1]]
            if not _type_matches(v, ins[2]):
                return deopt(ins[3], observed=rtype_quick(v))
            if chaos is not None and chaos.random() < chaos_rate:
                return deopt(ins[3], observed=rtype_quick(v), kind_override=DeoptReasonKind.CHAOS)
        elif op == N.VLEN:
            regs[ins[1]] = len(regs[ins[2]].data)
        elif op == N.VSTORE:
            v = regs[ins[2]]
            i = int(regs[ins[3]])
            x = regs[ins[4]]
            kind = ins[5]
            if (
                isinstance(v, RVector)
                and v.named <= 1
                and v.kind == kind
                and 1 <= i <= len(v.data)
            ):
                v.data[i - 1] = x
                regs[ins[1]] = v
            elif (
                isinstance(v, RVector)
                and v.named <= 1
                and 1 <= i <= len(v.data)
                and v.kind == Kind.DBL
                and kind in (Kind.LGL, Kind.INT)
            ):
                v.data[i - 1] = float(x)
                regs[ins[1]] = v
            else:
                boxed = RVector(kind, [x])
                regs[ins[1]] = coerce.assign2(v, RVector(Kind.INT, [i]), boxed)
        elif op == N.BOX:
            x = regs[ins[2]]
            kind = ins[3]
            # representation safety: a DBL-typed register may hold a Python
            # int (mixed arithmetic); the boxed vector's data must match its
            # declared kind or downstream type guards would misfire
            if kind == Kind.DBL:
                if type(x) is int:
                    x = float(x)
            elif kind == Kind.INT:
                if type(x) is bool:
                    x = int(x)
            elif kind == Kind.CPLX:
                if not isinstance(x, complex) and x is not None:
                    x = complex(x)
            regs[ins[1]] = RVector(kind, [x])
        elif op == N.UNBOX:
            regs[ins[1]] = regs[ins[2]].data[0]
        elif op == N.RET:
            state.native_ops += nexec
            state.native_generic_ops += ngen
            state.guards_executed += nguards
            return regs[ins[1]]
        elif op == N.PPOW:
            a = regs[ins[2]]
            b = regs[ins[3]]
            try:
                r = a ** b
            except (OverflowError, ZeroDivisionError):
                r = math.inf
            if isinstance(r, complex) and not (isinstance(a, complex) or isinstance(b, complex)):
                r = float("nan")
            elif isinstance(r, int):
                # int ** int is an int in Python but a double in R; keep the
                # register's representation consistent with its static type
                r = float(r)
            regs[ins[1]] = r
        elif op == N.PNEG:
            regs[ins[1]] = -regs[ins[2]]
        elif op == N.PNOT:
            regs[ins[1]] = not regs[ins[2]]
        elif op == N.PMODI:
            b = regs[ins[3]]
            if b == 0:
                return deopt(ins[4])
            regs[ins[1]] = regs[ins[2]] % b
        elif op == N.PIDIVI:
            b = regs[ins[3]]
            if b == 0:
                return deopt(ins[4])
            regs[ins[1]] = regs[ins[2]] // b
        elif op == N.PMODF:
            b = regs[ins[3]]
            a = regs[ins[2]]
            regs[ins[1]] = float("nan") if b == 0 else a - math.floor(a / b) * b
        elif op == N.PIDIVF:
            b = regs[ins[3]]
            a = regs[ins[2]]
            if b == 0:
                regs[ins[1]] = math.inf if a > 0 else (-math.inf if a < 0 else float("nan"))
            else:
                regs[ins[1]] = float(math.floor(a / b))
        elif op == N.GIDENT:
            nguards += 1
            v = regs[ins[1]]
            if v is not ins[2]:
                return deopt(ins[3], observed=v)
            if chaos is not None and chaos.random() < chaos_rate:
                return deopt(ins[3], observed=v, kind_override=DeoptReasonKind.CHAOS)
        elif op == N.ISTYPE:
            regs[ins[1]] = _type_matches(regs[ins[2]], ins[3])
        elif op == N.ISIDENT:
            regs[ins[1]] = regs[ins[2]] is ins[3]
        elif op == N.ASSUME:
            nguards += 1
            if not regs[ins[1]]:
                return deopt(ins[2])
            if chaos is not None and chaos.random() < chaos_rate:
                return deopt(ins[2], kind_override=DeoptReasonKind.CHAOS)
        elif op == N.FORCE:
            v = regs[ins[2]]
            regs[ins[1]] = force_value(v, vm) if isinstance(v, RPromise) else v
        elif op == N.AS_LGL:
            v = regs[ins[2]]
            regs[ins[1]] = v.is_true() if isinstance(v, RVector) else _as_bool(v)
        elif op == N.GEN_ARITH:
            ngen += 1
            regs[ins[1]] = coerce.arith(ins[2], regs[ins[3]], regs[ins[4]])
        elif op == N.GEN_COMPARE:
            ngen += 1
            regs[ins[1]] = coerce.compare(ins[2], regs[ins[3]], regs[ins[4]])
        elif op == N.GEN_LOGIC:
            ngen += 1
            regs[ins[1]] = coerce.logic(ins[2], regs[ins[3]], regs[ins[4]])
        elif op == N.GEN_UNARY:
            ngen += 1
            regs[ins[1]] = coerce.unary(ins[2], regs[ins[3]])
        elif op == N.GEN_COLON:
            ngen += 1
            regs[ins[1]] = coerce.colon(regs[ins[2]], regs[ins[3]])
        elif op == N.GEN_EX2:
            ngen += 1
            regs[ins[1]] = coerce.extract2(regs[ins[2]], regs[ins[3]])
        elif op == N.GEN_EX1:
            ngen += 1
            regs[ins[1]] = coerce.extract1(regs[ins[2]], regs[ins[3]])
        elif op == N.GEN_SET2:
            ngen += 1
            regs[ins[1]] = _generic_set2(regs[ins[2]], regs[ins[3]], regs[ins[4]])
        elif op == N.GEN_SET1:
            ngen += 1
            regs[ins[1]] = coerce.assign1(regs[ins[2]], regs[ins[3]], regs[ins[4]])
        elif op == N.GEN_SEQLEN:
            ngen += 1
            v = regs[ins[2]]
            if isinstance(v, RVector):
                n = len(v.data)
            elif v is NULL:
                n = 0
            else:
                n = 1
            regs[ins[1]] = RVector(Kind.INT, [n])
        elif op == N.CHECKFUN:
            if not isinstance(regs[ins[1]], (RClosure, RBuiltin)):
                raise RError("attempt to apply non-function")
        elif op == N.SHARE:
            v = regs[ins[1]]
            if isinstance(v, RVector):
                v.named = 2
        elif op == N.LDVAR_ENV:
            v = regs[ins[2]].get(ins[3])
            if isinstance(v, RPromise):
                v = force_value(v, vm)
            regs[ins[1]] = v
        elif op == N.LDVAR_FREE:
            v = closure_env.get(ins[2])
            if isinstance(v, RPromise):
                v = force_value(v, vm)
            regs[ins[1]] = v
        elif op == N.STVAR_ENV:
            env = regs[ins[1]]
            val = regs[ins[3]]
            if isinstance(val, RVector):
                if val.named == 0:
                    val.named = 1
                elif env.bindings.get(ins[2]) is not val:
                    val.named = 2
            env.set(ins[2], val)
        elif op == N.STSUPER:
            env = regs[ins[1]] if ins[1] is not None else closure_env
            val = regs[ins[3]]
            if isinstance(val, RVector):
                val.named = 2
            if ins[1] is not None:
                env.set_super(ins[2], val)
            else:
                # elided local env: the nearest enclosing binding starts at
                # the closure's lexical environment
                _super_assign_from(closure_env, ins[2], val)
        elif op == N.LDFUN:
            env = regs[ins[2]] if ins[2] is not None else closure_env
            regs[ins[1]] = env.get_function(ins[3])
        elif op == N.MKCLOSURE:
            code, formals, fname = ins[3]
            regs[ins[1]] = RClosure(formals, code, regs[ins[2]], fname)
        elif op == N.MKPROMISE:
            regs[ins[1]] = RPromise(ins[3], regs[ins[2]])
        elif op == N.CALLB:
            state.native_ops += nexec
            nexec = 0
            fargs = [force_value(regs[r], vm) for r in ins[3]]
            regs[ins[1]] = ins[2].fn(fargs, vm)
        elif op == N.CALLS:
            state.native_ops += nexec
            nexec = 0
            regs[ins[1]] = vm.call_closure(ins[2], [regs[r] for r in ins[3]], ins[4])
        elif op == N.CALLG:
            state.native_ops += nexec
            nexec = 0
            regs[ins[1]] = call_function(regs[ins[2]], [regs[r] for r in ins[3]], ins[4], vm)
        elif op == N.KERNEL:
            # bulk vector kernel (opt/vectorize.py): covers k scalar loop
            # iterations in one dispatch, or declines with zero effect and
            # lets the retained scalar loop (which follows) run instead.
            # The op itself is not an instruction of the scalar program, so
            # the pre-counted nexec increment is cancelled.
            res = _kernels.run_kernel(ncode.kernels[ins[1]], regs, vm, closure_env)
            nexec -= 1
            tag = res[0]
            if tag == "ok":
                nexec += res[1]
                nguards += res[2]
                ngen += res[3]
                state.kernel_elements += res[4]
            elif tag == "deopt":
                nexec += res[4]
                nguards += res[5]
                ngen += res[6]
                state.kernel_elements += res[7]
                return deopt(res[1], observed=res[2], kind_override=res[3])
        else:  # pragma: no cover
            raise RError("bad native opcode %d" % op)
        pc += 1


def _as_bool(v: Any) -> bool:
    if isinstance(v, bool):
        return v
    raise RError("argument is not interpretable as logical")


def _generic_set2(obj: Any, idx: Any, val: Any) -> Any:
    return _set_index2(obj, idx, val)


def _super_assign_from(env, name: str, value: Any) -> None:
    e = env
    while e is not None:
        if name in e.bindings:
            e.bindings[name] = value
            return
        if e.parent is None:
            e.bindings[name] = value
            return
        e = e.parent


# imported last: pycodegen.py pulls the guard/deopt helpers defined above out
# of this module, so these imports must come after they exist
from . import kernels as _kernels  # noqa: E402
from .pycodegen import execute_codegen  # noqa: E402
