"""IR instruction set for the optimizing tier.

The IR is a CFG of basic blocks holding SSA-ish instructions.  Values are
instructions; operands are instruction references (or Python literals for
immediates).  The design follows Ř's PIR in the aspects the paper relies on:

* ``Assume`` — a guarded run-time assumption; it references a
  :class:`~repro.osr.framestate.FrameStateDescr` describing how to exit to
  the interpreter if the guard fails (paper Listing 2).
* Generic ops (``Arith``, ``Extract2``, ...) execute full R semantics on
  boxed values; **typed** ops (``PrimArith``, ``VecLoad``, ...) work on
  unboxed machine values and exist only downstream of type guards.
* ``Force``/``MkPromise`` model R's lazy arguments; ``LdVarEnv``/``StVarEnv``
  are used only when the local environment could not be elided.

Every instruction knows its ``bc_pc`` (the bytecode site it came from) so
feedback repair can connect IR positions back to profile slots.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..runtime.rtypes import ANY, Kind, RType


class Instr:
    """Base class. ``args`` holds operand instructions; immediates live in
    dedicated attributes on subclasses."""

    __slots__ = ("id", "type", "args", "block", "bc_pc", "unboxed")

    #: subclasses that can observe or cause side effects (barriers for code
    #: motion and DCE roots when their value is unused).
    effectful = False

    def __init__(self, type_: RType = ANY, args: Optional[List["Instr"]] = None):
        self.id = -1
        self.type = type_
        self.args: List[Instr] = args or []
        self.block = None
        self.bc_pc = -1
        #: True when this value is a raw machine scalar (not a boxed RVector).
        self.unboxed = False

    def replace_value(self, old: "Instr", new: "Instr") -> None:
        """What ``Graph.replace_all_uses`` asks of every use holder."""
        self.args = [new if a is old else a for a in self.args]

    @property
    def name(self) -> str:
        return "%%%d" % self.id

    def short(self) -> str:
        extra = self._extra()
        return "%s = %s%s %s :: %r" % (
            self.name,
            type(self).__name__,
            " " + extra if extra else "",
            " ".join(a.name for a in self.args),
            self.type,
        )

    def _extra(self) -> str:
        return ""


# ---------------------------------------------------------------------------
# constants, parameters
# ---------------------------------------------------------------------------

class Const(Instr):
    __slots__ = ("value",)

    def __init__(self, value: Any, type_: RType):
        super().__init__(type_)
        self.value = value

    def _extra(self) -> str:
        return repr(self.value)


class Param(Instr):
    """A function parameter (or a continuation's incoming state slot).

    ``index`` is the position in the native calling convention;
    ``pname`` the variable name it binds.
    """

    __slots__ = ("index", "pname")

    def __init__(self, index: int, pname: str, type_: RType = ANY):
        super().__init__(type_)
        self.index = index
        self.pname = pname

    def _extra(self) -> str:
        return "%d:%s" % (self.index, self.pname)


class EnvParam(Instr):
    """The materialized local environment, for functions whose env escapes."""

    __slots__ = ()


class Phi(Instr):
    """SSA phi; ``inputs`` is ``[(block, value)]`` parallel to ``args``."""

    __slots__ = ("inputs",)

    def __init__(self, type_: RType = ANY):
        super().__init__(type_)
        self.inputs: List[tuple] = []  # (pred_block, value)

    def add_input(self, block, value: Instr) -> None:
        self.inputs.append((block, value))
        self.args.append(value)

    def replace_value(self, old: Instr, new: Instr) -> None:
        super().replace_value(old, new)
        self.inputs = [(b, new if v is old else v) for b, v in self.inputs]


# ---------------------------------------------------------------------------
# environment ops (only for non-elided environments)
# ---------------------------------------------------------------------------

class LdVarEnv(Instr):
    """Variable load through an environment chain.

    With no env operand the search starts at the *closure's lexical
    environment* (free-variable loads from register-promoted functions).
    """

    __slots__ = ("vname",)
    effectful = True  # forces promises

    def __init__(self, env: Optional[Instr], vname: str, type_: RType = ANY):
        super().__init__(type_, [env] if env is not None else [])
        self.vname = vname

    def _extra(self) -> str:
        return self.vname


class StVarEnv(Instr):
    __slots__ = ("vname",)
    effectful = True

    def __init__(self, env: Instr, vname: str, value: Instr):
        super().__init__(ANY, [env, value])
        self.vname = vname

    def _extra(self) -> str:
        return self.vname


class StVarSuper(Instr):
    """``<<-`` — always an env operation (writes into the lexical parent)."""

    __slots__ = ("vname",)
    effectful = True

    def __init__(self, env_or_none: Optional[Instr], vname: str, value: Instr):
        super().__init__(ANY, ([env_or_none] if env_or_none is not None else []) + [value])
        self.vname = vname

    def _extra(self) -> str:
        return self.vname


# ---------------------------------------------------------------------------
# generic (boxed) operations
# ---------------------------------------------------------------------------

class Arith(Instr):
    __slots__ = ("op",)
    effectful = True  # may raise R errors

    def __init__(self, op: str, a: Instr, b: Instr, type_: RType = ANY):
        super().__init__(type_, [a, b])
        self.op = op

    def _extra(self) -> str:
        return self.op


class Compare(Instr):
    __slots__ = ("op",)
    effectful = True

    def __init__(self, op: str, a: Instr, b: Instr, type_: RType = ANY):
        super().__init__(type_, [a, b])
        self.op = op

    def _extra(self) -> str:
        return self.op


class Logic(Instr):
    __slots__ = ("op",)
    effectful = True

    def __init__(self, op: str, a: Instr, b: Instr):
        super().__init__(RType(Kind.LGL), [a, b])
        self.op = op

    def _extra(self) -> str:
        return self.op


class Unary(Instr):
    __slots__ = ("op",)
    effectful = True

    def __init__(self, op: str, a: Instr, type_: RType = ANY):
        super().__init__(type_, [a])
        self.op = op

    def _extra(self) -> str:
        return self.op


class Colon(Instr):
    effectful = True

    def __init__(self, a: Instr, b: Instr, type_: RType = ANY):
        super().__init__(type_, [a, b])


class Extract2(Instr):
    effectful = True

    def __init__(self, obj: Instr, idx: Instr, type_: RType = ANY):
        super().__init__(type_, [obj, idx])


class Extract1(Instr):
    effectful = True

    def __init__(self, obj: Instr, idx: Instr, type_: RType = ANY):
        super().__init__(type_, [obj, idx])


class SetIndex2(Instr):
    effectful = True

    def __init__(self, obj: Instr, idx: Instr, val: Instr, type_: RType = ANY):
        super().__init__(type_, [obj, idx, val])


class SetIndex1(Instr):
    effectful = True

    def __init__(self, obj: Instr, idx: Instr, val: Instr, type_: RType = ANY):
        super().__init__(type_, [obj, idx, val])


class SeqLength(Instr):
    def __init__(self, v: Instr):
        super().__init__(RType(Kind.INT, scalar=True, maybe_na=False), [v])


class AsLogicalScalar(Instr):
    """Condition normalization for &&/|| and branch conditions."""

    effectful = True  # errors on length-zero / NA

    def __init__(self, v: Instr):
        super().__init__(RType(Kind.LGL, scalar=True, maybe_na=False), [v])


# ---------------------------------------------------------------------------
# calls, closures, promises
# ---------------------------------------------------------------------------

class LdFun(Instr):
    """Function-skipping lookup of a callee by name (generic)."""

    __slots__ = ("vname",)
    effectful = True

    def __init__(self, env_or_none: Optional[Instr], vname: str):
        super().__init__(ANY, [env_or_none] if env_or_none is not None else [])
        self.vname = vname

    def _extra(self) -> str:
        return self.vname


class Call(Instr):
    """Fully generic call: dispatch on the callee value at run time."""

    __slots__ = ("call_names",)
    effectful = True

    def __init__(self, fn: Instr, args: List[Instr], call_names, type_: RType = ANY):
        super().__init__(type_, [fn] + list(args))
        self.call_names = call_names


class CallBuiltin(Instr):
    """Call of a known builtin (callee identity guarded or constant)."""

    __slots__ = ("builtin",)
    effectful = True

    def __init__(self, builtin, args: List[Instr], type_: RType = ANY):
        super().__init__(type_, list(args))
        self.builtin = builtin

    def _extra(self) -> str:
        return self.builtin.name


class StaticCall(Instr):
    """Call of a known closure (identity guarded by a preceding Assume)."""

    __slots__ = ("closure", "call_names")
    effectful = True

    def __init__(self, closure, args: List[Instr], call_names, type_: RType = ANY):
        super().__init__(type_, list(args))
        self.closure = closure
        self.call_names = call_names

    def _extra(self) -> str:
        return self.closure.name


class MkClosure(Instr):
    __slots__ = ("payload",)
    effectful = True  # captures the environment

    def __init__(self, env: Instr, payload):
        super().__init__(RType(Kind.CLO, scalar=True, maybe_na=False), [env])
        self.payload = payload


class MkPromise(Instr):
    __slots__ = ("thunk_code",)
    effectful = True

    def __init__(self, env: Instr, thunk_code):
        super().__init__(ANY, [env])
        self.thunk_code = thunk_code


class Force(Instr):
    """Force a (potential) promise. Effectful: may run arbitrary code."""

    effectful = True

    def __init__(self, v: Instr, type_: RType = ANY):
        super().__init__(type_, [v])


class CheckFun(Instr):
    """Raise the R error for applying a non-function (CHECK_FUN callable)."""

    effectful = True

    def __init__(self, v: Instr):
        super().__init__(ANY, [v])


class Share(Instr):
    """Mark a value as shared (``named = 2``) at an inline boundary or ST_VAR.

    Argument binding gives the callee a reference the caller also holds, so
    both the interpreter and the native calling convention bump the NAMED
    count on vector arguments.  Inlined calls have no binding step — this
    instruction performs the bump so copy-on-write behaves identically.
    """

    effectful = True

    def __init__(self, v: Instr):
        super().__init__(ANY, [v])


# ---------------------------------------------------------------------------
# speculation: tests, guards, boxing
# ---------------------------------------------------------------------------

class IsType(Instr):
    """Boolean test whether a boxed value matches an :class:`RType`."""

    __slots__ = ("test_type",)

    def __init__(self, v: Instr, test_type: RType):
        super().__init__(RType(Kind.LGL, scalar=True, maybe_na=False), [v])
        self.test_type = test_type
        self.unboxed = True
    def _extra(self) -> str:
        return repr(self.test_type)


class IsIdentical(Instr):
    """Identity test against a constant (call-target guards)."""

    __slots__ = ("expected",)

    def __init__(self, v: Instr, expected: Any):
        super().__init__(RType(Kind.LGL, scalar=True, maybe_na=False), [v])
        self.expected = expected
        self.unboxed = True
class Assume(Instr):
    """Deoptimize when ``condition`` is false (paper Listing 2).

    Carries the :class:`FrameStateDescr` for the exit and the reason
    template.  ``chaos_site`` marks it as eligible for random invalidation
    in the section 5.1 experiment.
    """

    __slots__ = ("framestate", "reason_kind", "reason_pc", "expected", "feedback_origin", "chaos_site")
    effectful = True

    def __init__(self, condition: Instr, framestate, reason_kind, reason_pc: int, expected=None):
        super().__init__(ANY, [condition])
        self.framestate = framestate
        self.reason_kind = reason_kind
        self.reason_pc = reason_pc
        self.expected = expected
        #: the bytecode pc whose feedback slot motivated this speculation
        self.feedback_origin = reason_pc
        self.chaos_site = True

    def _extra(self) -> str:
        return "%s@%d" % (self.reason_kind.value, self.reason_pc)


class CastType(Instr):
    """Type refinement after a guard: same runtime value, narrower static
    type.  Keeping the refinement as a separate value (instead of mutating
    the guarded instruction's type) is what stops the simplifier from
    folding the guard away as statically satisfied."""

    def __init__(self, v: Instr, type_: RType):
        super().__init__(type_, [v])


class Unbox(Instr):
    """Extract the raw machine scalar out of a boxed length-1 vector.

    Only valid downstream of a type guard; carries the kind for lowering.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: Kind, v: Instr):
        super().__init__(RType(kind, scalar=True, maybe_na=False), [v])
        self.kind = kind
        self.unboxed = True
    def _extra(self) -> str:
        return self.kind.name


class Box(Instr):
    """Wrap a raw machine scalar back into a length-1 vector."""

    __slots__ = ("kind",)

    def __init__(self, kind: Kind, v: Instr):
        super().__init__(RType(kind, scalar=True, maybe_na=False), [v])
        self.kind = kind

    def _extra(self) -> str:
        return self.kind.name


# ---------------------------------------------------------------------------
# typed (unboxed) fast ops — only emitted under guards
# ---------------------------------------------------------------------------

class PrimArith(Instr):
    """Arithmetic on unboxed scalars of a single kind."""

    __slots__ = ("op", "kind")

    def __init__(self, op: str, kind: Kind, a: Instr, b: Instr):
        rk = kind
        if op in ("/", "^") and kind in (Kind.LGL, Kind.INT):
            rk = Kind.DBL
        super().__init__(RType(rk, scalar=True, maybe_na=False), [a, b])
        self.op = op
        self.kind = kind
        self.unboxed = True
    def _extra(self) -> str:
        return "%s %s" % (self.op, self.kind.name)


class PrimCompare(Instr):
    __slots__ = ("op", "kind")

    def __init__(self, op: str, kind: Kind, a: Instr, b: Instr):
        super().__init__(RType(Kind.LGL, scalar=True, maybe_na=False), [a, b])
        self.op = op
        self.kind = kind
        self.unboxed = True
    def _extra(self) -> str:
        return "%s %s" % (self.op, self.kind.name)


class PrimUnary(Instr):
    __slots__ = ("op", "kind")

    def __init__(self, op: str, kind: Kind, a: Instr):
        super().__init__(RType(kind if op != "!" else Kind.LGL, scalar=True, maybe_na=False), [a])
        self.op = op
        self.kind = kind
        self.unboxed = True
class VecLoad(Instr):
    """``x[[i]]`` on a homogeneous vector of known kind with an unboxed int
    index.  Bounds are checked; NA elements deopt via ``framestate``
    (the NA/bounds guard is fused into the instruction)."""

    __slots__ = ("kind", "framestate", "reason_pc")
    effectful = True

    def __init__(self, kind: Kind, obj: Instr, idx: Instr, framestate, reason_pc: int):
        super().__init__(RType(kind, scalar=True, maybe_na=False), [obj, idx])
        self.kind = kind
        self.framestate = framestate
        self.reason_pc = reason_pc
        self.unboxed = True
    def _extra(self) -> str:
        return self.kind.name


class VecStore(Instr):
    """``x[[i]] <- v`` fast path for an unboxed ``v`` of ``kind`` (the
    value's kind, not the vector's): in place when unshared, bounds ok, and
    the vector is of ``kind`` (or DBL, widening an LGL/INT value); otherwise
    the generic ``[[<-``, which coerces."""

    __slots__ = ("kind", "framestate", "reason_pc")
    effectful = True

    def __init__(self, kind: Kind, obj: Instr, idx: Instr, val: Instr, framestate, reason_pc: int):
        super().__init__(RType(kind, scalar=False, maybe_na=True), [obj, idx, val])
        self.kind = kind
        self.framestate = framestate
        self.reason_pc = reason_pc


class VecLength(Instr):
    """Length of a vector as an unboxed int."""

    def __init__(self, v: Instr):
        super().__init__(RType(Kind.INT, scalar=True, maybe_na=False), [v])
        self.unboxed = True
# ---------------------------------------------------------------------------
# terminators
# ---------------------------------------------------------------------------

class Branch(Instr):
    """Conditional terminator on an unboxed boolean condition."""

    __slots__ = ("true_block", "false_block")

    def __init__(self, cond: Instr, true_block, false_block):
        super().__init__(ANY, [cond])
        self.true_block = true_block
        self.false_block = false_block


class Jump(Instr):
    __slots__ = ("target",)

    def __init__(self, target):
        super().__init__(ANY)
        self.target = target


class Return(Instr):
    effectful = True

    def __init__(self, v: Instr):
        super().__init__(ANY, [v])
