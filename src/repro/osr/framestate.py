"""FrameStates and deoptimization reasons.

Two levels, mirroring the paper's design (section 2, Figure 3):

* :class:`FrameStateDescr` — the *compile-time* description the optimizer
  carries through every pass: which bytecode pc to resume at, which IR
  values correspond to the interpreter's local variables and operand stack
  at that point.  This is the paper's ``Framestate`` instruction metadata.
* :class:`FrameState` — the *runtime* object built when a guard actually
  fails: boxed values for each local and stack slot.  This is the ``%f``
  buffer of Listing 3, and the argument to ``deopt()`` of Listing 4.

FrameStates chain through ``parent`` to describe inlined frames: a deopt
inside an inlined callee delivers the *callee* frame, whose ``parent`` is
the caller frame re-entered at the post-call pc (the callee's return value
is pushed onto the caller's stack before it resumes).  The deoptless engine
dispatches on chained states too — contexts are keyed on (pc, frame depth,
reason) — lifting the section-4.3 exclusion the paper notes for Ř.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from ..runtime.rtypes import RType


class DeoptReasonKind(enum.Enum):
    """Why a guard failed — the abstract ``Reason`` of paper Listing 3."""

    #: a speculated value type did not match (e.g. int vector became double)
    TYPECHECK = "typecheck"
    #: a speculated call target changed
    CALL_TARGET = "call_target"
    #: an element speculated NA-free turned out to be NA
    NA_CHECK = "na_check"
    #: an out-of-bounds or growing subscript on the fast path
    BOUNDS = "bounds"
    #: a condition speculated one-sided (deferred branch) went the other way
    COLD_BRANCH = "cold_branch"
    #: a value deopt: guard artificially triggered by chaos mode (section 5.1
    #: randomly failing assumptions; the guarded fact still holds)
    CHAOS = "chaos"
    #: a global assumption (e.g. library function redefinition) — catastrophic,
    #: deoptless must not handle these and the code is discarded
    GLOBAL_INVALIDATED = "global"
    #: the local environment leaked and was modified non-locally — catastrophic
    ENV_LEAKED = "env_leaked"
    #: anything else
    OTHER = "other"


#: reason kinds for which deoptless gives up and discards code (section 4.3,
#: "Conditions and Limitations").
CATASTROPHIC_REASONS = frozenset(
    {DeoptReasonKind.GLOBAL_INVALIDATED, DeoptReasonKind.ENV_LEAKED}
)


class DeoptReason:
    """A concrete deoptimization reason.

    ``pc`` is the bytecode program counter of the *origin* of the failed
    assumption (the profile site whose data was wrong); ``observed`` is an
    abstract description of the offending value — an :class:`RType` for
    typechecks, a callee identity for call-target guards.
    """

    __slots__ = ("kind", "pc", "observed", "expected", "detail")

    def __init__(
        self,
        kind: DeoptReasonKind,
        pc: int,
        observed: Any = None,
        expected: Any = None,
        detail: str = "",
    ):
        self.kind = kind
        self.pc = pc
        self.observed = observed
        self.expected = expected
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover
        return "<deopt %s@%d observed=%r expected=%r>" % (
            self.kind.value, self.pc, self.observed, self.expected,
        )


class FrameStateDescr:
    """Compile-time frame state: how to rebuild the interpreter state.

    * ``code``: the bytecode :class:`CodeObject` to resume in.
    * ``pc``: the resume program counter (the bytecode op is *re-executed*
      generically, so the state captured is the one *before* the op).
    * ``env_slots``: ``[(name, ir_value)]`` — the local variables, when the
      environment was elided and must be re-materialized.
    * ``env_value``: the IR value holding a real environment, when it was not
      elided (then ``env_slots`` is empty).
    * ``stack``: IR values mirroring the interpreter's operand stack.
    * ``parent``: enclosing frame for inlined code, or None.  The callee
      frame is the *outer* descr; ``parent`` is the caller at the post-call
      pc, with the callee/args already popped off its recorded stack.
    * ``fun``: for an inlined frame, the RClosure the frame belongs to (its
      ``env`` is the lexical parent of the re-materialized environment).
      None for the root frame, whose closure is the executing NativeCode's.
    """

    __slots__ = ("code", "pc", "env_slots", "env_value", "stack", "parent", "fun")

    def __init__(self, code, pc, env_slots, stack, env_value=None, parent=None, fun=None):
        self.code = code
        self.pc = pc
        self.env_slots: List[Tuple[str, Any]] = env_slots
        self.env_value = env_value
        self.stack: List[Any] = stack
        self.parent: Optional["FrameStateDescr"] = parent
        self.fun = fun

    def own_values(self) -> list:
        """The values this frame names itself, one per slot: what it holds
        in the graph's use index (``parent`` is a holder of its own)."""
        vals = [v for _, v in self.env_slots]
        vals += self.stack
        if self.env_value is not None:
            vals.append(self.env_value)
        return vals

    def iter_values(self):
        """Every value of the chain: this frame's, then its parents'."""
        fs = self
        while fs is not None:  # (no list per frame: DCE and the verifier live here)
            for _, v in fs.env_slots:
                yield v
            yield from fs.stack
            if fs.env_value is not None:
                yield fs.env_value
            fs = fs.parent

    def replace_value(self, old, new) -> None:
        self.env_slots = [(n, new if v is old else v) for n, v in self.env_slots]
        self.stack = [new if v is old else v for v in self.stack]
        if self.env_value is old:
            self.env_value = new

    def __repr__(self) -> str:  # pragma: no cover
        return "<fs %s@%d env=%d stack=%d%s>" % (
            self.code.name, self.pc, len(self.env_slots), len(self.stack),
            " +parent" if self.parent else "",
        )


class KernelIterState:
    """The loop-variant values of one bulk-kernel iteration.

    A vector kernel (``opt/vectorize.py``) executes many iterations of a
    counted loop in one dispatch, so the registers of the replaced scalar
    body are *stale* while it runs.  When a guard fires at element ``k``
    (chaos mode, or a mid-vector type failure), the interpreter state of
    iteration ``k`` must be reconstructed before the FrameState is built.
    This object carries everything a :class:`KernelFrameTemplate` needs to
    do that: the 0-based iteration index, the partial accumulator, the
    elements loaded so far this iteration, and the loop-invariant values
    verified at kernel entry.
    """

    __slots__ = ("j", "acc", "elems", "invs", "cmp", "mapv")

    def __init__(self, j, acc=None, elems=None, invs=None, cmp=None, mapv=None):
        self.j = j
        self.acc = acc
        self.elems = elems or {}
        self.invs = invs or {}
        self.cmp = cmp
        self.mapv = mapv


def eval_kernel_role(role, st: "KernelIterState"):
    """Evaluate one symbolic register role against an iteration state.

    Roles are small tagged tuples assigned by the vectorizer to every
    loop-defined register that can appear in a deopt descriptor:

    * ``("idx",)`` — the 0-based induction phi (``j``)
    * ``("idx1",)`` / ``("seq",)`` — the 1-based element index (``j + 1``;
      the iteration-space vector is a verified identity ``1:n`` colon)
    * ``("elem", key)`` — the element loaded from invariant vector ``key``
    * ``("acc",)`` / ``("acc_raw",)`` — the partial accumulator (boxed/raw)
    * ``("inv", key)`` — a loop-invariant value verified at kernel entry
    * ``("cmp",)`` — the compare-select condition of the current element
    * ``("ex2", key)`` — the boxed generic extract of vector ``key``'s element
    * ``("mapval",)`` — the elementwise map value of the current element
    * ``("box", inner, kind)`` — the boxed form of another role
    * ``("cval", v)`` — a raw scalar constant preloaded outside the loop
    * ``("uinv", key)`` — the raw (unboxed) payload of invariant ``key``
    * ``("gelem", key, idx_role)`` — a gathered element: vector ``key``
      subscripted with the 1-based index computed by ``idx_role``
    * ``("expr", op, a, b)`` — a fused arithmetic node over two other roles
    """
    tag = role[0]
    if tag == "idx":
        return st.j
    if tag == "idx1" or tag == "seq":
        return st.j + 1
    if tag == "elem":
        return st.elems[role[1]]
    if tag == "mapval":
        return st.mapv
    if tag == "acc":
        return st.acc
    if tag == "acc_raw":
        v = st.acc
        return v.data[0] if hasattr(v, "data") else v
    if tag == "inv":
        return st.invs[role[1]]
    if tag == "cmp":
        return st.cmp
    if tag == "ex2":
        # the generic Extract2 result: a fresh 1-element vector of the source
        # vector's kind (the element may be None — extract2 does not NA-check)
        from ..runtime.values import RVector

        return RVector(st.invs[role[1]].kind, [st.elems[role[1]]])
    if tag == "box":
        from ..runtime.values import RVector

        inner = eval_kernel_role(role[1], st)
        kind = role[2]
        if kind.name == "DBL" and type(inner) is int:
            inner = float(inner)
        elif kind.name == "INT" and type(inner) is bool:
            inner = int(inner)
        return RVector(kind, [inner])
    if tag == "cval":
        return role[1]
    if tag == "uinv":
        v = st.invs[role[1]]
        return v.data[0] if hasattr(v, "data") else v
    if tag == "gelem":
        idx = eval_kernel_role(role[2], st)
        return st.invs[role[1]].data[int(idx) - 1]
    if tag == "expr":
        a = eval_kernel_role(role[2], st)
        b = eval_kernel_role(role[3], st)
        op = role[1]
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return _pdiv_role(a, b)
    raise ValueError("unknown kernel role %r" % (role,))


def _pdiv_role(a, b):
    """R division semantics for ``("expr", "/", ...)`` roles — an exact
    replica of the executor's PDIV: zero-division yields inf/nan."""
    import math

    if b == 0:
        if isinstance(a, complex) or isinstance(b, complex):
            from ..runtime.errors import RError

            raise RError("complex division by zero")
        return float("nan") if a == 0 else math.copysign(math.inf, a)
    return a / b


class KernelFrameTemplate:
    """Iteration-indexed FrameState template for one in-kernel guard.

    The scalar loop body carries one :class:`DeoptDescr` per guard; its
    register references are only valid while the scalar body actually runs.
    For each guard covered by a bulk kernel, the lowerer pre-computes this
    template: the loop-defined registers the guard's descriptor reads,
    paired with the symbolic role that recomputes each one for an arbitrary
    iteration index, plus how far into the iteration the guard sits (op /
    guard / generic-op counts, for exact telemetry of the partial
    iteration).  ``materialize`` instantiates the template at element ``k``
    by writing the roles into the register file; the ordinary
    ``build_framestate`` path then produces a FrameState indistinguishable
    from one built by the scalar loop at that element.
    """

    __slots__ = ("slots", "ops_into", "guards_into", "gen_into")

    def __init__(self, slots, ops_into, guards_into, gen_into):
        #: [(reg, role)] — loop-defined registers the deopt descriptor reads
        self.slots = slots
        self.ops_into = ops_into
        self.guards_into = guards_into
        self.gen_into = gen_into

    def materialize(self, regs, st: KernelIterState) -> None:
        for reg, role in self.slots:
            regs[reg] = eval_kernel_role(role, st)

    def __repr__(self) -> str:  # pragma: no cover
        return "<KernelFrameTemplate %d slots +%d ops>" % (len(self.slots), self.ops_into)


class FrameState:
    """Runtime frame state, built by a failing guard's deopt branch.

    ``env_values`` maps variable names to boxed runtime values (when the env
    was elided); ``env`` is the live environment otherwise.  ``closure_env``
    is the lexical parent needed to re-materialize an elided environment.
    """

    __slots__ = ("code", "pc", "env_values", "env", "closure_env", "stack", "parent", "fun")

    def __init__(
        self,
        code,
        pc: int,
        env_values: Optional[Dict[str, Any]],
        stack: List[Any],
        closure_env,
        env=None,
        parent: Optional["FrameState"] = None,
        fun=None,
    ):
        self.code = code
        self.pc = pc
        self.env_values = env_values
        self.env = env
        self.closure_env = closure_env
        self.stack = stack
        self.parent = parent
        #: the RClosure this frame belongs to (for the deoptless dispatch table)
        self.fun = fun

    def materialize_env(self):
        """Rebuild a real environment (paper: its creation is deferred into
        the deopt branch).  Reuses the live env when it was never elided."""
        from ..runtime.env import REnvironment

        if self.env is not None:
            return self.env
        env = REnvironment(parent=self.closure_env)
        if self.env_values:
            for name, value in self.env_values.items():
                env.set(name, value)
        env.materialized_from_deopt = True
        return env

    def depth(self) -> int:
        d, fs = 1, self.parent
        while fs is not None:
            d += 1
            fs = fs.parent
        return d

    def __repr__(self) -> str:  # pragma: no cover
        return "<FrameState %s@%d>" % (self.code.name, self.pc)
