"""Deoptless optimization contexts (paper Listing 7 and section 3.1).

A :class:`ContinuationContext` says where and under what types a unit is
entered mid-function — upstream Ř's ``ContinuationContext``, which OSR-in
and deoptless compile through alike:

* the **target** (bytecode pc),
* the **types of the operand stack** slots, and
* the **names and types of the local variables**.

A :class:`DeoptContext` is one plus the refuted fact, the conditions under
which a deoptless continuation may be invoked: the **reason** — the kind of
guard that failed plus an abstract description of the offending value (the
observed type for typechecks, the actual callee for call-target guards) —
and the frame-chain **depth** of the deopt.

Contexts are partially ordered.  Two contexts are comparable only when they
have the same target pc, the same reason kind, the same variable names and
the same stack shape; comparable contexts are ordered by the subtype
relation pointwise over all types (and over the reason payload).  ``c1 <=
c2`` means: a continuation compiled for ``c2`` can safely be entered from a
state described by ``c1``.

Bounds follow the paper: contexts with more than 16 stack entries or 32
environment entries are not eligible for deoptless.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..runtime.rtypes import ANY, Kind, RType, intern_rtype
from ..runtime.values import RPromise, rtype_quick

# imported late (below, before compute_context): the osr package reaches the
# native executor, which needs this module's CallContext machinery — keeping
# the framestate import out of the header breaks that cycle; all uses above
# it are annotations only (lazy under `from __future__ import annotations`)


class ReasonPayload:
    """Abstract description of the offending value in a deopt reason."""

    __slots__ = ("kind", "observed_type", "observed_identity")

    def __init__(self, kind: DeoptReasonKind, observed_type: Optional[RType], observed_identity: Any):
        self.kind = kind
        self.observed_type = observed_type
        self.observed_identity = observed_identity

    def __le__(self, other: "ReasonPayload") -> bool:
        if self.kind != other.kind:
            return False
        if other.observed_identity is not None or self.observed_identity is not None:
            return self.observed_identity is other.observed_identity
        if other.observed_type is None:
            return True
        if self.observed_type is None:
            return False
        return self.observed_type <= other.observed_type

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReasonPayload)
            and self.kind == other.kind
            and self.observed_type == other.observed_type
            and self.observed_identity is other.observed_identity
        )

    def __hash__(self):
        # identity-hashed: payloads pinning different runtime objects must
        # not collide as cache-key components (jit/codecache.py)
        return hash((self.kind, self.observed_type, id(self.observed_identity)))

    def stable_parts(self, stable_ref) -> tuple:
        """World-independent rendering for stable cache digests.

        ``stable_ref`` maps the pinned identity (a closure or builtin) to a
        name-based reference; it raises
        :class:`~repro.jit.codecache.Unstable` when none exists.
        """
        ident = (
            stable_ref(self.observed_identity)
            if self.observed_identity is not None else None
        )
        return (self.kind.name, self.observed_type, ident)

    def specificity(self) -> int:
        """Lattice-depth proxy used to linearize the dispatch table."""
        if self.observed_identity is not None:
            return 3
        if self.observed_type is not None:
            return 2 if self.observed_type.scalar else 1
        return 0

    def __repr__(self) -> str:  # pragma: no cover
        return "<%s %r%s>" % (
            self.kind.value,
            self.observed_type,
            " id" if self.observed_identity is not None else "",
        )


class ContinuationContext:
    """Where a unit is entered mid-function, and the types it is entered
    with: what an OSR-in unit is compiled under."""

    __slots__ = ("pc", "env_types", "stack_types")

    def __init__(self, pc: int, env_types: Tuple[Tuple[str, RType], ...],
                 stack_types: Tuple[RType, ...]):
        self.pc = pc
        #: sorted by name so comparability does not depend on insertion order
        self.env_types = env_types
        self.stack_types = stack_types

    def __eq__(self, other) -> bool:
        # a DeoptContext is never equal to a plain one: it also names the
        # refuted fact the unit was compiled without
        return (
            type(other) is ContinuationContext
            and self.pc == other.pc
            and self.stack_types == other.stack_types
            and self.env_types == other.env_types
        )

    def __hash__(self):
        return hash((self.pc, self.stack_types, self.env_types))

    def stable_parts(self) -> tuple:
        """World-independent rendering for stable cache digests."""
        return (self.pc, self.stack_types, self.env_types)

    def __repr__(self) -> str:  # pragma: no cover
        env = ", ".join("%s:%r" % (n, t) for n, t in self.env_types)
        return "<cont @%d stack=%r env={%s}>" % (self.pc, self.stack_types, env)


class DeoptContext(ContinuationContext):
    """The dispatchable description of one deoptimization state."""

    __slots__ = ("reason", "depth")

    def __init__(
        self,
        pc: int,
        reason: ReasonPayload,
        stack_types: Tuple[RType, ...],
        env_types: Tuple[Tuple[str, RType], ...],
        depth: int = 1,
    ):
        super().__init__(pc, env_types, stack_types)
        self.reason = reason
        #: frame-chain length of the deopt state (1 = not inlined).  A deopt
        #: at the same inlinee pc reached through a different inline nesting
        #: is a different context: the continuation's interpreter-resumed
        #: parent chain differs.
        self.depth = depth

    # -- partial order -----------------------------------------------------------

    def comparable(self, other: "DeoptContext") -> bool:
        return (
            self.pc == other.pc
            and self.depth == other.depth
            and self.reason.kind == other.reason.kind
            and len(self.stack_types) == len(other.stack_types)
            and len(self.env_types) == len(other.env_types)
            and all(a[0] == b[0] for a, b in zip(self.env_types, other.env_types))
        )

    def __le__(self, other: "DeoptContext") -> bool:
        if not self.comparable(other):
            return False
        if not (self.reason <= other.reason):
            return False
        for a, b in zip(self.stack_types, other.stack_types):
            if not (a <= b):
                return False
        for (_, a), (_, b) in zip(self.env_types, other.env_types):
            if not (a <= b):
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DeoptContext)
            and self.pc == other.pc
            and self.depth == other.depth
            and self.reason == other.reason
            and self.stack_types == other.stack_types
            and self.env_types == other.env_types
        )

    def __hash__(self):
        # contexts are dict keys in the code cache (jit/codecache.py): a
        # continuation is cached under its full dispatch context
        return hash((self.pc, self.depth, self.reason, self.stack_types, self.env_types))

    def stable_parts(self, stable_ref) -> tuple:
        """World-independent rendering for stable cache digests (the
        identity in the reason payload becomes a name-based reference)."""
        return (
            self.pc,
            self.depth,
            self.reason.stable_parts(stable_ref),
            self.stack_types,
            self.env_types,
        )

    # -- heuristics -----------------------------------------------------------------

    def specificity(self) -> int:
        """Total specificity, for sorting the dispatch table most-specific
        first (a linearization of the partial order)."""
        score = self.reason.specificity()
        for t in self.stack_types:
            score += _type_spec(t)
        for _, t in self.env_types:
            score += _type_spec(t)
        return score

    def __repr__(self) -> str:  # pragma: no cover
        env = ", ".join("%s:%r" % (n, t) for n, t in self.env_types)
        d = " depth=%d" % self.depth if self.depth != 1 else ""
        return "<ctx @%d%s %r stack=%r env={%s}>" % (self.pc, d, self.reason, self.stack_types, env)


class CallContext:
    """The dispatchable description of one function-entry state.

    Entry contexts reuse the exact partial-order machinery of
    :class:`DeoptContext` (Ř surrounds deoptless with contextual dispatch at
    call boundaries): a version compiled under context ``c2`` may be entered
    from a call state ``c1`` iff ``c1 <= c2``.  A context records, per
    positional argument slot:

    * its :class:`RType` (element kind, scalar/vector shape, NA-freedom —
      exact for scalars, widened for vectors whose NA scan would not be
      O(1)), and
    * whether the slot holds a *forced value* (``True``) or an unevaluated
      promise (``False``; the type is then ``ANY`` and the compiled version
      keeps its entry ``Force``).

    The argument count is part of comparability, mirroring how
    ``DeoptContext`` keys on stack shape and env names.
    """

    __slots__ = ("arg_types", "forced", "_hash")

    def __init__(self, arg_types: Tuple[RType, ...], forced: Tuple[bool, ...]):
        self.arg_types = arg_types
        self.forced = forced
        self._hash = hash((arg_types, forced))

    def __getstate__(self):  # pickled as before the hash was cached
        return None, {"arg_types": self.arg_types, "forced": self.forced}

    def __setstate__(self, state):
        self.__init__(**state[1])

    # -- partial order -----------------------------------------------------------

    def comparable(self, other: "CallContext") -> bool:
        return len(self.arg_types) == len(other.arg_types)

    def __le__(self, other: "CallContext") -> bool:
        if not self.comparable(other):
            return False
        for a, b in zip(self.arg_types, other.arg_types):
            if not (a <= b):
                return False
        for a, b in zip(self.forced, other.forced):
            # a version compiled for a forced value must receive one; a
            # version compiled for "maybe a promise" takes anything
            if b and not a:
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CallContext)
            and self.arg_types == other.arg_types
            and self.forced == other.forced
        )

    def __hash__(self):
        # dict keys in the code cache, ``ClosureJitState.ctx_fail_counts``
        # and, on every call, a dispatch table's remembered answers
        return self._hash

    def stable_parts(self) -> tuple:
        """World-independent rendering for stable cache digests.  Unlike
        :meth:`DeoptContext.stable_parts` no resolver is needed: an entry
        context never pins a runtime identity, only types."""
        return (self.arg_types, self.forced)

    # -- heuristics -----------------------------------------------------------------

    def specificity(self) -> int:
        """Same linearization proxy as :meth:`DeoptContext.specificity`,
        summing the shared per-type rank; forced slots are tighter than
        maybe-promise ones."""
        score = 0
        for t in self.arg_types:
            score += _type_spec(t)
        for f in self.forced:
            if f:
                score += 1
        return score

    def __repr__(self) -> str:  # pragma: no cover
        slots = ", ".join(
            "%r%s" % (t, "" if f else "?")
            for t, f in zip(self.arg_types, self.forced)
        )
        return "<callctx (%s)>" % slots


#: deopt states with more operand stack entries than this get no context
#: (paper section 4.3: stack <= 16; the environment bound is
#: ``Config.deoptless_max_env``)
MAX_STACK = 16
#: entry contexts with more positional slots than this are not distilled
#: (mirrors the paper's stack/env bounds: huge contexts never pay off)
MAX_CONTEXT_ARGS = 8


def distill_call_context(args: List[Any]) -> Optional[CallContext]:
    """``computeCtx`` for a function entry: distill the dispatchable context
    from a positional argument list.

    The context is interned: equal calls get the same object.  Forced
    promises are unwrapped **in place** (their value is what a typed
    version's parameter registers must receive; semantically identical to
    the generic path, where the entry ``Force`` yields the same object).
    Unforced promises stay and distill to an untyped, unforced slot.  Vector
    NA-freedom is widened to ``maybe_na`` — :func:`rtype_quick` only proves
    NA-freedom for scalars, and an entry context must be a *sound* claim
    since the compiled version drops the corresponding guards.
    """
    if len(args) > MAX_CONTEXT_ARGS:
        return None
    quick: List[Optional[RType]] = []  # None: an unforced promise
    for i, v in enumerate(args):
        if v.__class__ is RPromise:
            if not v.forced:
                quick.append(None)
                continue
            v = args[i] = v.value
        quick.append(rtype_quick(v))
    key = tuple(quick)
    ctx = _CALL_CONTEXTS.get(key)
    if ctx is None:
        types = tuple(ANY if t is None else t if t.scalar or t.maybe_na or t.kind is Kind.ANY
                      else intern_rtype(t.kind, False, True) for t in key)
        ctx = _CALL_CONTEXTS.setdefault(key, CallContext(types, tuple(t is not None for t in key)))
    return ctx


#: the interned contexts, by argument types as ``rtype_quick`` reads them
#: (None: an unforced promise); equality stays structural all the same
_CALL_CONTEXTS: Dict[tuple, CallContext] = {}


#: kind precision rank: lower lattice kinds are more specific, so a dbl
#: context sorts before a cplx one and dispatch prefers the tighter match
_KIND_RANK = {
    "ANY": 0, "LIST": 1, "STR": 2, "CPLX": 3, "DBL": 4, "INT": 5,
    "LGL": 6, "NULL": 6, "CLO": 4, "BUILTIN": 4, "ENV": 4,
}


def _type_spec(t: RType) -> int:
    s = _KIND_RANK[t.kind.name]
    if t.scalar:
        s += 1
    if not t.maybe_na:
        s += 1
    return s


from ..osr.framestate import DeoptReason, DeoptReasonKind, FrameState  # noqa: E402


def continuation_context(fs: FrameState) -> Optional[ContinuationContext]:
    """The context a unit entered at ``fs`` is compiled under: the resume
    pc, the types of the locals (sorted by name) and of the operand stack.
    None when the frame has no locals to read.  OSR-in takes it as is;
    :func:`compute_context` bounds it and adds the refuted fact."""
    values = fs.bindings()
    if values is None:
        return None
    return ContinuationContext(
        fs.pc, tuple(sorted((name, rtype_quick(v)) for name, v in values.items())),
        tuple(rtype_quick(v) for v in fs.stack))


def compute_context(fs: FrameState, reason: DeoptReason, config) -> Optional[DeoptContext]:
    """``computeCtx`` of paper Listing 6.

    Returns None when the state exceeds the configured bounds (such states
    are "skipped": deoptless is not attempted for them).

    Mid-kernel exits take this exact path: when a bulk vector kernel trips
    at element ``k`` (a chaos invalidation inside ``native/kernels.py``),
    the kernel has already materialized the loop registers for iteration
    ``k`` through its :class:`~repro.osr.framestate.KernelFrameTemplate`,
    so ``fs`` describes the interpreter mid-loop — the loop variable and
    the partial accumulator are ordinary env entries.  The resulting
    context is keyed on the in-loop target pc plus the observed element
    type, and the continuation compiled for it resumes the remaining
    ``n - k`` elements: the rest of iteration ``k`` as an entry-only
    prologue, then the loop from its own header, where the vectorizer plans
    the kernel again (``ir/builder.py::partition_bytecode``).  The next call
    of the original code enters the bulk kernel at the loop preheader as
    usual.
    """
    if len(fs.stack) > MAX_STACK:
        return None
    where = continuation_context(fs)
    if where is None or len(where.env_types) > config.deoptless_max_env:
        return None

    observed_type: Optional[RType] = None
    observed_identity: Any = None
    if isinstance(reason.observed, RType):
        observed_type = reason.observed
    elif reason.observed is not None:
        observed_identity = reason.observed
    payload = ReasonPayload(reason.kind, observed_type, observed_identity)
    # the context's target is the *resume* pc of the framestate (it equals
    # reason.pc for all guards our builder emits, but the resume point is
    # what actually has to match for a continuation to be reusable); deopts
    # inside inlined frames additionally key on the frame-chain depth
    return DeoptContext(where.pc, payload, where.stack_types, where.env_types,
                        depth=fs.depth())
