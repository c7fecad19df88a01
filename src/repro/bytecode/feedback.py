"""Run-time profile data (type feedback) collected by the baseline tier.

The interpreter records, per instruction site:

* **value/operand types** at ``LD_VAR``, ``BINOP``, ``COMPARE``, ``COLON``,
  ``INDEX2``/``INDEX1`` and ``SET_INDEX*`` — merged into an
  :class:`ObservedType` (kind set, scalarity, NA-presence),
* **call targets** at ``CALL`` — up to a small polymorphism bound,
* **branch bias** at ``BRFALSE``/``BRTRUE``.

This is the profile the optimizer speculates on, and it is exactly the data
the deoptless *feedback cleanup and inference pass* (paper section 4.3) must
repair after a failed speculation: slots are individually markable as
``stale`` and can have an observed type injected from a deopt reason.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

from ..runtime.rtypes import ANY, Kind, RType
from ..runtime.values import (
    QUICK_NA_SCALAR,
    QUICK_SCALAR,
    QUICK_VECTOR,
    RVector,
    rtype_quick,
)

#: calls seen with more distinct targets than this are megamorphic.
MAX_CALL_TARGETS = 3

#: distinct argument-kind tuples remembered per call site before the site's
#: entry-context profile is considered unbounded-polymorphic.
MAX_CALL_ARG_PROFILES = 4


class ObservedType:
    """Merged observations of the runtime types at one program point.

    ``_last`` is a recording memo, not profile data: the (interned) type
    merged last.  Merging is idempotent apart from ``count``, so observing
    that same type again is one identity comparison and a ``count`` bump.
    The memo only ever names a type already folded into ``kinds`` /
    ``all_scalar`` / ``saw_na``; whatever rewrites those fields other than
    by merging (``reset``, ``inject``, ``copy``) drops it.
    """

    __slots__ = ("kinds", "all_scalar", "saw_na", "count", "stale", "_last")

    def __init__(self) -> None:
        self.kinds: Set[Kind] = set()
        self.all_scalar = True
        self.saw_na = False
        self.count = 0
        #: set by the deoptless feedback-cleanup pass; stale slots are not
        #: trusted by the optimizer.
        self.stale = False
        self._last: Optional[RType] = None

    def record(self, value: Any) -> None:
        # rtype_quick, inlined for vectors (BinopFeedback.record repeats it
        # per operand: this runs once per interpreted load)
        if value.__class__ is RVector:
            data = value.data
            if len(data) != 1:
                t = QUICK_VECTOR[value.kind]
            elif data[0] is None:
                t = QUICK_NA_SCALAR[value.kind]
            else:
                t = QUICK_SCALAR[value.kind]
        else:
            t = rtype_quick(value)
        if t is self._last:
            self.count += 1
        else:
            self.record_type(t)

    def record_type(self, t: RType) -> None:
        self.kinds.add(t.kind)
        if not t.scalar:
            self.all_scalar = False
        if t.maybe_na:
            self.saw_na = True
        self.count += 1
        self._last = t

    @property
    def monomorphic_kind(self) -> Optional[Kind]:
        if len(self.kinds) == 1 and not self.stale:
            return next(iter(self.kinds))
        return None

    def as_rtype(self) -> RType:
        """The merged type, or ANY when nothing (trustworthy) was seen."""
        if not self.kinds or self.stale:
            return ANY
        it = iter(self.kinds)
        t = RType(next(it), scalar=self.all_scalar, maybe_na=self.saw_na)
        for k in it:
            t = t.lub(RType(k, scalar=self.all_scalar, maybe_na=self.saw_na))
        return t

    def reset(self) -> None:
        self.kinds.clear()
        self.all_scalar = True
        self.saw_na = False
        self.count = 0
        self.stale = False
        self._last = None

    def inject(self, t: RType) -> None:
        """Replace the observation with ``t`` (used by feedback repair when a
        deopt reason tells us the actual type at this site)."""
        self.reset()
        self.record_type(t)
        self._last = None

    def copy(self) -> "ObservedType":
        c = ObservedType()
        c.kinds = set(self.kinds)
        c.all_scalar = self.all_scalar
        c.saw_na = self.saw_na
        c.count = self.count
        c.stale = self.stale
        return c

    def __repr__(self) -> str:  # pragma: no cover
        return "<obs %s%s%s n=%d%s>" % (
            "|".join(k.name for k in sorted(self.kinds)) or "none",
            "$" if self.all_scalar else "",
            " NA" if self.saw_na else "",
            self.count,
            " STALE" if self.stale else "",
        )


class BinopFeedback:
    """Operand types at a binary operation site."""

    __slots__ = ("lhs", "rhs", "stale")

    def __init__(self) -> None:
        self.lhs = ObservedType()
        self.rhs = ObservedType()
        self.stale = False

    def record(self, lhs: Any, rhs: Any) -> None:
        # ObservedType.record for each side, written out: one call per
        # interpreted binary operation instead of three
        if lhs.__class__ is RVector:
            data = lhs.data
            if len(data) != 1:
                t = QUICK_VECTOR[lhs.kind]
            elif data[0] is None:
                t = QUICK_NA_SCALAR[lhs.kind]
            else:
                t = QUICK_SCALAR[lhs.kind]
        else:
            t = rtype_quick(lhs)
        obs = self.lhs
        if t is obs._last:
            obs.count += 1
        else:
            obs.record_type(t)
        if rhs.__class__ is RVector:
            data = rhs.data
            if len(data) != 1:
                t = QUICK_VECTOR[rhs.kind]
            elif data[0] is None:
                t = QUICK_NA_SCALAR[rhs.kind]
            else:
                t = QUICK_SCALAR[rhs.kind]
        else:
            t = rtype_quick(rhs)
        obs = self.rhs
        if t is obs._last:
            obs.count += 1
        else:
            obs.record_type(t)

    def copy(self) -> "BinopFeedback":
        c = BinopFeedback()
        c.lhs = self.lhs.copy()
        c.rhs = self.rhs.copy()
        c.stale = self.stale
        return c


class CallFeedback:
    """Distinct callees observed at a call site, plus a bounded profile of
    the argument *kinds* the site was called with.

    The kind tuples feed the contextual-dispatch layer: a site whose
    ``arg_profiles`` shows several distinct tuples is entry-polymorphic —
    its callee is a candidate for per-call-context versions, and the
    inspector surfaces the tuples so the split is explainable.  Only the
    element kind is recorded (not the full RType): profiling runs on every
    baseline call, and the kind is an O(1) read that is stable under the
    NA/scalar widenings the distiller applies anyway.

    ``_last_target`` / ``_last_prof`` are a recording memo like
    :attr:`ObservedType._last`: the callee and the kind tuple merged last.
    Targets and profiles only accumulate (or collapse to megamorphic /
    unbounded, after which merging is a no-op), so seeing both again
    changes nothing but ``count``.
    """

    __slots__ = ("targets", "megamorphic", "count", "stale", "arg_profiles",
                 "_last_target", "_last_prof")

    def __init__(self) -> None:
        self.targets: List[Any] = []
        self.megamorphic = False
        self.count = 0
        self.stale = False
        #: distinct argument Kind tuples, insertion-ordered, bounded by
        #: MAX_CALL_ARG_PROFILES (None once the bound is exceeded)
        self.arg_profiles: Optional[List[tuple]] = []
        self._last_target: Any = None
        self._last_prof: Optional[tuple] = None

    def record(self, target: Any, args: Optional[List[Any]] = None) -> None:
        self.count += 1
        prof = self._last_prof
        if (
            target is self._last_target
            and prof is not None
            and args is not None
            and len(args) == len(prof)
        ):
            for a, k in zip(args, prof):
                if (a.kind if a.__class__ is RVector else rtype_quick(a).kind) is not k:
                    break
            else:
                return
        self._last_target = target
        if args is not None and self.arg_profiles is not None:
            prof = tuple(rtype_quick(a).kind for a in args)
            if prof not in self.arg_profiles:
                if len(self.arg_profiles) >= MAX_CALL_ARG_PROFILES:
                    self.arg_profiles = None  # unbounded-polymorphic
                else:
                    self.arg_profiles.append(prof)
            self._last_prof = prof
        if self.megamorphic:
            return
        for t in self.targets:
            if t is target:
                return
        self.targets.append(target)
        if len(self.targets) > MAX_CALL_TARGETS:
            self.megamorphic = True
            self.targets = []

    @property
    def monomorphic_target(self) -> Optional[Any]:
        if len(self.targets) == 1 and not self.megamorphic and not self.stale:
            return self.targets[0]
        return None

    @property
    def args_polymorphic(self) -> bool:
        """True when the site has been observed with more than one distinct
        argument-kind tuple (or blew the profile bound)."""
        return self.arg_profiles is None or len(self.arg_profiles) > 1

    def copy(self) -> "CallFeedback":
        c = CallFeedback()
        c.targets = list(self.targets)
        c.megamorphic = self.megamorphic
        c.count = self.count
        c.stale = self.stale
        c.arg_profiles = (
            list(self.arg_profiles) if self.arg_profiles is not None else None
        )
        return c


def slot_for_op(op: int):
    """The feedback object class recorded at a site with opcode ``op``, or
    None for opcodes that record no profile.

    Used by the compiler to *preallocate* the per-pc feedback slot array:
    the interpreter then records through a plain list index instead of a
    ``dict.get``-probe-then-insert on every executed instruction.
    """
    from . import opcodes as O

    if op in (O.LD_VAR, O.SEQ_LENGTH):
        return ObservedType
    if op in (O.BINOP, O.COMPARE, O.COLON, O.INDEX2, O.INDEX1,
              O.SET_INDEX2, O.SET_INDEX1):
        return BinopFeedback
    if op in (O.BRFALSE, O.BRTRUE):
        return BranchFeedback
    if op == O.CALL:
        return CallFeedback
    return None


class BranchFeedback:
    """Taken/not-taken counts for a conditional branch."""

    __slots__ = ("taken", "not_taken", "stale")

    def __init__(self) -> None:
        self.taken = 0
        self.not_taken = 0
        self.stale = False

    def record(self, taken: bool) -> None:
        if taken:
            self.taken += 1
        else:
            self.not_taken += 1

    @property
    def bias(self) -> Optional[bool]:
        """True / False when the branch is (so far) one-sided, else None."""
        if self.stale:
            return None
        if self.taken and not self.not_taken:
            return True
        if self.not_taken and not self.taken:
            return False
        return None

    def copy(self) -> "BranchFeedback":
        c = BranchFeedback()
        c.taken, c.not_taken, c.stale = self.taken, self.not_taken, self.stale
        return c
