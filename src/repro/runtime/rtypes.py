"""The mini-R type lattice.

R values form a coercion lattice over element *kinds*:

    NULL < logical < integer < double < complex < string < list

Scalars in R are just vectors of length one, so a *runtime type* as used by
type feedback and by deoptless optimization contexts is a pair of

* the element kind, and
* a scalarity flag (``True`` when the value is known to have length one).

The partial order on :class:`RType` is the one the paper's ``DeoptContext``
dispatch relies on (section 3.1): a context compiled for a *wider* type can
be entered from a *narrower* current state.  Concretely ``t1 <= t2`` iff the
kind of ``t1`` coerces into the kind of ``t2`` and ``t2`` does not promise
more than ``t1`` delivers (a scalar satisfies a vector-typed context, never
the reverse; the paper gives exactly this example: a continuation compiled
for a float *vector* is compatible when a float *scalar* shows up, "as in R
scalars are just vectors of length one").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Kind(enum.IntEnum):
    """Element kind of an R vector, ordered by the coercion lattice."""

    NULL = 0
    LGL = 1
    INT = 2
    DBL = 3
    CPLX = 4
    STR = 5
    LIST = 6
    # Non-vector values. These do not take part in arithmetic coercion but
    # appear in type feedback (e.g. a variable may hold a closure).
    CLO = 7
    BUILTIN = 8
    ENV = 9
    ANY = 10

    @property
    def is_numeric(self) -> bool:
        return _LGL <= self <= _CPLX

    @property
    def is_vector(self) -> bool:
        return _LGL <= self <= _LIST


# Members as module globals for the predicates above and kind_lub, which run
# once per generic runtime operation: on CPython < 3.12 ``Kind.X`` goes
# through the enum metaclass and costs several times a global load.
_NULL, _LGL, _CPLX, _LIST = Kind.NULL, Kind.LGL, Kind.CPLX, Kind.LIST


#: Kinds that unboxed native code can hold directly in a register.
#: Complex is deliberately excluded, mirroring Ř (the paper's Figure 4
#: discussion: "complex numbers are slow in both versions as their
#: behavior is more involved").
UNBOXABLE_KINDS = (Kind.LGL, Kind.INT, Kind.DBL)


def kind_lub(a: Kind, b: Kind) -> Kind:
    """Least upper bound of two kinds under coercion.

    Used both by ``c(...)`` / arithmetic coercion in the runtime and by the
    feedback-merging logic in the optimizer.  Non-vector kinds only join
    with themselves; any mixed join collapses to :data:`Kind.ANY`.
    """
    if a == b:
        return a
    if a == _NULL:
        return b
    if b == _NULL:
        return a
    if _LGL <= a <= _LIST and _LGL <= b <= _LIST:  # both vector kinds
        return a if a > b else b
    return Kind.ANY


@dataclass(frozen=True)
class RType:
    """A runtime type: element kind plus scalarity and NA knowledge.

    ``scalar`` means *known to be of length one*.  ``maybe_na`` means the
    value may contain missing elements; specialized native code refuses to
    unbox values whose feedback saw NAs (the generic path handles them).

    Subtype checks are on the deoptless dispatch hot path (the paper notes
    OSR-out "needs to be more efficient than when it is only used for
    deoptimization"), so every RType has a small integer ``code`` and the
    subtype relation is a precomputed table over codes.
    """

    kind: Kind
    scalar: bool = False
    maybe_na: bool = True

    def __post_init__(self):
        # ANY ignores the flags: canonicalize so the partial order is
        # antisymmetric (all ANY variants are the same top element)
        if self.kind == Kind.ANY and (self.scalar or not self.maybe_na):
            object.__setattr__(self, "scalar", False)
            object.__setattr__(self, "maybe_na", True)

    @property
    def code(self) -> int:
        """Dense encoding for the precomputed subtype table."""
        return (int(self.kind) << 2) | (int(self.scalar) << 1) | int(self.maybe_na)

    def __le__(self, other: "RType") -> bool:
        """Subtype check: may a value of ``self`` flow where ``other`` is expected?"""
        return _LE_TABLE[self.code][other.code]

    def __lt__(self, other: "RType") -> bool:
        return self != other and self <= other

    def lub(self, other: "RType") -> "RType":
        """Least upper bound, used when merging feedback observations.

        Note NULL joins to ANY with anything else: NULL is *not* a subtype
        of the vector kinds (a continuation compiled for an int vector must
        not be entered with NULL), unlike the coercion lub used by ``c()``.
        """
        if self == other:
            return self
        a, b = self.kind, other.kind
        if a == b:
            kind = a
        elif a.is_vector and b.is_vector and a != Kind.NULL and b != Kind.NULL:
            kind = kind_lub(a, b)
        else:
            return ANY
        return RType(
            kind,
            scalar=self.scalar and other.scalar,
            maybe_na=self.maybe_na or other.maybe_na,
        )

    @property
    def unboxable(self) -> bool:
        """Can native code keep a value of this type in a raw register?"""
        return self.scalar and not self.maybe_na and self.kind in UNBOXABLE_KINDS

    def widened(self) -> "RType":
        """The type with all precision dropped except the kind."""
        return RType(self.kind, scalar=False, maybe_na=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = self.kind.name.lower()
        if self.scalar:
            bits += "$"
        if not self.maybe_na:
            bits += "^"
        return bits


def _le_slow(a: "RType", b: "RType") -> bool:
    """Reference subtype relation (used to build the table and by tests)."""
    if b.kind == Kind.ANY:
        return True
    if a.kind == Kind.ANY:
        return False
    if a.kind.is_vector and b.kind.is_vector:
        kind_ok = kind_lub(a.kind, b.kind) == b.kind
    else:
        kind_ok = a.kind == b.kind
    scalar_ok = a.scalar or not b.scalar
    na_ok = b.maybe_na or not a.maybe_na
    return kind_ok and scalar_ok and na_ok


def _build_le_table():
    all_types = [
        RType(k, s, n) for k in Kind for s in (False, True) for n in (False, True)
    ]
    size = max(t.code for t in all_types) + 1
    table = [[False] * size for _ in range(size)]
    for a in all_types:
        for b in all_types:
            table[a.code][b.code] = _le_slow(a, b)
    return tuple(tuple(row) for row in table)


_LE_TABLE = _build_le_table()


_INTERNED = {}


def intern_rtype(kind: Kind, scalar: bool, maybe_na: bool) -> RType:
    """Shared RType instances for the hot paths (feedback recording and
    deoptless context computation allocate one per observed value)."""
    key = (int(kind) << 2) | (int(scalar) << 1) | int(maybe_na)
    t = _INTERNED.get(key)
    if t is None:
        t = _INTERNED[key] = RType(kind, scalar, maybe_na)
    return t


#: The top of the lattice; every value matches it.
ANY = RType(Kind.ANY)

#: Convenience constructors used throughout the optimizer and tests.
def scalar(kind: Kind, maybe_na: bool = False) -> RType:
    return RType(kind, scalar=True, maybe_na=maybe_na)


def vector(kind: Kind, maybe_na: bool = True) -> RType:
    return RType(kind, scalar=False, maybe_na=maybe_na)
