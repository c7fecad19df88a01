"""Abstract type transfer rules for bytecode operations.

Shared between the pre-compilation type analysis and the IR builder so the
two always agree about the type of every stack slot and variable.  All rules
are conservative approximations of :mod:`repro.runtime.coerce`.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.rtypes import ANY, Kind, RType, kind_lub


def arith_result(op: str, a: RType, b: RType) -> RType:
    if not (a.kind.is_numeric and b.kind.is_numeric):
        return ANY
    kind = kind_lub(a.kind, b.kind)
    if kind == Kind.LGL:
        kind = Kind.INT
    if op in ("/", "^") and kind in (Kind.LGL, Kind.INT):
        kind = Kind.DBL
    if op in ("%%", "%/%"):
        if kind == Kind.CPLX:
            return ANY
        # only integer %% 0 yields NA in R; floats give NaN/Inf (not NA)
        na = True if kind == Kind.INT else (a.maybe_na or b.maybe_na)
        return RType(kind, scalar=a.scalar and b.scalar, maybe_na=na)
    return RType(kind, scalar=a.scalar and b.scalar, maybe_na=a.maybe_na or b.maybe_na)


def prim_arith_result(op: str, kind: Kind) -> RType:
    """Result type of the *fast path* for a binary op over unboxed scalars.

    Mirrors the builder's lowering: ``/`` and ``^`` promote ints to double,
    and integer ``%%``/``%/%`` deopt on a zero divisor instead of producing
    NA, so the fast-path result is never NA.
    """
    rk = kind
    if op in ("/", "^") and kind in (Kind.LGL, Kind.INT):
        rk = Kind.DBL
    if op in ("%%", "%/%") and kind == Kind.LGL:
        rk = Kind.INT
    return RType(rk, scalar=True, maybe_na=False)


def compare_result(a: RType, b: RType) -> RType:
    return RType(Kind.LGL, scalar=a.scalar and b.scalar, maybe_na=a.maybe_na or b.maybe_na)


def unary_result(op: str, a: RType) -> RType:
    if op == "!":
        return RType(Kind.LGL, scalar=a.scalar, maybe_na=a.maybe_na)
    if a.kind == Kind.LGL:
        return RType(Kind.INT, scalar=a.scalar, maybe_na=a.maybe_na)
    if a.kind.is_numeric:
        return RType(a.kind, scalar=a.scalar, maybe_na=a.maybe_na)
    return ANY


def colon_result(a: RType, b: RType) -> RType:
    if a.kind in (Kind.LGL, Kind.INT) and b.kind in (Kind.LGL, Kind.INT):
        return RType(Kind.INT, scalar=False, maybe_na=False)
    # a literal integral double end (`1:n`) reaches here as INT already
    # (GraphBuilder._op_colon, via _integral_const); a non-literal double
    # end makes an INT vector when its value is integral and a DBL one
    # otherwise, which is not known statically: ANY
    return ANY


def extract2_result(obj: RType) -> RType:
    if obj.kind == Kind.LIST or obj.kind == Kind.ANY or not obj.kind.is_vector:
        return ANY
    return RType(obj.kind, scalar=True, maybe_na=obj.maybe_na)


def extract1_result(obj: RType) -> RType:
    if obj.kind == Kind.ANY or not obj.kind.is_vector:
        return ANY
    # x[i] keeps the kind; length and NA-ness unknown (OOB reads give NA)
    return RType(obj.kind, scalar=False, maybe_na=True)


def set_index_result(obj: RType, val: RType) -> RType:
    if obj.kind == Kind.ANY or val.kind == Kind.ANY:
        return ANY
    if obj.kind == Kind.NULL:
        return RType(val.kind, scalar=False, maybe_na=obj.maybe_na or val.maybe_na)
    kind = kind_lub(obj.kind, val.kind)
    return RType(kind, scalar=False, maybe_na=True)


INT_SCALAR = RType(Kind.INT, scalar=True, maybe_na=False)
LGL_SCALAR = RType(Kind.LGL, scalar=True, maybe_na=False)


def prim_arith_kind(a: RType, b: RType) -> Optional[Kind]:
    """The common unboxed kind for a fast binary op over scalars ``a``/``b``,
    or None when no fast path applies.  Mixed int/dbl promotes to dbl, which
    mirrors R's coercion."""
    if not (a.unboxable and b.unboxable):
        return None
    if a.kind == b.kind:
        return a.kind
    pair = {a.kind, b.kind}
    if pair <= {Kind.LGL, Kind.INT}:
        return Kind.INT
    if pair <= {Kind.LGL, Kind.INT, Kind.DBL}:
        return Kind.DBL
    if pair <= {Kind.LGL, Kind.INT, Kind.DBL, Kind.CPLX}:
        return Kind.CPLX
    return None
