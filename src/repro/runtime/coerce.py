"""Generic (boxed) operation semantics: coercion, arithmetic, comparison,
sequence and subscript operations.

These functions implement full R vector semantics — kind coercion up the
lattice, element recycling, NA propagation — and are what the *baseline*
bytecode interpreter executes for every single operation.  They are
deliberately general and therefore slow; the optimizing tier replaces them
with specialized unboxed instructions guarded by ``Assume``.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, List, Optional

from .rtypes import Kind, kind_lub
from .values import NULL, RError, RNull, RVector

# ---------------------------------------------------------------------------
# Coercion
# ---------------------------------------------------------------------------

def _elem_to(kind: Kind, x: Any) -> Any:
    """Coerce one element (possibly NA) to ``kind``."""
    if x is None:
        return None
    if kind == Kind.LGL:
        return bool(x)
    if kind == Kind.INT:
        if isinstance(x, str):
            try:
                return int(x)
            except ValueError:
                return None
        if isinstance(x, complex):
            raise RError("cannot coerce complex to integer")
        return int(x)
    if kind == Kind.DBL:
        if isinstance(x, str):
            try:
                return float(x)
            except ValueError:
                return None
        if isinstance(x, complex):
            raise RError("cannot coerce complex to double")
        return float(x)
    if kind == Kind.CPLX:
        if isinstance(x, str):
            raise RError("cannot coerce string to complex")
        if isinstance(x, bool):
            return complex(int(x), 0)
        return complex(x)
    if kind == Kind.STR:
        if isinstance(x, bool):
            return "TRUE" if x else "FALSE"
        if isinstance(x, float) and x == int(x) and abs(x) < 1e15:
            return repr(x)
        return str(x)
    return x


def coerce_vector(v: RVector, kind: Kind) -> RVector:
    """Coerce a whole vector to ``kind`` (identity when already there)."""
    if v.kind == kind:
        return v
    if kind == Kind.LIST:
        return RVector(Kind.LIST, [RVector(v.kind, [x]) for x in v.data])
    if v.kind == Kind.LIST:
        out = []
        for el in v.data:
            if isinstance(el, RVector) and len(el) == 1:
                out.append(_elem_to(kind, el.data[0]))
            elif isinstance(el, RNull):
                raise RError("cannot coerce list element to %s" % kind.name)
            else:
                raise RError("(list) object cannot be coerced to %s" % kind.name)
        return RVector(kind, out)
    return RVector(kind, [_elem_to(kind, x) for x in v.data])


def as_vector(value: Any) -> RVector:
    if isinstance(value, RVector):
        return value
    if isinstance(value, RNull):
        raise RError("invalid NULL operand")
    raise RError("non-vector operand of type %r" % (value,))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

#: binary arithmetic operator names, shared with the bytecode compiler.
ARITH_OPS = ("+", "-", "*", "/", "^", "%%", "%/%")
COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGIC_OPS = ("&", "|")


def _r_mod(a, b):
    if b == 0:
        if isinstance(a, int) and isinstance(b, int):
            return None  # NA in R for integer %% 0
        return float("nan")
    return a - math.floor(a / b) * b if not isinstance(a, complex) else None


def _r_idiv(a, b):
    if b == 0:
        if isinstance(a, int) and isinstance(b, int):
            return None
        return math.inf if a > 0 else (-math.inf if a < 0 else float("nan"))
    return math.floor(a / b)


def _scalar_arith(op: str, a, b):
    """Arithmetic on two non-NA Python scalars of matching numeric type."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if isinstance(a, complex) or isinstance(b, complex):
            if b == 0:
                raise RError("complex division by zero")
            return a / b
        if b == 0:
            if a == 0:
                return float("nan")
            return math.inf if a > 0 else -math.inf
        return a / b
    if op == "^":
        if isinstance(a, complex) or isinstance(b, complex):
            return a ** b
        if a == 0 and b < 0:
            return math.inf
        try:
            r = a ** b
        except OverflowError:
            return math.inf
        if isinstance(r, complex):
            return float("nan")
        return r
    if op == "%%":
        return _r_mod(a, b)
    if op == "%/%":
        return _r_idiv(a, b)
    raise RError("unknown arithmetic operator %s" % op)


def _result_kind(op: str, ka: Kind, kb: Kind) -> Kind:
    k = kind_lub(ka, kb)
    if k == Kind.LGL:
        k = Kind.INT  # logicals coerce to integer under arithmetic
    if op == "/" or op == "^":
        if k in (Kind.LGL, Kind.INT):
            k = Kind.DBL  # division and power are floating point in R
    if op in ("%%", "%/%") and k == Kind.CPLX:
        raise RError("unimplemented complex operation")
    return k


# the enum members the scalar fast returns test, as plain module globals
_LGL = Kind.LGL
_INT = Kind.INT
_DBL = Kind.DBL
_LIST = Kind.LIST


def arith(op: str, lhs: Any, rhs: Any) -> RVector:
    """Full generic vector arithmetic with coercion, recycling and NA.

    Two non-NA scalars of one kind whose result keeps that kind (double
    under every operator, integer under all but ``/`` and ``^``) return
    first: the general path below would coerce nothing, loop once over the
    same :func:`_scalar_arith` and allocate the same single result.
    """
    if lhs.__class__ is RVector and rhs.__class__ is RVector:
        kind = lhs.kind
        if kind is rhs.kind and (
            kind is _DBL or (kind is _INT and op != "/" and op != "^")
        ):
            da, db = lhs.data, rhs.data
            if len(da) == 1 and len(db) == 1:
                x, y = da[0], db[0]
                if x is not None and y is not None:
                    return RVector(kind, [_scalar_arith(op, x, y)])
    a = as_vector(lhs)
    b = as_vector(rhs)
    if not a.kind.is_numeric or not b.kind.is_numeric:
        raise RError("non-numeric argument to binary operator")
    kind = _result_kind(op, a.kind, b.kind)
    a = coerce_vector(a, kind)
    b = coerce_vector(b, kind)
    la, lb = len(a.data), len(b.data)
    if la == 0 or lb == 0:
        return RVector(kind, [])
    n = max(la, lb)
    if max(la, lb) % min(la, lb) != 0:
        # R warns here; we allow it silently but still recycle.
        pass
    da, db = a.data, b.data
    out: List[Any] = [None] * n
    if la == lb:
        for i in range(n):
            x, y = da[i], db[i]
            out[i] = None if x is None or y is None else _scalar_arith(op, x, y)
    else:
        for i in range(n):
            x, y = da[i % la], db[i % lb]
            out[i] = None if x is None or y is None else _scalar_arith(op, x, y)
    return RVector(kind, out)


def unary(op: str, operand: Any) -> RVector:
    v = as_vector(operand)
    if op == "-":
        if not v.kind.is_numeric:
            raise RError("invalid argument to unary operator")
        kind = Kind.INT if v.kind == Kind.LGL else v.kind
        v = coerce_vector(v, kind)
        return RVector(kind, [None if x is None else -x for x in v.data])
    if op == "+":
        if not v.kind.is_numeric:
            raise RError("invalid argument to unary operator")
        kind = Kind.INT if v.kind == Kind.LGL else v.kind
        return coerce_vector(v, kind)
    if op == "!":
        if v.kind == Kind.STR or v.kind == Kind.LIST:
            raise RError("invalid argument type")
        return RVector(Kind.LGL, [None if x is None else not bool(x) for x in v.data])
    raise RError("unknown unary operator %s" % op)


# ---------------------------------------------------------------------------
# Comparison and logic
# ---------------------------------------------------------------------------

_COMPARE_FNS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compare(op: str, lhs: Any, rhs: Any) -> RVector:
    """Generic vector comparison with coercion, recycling and NA; two
    non-NA integer or double scalars of one kind return first, as in
    :func:`arith`."""
    if lhs.__class__ is RVector and rhs.__class__ is RVector:
        kind = lhs.kind
        if kind is rhs.kind and (kind is _DBL or kind is _INT):
            da, db = lhs.data, rhs.data
            if len(da) == 1 and len(db) == 1:
                x, y = da[0], db[0]
                if x is not None and y is not None:
                    return RVector(_LGL, [_COMPARE_FNS[op](x, y)])
    a = as_vector(lhs)
    b = as_vector(rhs)
    kind = kind_lub(a.kind, b.kind)
    if kind == Kind.LIST:
        raise RError("comparison of these types is not implemented")
    if kind == Kind.CPLX and op not in ("==", "!="):
        raise RError("invalid comparison with complex values")
    a = coerce_vector(a, kind)
    b = coerce_vector(b, kind)
    la, lb = len(a.data), len(b.data)
    if la == 0 or lb == 0:
        return RVector(Kind.LGL, [])
    n = max(la, lb)
    out: List[Optional[bool]] = [None] * n
    f = _COMPARE_FNS[op]
    da, db = a.data, b.data
    for i in range(n):
        x, y = da[i % la], db[i % lb]
        out[i] = None if x is None or y is None else f(x, y)
    return RVector(Kind.LGL, out)


def logic(op: str, lhs: Any, rhs: Any) -> RVector:
    """Vectorized ``&`` / ``|`` (the scalar short-circuit forms are compiled
    to branches instead)."""
    a = coerce_vector(as_vector(lhs), Kind.LGL)
    b = coerce_vector(as_vector(rhs), Kind.LGL)
    la, lb = len(a.data), len(b.data)
    if la == 0 or lb == 0:
        return RVector(Kind.LGL, [])
    n = max(la, lb)
    out: List[Optional[bool]] = [None] * n
    for i in range(n):
        x, y = a.data[i % la], b.data[i % lb]
        if op == "&":
            if x is False or y is False:
                out[i] = False
            elif x is None or y is None:
                out[i] = None
            else:
                out[i] = x and y
        else:
            if x is True or y is True:
                out[i] = True
            elif x is None or y is None:
                out[i] = None
            else:
                out[i] = x or y
    return RVector(Kind.LGL, out)


# ---------------------------------------------------------------------------
# Sequences and combination
# ---------------------------------------------------------------------------

def colon(lhs: Any, rhs: Any) -> RVector:
    """``a:b`` — an integer sequence when both ends are integral."""
    a = as_vector(lhs)
    b = as_vector(rhs)
    if not a.data or not b.data:
        raise RError("argument of length 0 in ':'")
    x, y = a.data[0], b.data[0]
    if x is None or y is None:
        raise RError("NA argument in ':'")
    if isinstance(x, complex) or isinstance(y, complex):
        raise RError("complex argument in ':'")
    integral = (a.kind in (Kind.INT, Kind.LGL) or float(x).is_integer()) and (
        b.kind in (Kind.INT, Kind.LGL) or float(y).is_integer()
    )
    if integral:
        xi, yi = int(x), int(y)
        if xi <= yi:
            return RVector(Kind.INT, list(range(xi, yi + 1)))
        return RVector(Kind.INT, list(range(xi, yi - 1, -1)))
    xf, yf = float(x), float(y)
    out: List[Any] = []
    if xf <= yf:
        while xf <= yf + 1e-10:
            out.append(xf)
            xf += 1.0
    else:
        while xf >= yf - 1e-10:
            out.append(xf)
            xf -= 1.0
    return RVector(Kind.DBL, out)


def combine(args: List[Any]) -> Any:
    """``c(...)`` — flatten one level, coerce to the common kind.

    ``c()`` with no (or all-NULL) arguments returns ``NULL``, which matters
    for the paper's colsum benchmark (``res <- c()``)."""
    kind = Kind.NULL
    items: List[RVector] = []
    for a in args:
        if isinstance(a, RNull):
            continue
        if isinstance(a, RVector):
            items.append(a)
            kind = kind_lub(kind, a.kind)
        else:
            items.append(RVector(Kind.LIST, [a]))
            kind = Kind.LIST
    if not items:
        return NULL
    out: List[Any] = []
    for v in items:
        out.extend(coerce_vector(v, kind).data)
    return RVector(kind, out)


# ---------------------------------------------------------------------------
# Subscripts
# ---------------------------------------------------------------------------

def _index_scalar(idx: Any) -> int:
    """1-based positive scalar subscript for ``[[``."""
    iv = as_vector(idx)
    if len(iv.data) != 1:
        raise RError("subscript out of bounds (length != 1 in [[)")
    i = iv.data[0]
    if i is None:
        raise RError("subscript out of bounds (NA)")
    if isinstance(i, bool):
        i = int(i)
    if isinstance(i, float):
        i = int(i)
    if isinstance(i, complex):
        raise RError("invalid subscript type 'complex'")
    if isinstance(i, str):
        raise RError("string subscripts are not supported")
    if i < 1:
        raise RError("subscript out of bounds")
    return i


def extract2(value: Any, idx: Any) -> Any:
    """``x[[i]]`` — extract a single element.  An in-bounds integer or
    double scalar subscript returns first; every other subscript gets its
    conversion or error from :func:`_index_scalar` below."""
    if value.__class__ is RVector and idx.__class__ is RVector:
        data = idx.data
        if len(data) == 1:
            i = data[0]
            if i.__class__ is float:
                i = int(i)  # truncates, and raises on nan/inf, as _index_scalar
            if i.__class__ is int:
                data = value.data
                if 0 < i <= len(data):
                    el = data[i - 1]
                    if value.kind == _LIST:
                        return el
                    return RVector(value.kind, [el])
    v = as_vector(value)
    i = _index_scalar(idx)
    if i > len(v.data):
        raise RError("subscript out of bounds")
    el = v.data[i - 1]
    if v.kind == Kind.LIST:
        return el
    return RVector(v.kind, [el])


def extract1(value: Any, idx: Any) -> Any:
    """``x[i]`` — subset; supports positive/logical/negative index vectors."""
    v = as_vector(value)
    iv = as_vector(idx)
    n = len(v.data)
    if iv.kind == Kind.LGL:
        picked = [i for i in range(n) if iv.data and iv.data[i % len(iv.data)]]
        return RVector(v.kind, [v.data[i] for i in picked])
    iv = coerce_vector(iv, Kind.INT)
    if iv.data and all(x is not None and x < 0 for x in iv.data):
        drop = {-x for x in iv.data}
        return RVector(v.kind, [v.data[i] for i in range(n) if (i + 1) not in drop])
    out = []
    for i in iv.data:
        if i is None or i < 1 or i > n:
            out.append(None)
        elif i >= 1:
            out.append(v.data[i - 1])
    return RVector(v.kind, out)


def _na_for(kind: Kind) -> Any:
    return NULL if kind == Kind.LIST else None


def assign2(value: Any, idx: Any, item: Any) -> RVector:
    """``x[[i]] <- item`` — returns the (possibly grown/retyped) new vector.

    Copy-on-write value semantics: we always produce a fresh vector, as R
    conceptually does.  Assigning into ``NULL`` creates a fresh vector of
    the item's kind (this is what makes ``res <- c(); res[[i]] <- ...`` in
    the paper's colsum benchmark work)."""
    i = _index_scalar(idx)
    if isinstance(value, RNull):
        base = RVector(Kind.NULL, [])
    else:
        base = as_vector(value)

    if isinstance(item, RVector) and item.kind != Kind.LIST:
        item_kind = item.kind
        if len(item.data) != 1:
            if base.kind == Kind.LIST:
                item_kind = Kind.LIST
            else:
                raise RError("more elements supplied than there are to replace")
    else:
        item_kind = Kind.LIST

    kind = kind_lub(base.kind if base.kind != Kind.NULL else Kind.NULL, item_kind)
    if kind == Kind.NULL:
        kind = item_kind
    new = coerce_vector(RVector(base.kind, list(base.data)), kind) if base.kind not in (kind, Kind.NULL) else RVector(kind, list(base.data))
    while len(new.data) < i:
        new.data.append(_na_for(kind))
    if kind == Kind.LIST:
        new.data[i - 1] = item
    else:
        el = item.data[0]
        new.data[i - 1] = _elem_to(kind, el)
    return new


def assign1(value: Any, idx: Any, item: Any) -> RVector:
    """``x[i] <- item`` with a positive integer index vector (subset assign)."""
    if isinstance(value, RNull):
        base = RVector(Kind.NULL, [])
    else:
        base = as_vector(value)
    iv = coerce_vector(as_vector(idx), Kind.INT)
    item_v = as_vector(item)
    kind = kind_lub(base.kind if base.kind != Kind.NULL else item_v.kind, item_v.kind)
    new = coerce_vector(RVector(base.kind, list(base.data)), kind) if base.kind not in (kind, Kind.NULL) else RVector(kind, list(base.data))
    item_c = coerce_vector(item_v, kind)
    if not iv.data:
        return new
    li = len(item_c.data)
    if li == 0:
        raise RError("replacement has length zero")
    for j, i in enumerate(iv.data):
        if i is None or i < 1:
            raise RError("invalid subscript in [<-")
        while len(new.data) < i:
            new.data.append(_na_for(kind))
        new.data[i - 1] = item_c.data[j % li]
    return new
