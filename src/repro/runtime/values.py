"""Runtime value representations for mini-R.

Everything the interpreter touches is one of the classes defined here:

* :class:`RNull` — the ``NULL`` value (a singleton, :data:`NULL`).
* :class:`RVector` — the workhorse: a homogeneous vector of one of the
  lattice kinds.  Scalars are vectors of length one, exactly as in R.
  Missing values (``NA``) are represented by ``None`` entries in ``data``.
* :class:`RClosure` — user function: formals, compiled body, defining env.
* :class:`RBuiltin` — primitive implemented in Python.
* :class:`RPromise` — a lazily evaluated argument (call-by-need).

The representation is deliberately boxed and generic: this is the *slow
tier*.  The optimizing tier unboxes scalars out of these objects into raw
registers and only re-boxes at environment/vector boundaries, which is what
produces the optimized/baseline performance gap the paper's evaluation
measures.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from .rtypes import ANY, Kind, RType, intern_rtype


_STR = Kind.STR  # a global load; ``Kind.STR`` is a metaclass lookup before 3.12


class RError(Exception):
    """An R-level error (``stop(...)``, type errors, bad subscripts...)."""


class RNull:
    """The NULL value. Use the :data:`NULL` singleton."""

    __slots__ = ()
    _instance: Optional["RNull"] = None

    def __new__(cls) -> "RNull":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"


NULL = RNull()


class RVector:
    """A homogeneous R vector.

    ``kind`` is one of the vector kinds of :class:`~repro.runtime.rtypes.Kind`
    and ``data`` a Python list whose elements are:

    ========  ==========================================
    kind      element representation
    ========  ==========================================
    LGL       ``bool`` (or ``None`` for NA)
    INT       ``int`` (or ``None``)
    DBL       ``float`` (or ``None``)
    CPLX      ``complex`` (or ``None``)
    STR       ``str`` (or ``None``)
    LIST      any runtime value
    ========  ==========================================
    """

    __slots__ = ("kind", "data", "named")

    #: Global allocation counter, read by the VM telemetry for the paper's
    #: memory-usage experiment (section 5.1).
    allocations = 0

    def __init__(self, kind: Kind, data: List[Any]):
        self.kind = kind
        self.data = data
        #: NAMED-style sharedness counter (0 fresh, 1 bound once, 2 shared),
        #: the same mechanism GNU R uses to allow in-place subscript updates.
        self.named = 0
        RVector.allocations += 1

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def logical(values: Sequence[Optional[bool]]) -> "RVector":
        return RVector(Kind.LGL, list(values))

    @staticmethod
    def integer(values: Sequence[Optional[int]]) -> "RVector":
        return RVector(Kind.INT, list(values))

    @staticmethod
    def double(values: Sequence[Optional[float]]) -> "RVector":
        return RVector(Kind.DBL, list(values))

    @staticmethod
    def cplx(values: Sequence[Optional[complex]]) -> "RVector":
        return RVector(Kind.CPLX, list(values))

    @staticmethod
    def string(values: Sequence[Optional[str]]) -> "RVector":
        return RVector(Kind.STR, list(values))

    @staticmethod
    def rlist(values: Sequence[Any]) -> "RVector":
        return RVector(Kind.LIST, list(values))

    # -- predicates ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    @property
    def is_scalar(self) -> bool:
        return len(self.data) == 1

    def has_na(self) -> bool:
        if self.kind == Kind.LIST:
            return False
        return any(x is None for x in self.data)

    def rtype(self) -> RType:
        """The most precise :class:`RType` describing this value right now."""
        return RType(self.kind, scalar=self.is_scalar, maybe_na=self.has_na())

    # -- scalar access ----------------------------------------------------------

    def scalar_value(self) -> Any:
        if len(self.data) != 1:
            raise RError("expected a scalar, got length %d" % len(self.data))
        return self.data[0]

    def first_or_na(self) -> Any:
        return self.data[0] if self.data else None

    def is_true(self) -> bool:
        """Truthiness for ``if``/``while`` conditions, with R's error cases."""
        if not self.data:
            raise RError("argument is of length zero")
        v = self.data[0]
        if v is None:
            raise RError("missing value where TRUE/FALSE needed")
        if self.kind == _STR:
            if v == "TRUE":
                return True
            if v == "FALSE":
                return False
            raise RError("argument is not interpretable as logical")
        return bool(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = ", ".join("NA" if x is None else repr(x) for x in self.data[:8])
        if len(self.data) > 8:
            shown += ", ..."
        return "%s[%s]" % (self.kind.name.lower(), shown)


class RClosure:
    """A user-defined function.

    ``formals`` is a list of ``(name, default_code_or_None)`` pairs; ``code``
    the compiled body (a :class:`~repro.bytecode.compiler.CodeObject`);
    ``env`` the defining environment (lexical scoping).  The ``jit`` slot is
    filled in lazily by the VM with per-closure compilation state (call
    counts, the optimized version, the deoptless dispatch table).
    """

    __slots__ = ("formals", "code", "env", "name", "jit")

    def __init__(self, formals, code, env, name="<anonymous>"):
        self.formals = formals
        self.code = code
        self.env = env
        self.name = name
        self.jit = None

    def rtype(self) -> RType:
        return RType(Kind.CLO, scalar=True, maybe_na=False)

    def __repr__(self) -> str:  # pragma: no cover
        return "<closure %s>" % self.name


class RBuiltin:
    """A primitive function implemented in Python.

    ``fn`` receives ``(args, vm)`` where ``args`` is a list of already-forced
    runtime values.  ``strict`` builtins force their arguments eagerly (all
    of ours do).  ``pure`` marks builtins the optimizer may constant-fold or
    reorder.
    """

    __slots__ = ("name", "fn", "arity", "pure")

    def __init__(self, name: str, fn: Callable, arity: Optional[int] = None, pure: bool = False):
        self.name = name
        self.fn = fn
        self.arity = arity
        self.pure = pure

    def rtype(self) -> RType:
        return RType(Kind.BUILTIN, scalar=True, maybe_na=False)

    def __repr__(self) -> str:  # pragma: no cover
        return "<builtin %s>" % self.name


class RPromise:
    """A lazily evaluated argument (R's call-by-need semantics).

    Holds the compiled argument expression and the caller's environment;
    :meth:`force` evaluates at most once and caches.  The optimizer elides
    promise allocation when it can prove the argument expression trivial,
    and defers it into deoptimization branches otherwise, as the paper
    describes for Ř (section 4.1).
    """

    __slots__ = ("code", "env", "value", "forced")

    def __init__(self, code, env):
        self.code = code
        self.env = env
        self.value = None
        self.forced = False

    @staticmethod
    def forced_with(value) -> "RPromise":
        p = RPromise.__new__(RPromise)
        p.code = None
        p.env = None
        p.value = value
        p.forced = True
        return p

    def rtype(self) -> RType:
        return RType(Kind.ANY)

    def __repr__(self) -> str:  # pragma: no cover
        return "<promise forced=%s>" % self.forced


#: interned :class:`RType` per :class:`Kind` for the three shapes
#: :func:`rtype_quick` distinguishes — a vector of any other length, a
#: non-NA scalar and an NA scalar.  Indexed by kind; feedback recording
#: reads them directly so that a profile record costs no call.
QUICK_VECTOR = tuple(intern_rtype(k, False, False) for k in Kind)
QUICK_SCALAR = tuple(intern_rtype(k, True, False) for k in Kind)
QUICK_NA_SCALAR = tuple(intern_rtype(k, True, True) for k in Kind)

_NULL_T = RType(Kind.NULL, scalar=False, maybe_na=False)
_CLO_T = RType(Kind.CLO, scalar=True, maybe_na=False)
_BUILTIN_T = RType(Kind.BUILTIN, scalar=True, maybe_na=False)
_ENV_T = RType(Kind.ENV, scalar=True, maybe_na=False)


def rtype_quick(value: Any) -> RType:
    """An O(1) runtime type: like :func:`rtype_of` but NA presence is only
    inspected for scalars (scanning long vectors on every profile record
    would make the baseline tier quadratic).  Vector NA-ness is therefore
    under-approximated; the optimizer compensates with per-element NA checks
    in its typed vector loads."""
    if isinstance(value, RVector):
        data = value.data
        if len(data) != 1:
            return QUICK_VECTOR[value.kind]
        if data[0] is None:
            return QUICK_NA_SCALAR[value.kind]
        return QUICK_SCALAR[value.kind]
    return rtype_of(value)


def rtype_of(value: Any) -> RType:
    """The precise runtime type of any runtime value."""
    if isinstance(value, RVector):
        return value.rtype()
    if isinstance(value, RNull):
        return _NULL_T
    if isinstance(value, RClosure):
        return _CLO_T
    if isinstance(value, RBuiltin):
        return _BUILTIN_T
    from .env import REnvironment

    if isinstance(value, REnvironment):
        return _ENV_T
    return ANY


# -- convenient scalar constructors used pervasively ---------------------------

def mk_lgl(x: Optional[bool]) -> RVector:
    return RVector(Kind.LGL, [x])


def mk_int(x: Optional[int]) -> RVector:
    return RVector(Kind.INT, [x])


def mk_dbl(x: Optional[float]) -> RVector:
    return RVector(Kind.DBL, [x])


def mk_cplx(x: Optional[complex]) -> RVector:
    return RVector(Kind.CPLX, [x])


def mk_str(x: Optional[str]) -> RVector:
    return RVector(Kind.STR, [x])
