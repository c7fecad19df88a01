"""Tests for deoptless optimization contexts (paper Listing 7): the partial
order, its hypothesis-checked lattice properties, and computeCtx bounds."""

import pytest
from hypothesis import given, strategies as st

from repro.deoptless.context import DeoptContext, ReasonPayload, compute_context
from repro.jit.config import Config
from repro.osr.framestate import DeoptReason, DeoptReasonKind, FrameState
from repro.runtime.rtypes import ANY, Kind, RType, scalar, vector
from repro.runtime.values import RVector, mk_dbl, mk_int


def payload(kind=DeoptReasonKind.TYPECHECK, t=None, ident=None):
    return ReasonPayload(kind, t, ident)


def ctx(pc=10, reason=None, stack=(), env=()):
    return DeoptContext(pc, reason or payload(t=scalar(Kind.DBL)), tuple(stack), tuple(env))


class FakeCode:
    name = "f"


# -- comparability rules (paper section 3.1) -----------------------------------------

def test_different_pc_incomparable():
    assert not (ctx(pc=1) <= ctx(pc=2))


def test_different_reason_kind_incomparable():
    a = ctx(reason=payload(DeoptReasonKind.TYPECHECK, scalar(Kind.DBL)))
    b = ctx(reason=payload(DeoptReasonKind.CALL_TARGET, None, object()))
    assert not (a <= b) and not (b <= a)


def test_different_env_names_incomparable():
    a = ctx(env=(("x", scalar(Kind.INT)),))
    b = ctx(env=(("y", scalar(Kind.INT)),))
    assert not (a <= b)


def test_extra_local_variable_incomparable():
    """Paper: "if there is an additional local variable that does not exist
    in the continuation context" the contexts are incomparable."""
    a = ctx(env=(("x", scalar(Kind.INT)), ("y", scalar(Kind.INT))))
    b = ctx(env=(("x", scalar(Kind.INT)),))
    assert not (a <= b) and not (b <= a)


def test_different_stack_shape_incomparable():
    a = ctx(stack=(scalar(Kind.INT),))
    b = ctx(stack=())
    assert not (a <= b)


# -- the subtype ordering --------------------------------------------------------------

def test_scalar_state_enters_vector_context():
    """Paper: a continuation compiled for a float vector is compatible when
    a float scalar is observed, "as in R scalars are just vectors of length
    one"."""
    a = ctx(reason=payload(t=scalar(Kind.DBL)), env=(("v", scalar(Kind.DBL)),))
    b = ctx(reason=payload(t=vector(Kind.DBL)), env=(("v", vector(Kind.DBL)),))
    assert a <= b
    assert not (b <= a)


def test_int_state_enters_number_context():
    """Paper: a continuation compiled for "a number" can be called when the
    variable holds an integer or a float."""
    number = ctx(env=(("sum", vector(Kind.DBL)),))
    as_int = ctx(env=(("sum", scalar(Kind.INT)),))
    as_dbl = ctx(env=(("sum", scalar(Kind.DBL)),))
    assert as_int <= number and as_dbl <= number


def test_call_target_reason_requires_identity():
    f1, f2 = object(), object()
    a = ctx(reason=payload(DeoptReasonKind.CALL_TARGET, None, f1))
    b = ctx(reason=payload(DeoptReasonKind.CALL_TARGET, None, f1))
    c = ctx(reason=payload(DeoptReasonKind.CALL_TARGET, None, f2))
    assert a <= b
    assert not (a <= c)


def test_reason_type_ordering():
    narrow = ctx(reason=payload(t=scalar(Kind.INT)))
    wide = ctx(reason=payload(t=vector(Kind.DBL)))
    assert narrow <= wide


def test_specificity_prefers_precise_kinds():
    dbl_ctx = ctx(env=(("x", vector(Kind.DBL)),))
    cplx_ctx = ctx(env=(("x", vector(Kind.CPLX)),))
    assert dbl_ctx.specificity() > cplx_ctx.specificity()
    any_ctx = ctx(env=(("x", ANY),))
    assert cplx_ctx.specificity() > any_ctx.specificity()


# -- hypothesis: the context relation is a partial order --------------------------------

kinds = st.sampled_from([Kind.LGL, Kind.INT, Kind.DBL, Kind.CPLX, Kind.STR, Kind.ANY])
rtypes = st.builds(RType, kinds, st.booleans(), st.booleans())


def ctx_from_types(types):
    env = tuple(("v%d" % i, t) for i, t in enumerate(types))
    return ctx(env=env)


type_lists = st.lists(rtypes, min_size=0, max_size=3)


@given(type_lists)
def test_ctx_reflexive(ts):
    c = ctx_from_types(ts)
    assert c <= c


@given(type_lists, type_lists, type_lists)
def test_ctx_transitive(a, b, c):
    if len(a) == len(b) == len(c):
        ca, cb, cc = ctx_from_types(a), ctx_from_types(b), ctx_from_types(c)
        if ca <= cb and cb <= cc:
            assert ca <= cc


@given(type_lists, type_lists)
def test_ctx_antisymmetric(a, b):
    if len(a) == len(b):
        ca, cb = ctx_from_types(a), ctx_from_types(b)
        if ca <= cb and cb <= ca:
            assert ca == cb


@given(type_lists, type_lists)
def test_ctx_le_implies_specificity_ge(a, b):
    """The linearization is consistent: a more specific context never sorts
    after a strictly more generic comparable one."""
    if len(a) == len(b):
        ca, cb = ctx_from_types(a), ctx_from_types(b)
        if ca <= cb and ca != cb:
            assert ca.specificity() >= cb.specificity()


# -- computeCtx -----------------------------------------------------------------------------

def fs_with(env_values, stack=()):
    return FrameState(FakeCode(), 5, dict(env_values), list(stack), None)


def test_compute_context_basic():
    fs = fs_with({"a": mk_int(1), "b": mk_dbl(2.0)}, [mk_dbl(1.0)])
    reason = DeoptReason(DeoptReasonKind.TYPECHECK, 5, observed=scalar(Kind.DBL))
    c = compute_context(fs, reason, Config())
    assert c is not None
    assert c.pc == 5
    assert dict(c.env_types)["a"].kind == Kind.INT
    assert len(c.stack_types) == 1


def test_compute_context_env_sorted_by_name():
    fs = fs_with({"z": mk_int(1), "a": mk_int(2)})
    c = compute_context(fs, DeoptReason(DeoptReasonKind.TYPECHECK, 5), Config())
    assert [n for n, _ in c.env_types] == ["a", "z"]


def test_compute_context_stack_bound():
    """Paper: "we limit the maximum number of elements on the stack to 16
    ... (states with bigger contexts are skipped)"."""
    fs = fs_with({}, [mk_int(i) for i in range(17)])
    assert compute_context(fs, DeoptReason(DeoptReasonKind.TYPECHECK, 5), Config()) is None


def test_compute_context_env_bound():
    fs = fs_with({"v%d" % i: mk_int(i) for i in range(33)})
    assert compute_context(fs, DeoptReason(DeoptReasonKind.TYPECHECK, 5), Config()) is None


def test_compute_context_identity_reason():
    callee = object()
    fs = fs_with({"f": mk_int(1)})
    reason = DeoptReason(DeoptReasonKind.CALL_TARGET, 5, observed=callee)
    c = compute_context(fs, reason, Config())
    assert c.reason.observed_identity is callee
