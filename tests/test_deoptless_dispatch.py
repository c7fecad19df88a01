"""Tests for the deoptless dispatch table (bounded, sorted most-specific
first)."""

from repro.deoptless.context import DeoptContext, ReasonPayload
from repro.deoptless.dispatch import DispatchTable
from repro.osr.framestate import DeoptReasonKind
from repro.runtime.rtypes import Kind, scalar, vector


class FakeCode:
    def __init__(self, tag):
        self.tag = tag
        self.size = 10

    def __repr__(self):
        return "<code %s>" % self.tag


def ctx(kind, scalar_=False, pc=10):
    t = scalar(kind) if scalar_ else vector(kind)
    return DeoptContext(
        pc,
        ReasonPayload(DeoptReasonKind.TYPECHECK, t, None),
        (),
        (("x", t),),
    )


def test_insert_and_exact_dispatch():
    t = DispatchTable(5)
    code = FakeCode("dbl")
    assert t.insert(ctx(Kind.DBL), code)
    assert t.dispatch(ctx(Kind.DBL)) is code


def test_dispatch_finds_wider_context():
    t = DispatchTable(5)
    code = FakeCode("dbl-vec")
    t.insert(ctx(Kind.DBL), code)
    # a scalar-double state may enter the vector-double continuation
    assert t.dispatch(ctx(Kind.DBL, scalar_=True)) is code


def test_dispatch_misses_on_incompatible():
    t = DispatchTable(5)
    t.insert(ctx(Kind.DBL), FakeCode("dbl"))
    assert t.dispatch(ctx(Kind.STR)) is None
    assert t.dispatch(ctx(Kind.DBL, pc=99)) is None


def test_dispatch_prefers_most_specific_match():
    """With both a double and a complex continuation present, a double state
    must reach the double one (the linearization orders tighter contexts
    first)."""
    t = DispatchTable(5)
    dbl = FakeCode("dbl")
    cplx = FakeCode("cplx")
    t.insert(ctx(Kind.CPLX), cplx)
    t.insert(ctx(Kind.DBL), dbl)
    assert t.dispatch(ctx(Kind.DBL)) is dbl
    assert t.dispatch(ctx(Kind.CPLX)) is cplx
    # an int state is below both; it must hit the tightest (dbl)
    assert t.dispatch(ctx(Kind.INT)) is dbl


def test_table_bound_rejects_insert():
    """Paper: "only allow up to 5 continuations in the dispatch table";
    beyond the bound deoptless falls back to real deoptimization."""
    t = DispatchTable(2)
    assert t.insert(ctx(Kind.INT), FakeCode("a"))
    assert t.insert(ctx(Kind.DBL), FakeCode("b"))
    assert t.full
    assert not t.insert(ctx(Kind.STR), FakeCode("c"))
    assert len(t) == 2


def test_reinsert_same_context_replaces():
    t = DispatchTable(2)
    old, new = FakeCode("old"), FakeCode("new")
    t.insert(ctx(Kind.INT), old)
    t.insert(ctx(Kind.INT), new)
    assert len(t) == 1
    assert t.dispatch(ctx(Kind.INT)) is new


def test_remove_by_code():
    t = DispatchTable(5)
    code = FakeCode("x")
    t.insert(ctx(Kind.INT), code)
    t.remove(code)
    assert t.dispatch(ctx(Kind.INT)) is None


def test_total_code_size():
    t = DispatchTable(5)
    t.insert(ctx(Kind.INT), FakeCode("a"))
    t.insert(ctx(Kind.DBL), FakeCode("b"))
    assert t.total_code_size() == 20
