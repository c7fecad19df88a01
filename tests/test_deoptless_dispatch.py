"""Tests for the deoptless dispatch table (bounded, sorted most-specific
first), and a property pinning the one-list table to a brute-force scan."""

from hypothesis import given, settings, strategies as st

from repro.deoptless.context import CallContext, DeoptContext, ReasonPayload
from repro.deoptless.dispatch import ContextTable
from repro.osr.framestate import DeoptReasonKind
from repro.runtime.rtypes import ANY, Kind, scalar, vector


class FakeCode:
    def __init__(self, tag):
        self.tag = tag

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
    t = ContextTable(5)
    code = FakeCode("dbl")
    assert t.insert(ctx(Kind.DBL), code)
    assert t.dispatch(ctx(Kind.DBL)) is code


def test_dispatch_finds_wider_context():
    t = ContextTable(5)
    code = FakeCode("dbl-vec")
    t.insert(ctx(Kind.DBL), code)
    # a scalar-double state may enter the vector-double continuation
    assert t.dispatch(ctx(Kind.DBL, scalar_=True)) is code


def test_dispatch_misses_on_incompatible():
    t = ContextTable(5)
    t.insert(ctx(Kind.DBL), FakeCode("dbl"))
    assert t.dispatch(ctx(Kind.STR)) is None
    assert t.dispatch(ctx(Kind.DBL, pc=99)) is None


def test_dispatch_prefers_most_specific_match():
    """With both a double and a complex continuation present, a double state
    must reach the double one (the linearization orders tighter contexts
    first)."""
    t = ContextTable(5)
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
    t = ContextTable(2)
    assert t.insert(ctx(Kind.INT), FakeCode("a"))
    assert t.insert(ctx(Kind.DBL), FakeCode("b"))
    assert t.full
    assert not t.insert(ctx(Kind.STR), FakeCode("c"))
    assert len(t) == 2


def test_reinsert_same_context_replaces():
    t = ContextTable(2)
    old, new = FakeCode("old"), FakeCode("new")
    t.insert(ctx(Kind.INT), old)
    t.insert(ctx(Kind.INT), new)
    assert len(t) == 1
    assert t.dispatch(ctx(Kind.INT)) is new


def test_remove_by_code():
    t = ContextTable(5)
    code = FakeCode("x")
    t.insert(ctx(Kind.INT), code)
    t.remove(code)
    assert t.dispatch(ctx(Kind.INT)) is None


# -- the one-list table against a brute-force reference --------------------------

TYPES = (scalar(Kind.INT), vector(Kind.INT), scalar(Kind.DBL), vector(Kind.DBL),
         vector(Kind.CPLX), ANY)

deopt_contexts = st.builds(
    lambda pc, kind, observed, depth, t: DeoptContext(
        pc, ReasonPayload(kind, observed, None), (), (("x", t),), depth),
    st.sampled_from((10, 20)),
    st.sampled_from((DeoptReasonKind.TYPECHECK, DeoptReasonKind.NA_CHECK)),
    st.sampled_from((None,) + TYPES),
    st.integers(1, 2),
    st.sampled_from(TYPES),
)

call_contexts = st.lists(st.sampled_from(TYPES), min_size=1, max_size=2).flatmap(
    lambda ts: st.builds(
        lambda forced: CallContext(tuple(ts), tuple(forced)),
        st.lists(st.booleans(), min_size=len(ts), max_size=len(ts))))


class ReferenceTable:
    """Every live entry with its insertion number; a scan sorts them."""

    def __init__(self, max_entries):
        self.max_entries = max_entries
        self.rows = []
        self.seq = 0

    def insert(self, ctx, code):
        for row in self.rows:
            if row[0] == ctx:
                row[1] = code
                return True
        if len(self.rows) >= self.max_entries:
            return False
        self.rows.append([ctx, code, self.seq])
        self.seq += 1
        return True

    def remove(self, code):
        self.rows = [row for row in self.rows if row[1] is not code]

    def ordered(self):
        return sorted(self.rows, key=lambda row: (-row[0].specificity(), row[2]))

    def dispatch(self, ctx):
        return next((code for c, code, _ in self.ordered() if ctx <= c), None)

    def lookup_exact(self, ctx):
        return next((code for c, code, _ in self.rows if c == ctx), None)


@given(st.one_of(st.lists(deopt_contexts, min_size=1, max_size=8),
                 st.lists(call_contexts, min_size=1, max_size=8)),
       st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=24),
       st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_table_equals_brute_force_scan(pool, ops, max_entries):
    """Inserts (``True``) of pool contexts and removals (``False``) of
    earlier codes: after each, ``dispatch`` and ``lookup_exact`` of every
    pool context equal the first compatible entry in (-specificity,
    insertion) order, and the table lists its entries in that order."""
    table, ref, codes = ContextTable(max_entries), ReferenceTable(max_entries), []
    for is_insert, i in ops:
        if is_insert:
            code = FakeCode(len(codes))
            codes.append(code)
            ctx = pool[i % len(pool)]
            assert table.insert(ctx, code) == ref.insert(ctx, code)
        elif codes:
            code = codes[i % len(codes)]
            table.remove(code)
            ref.remove(code)
        assert table.entries == [(c, code) for c, code, _ in ref.ordered()]
        for ctx in pool:
            assert table.dispatch(ctx) is ref.dispatch(ctx)
            assert table.lookup_exact(ctx) is ref.lookup_exact(ctx)
