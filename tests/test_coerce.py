"""Tests for the generic operation semantics (coercion, arithmetic,
recycling, NA propagation, subscripts) — the ground truth both tiers must
implement."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.runtime import coerce
from repro.runtime.rtypes import Kind
from repro.runtime.values import NULL, RError, RVector, mk_dbl, mk_int, mk_lgl


def dbl(*xs):
    return RVector.double(list(xs))


def ints(*xs):
    return RVector.integer(list(xs))


# -- arithmetic -----------------------------------------------------------------

def test_int_plus_int_is_int():
    r = coerce.arith("+", ints(1, 2), ints(3, 4))
    assert r.kind == Kind.INT and r.data == [4, 6]


def test_int_plus_dbl_promotes():
    r = coerce.arith("+", ints(1), dbl(0.5))
    assert r.kind == Kind.DBL and r.data == [1.5]


def test_logical_coerces_to_int_under_arith():
    r = coerce.arith("+", mk_lgl(True), mk_lgl(True))
    assert r.kind == Kind.INT and r.data == [2]


def test_division_always_double():
    r = coerce.arith("/", ints(7), ints(2))
    assert r.kind == Kind.DBL and r.data == [3.5]


def test_division_by_zero_gives_inf():
    assert coerce.arith("/", dbl(1.0), dbl(0.0)).data == [math.inf]
    assert coerce.arith("/", dbl(-1.0), dbl(0.0)).data == [-math.inf]
    assert math.isnan(coerce.arith("/", dbl(0.0), dbl(0.0)).data[0])


def test_integer_division_by_zero_is_na():
    assert coerce.arith("%%", ints(5), ints(0)).data == [None]
    assert coerce.arith("%/%", ints(5), ints(0)).data == [None]


def test_mod_follows_floor_semantics():
    assert coerce.arith("%%", ints(-7), ints(3)).data == [2]
    assert coerce.arith("%%", dbl(-7.0), dbl(3.0)).data == [2.0]


def test_integer_div_floor():
    assert coerce.arith("%/%", ints(-7), ints(2)).data == [-4]


def test_power_is_double():
    r = coerce.arith("^", ints(2), ints(10))
    assert r.kind == Kind.DBL and r.data == [1024.0]


def test_recycling_shorter_operand():
    r = coerce.arith("+", ints(1, 2, 3, 4), ints(10, 20))
    assert r.data == [11, 22, 13, 24]


def test_na_propagates_through_arith():
    r = coerce.arith("+", ints(1, None), ints(1, 1))
    assert r.data == [2, None]


def test_empty_operand_gives_empty_result():
    r = coerce.arith("+", RVector.integer([]), ints(1))
    assert r.data == []


def test_complex_arith():
    a = RVector.cplx([1 + 2j])
    b = RVector.cplx([3 - 1j])
    assert coerce.arith("*", a, b).data == [(1 + 2j) * (3 - 1j)]


def test_complex_mod_rejected():
    with pytest.raises(RError):
        coerce.arith("%%", RVector.cplx([1j]), RVector.cplx([1j]))


def test_string_arith_rejected():
    with pytest.raises(RError):
        coerce.arith("+", RVector.string(["a"]), ints(1))


def test_unary_minus():
    assert coerce.unary("-", ints(5)).data == [-5]
    assert coerce.unary("-", mk_lgl(True)).kind == Kind.INT


def test_unary_not():
    r = coerce.unary("!", RVector.logical([True, False, None]))
    assert r.data == [False, True, None]


# -- comparison -------------------------------------------------------------------

def test_compare_basic():
    r = coerce.compare("<", ints(1, 5), ints(3, 3))
    assert r.kind == Kind.LGL and r.data == [True, False]


def test_compare_mixed_kinds_coerces():
    assert coerce.compare("==", ints(1), dbl(1.0)).data == [True]


def test_compare_na():
    assert coerce.compare(">", ints(None), ints(1)).data == [None]


def test_compare_strings_lexicographic():
    a = RVector.string(["apple"])
    b = RVector.string(["banana"])
    assert coerce.compare("<", a, b).data == [True]


def test_complex_ordering_rejected():
    with pytest.raises(RError):
        coerce.compare("<", RVector.cplx([1j]), RVector.cplx([2j]))


def test_complex_equality_allowed():
    assert coerce.compare("==", RVector.cplx([1j]), RVector.cplx([1j])).data == [True]


# -- logic ---------------------------------------------------------------------------

def test_vector_and_or():
    a = RVector.logical([True, False, None])
    t = RVector.logical([True, True, True])
    f = RVector.logical([False, False, False])
    assert coerce.logic("&", a, t).data == [True, False, None]
    assert coerce.logic("&", a, f).data == [False, False, False]  # F & NA is F
    assert coerce.logic("|", a, t).data == [True, True, True]  # T | NA is T
    assert coerce.logic("|", a, f).data == [True, False, None]


# -- colon -----------------------------------------------------------------------------

def test_colon_ascending_descending():
    assert coerce.colon(ints(1), ints(4)).data == [1, 2, 3, 4]
    assert coerce.colon(ints(3), ints(1)).data == [3, 2, 1]


def test_colon_integral_doubles_give_int():
    r = coerce.colon(dbl(1.0), dbl(3.0))
    assert r.kind == Kind.INT


def test_colon_fractional_gives_double_steps():
    r = coerce.colon(dbl(1.5), dbl(4.0))
    assert r.kind == Kind.DBL and r.data == [1.5, 2.5, 3.5]


def test_colon_na_rejected():
    with pytest.raises(RError):
        coerce.colon(ints(None), ints(3))


# -- c() ---------------------------------------------------------------------------------

def test_combine_empty_is_null():
    assert coerce.combine([]) is NULL


def test_combine_coerces_to_common_kind():
    r = coerce.combine([ints(1), dbl(2.5)])
    assert r.kind == Kind.DBL and r.data == [1.0, 2.5]


def test_combine_flattens():
    r = coerce.combine([ints(1, 2), ints(3)])
    assert r.data == [1, 2, 3]


def test_combine_skips_null():
    r = coerce.combine([NULL, ints(1), NULL])
    assert r.data == [1]


def test_combine_with_string_goes_string():
    r = coerce.combine([ints(1), RVector.string(["a"])])
    assert r.kind == Kind.STR and r.data == ["1", "a"]


# -- subscripts -----------------------------------------------------------------------------

def test_extract2_element():
    assert coerce.extract2(ints(10, 20, 30), ints(2)).data == [20]


def test_extract2_out_of_bounds():
    with pytest.raises(RError):
        coerce.extract2(ints(1), ints(5))
    with pytest.raises(RError):
        coerce.extract2(ints(1), ints(0))


def test_extract2_from_list_returns_element():
    inner = ints(1, 2)
    lst = RVector.rlist([inner])
    assert coerce.extract2(lst, ints(1)) is inner


def test_extract1_positive_indices():
    r = coerce.extract1(ints(10, 20, 30), ints(3, 1))
    assert r.data == [30, 10]


def test_extract1_out_of_bounds_gives_na():
    assert coerce.extract1(ints(1), ints(2)).data == [None]


def test_extract1_negative_indices_drop():
    r = coerce.extract1(ints(10, 20, 30), ints(-2))
    assert r.data == [10, 30]


def test_extract1_logical_mask():
    r = coerce.extract1(ints(1, 2, 3, 4), RVector.logical([True, False, True, False]))
    assert r.data == [1, 3]


def test_assign2_basic():
    r = coerce.assign2(ints(1, 2, 3), ints(2), ints(99))
    assert r.data == [1, 99, 3]


def test_assign2_into_null_creates_vector():
    r = coerce.assign2(NULL, ints(1), dbl(5.0))
    assert r.kind == Kind.DBL and r.data == [5.0]


def test_assign2_grows_with_na_padding():
    r = coerce.assign2(ints(1), ints(4), ints(9))
    assert r.data == [1, None, None, 9]


def test_assign2_retypes_on_wider_value():
    r = coerce.assign2(ints(1, 2), ints(1), dbl(0.5))
    assert r.kind == Kind.DBL and r.data == [0.5, 2.0]


def test_assign2_copy_on_write():
    base = ints(1, 2, 3)
    r = coerce.assign2(base, ints(1), ints(9))
    assert base.data == [1, 2, 3] and r is not base


def test_assign1_multiple_positions():
    r = coerce.assign1(ints(1, 2, 3, 4), ints(1, 3), ints(9))
    assert r.data == [9, 2, 9, 4]


# -- property tests -------------------------------------------------------------------------

small_ints = st.lists(st.integers(-100, 100), min_size=1, max_size=6)


@given(small_ints, small_ints)
def test_addition_matches_python_with_recycling(a, b):
    r = coerce.arith("+", RVector.integer(list(a)), RVector.integer(list(b)))
    n = max(len(a), len(b))
    expected = [a[i % len(a)] + b[i % len(b)] for i in range(n)]
    assert r.data == expected


@given(small_ints)
def test_extract2_roundtrips_every_element(xs):
    v = RVector.integer(list(xs))
    for i in range(1, len(xs) + 1):
        assert coerce.extract2(v, RVector.integer([i])).data == [xs[i - 1]]


@given(small_ints, st.integers(1, 6), st.integers(-100, 100))
def test_assign2_then_extract2_reads_back(xs, idx, val):
    v = RVector.integer(list(xs))
    r = coerce.assign2(v, RVector.integer([idx]), RVector.integer([val]))
    assert coerce.extract2(r, RVector.integer([idx])).data == [val]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=5))
def test_combine_preserves_values(xs):
    parts = [RVector.double([x]) for x in xs]
    assert coerce.combine(parts).data == [float(x) for x in xs]


# -- the scalar fast returns are the general path -------------------------------------

#: one operand per case the fast returns must not get wrong: a plain value,
#: NA, a bool stored in an INT vector, zero, negative zero, inf and nan
SCALAR_OPERANDS = [
    (Kind.LGL, True), (Kind.LGL, False), (Kind.LGL, None),
    (Kind.INT, 3), (Kind.INT, -2), (Kind.INT, 0), (Kind.INT, None), (Kind.INT, True),
    (Kind.DBL, 2.5), (Kind.DBL, 2.0), (Kind.DBL, 0.0), (Kind.DBL, -0.0),
    (Kind.DBL, math.inf), (Kind.DBL, -math.inf), (Kind.DBL, math.nan), (Kind.DBL, None),
    (Kind.CPLX, 1 + 2j), (Kind.CPLX, 0j), (Kind.CPLX, None),
    (Kind.STR, "a"), (Kind.STR, "1"), (Kind.STR, None),
]


class _General(RVector):
    """An operand the ``__class__ is RVector`` entry test turns away, so the
    call takes the general path on the very same data."""


def _outcome(fn, *args):
    """(kind, repr of element 0) or the error raised, plus vectors allocated.
    ``repr`` keeps ``1``, ``1.0`` and ``True`` (and ``0.0``/``-0.0``) apart."""
    before = RVector.allocations
    try:
        r = fn(*args)
    except Exception as e:  # noqa: BLE001 - error identity is the point
        return (type(e).__name__, str(e)), RVector.allocations - before
    if not isinstance(r, RVector):
        return ("value", repr(r)), RVector.allocations - before
    return (r.kind, repr(r.data[0])), RVector.allocations - before


@pytest.mark.parametrize("fn,ops", [
    (coerce.arith, coerce.ARITH_OPS), (coerce.compare, coerce.COMPARE_OPS),
])
def test_scalar_operations_are_element_zero_of_the_vector_loop(fn, ops):
    """``op([x], [y])`` may take the fast return; ``op([x, x], [y, y])`` can
    only take the general loop.  Same kind, value and error for every
    operator and operand pair — and, against the general path forced on the
    scalars themselves, the same number of vectors allocated."""
    for op in ops:
        for ka, x in SCALAR_OPERANDS:
            for kb, y in SCALAR_OPERANDS:
                case = (op, ka.name, x, kb.name, y)
                got, got_allocs = _outcome(fn, op, RVector(ka, [x]), RVector(kb, [y]))
                want, _ = _outcome(fn, op, RVector(ka, [x, x]), RVector(kb, [y, y]))
                assert got == want, case
                forced, forced_allocs = _outcome(
                    fn, op, _General(ka, [x]), _General(kb, [y]))
                assert (got, got_allocs) == (forced, forced_allocs), case


def test_extract2_fast_return_is_the_general_path():
    """In and out of bounds, every subscript kind and every odd subscript
    value: the same element, kind, error and allocation count as the general
    path (forced by an index the entry test turns away)."""
    vectors = [
        RVector.integer([10, None, 30]), RVector.double([1.5, -0.0]),
        RVector.logical([True]), RVector.string(["a", "b"]),
        RVector.rlist([mk_int(1), NULL, RVector.double([1.0, 2.0])]),
        RVector.integer([]),
    ]
    subscripts = [(Kind.INT, i) for i in (1, 2, 3, 4, 0, -1)] + [
        (Kind.DBL, f) for f in (1.0, 2.9, 3.0, 3.5, 0.5, -1.0, math.nan, math.inf)
    ] + SCALAR_OPERANDS
    for v in vectors:
        for k, i in subscripts:
            got = _outcome(coerce.extract2, v, RVector(k, [i]))
            want = _outcome(coerce.extract2, v, _General(k, [i]))
            assert got == want, (v, k.name, i)
        # list elements come back as the stored object, not a copy
        if v.kind == Kind.LIST:
            assert coerce.extract2(v, mk_int(3)) is v.data[2]
    assert _outcome(coerce.extract2, NULL, mk_int(1)) == \
        _outcome(coerce.extract2, NULL, _General(Kind.INT, [1]))
    assert _outcome(coerce.extract2, vectors[0], RVector.integer([1, 2])) == \
        _outcome(coerce.extract2, vectors[0], _General(Kind.INT, [1, 2]))
