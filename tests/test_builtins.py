"""Tests for the builtin library (through the interpreter, the way users
reach them)."""

import math

import pytest
from hypothesis import given, strategies as st

from conftest import ev
from repro.runtime.builtins import install_builtins
from repro.runtime.env import REnvironment
from repro.runtime.rtypes import Kind
from repro.runtime.values import RError, RVector, rtype_of, rtype_quick


def test_c_combines():
    assert ev("c(1L, 2L, 3L)") == [1, 2, 3]


def test_c_empty_is_null():
    assert ev("c()") is None


def test_vector_constructor_modes():
    assert ev('vector("double", 3L)') == [0.0, 0.0, 0.0]
    assert ev('vector("integer", 2L)') == [0, 0]
    assert ev('vector("logical", 2L)') == [False, False]
    assert ev('length(vector("list", 4L))') == 4


def test_numeric_integer_logical_character():
    assert ev("numeric(2)") == [0.0, 0.0]
    assert ev("integer(1)") == 0
    assert ev("logical(2)") == [False, False]
    assert ev("character(2)") == ["", ""]


def test_complex_constructor():
    assert ev("complex(1.5, 2.0)") == 1.5 + 2j
    assert ev("complex(3L)") == [0j, 0j, 0j]


def test_rep():
    assert ev("rep(c(1L, 2L), 3L)") == [1, 2, 1, 2, 1, 2]


def test_seq_len():
    assert ev("seq_len(4L)") == [1, 2, 3, 4]
    assert ev("length(seq_len(0L))") == 0


def test_seq_from_to_by():
    assert ev("seq(1, 2, 0.5)") == [1.0, 1.5, 2.0]


def test_length():
    assert ev("length(c(1,2,3))") == 3
    assert ev("length(NULL)") == 0


def test_sum_prod_min_max():
    assert ev("sum(1L, 2L, 3L)") == 6
    assert ev("sum(c(1.5, 2.5))") == 4.0
    assert ev("prod(c(2, 3, 4))") == 24.0
    assert ev("min(c(3, 1, 2))") == 1.0
    assert ev("max(3L, 7L, 5L)") == 7


def test_sum_with_na_is_na():
    assert ev("sum(c(1L, NA))") is None


def test_mean():
    assert ev("mean(c(1, 2, 3))") == 2.0


def test_sqrt():
    assert ev("sqrt(9)") == 3.0
    assert math.isnan(ev("sqrt(-1)"))
    assert ev("sqrt(c(1, 4, 9))") == [1.0, 2.0, 3.0]


def test_sqrt_complex():
    assert ev("sqrt(complex(-1, 0))") == 1j


def test_abs():
    assert ev("abs(-3L)") == 3
    assert ev("abs(-2.5)") == 2.5
    assert ev("abs(complex(3, 4))") == 5.0


def test_exp_log():
    assert abs(ev("log(exp(1))") - 1.0) < 1e-12


def test_trig():
    assert abs(ev("sin(0)")) < 1e-12
    assert abs(ev("cos(0)") - 1.0) < 1e-12
    assert abs(ev("atan2(1, 1)") - math.pi / 4) < 1e-12


def test_floor_ceiling_round_trunc():
    assert ev("floor(2.7)") == 2.0
    assert ev("ceiling(2.1)") == 3.0
    assert ev("round(2.567, 1L)") == 2.6
    assert ev("trunc(-2.7)") == -2.0


def test_re_im_mod():
    assert ev("Re(complex(3, 4))") == 3.0
    assert ev("Im(complex(3, 4))") == 4.0
    assert ev("Mod(complex(3, 4))") == 5.0


def test_type_predicates():
    assert ev("is.integer(1L)") is True
    assert ev("is.double(1.5)") is True
    assert ev("is.complex(1i)") is True
    assert ev("is.character(\"x\")") is True
    assert ev("is.logical(TRUE)") is True
    assert ev("is.numeric(1L)") is True
    assert ev("is.numeric(1i)") is False
    assert ev("is.list(list(1))") is True
    assert ev("is.null(NULL)") is True
    assert ev("is.function(length)") is True


def test_is_na():
    assert ev("is.na(c(1L, NA, 3L))") == [False, True, False]


def test_as_coercions():
    assert ev("as.integer(2.9)") == 2
    assert ev("as.double(2L)") == 2.0
    assert ev("as.character(12L)") == "12"
    assert ev("as.logical(0)") is False
    assert ev("as.integer(\"42\")") == 42
    assert ev("as.complex(2)") == 2 + 0j


def test_nchar():
    assert ev('nchar("hello")') == 5


def test_paste0():
    assert ev('paste0("a", "b", "c")') == "abc"
    assert ev('paste0(c("x", "y"), 1:2)') == ["x1", "y2"]


def test_identical():
    assert ev("identical(c(1L,2L), c(1L,2L))") is True
    assert ev("identical(c(1L,2L), c(1L,3L))") is False
    assert ev("identical(1L, 1.0)") is False
    assert ev("identical(NULL, NULL)") is True
    assert ev("identical(list(1L), list(1L))") is True


def test_print_and_cat_capture_output(vm):
    vm.eval('print(42L)')
    vm.eval('cat("a", "b")')
    out = "".join(vm.output)
    assert "[1] 42" in out and "a b" in out


def test_stop_raises():
    with pytest.raises(RError, match="boom"):
        ev('stop("boom")')


def test_stopifnot():
    assert ev("stopifnot(TRUE, 1 < 2)") is None
    with pytest.raises(RError):
        ev("stopifnot(1 > 2)")


def test_invisible_passthrough():
    assert ev("invisible(7L)") == 7


def test_list_builtin():
    assert ev("length(list(1, 2, 3))") == 3
    assert ev("list(1L, 2.5)[[2]]") == 2.5


def test_shadowed_builtin_function_lookup():
    # `c <- 1` must not break calls to c(...): function lookup skips
    # non-function bindings, as in R
    assert ev("c <- 1\nc(c, 2)") == [1.0, 2.0]


# -- declared result types -------------------------------------------------------

_BASE = REnvironment()
install_builtins(_BASE)
RULED = sorted(n for n, b in _BASE.bindings.items() if b.result is not None)

#: magnitudes stay small: a drawn element may be the length of a vector
#: ``logical(n)`` allocates
_ELEMENTS = {
    Kind.LGL: st.booleans(),
    Kind.INT: st.integers(-1000, 1000),
    Kind.DBL: st.floats(-1e3, 1e3) | st.sampled_from([math.inf, -math.inf, math.nan]),
    Kind.CPLX: st.complex_numbers(max_magnitude=1e3),
}


@st.composite
def numeric_vectors(draw):
    """Every numeric kind, scalar or vector, with or without NA."""
    kind = draw(st.sampled_from(sorted(_ELEMENTS)))
    size = 1 if draw(st.booleans()) else draw(st.integers(0, 5))
    data = draw(st.lists(_ELEMENTS[kind], min_size=size, max_size=size))
    if data and draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = None
    return RVector(kind, data)


def test_the_declared_rules_are_the_documented_ones():
    assert RULED == sorted([
        "logical", "integer", "numeric", "double", "character", "list", "seq_len",
        "length", "sqrt", "exp", "log", "sin", "cos", "tan", "atan", "floor",
        "ceiling", "trunc", "abs",
    ])


@pytest.mark.parametrize("name", RULED)
@given(args=st.lists(numeric_vectors(), max_size=2))
def test_a_builtin_returns_what_it_declares(name, args):
    """The compiler assumes a declared result without a guard, so every call
    that returns must return a value of that type: under the profile's O(1)
    typing and under the precise one alike."""
    builtin = _BASE.get(name)
    try:
        result = builtin.fn(args, None)
    except (RError, ArithmeticError, ValueError):
        return
    for typing in (rtype_quick, rtype_of):
        declared = builtin.result([typing(a) for a in args])
        assert typing(result) <= declared, (typing.__name__, declared)
