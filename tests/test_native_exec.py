"""Differential tests: native execution must agree with the interpreter on
a corpus of programs exercising every lowered op, plus property tests over
randomly generated arithmetic kernels."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TIER_CONFIGS, assert_all_tiers, make_vm
from repro import from_r

#: corpus of (source, expected) pairs; each is run repeatedly so the JIT
#: tiers actually compile
CORPUS = [
    # prim arithmetic, all kinds
    ("f <- function(a, b) a + b * 2L - 1L\nf(10L, 4L)", 17),
    ("f <- function(a, b) a / b\nf(7, 2)", 3.5),
    ("f <- function(a, b) a %% b + a %/% b\nf(17L, 5L)", 5),
    ("f <- function(a, b) a %% b\nf(17.5, 5.0)", 2.5),
    ("f <- function(a) a ^ 2L\nf(9)", 81.0),
    ("f <- function(a) -a\nf(5L)", -5),
    ("f <- function(a) !a\nf(FALSE)", True),
    # comparisons
    ("f <- function(a, b) a < b\nf(1L, 2L)", True),
    ("f <- function(a, b) a >= b\nf(2.5, 2.5)", True),
    ("f <- function(a, b) a != b\nf(1L, 1L)", False),
    # vector load / store / length
    ("f <- function(v) v[[2]]\nf(c(10L, 20L))", 20),
    ("f <- function(v) { v[[1]] <- 9L\nv[[1]] }\nf(c(1L, 2L))", 9),
    ("f <- function(v) length(v)\nf(1:7)", 7),
    # control flow
    ("f <- function(x) if (x > 0L) \"pos\" else \"neg\"\nf(3L)", "pos"),
    ("f <- function(n) { s <- 0L\ni <- 0L\nwhile (i < n) { i <- i + 1L\ns <- s + i }\ns }\nf(10L)", 55),
    ("f <- function(n) { s <- 0L\nfor (i in 1:n) if (i %% 2L == 0L) s <- s + i\ns }\nf(10L)", 30),
    # calls
    ("g <- function(x) x * 2L\nf <- function(y) g(y) + g(y + 1L)\nf(3L)", 14),
    ("f <- function(v) sum(v)\nf(c(1L, 2L, 3L))", 6),
    # mixed int/dbl promotion in the fast path
    ("f <- function(a, b) a + b\nf(1L, 0.5)", 1.5),
    # logical vector ops through the generic path
    ("f <- function(v) length(v[v > 2L])\nf(1:5)", 3),
    # string results
    ("f <- function(a, b) paste0(a, b)\nf(\"x\", \"y\")", "xy"),
    # colon inside compiled code
    ("f <- function(n) { s <- 0L\nfor (i in 2:n) s <- s + i\ns }\nf(5L)", 14),
    # complex stays correct through the generic (boxed) path
    ("f <- function(z, w) z * w\nf(complex(1, 2), complex(3, -1))", (1 + 2j) * (3 - 1j)),
    # growth store falls back to the generic path inside native code
    ("f <- function(n) { r <- c()\nfor (i in 1:n) r[[i]] <- i * 2L\nr[[n]] }\nf(6L)", 12),
    # negative zero, infinities
    ("f <- function(a, b) a / b\nf(1, 0)", float("inf")),
    ("f <- function(a, b) a / b\nf(-1, 0)", float("-inf")),
]


@pytest.mark.parametrize("src,expected", CORPUS, ids=range(len(CORPUS)))
def test_corpus_agrees_across_tiers(src, expected):
    assert_all_tiers(src, expected, repeat=4)


def test_native_code_actually_runs(vm):
    vm.eval("f <- function(a, b) a * b + 1L")
    for _ in range(6):
        r = vm.eval("f(6L, 7L)")
    assert from_r(r) == 43
    assert vm.state.compiles >= 1
    assert vm.state.native_ops > 0


def test_native_faster_than_interp_in_op_count():
    """The whole point of the upper tier: fewer (and cheaper) operations."""
    src = "f <- function(v, n) { s <- 0\nfor (i in 1:n) s <- s + v[[i]]\ns }"
    setup = "x <- numeric(200)\nfor (i in 1:200) x[[i]] <- i * 1.0"

    vm_i = make_vm(enable_jit=False)
    vm_i.eval(src)
    vm_i.eval(setup)
    vm_i.state.reset_counters()
    vm_i.eval("f(x, 200L)")
    interp_ops = vm_i.state.interp_ops

    vm_j = make_vm(compile_threshold=1)
    vm_j.eval(src)
    vm_j.eval(setup)
    for _ in range(3):
        vm_j.eval("f(x, 200L)")
    vm_j.state.reset_counters()
    vm_j.eval("f(x, 200L)")
    assert vm_j.state.interp_ops < interp_ops / 4
    assert vm_j.state.native_ops < interp_ops * 2


# -- phi moves: one parallel copy per edge ------------------------------------------

PHI_CYCLES = [
    # a two-variable swap (a cycle of two) beside a chain `a <- b; b <- s + i`
    ("f <- function(n) { a <- 1L; b <- 2L; s <- 3L; u <- 4L\n"
     "for (i in 1:n) { t <- a; a <- b; b <- t; v <- s; s <- u; u <- v + i }\n"
     "c(a, b, s, u) }", "f(7L)"),
    # a three-way rotation, with a register that keeps its value
    ("f <- function(n) { a <- 1.5; b <- 2.5; c0 <- 3.5; k <- 9L\n"
     "for (i in 1:n) { t <- a; a <- b; b <- c0; c0 <- t }\n"
     "c(a, b, c0, k) }", "f(8L)"),
]


@pytest.mark.parametrize("src,call", PHI_CYCLES, ids=["swap", "rotate"])
@pytest.mark.parametrize("threaded", [True, False], ids=["codegen", "execute_ref"])
def test_phi_cycles_agree_with_the_interpreter(src, call, threaded):
    """Phi moves along a back edge that read each other's destinations: a
    swap and a rotation are cycles a temporary must break, a chain only
    needs the right order."""
    ref = make_vm(enable_jit=False)
    ref.eval(src)
    want = from_r(ref.eval(call))
    vm = make_vm(compile_threshold=1, threaded_dispatch=threaded)
    vm.eval(src)
    for _ in range(4):
        assert from_r(vm.eval(call)) == want
    assert vm.state.compiles >= 1 and vm.state.native_ops > 0 and vm.state.deopts == 0


# -- property tests over generated straight-line kernels --------------------------

ops = st.sampled_from(["+", "-", "*"])
lits = st.integers(-50, 50)


@st.composite
def arith_kernel(draw):
    """A random function body mixing parameters and literals."""
    n_steps = draw(st.integers(1, 5))
    lines = []
    names = ["a", "b"]
    for i in range(n_steps):
        lhs = draw(st.sampled_from(names))
        rhs = draw(st.one_of(st.sampled_from(names), lits.map(lambda x: "%dL" % x)))
        op = draw(ops)
        var = "t%d" % i
        lines.append("%s <- %s %s %s" % (var, lhs, op, rhs))
        names.append(var)
    lines.append(names[-1])
    return "f <- function(a, b) {\n%s\n}" % "\n".join(lines)


@given(arith_kernel(), lits, lits)
@settings(max_examples=40, deadline=None)
def test_generated_kernels_agree(src, a, b):
    call = "f(%dL, %dL)" % (a, b)
    results = {}
    for name, cfg in TIER_CONFIGS.items():
        vm = make_vm(**cfg)
        vm.eval(src)
        r = None
        for _ in range(3):
            r = from_r(vm.eval(call))
        results[name] = r
    assert len(set(results.values())) == 1, results


@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=20),
    st.sampled_from(["sum", "max", "count_pos"]),
)
@settings(max_examples=30, deadline=None)
def test_generated_reductions_agree(xs, mode):
    body = {
        "sum": "s <- 0L\nfor (i in 1:n) s <- s + v[[i]]\ns",
        "max": "s <- v[[1]]\nfor (i in 1:n) if (v[[i]] > s) s <- v[[i]]\ns",
        "count_pos": "s <- 0L\nfor (i in 1:n) if (v[[i]] > 0L) s <- s + 1L\ns",
    }[mode]
    src = "f <- function(v, n) {\n%s\n}" % body
    vec = "c(%s)" % ", ".join("%dL" % x for x in xs)
    call = "f(%s, %dL)" % (vec, len(xs))
    results = set()
    for cfg in TIER_CONFIGS.values():
        vm = make_vm(**cfg)
        vm.eval(src)
        r = None
        for _ in range(3):
            r = from_r(vm.eval(call))
        results.add(r)
    assert len(results) == 1
