"""Tests for the entry contextual-dispatch layer.

Covers the :class:`~repro.deoptless.context.CallContext` partial order and
distiller, a closure's version table
(:class:`~repro.deoptless.dispatch.ContextTable`: ordered insertion,
replacement, refusal), end-to-end version creation and dispatch, the
acceptance property that a deopt inside one specialized version leaves its
siblings installed and dispatchable, a megamorphic ``CALLG`` site reaching
entry versions through the one call path, the narrow code-cache
invalidation, and codegen-vs-reference engine equivalence under both
``ctxdispatch`` settings.
"""

import pickle

import pytest

from conftest import engine_signature, make_vm
from repro import from_r
from repro.deoptless.context import (
    MAX_CONTEXT_ARGS, CallContext, distill_call_context,
)
from repro.deoptless.dispatch import ContextTable
from repro.runtime.rtypes import ANY, Kind, intern_rtype
from repro.runtime.values import RPromise, RVector, mk_int, mk_dbl


INT_S = intern_rtype(Kind.INT, True, False)    # scalar int, NA-free
DBL_S = intern_rtype(Kind.DBL, True, False)
INT_V = intern_rtype(Kind.INT, False, True)    # int vector, maybe-NA
DBL_V = intern_rtype(Kind.DBL, False, True)


def ctx(*types, forced=None):
    if forced is None:
        forced = (True,) * len(types)
    return CallContext(tuple(types), tuple(forced))


# -- CallContext partial order & specificity --------------------------------------


def test_context_partial_order_pointwise():
    assert ctx(INT_S) <= ctx(INT_S)
    # a scalar int call may enter a version compiled for a (wider) dbl or
    # untyped slot, but not the other way around
    assert ctx(INT_S) <= ctx(DBL_S)
    assert not (ctx(DBL_S) <= ctx(INT_S))
    assert ctx(INT_V) <= ctx(ANY)
    assert not (ctx(ANY) <= ctx(INT_V))
    # pointwise: every slot must be covered
    assert ctx(INT_S, DBL_S) <= ctx(DBL_S, DBL_S)
    assert not (ctx(INT_S, DBL_S) <= ctx(INT_S, INT_S))


def test_context_arg_count_is_comparability():
    assert not (ctx(INT_S) <= ctx(INT_S, INT_S))
    assert not (ctx(INT_S, INT_S) <= ctx(INT_S))


def test_context_forced_rule():
    # a version compiled for a forced value must receive a forced value
    forced = ctx(INT_S)
    lazy = ctx(ANY, forced=(False,))
    assert forced <= lazy          # forced callers may enter lazy versions
    assert not (lazy <= forced)    # a maybe-promise may not enter a typed one


def test_context_specificity_orders_tighter_first():
    assert ctx(INT_S).specificity() > ctx(INT_V).specificity()
    assert ctx(INT_V).specificity() > ctx(ANY).specificity()
    # forced slots are tighter than maybe-promise ones
    assert ctx(ANY).specificity() > ctx(ANY, forced=(False,)).specificity()


# -- distill_call_context --------------------------------------------------------


def test_distill_scalar_and_vector():
    c = distill_call_context([mk_int(1), RVector(Kind.INT, [1, 2, 3])])
    assert c.arg_types[0] == INT_S
    # vector NA-freedom is widened: rtype_quick does not scan, and the
    # context must be a sound claim (the version drops the entry guards)
    assert c.arg_types[1] == INT_V
    assert c.forced == (True, True)


def test_distill_unwraps_forced_promises_in_place():
    args = [RPromise.forced_with(mk_dbl(2.5))]
    c = distill_call_context(args)
    assert c.arg_types == (DBL_S,)
    assert c.forced == (True,)
    # the promise was unwrapped so the version's registers get the value
    assert not isinstance(args[0], RPromise)


def test_distill_keeps_unforced_promises_lazy():
    args = [RPromise(code=None, env=None)]
    c = distill_call_context(args)
    assert c.arg_types == (ANY,)
    assert c.forced == (False,)
    assert isinstance(args[0], RPromise)


def test_distill_bails_on_huge_arg_lists():
    args = [mk_int(i) for i in range(MAX_CONTEXT_ARGS + 1)]
    assert distill_call_context(args) is None


# -- version-table semantics ----------------------------------------------------


class FakeCode:
    """A compiled unit's stand-in: a table holds it by identity."""


def test_version_table_scans_most_specific_first():
    vt = ContextTable(max_entries=4)
    generic, tight = FakeCode(), FakeCode()
    assert vt.insert(ctx(ANY), generic)
    assert vt.insert(ctx(INT_S), tight)
    # an int call matches both; the scan must prefer the tighter version
    assert vt.dispatch(ctx(INT_S)) is tight
    assert vt.dispatch(ctx(DBL_S)) is generic
    assert [c for c, _ in vt.entries] == [ctx(INT_S), ctx(ANY)]


def test_version_table_duplicate_insert_replaces_in_place():
    vt = ContextTable(max_entries=2)
    old, new = FakeCode(), FakeCode()
    vt.insert(ctx(INT_S), old)
    assert vt.insert(ctx(INT_S), new)
    assert len(vt) == 1
    assert vt.dispatch(ctx(INT_S)) is new


def test_version_table_refuses_when_full():
    vt = ContextTable(max_entries=1)
    assert vt.insert(ctx(INT_S), FakeCode())
    assert not vt.insert(ctx(DBL_S), FakeCode())
    assert len(vt) == 1


def test_version_table_remove_by_identity():
    vt = ContextTable(max_entries=4)
    a, b = FakeCode(), FakeCode()
    # incomparable contexts (different arg counts), so the removal leaves a
    # genuine miss rather than a wider match
    vt.insert(ctx(INT_S), a)
    vt.insert(ctx(DBL_S, DBL_S), b)
    vt.remove(a)
    assert len(vt) == 1
    assert vt.dispatch(ctx(INT_S)) is None
    assert vt.dispatch(ctx(DBL_S, DBL_S)) is b


def test_version_table_answers_follow_its_entries():
    """``dispatch`` remembers each answer, a miss included, until an insert,
    the replacement of an equal context or a removal changes the entries;
    an equal context built apart from the one asked gets the same answer."""
    vt = ContextTable(max_entries=4)
    generic, tight, newer = FakeCode(), FakeCode(), FakeCode()
    assert vt.dispatch(ctx(INT_S)) is None
    vt.insert(ctx(ANY), generic)
    assert vt.dispatch(ctx(INT_S)) is generic
    vt.insert(ctx(INT_S), tight)
    assert vt.dispatch(ctx(INT_S)) is tight
    vt.insert(ctx(INT_S), newer)
    assert vt.dispatch(ctx(INT_S)) is newer and vt.dispatch(ctx(DBL_S)) is generic
    vt.remove(newer)
    assert vt.dispatch(ctx(INT_S)) is generic
    vt.remove(generic)
    assert vt.dispatch(ctx(INT_S)) is None and vt.dispatch(ctx(DBL_S)) is None


def test_distill_interns_equal_contexts():
    one = distill_call_context([mk_int(1), mk_dbl(2.0)])
    assert distill_call_context([mk_int(3), mk_dbl(4.0)]) is one
    assert one == ctx(INT_S, DBL_S) and hash(one) == hash(ctx(INT_S, DBL_S))
    assert distill_call_context([mk_dbl(3.0), mk_dbl(4.0)]) is not one
    back = pickle.loads(pickle.dumps(one))  # as a unit's ctx is persisted
    assert back == one and hash(back) == hash(one)


# -- end-to-end: version creation and dispatch -----------------------------------

SUM_SRC = """
f <- function(v, n) { s <- 0
i <- 1
while (i <= n) { s <- s + v[[i]]
i <- i + 1 }
s }
"""


def warmed_poly_vm(**cfg):
    """A VM where ``f`` has int-vector and dbl-vector entry versions.

    osr_hop pinned off: these tests count deopts and cache entries under
    per-version invalidation; the dispatched-OSR path would re-enter a
    sibling version mid-loop after the provoked deopt (and possibly deopt
    again there), which is its own behavior, tested in test_osr_hop.py.
    """
    cfg.setdefault("compile_threshold", 1)
    cfg.setdefault("osr_threshold", 50)
    cfg.setdefault("osr_hop", False)
    vm = make_vm(**cfg)
    vm.eval(SUM_SRC)
    vm.eval("xi <- c(1L, 2L, 3L)")
    vm.eval("xd <- c(1.5, 2.5, 3.5)")
    for _ in range(4):
        vm.eval("f(xi, 3L)")
        vm.eval("f(xd, 3L)")
    return vm


def test_polymorphic_site_gets_one_version_per_context():
    vm = warmed_poly_vm(ctxdispatch=True)
    st = vm.global_env.get("f").jit
    assert st.versions is not None and len(st.versions) == 2
    assert vm.state.ctx_compiles == 2
    assert vm.state.ctx_dispatches > 0
    kinds = sorted(c.arg_types[0].kind.name for c, _ in st.versions.entries)
    assert kinds == ["DBL", "INT"]
    # both versions produce correct results
    assert from_r(vm.eval("f(xi, 3L)")) == 6
    assert from_r(vm.eval("f(xd, 3L)")) == 7.5


def test_ctxdispatch_off_compiles_no_versions():
    vm = warmed_poly_vm(ctxdispatch=False)
    st = vm.global_env.get("f").jit
    assert st.versions is None
    assert vm.state.ctx_compiles == 0
    assert vm.state.ctx_dispatches == 0


# -- acceptance: per-version deopt leaves siblings dispatchable ------------------


def test_deopt_in_one_version_spares_siblings():
    vm = warmed_poly_vm(ctxdispatch=True)
    st = vm.global_env.get("f").jit
    assert len(st.versions) == 2
    deopts = vm.state.deopts
    # an NA element violates the int version's *body* speculation (the
    # entry context is maybe-NA, but the loads were profiled NA-free)
    vm.eval("f(c(1L, NA, 3L), 3L)")
    assert vm.state.deopts == deopts + 1
    # only the int version was retired; the dbl sibling is still installed
    assert len(st.versions) == 1
    (c, code), = st.versions.entries
    assert c.arg_types[0].kind is Kind.DBL
    assert not code.invalidated
    # ... and still dispatchable, with no recompile and no further deopt
    d0, cc0 = vm.state.ctx_dispatches, vm.state.ctx_compiles
    assert from_r(vm.eval("f(xd, 3L)")) == 7.5
    assert vm.state.ctx_dispatches == d0 + 1
    assert vm.state.ctx_compiles == cc0
    assert vm.state.deopts == deopts + 1


def test_version_deopt_does_not_rewarm_generic_counter():
    # a context-version deopt is local: it must not reset the closure's
    # warm-up the way a generic-version deopt does (tested in test_vm)
    vm = warmed_poly_vm(ctxdispatch=True)
    st = vm.global_env.get("f").jit
    before = st.call_count
    vm.eval("f(c(1L, NA, 3L), 3L)")
    assert st.call_count >= before


# -- code cache: narrow invalidation ---------------------------------------------


def test_deopt_invalidates_only_that_context_cache_entry():
    vm = warmed_poly_vm(ctxdispatch=True, codecache=True)
    cache = vm.code_cache
    version_keys = [k for k in cache.entries if k[0] == "fn" and k[3] is not None]
    assert len(version_keys) == 2
    vm.eval("f(c(1L, NA, 3L), 3L)")  # deopt inside the int version
    remaining = [k for k in cache.entries if k[0] == "fn" and k[3] is not None]
    assert len(remaining) == 1
    assert remaining[0][3].arg_types[0].kind is Kind.DBL
    ev = vm.state.events_of("codecache_invalidate")
    assert any(e.details.get("ctx") is not None for e in ev)


# -- megamorphic sites reach entry versions --------------------------------------


def test_pic_caches_context_version_pairs():
    vm = warmed_poly_vm(ctxdispatch=True)
    # make the g(v, n) site inside ``ap`` megamorphic so it lowers to a
    # generic CALLG in native code (more than MAX_CALL_TARGETS distinct
    # callees); its calls of ``f`` dispatch on f's version table
    vm.eval("b1 <- function(v, n) 1")
    vm.eval("b2 <- function(v, n) 2")
    vm.eval("b3 <- function(v, n) 3")
    vm.eval("ap <- function(g, v, n) g(v, n)")
    for _ in range(4):
        for g in ("b1", "b2", "b3", "f"):
            vm.eval("ap(%s, xi, 3L)" % g)
    d0 = vm.state.ctx_dispatches
    for _ in range(3):
        assert from_r(vm.eval("ap(f, xi, 3L)")) == 6
        assert from_r(vm.eval("ap(f, xd, 3L)")) == 7.5
    assert vm.state.ctx_dispatches > d0


# -- refusal telemetry -----------------------------------------------------------


def test_full_table_refuses_and_counts():
    vm = make_vm(compile_threshold=1, osr_threshold=50,
                 ctxdispatch=True, dispatch_versions=1)
    vm.eval("h <- function(a, b) a + b")
    for _ in range(4):
        vm.eval("h(1L, 2L)")
        vm.eval("h(1.5, 2.5)")  # dbl is not <= int: needs its own slot
    st = vm.global_env.get("h").jit
    assert len(st.versions) == 1
    assert vm.state.dispatch_refusals > 0
    # the generic fall-through still serves the refused context
    assert from_r(vm.eval("h(1.5, 2.5)")) == 4.0


# -- engine equivalence ----------------------------------------------------------


@pytest.mark.parametrize("ctxdispatch", [True, False])
def test_engines_agree_on_dispatch_signature(ctxdispatch):
    """Version selection is VM policy, not executor behavior: the codegen
    and reference engines must produce bit-identical dispatch signatures
    within each ctxdispatch setting."""
    results, sigs = [], []
    for threaded in (False, True):
        vm = make_vm(compile_threshold=1, osr_threshold=50,
                     ctxdispatch=ctxdispatch, threaded_dispatch=threaded)
        vm.eval(SUM_SRC)
        vm.eval("xi <- c(1L, 2L, 3L)")
        vm.eval("xd <- c(1.5, 2.5, 3.5)")
        got = []
        for _ in range(5):
            got.append(from_r(vm.eval("f(xi, 3L)")))
            got.append(from_r(vm.eval("f(xd, 3L)")))
        results.append(got)
        sigs.append(engine_signature(vm))
    # the same literal values under either setting: on and off agree too
    assert results[0] == results[1] == [6, 7.5] * 5
    assert sigs[0] == sigs[1]
