"""Tests for type-feedback recording and its consumption rules."""

from repro.bytecode.feedback import (
    BinopFeedback,
    BranchFeedback,
    CallFeedback,
    MAX_CALL_TARGETS,
    ObservedType,
)
from hypothesis import given, strategies as st

from repro.runtime.rtypes import ANY, Kind
from repro.runtime.values import NULL, RPromise, RVector, mk_dbl, mk_int
from conftest import make_vm


def test_observed_type_monomorphic():
    fb = ObservedType()
    fb.record(mk_int(1))
    fb.record(mk_int(2))
    assert fb.monomorphic_kind == Kind.INT
    assert fb.all_scalar and not fb.saw_na


def test_observed_type_polymorphic():
    fb = ObservedType()
    fb.record(mk_int(1))
    fb.record(mk_dbl(1.0))
    assert fb.monomorphic_kind is None
    assert fb.as_rtype().kind == Kind.DBL  # lub of int and dbl


def test_observed_type_scalar_flag_drops_on_vector():
    fb = ObservedType()
    fb.record(RVector.integer([1, 2]))
    assert not fb.all_scalar


def test_observed_type_na_scalar_recorded():
    fb = ObservedType()
    fb.record(mk_int(None))
    assert fb.saw_na


def test_stale_slot_reports_any_and_no_monomorphic():
    fb = ObservedType()
    fb.record(mk_int(1))
    fb.stale = True
    assert fb.monomorphic_kind is None
    assert fb.as_rtype() == ANY


def test_inject_replaces_observation():
    fb = ObservedType()
    fb.record(mk_int(1))
    from repro.runtime.rtypes import scalar

    fb.inject(scalar(Kind.DBL))
    assert fb.monomorphic_kind == Kind.DBL
    assert not fb.stale


def test_copy_is_independent():
    fb = ObservedType()
    fb.record(mk_int(1))
    c = fb.copy()
    c.stale = True
    c.record(mk_dbl(1.0))
    assert not fb.stale and fb.monomorphic_kind == Kind.INT


def test_binop_feedback_tracks_both_sides():
    fb = BinopFeedback()
    fb.record(mk_int(1), mk_dbl(2.0))
    assert fb.lhs.monomorphic_kind == Kind.INT
    assert fb.rhs.monomorphic_kind == Kind.DBL


def test_call_feedback_monomorphic_then_polymorphic():
    fb = CallFeedback()
    a, b = object(), object()
    fb.record(a)
    fb.record(a)
    assert fb.monomorphic_target is a
    fb.record(b)
    assert fb.monomorphic_target is None


def test_call_feedback_megamorphic_cutoff():
    fb = CallFeedback()
    for i in range(MAX_CALL_TARGETS + 1):
        fb.record(object())
    assert fb.megamorphic and fb.targets == []


# -- the last-seen recording memo ----------------------------------------------

def _obs_state(o):
    return (set(o.kinds), o.all_scalar, o.saw_na, o.count, o.stale)


def test_repeat_observation_only_counts():
    fb = ObservedType()
    for x in (1, 2, 3):
        fb.record(mk_int(x))
    assert _obs_state(fb) == ({Kind.INT}, True, False, 3, False)


def test_int_dbl_int_at_one_site_keeps_both_kinds():
    fb = ObservedType()
    fb.record(mk_int(1))
    fb.record(mk_dbl(1.0))
    fb.record(mk_int(2))
    assert fb.kinds == {Kind.INT, Kind.DBL} and fb.count == 3


def test_memo_is_cleared_by_reset_inject_and_copy():
    from repro.runtime.rtypes import scalar

    fb = ObservedType()
    fb.record(mk_int(1))
    assert fb._last is not None
    assert fb.copy()._last is None
    fb.reset()
    assert fb._last is None
    fb.record(mk_int(1))  # must merge again, not just count
    assert _obs_state(fb) == ({Kind.INT}, True, False, 1, False)
    fb.inject(scalar(Kind.DBL))
    assert fb._last is None
    fb.record(mk_int(1))
    assert _obs_state(fb) == ({Kind.INT, Kind.DBL}, True, False, 2, False)

    cf = CallFeedback()
    cf.record(len, [mk_int(1)])
    assert cf._last_target is len
    assert cf.copy()._last_target is None and cf.copy()._last_prof is None


#: every shape the quick type tells apart, plus non-vector values
_VALUES = st.sampled_from([
    lambda: mk_int(1), lambda: mk_int(None), lambda: mk_dbl(2.5),
    lambda: mk_dbl(None), lambda: RVector.integer([1, 2]),
    lambda: RVector.integer([None, 2]), lambda: RVector.double([]),
    lambda: RVector.string(["a"]), lambda: RVector.rlist([mk_int(1)]),
    lambda: NULL, lambda: len, lambda: RPromise.forced_with(mk_int(1)),
])


@given(st.lists(st.tuples(_VALUES, st.sampled_from(["record", "record", "record",
                                                    "reset", "inject", "copy"]))))
def test_memoized_recording_equals_unmemoized(steps):
    """Whatever is recorded, and wherever ``reset`` / ``inject`` / ``copy``
    fall in between, the profile equals that of a slot whose memo is dropped
    before every record (so that it merges in full each time)."""
    from repro.runtime.rtypes import vector

    fast, slow = ObservedType(), ObservedType()
    for make, action in steps:
        if action == "reset":
            fast.reset(), slow.reset()
        elif action == "inject":
            fast.inject(vector(Kind.DBL)), slow.inject(vector(Kind.DBL))
        elif action == "copy":
            fast, slow = fast.copy(), slow.copy()
        else:
            v = make()
            slow._last = None
            fast.record(v), slow.record(v)
        assert _obs_state(fast) == _obs_state(slow)


@given(st.lists(st.tuples(_VALUES, _VALUES)))
def test_binop_recording_equals_two_observed_types(pairs):
    fb, lhs, rhs = BinopFeedback(), ObservedType(), ObservedType()
    for make_l, make_r in pairs:
        a, b = make_l(), make_r()
        fb.record(a, b)
        lhs._last = rhs._last = None
        lhs.record(a), rhs.record(b)
    assert _obs_state(fb.lhs) == _obs_state(lhs)
    assert _obs_state(fb.rhs) == _obs_state(rhs)


@given(st.lists(st.tuples(st.integers(0, 5), st.lists(_VALUES, max_size=3),
                          st.booleans())))
def test_memoized_call_recording_equals_unmemoized(calls):
    """Targets going megamorphic, profiles overflowing, ``args=None``
    records and repeats in any order: same profile as with the memo dropped
    before every record."""
    targets = [object() for _ in range(6)]
    fast, slow = CallFeedback(), CallFeedback()
    for t, makes, no_args in calls:
        args = None if no_args else [m() for m in makes]
        slow._last_target = slow._last_prof = None
        fast.record(targets[t], args), slow.record(targets[t], args)
        assert (fast.targets, fast.megamorphic, fast.count, fast.arg_profiles) == \
            (slow.targets, slow.megamorphic, slow.count, slow.arg_profiles)


def test_branch_feedback_bias():
    fb = BranchFeedback()
    for _ in range(5):
        fb.record(True)
    assert fb.bias is True
    fb.record(False)
    assert fb.bias is None


def test_branch_feedback_false_bias():
    fb = BranchFeedback()
    fb.record(False)
    fb.record(False)
    assert fb.bias is False


def test_interpreter_records_feedback_at_sites():
    from repro.bytecode import opcodes as O

    vm = make_vm(enable_jit=False)
    vm.eval("f <- function(v, n) { s <- 0\nfor (i in 1:n) s <- s + v[[i]]\ns }")
    vm.eval("f(c(1.5, 2.5), 2L)")
    clo = vm.global_env.get("f")
    kinds = {}
    for pc, fb in clo.code.feedback.items():
        kinds.setdefault(type(fb).__name__, 0)
        kinds[type(fb).__name__] += 1
    assert kinds.get("ObservedType", 0) > 0  # LD_VAR sites
    assert kinds.get("BinopFeedback", 0) > 0  # arithmetic/index sites
    assert kinds.get("BranchFeedback", 0) > 0  # the loop condition
    # the INDEX2 site observed a double vector
    index_sites = [
        fb for pc, fb in clo.code.feedback.items()
        if clo.code.code[pc][0] == O.INDEX2 and isinstance(fb, BinopFeedback)
    ]
    assert any(fb.lhs.monomorphic_kind == Kind.DBL for fb in index_sites)
