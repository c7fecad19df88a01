"""Bulk vector kernels — the runtime half of guard-hoisted vectorization.

``run_kernel`` executes one :class:`~repro.native.lower.KernelDescr` against
the live register file.  The contract with both executors is *decline or be
exact*:

* ``('decline',)`` — the kernel had **zero observable effect**; the retained
  scalar loop (which always follows the kernel op) runs as if the kernel did
  not exist.  Anything the entry checks cannot prove — a promise in an
  invariant chain, a failed whole-vector type guard, an aliased output,
  a non-in-place store — declines.
* ``('ok', dops, dguards, dgen, covered)`` — ``covered`` full iterations
  were executed over the raw buffers; the induction and accumulator
  registers were advanced and the deltas are exactly what the scalar loop
  would have charged for those iterations.  Bulk execution always stops at
  an *iteration boundary* chosen so the next scalar iteration reproduces
  the reference behaviour (the loop exit, an NA element, a bounds error, a
  type-unstable accumulator ...) with a bit-exact FrameState for free.
* ``('deopt', did, observed, kind_override, dops, dguards, dgen, covered)``
  — a chaos-mode draw fired *mid-vector* at element ``k``.  The registers
  the deopt descriptor reads have already been rebuilt for iteration ``k``
  via the guard's :class:`~repro.osr.framestate.KernelFrameTemplate`; the
  caller only needs to flush the deltas and tail-call ``vm.deopt``.

Chaos-mode equivalence: the scalar loop draws the RNG once per executed
guard, in op order.  The kernel first bounds the covered range with pure
checks only (the entry checks and the NA prescan), so every *real* check
inside it passes.  Then it makes that range's draws — per iteration, one
per guard event in walk order — up to the first that fires
(``_first_draw``).  Then it runs its ordinary bulk code over the iterations
before that one and fires the same deopt the scalar loop would have fired.
No draw is added, dropped or reordered.
"""

from __future__ import annotations

import functools
import math
import operator
import sys

from ..osr.framestate import DeoptReasonKind, KernelIterState, pdiv
from ..runtime.rtypes import Kind
from ..runtime.values import RBuiltin, RClosure, RPromise, RVector, rtype_quick

# partial-module import (executor.py imports us at its bottom); attributes
# are resolved at call time, after both modules finished initializing
from . import executor as _ex

_DECLINE = ("decline",)
_FAIL = object()

_NUMERIC_KINDS = (Kind.LGL, Kind.INT, Kind.DBL)

#: a kernel site whose induction and bound registers are ints fewer than
#: this many elements apart runs the compiled scalar loop instead: on such a
#: short trip the call's fixed cost (spill, entry checks, reload) is more
#: than the per-element time it saves (DESIGN.md, "Loop vectorization", has
#: the measurement).
#: Such a trip is a decline: zero effect, so the scalar loop makes exactly
#: the chaos draws it would have.  The generated code also skips the spill
#: at such a site, where the saving is.
SHORT_TRIP = 8


def _resolve_source(source, regs, closure_env):
    """The value of an invariant chain root, without observable effects.

    Environment roots re-walk the lexical chain (the scalar loop's
    ``LDVAR_FREE`` does the same every iteration); an *unforced* promise
    declines — forcing runs arbitrary code and must happen in the scalar
    tier.  Already-forced promises read their cached value, which is what
    ``force`` would return with no side effects.
    """
    if source[0] == "reg":
        v = regs[source[1]]
    elif source[0] == "fun":
        # exact replica of REnvironment.get_function — the scalar LDFUN's
        # lookup rule (skip non-function bindings, promises never forced) —
        # declining instead of raising when the name does not resolve
        name = source[1]
        e = closure_env
        while e is not None:
            if name in e.bindings:
                v = e.bindings[name]
                if isinstance(v, (RClosure, RBuiltin)):
                    return v
            e = e.parent
        return _FAIL
    else:
        name = source[1]
        e = closure_env
        v = _FAIL
        while e is not None:
            if name in e.bindings:
                v = e.bindings[name]
                break
            e = e.parent
        if v is _FAIL:
            return _FAIL
    if isinstance(v, RPromise):
        if not v.forced:
            return _FAIL
        v = v.value
    return v


def _raw_number(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float))


if sys.version_info >= (3, 12):
    def _sum(xs, start):
        """``start + xs[0] + xs[1] + ...`` left to right, as the scalar loop
        adds: ``sum()`` compensates float rounding since 3.12 (gh-100425)."""
        return functools.reduce(operator.add, xs, start)
else:
    _sum = sum


def _first_draw(rng, rate, events, n):
    """The first chaos draw that fires over ``n`` iterations, as
    ``(iteration, event)``, or None.

    The draws are the scalar loop's: one per event per iteration, in order,
    and exactly as many as it makes up to and including the one that fires
    (all ``n * len(events)`` when none does).  One flat loop: on CPython
    3.11 it beats an ``itertools`` pipeline at every trip count.
    """
    draw = rng.random
    for i in range(n * len(events)):
        if draw() < rate:
            it, e = divmod(i, len(events))
            return it, events[e]
    return None


def _compile_fsum(kd):
    """Build the bulk loop for a fused map→reduce kernel, once per descriptor.

    Returns ``(fn, elems, uinvs, rinvs)`` — the generated function plus the
    inv-chain key sets the entry checks must validate — or ``False`` if the
    role tree contains something the emitter cannot replicate.  The function
    runs ``acc = acc ⊕ expr(t)`` over ``t in [ji, stop)`` on the raw buffers
    and returns ``acc``.
    """
    consts = []
    elems = set()
    uinvs = set()
    rinvs = set()
    divs = []

    def emit(role):
        tag = role[0]
        if tag == "elem":
            elems.add(role[1])
            return "d%d[t]" % role[1]
        if tag in ("seq", "idx1"):
            return "(t + 1)"
        if tag == "idx":
            return "t"
        if tag == "cval":
            consts.append(role[1])
            return "K%d" % (len(consts) - 1)
        if tag == "uinv":
            uinvs.add(role[1])
            return "u%d" % role[1]
        if tag == "inv":
            rinvs.add(role[1])
            return "r%d" % role[1]
        if tag == "expr":
            a = emit(role[2])
            b = emit(role[3])
            if a is None or b is None:
                return None
            if role[1] == "/":
                # _pdiv only for a zero divisor; a temporary per division,
                # since one in the numerator runs after this one's walrus
                w = "_w%d" % len(divs)
                divs.append(w)
                return "(%s / %s if (%s := %s) else _pdiv(%s, %s))" % (a, w, w, b, a, w)
            return "(%s %s %s)" % (a, role[1], b)
        return None

    expr_src = emit(kd.expr)
    if expr_src is None:
        return False
    lines = ["def _f(ji, stop, acc, invs):"]
    for k in sorted(elems):
        lines.append("    d%d = invs[%d].data" % (k, k))
    for k in sorted(uinvs):
        lines.append("    u%d = invs[%d].data[0]" % (k, k))
    for k in sorted(rinvs):
        lines.append("    r%d = invs[%d]" % (k, k))
    lines.append("    for t in range(ji, stop):")
    lines.append("        acc = acc %s %s" % (kd.acc_op, expr_src))
    lines.append("    return acc")
    ns = {"_pdiv": pdiv}
    for i, c in enumerate(consts):
        ns["K%d" % i] = c
    exec("\n".join(lines), ns)
    return ns["_f"], frozenset(elems), frozenset(uinvs), frozenset(rinvs)


def _chaos_fire(kd, ev, regs, j0, ji, jd, acc_repr, invs):
    """Materialize the mid-kernel deopt for guard ``ev`` at data index ``jd``."""
    it = jd - ji
    st = KernelIterState(
        j0 + it,
        acc=acc_repr,
        elems={k: invs[k].data[jd] for k in kd.elem_keys},
        invs=invs,
    )
    ev.template.materialize(regs, st)
    gv = invs[ev.guard_role[1]]
    # the scalar guard's ``observed``: the value's type for GTYPE, the value
    # itself for GIDENT (executor semantics, replicated bit-for-bit)
    observed = gv if ev.kind == "gident" else rtype_quick(gv)
    io, ig, ie = kd.iter_counts
    t = ev.template
    return (
        "deopt", ev.did, observed, DeoptReasonKind.CHAOS,
        it * io + t.ops_into, it * ig + t.guards_into, it * ie + t.gen_into,
        it,
    )


def run_kernel(kd, regs, vm, closure_env):
    kind = kd.kind
    if kind == "disabled":
        return _DECLINE

    # -- iteration range: [ji, stop) over 0-based data indices ---------------
    j0 = regs[kd.idx_reg]
    bound = regs[kd.bound_reg]
    if type(j0) is int and type(bound) is int and bound - j0 < SHORT_TRIP:
        return _DECLINE
    if not _raw_number(j0) or not _raw_number(bound):
        return _DECLINE
    ji = int(j0)
    if ji != j0 or ji < 0:
        return _DECLINE
    end = int(math.ceil(bound)) if isinstance(bound, float) else bound
    # the iteration-space vector (a verified identity 1:n colon): element
    # j+1 of it *is* j+1 only for INT identity data, and its length bounds
    # the range exactly like the scalar VLOAD's subscript check would
    seq = regs[kd.seq_reg]
    if not (isinstance(seq, RVector) and seq.kind == Kind.INT):
        return _DECLINE
    stop = min(end, len(seq.data))
    if not kd.seq_static:
        # opaque loop state (the OSR-entry shape): prove the identity
        # content over the covered range at runtime
        if seq.data[ji:stop] != list(range(ji + 1, stop + 1)):
            return _DECLINE
    for r in kd.seqv_regs:
        # the loop-variable phi must hold seq[ji] == ji at the loop head.
        # At ji == 0 it holds what the variable held before the loop, so a
        # unit entered mid-function declines here whenever that is not 0:
        # fannkuch's continuations (pcs 65, 130, 142, 214, 238, ...) carry
        # the `i` of `for (i in 1:n) perm[[i]] <- perm1[[i]]` as such a phi
        # and the flip loop leaves 2..6 in it — 18,128 of 18,128 copy
        # entries decline on a 3 s suite-tierdown, 13,505 of 13,763 on
        # suite-chaos.  The whole-function unit has no such phi and runs
        # the same kernel 20,160 times on suite-steady without a decline
        # (ROADMAP item 3(v)).
        if regs[r] != ji:
            return _DECLINE

    # -- invariant chains: resolve once, verify the hoisted guards -----------
    invs = {}
    for key, source, gtype, gident, _member_regs, elementwise in kd.chains:
        v = _resolve_source(source, regs, closure_env)
        if v is _FAIL:
            return _DECLINE
        if gtype is not None and not _ex._type_matches(v, gtype):
            # decline, don't deopt: the scalar guard fails on the very next
            # iteration with a perfectly ordinary FrameState
            return _DECLINE
        if gident is not None and v is not gident:
            # same principle for identity guards (speculated call targets)
            return _DECLINE
        if elementwise:
            if not isinstance(v, RVector):
                return _DECLINE
            stop = min(stop, len(v.data))  # range-bounded + prescanned
        invs[key] = v
    if stop <= ji:
        return _DECLINE

    # bulk execution ends at the first NA of any element-read vector: the
    # scalar loop then runs that iteration and hits its own NA deopt exactly
    # as the reference does
    for key in kd.elem_keys:
        d = invs[key].data
        try:
            p = d.index(None, ji, stop)
        except ValueError:
            pass
        else:
            stop = p
    if stop <= ji:
        return _DECLINE

    # -- per kind: the entry checks --------------------------------------------
    acc = None
    if kind == "sum":
        if len(kd.elem_keys) != 1:
            return _DECLINE
        if invs[kd.elem_keys[0]].kind not in _NUMERIC_KINDS:
            return _DECLINE
        acc = regs[kd.acc_reg]
        if not _raw_number(acc):
            return _DECLINE
    elif kind == "fsum":
        acc = regs[kd.acc_reg]
        if not _raw_number(acc):
            return _DECLINE
        spec = kd.pyfn
        if spec is None:
            spec = _compile_fsum(kd)
            kd.pyfn = spec
        if spec is False:
            return _DECLINE
        fn, f_elems, f_uinvs, f_rinvs = spec
        # exception-freedom: with every operand a plain int/float the fused
        # `+ - * /` chain cannot raise (division runs through _pdiv)
        for k in f_elems:
            if invs[k].kind not in _NUMERIC_KINDS:
                return _DECLINE
        for k in f_uinvs:
            v = invs[k]
            if not (isinstance(v, RVector) and v.data) or not isinstance(
                v.data[0], (int, float)
            ):
                return _DECLINE
        for k in f_rinvs:
            if not isinstance(invs[k], (int, float)):
                return _DECLINE
    elif kind in ("fill", "copy"):
        out = invs.get(kd.out_key)
        if not (isinstance(out, RVector) and out.named <= 1):
            return _DECLINE  # copy-on-write store: per-element reallocation
        if out.kind == kd.store_kind:
            widen = False
        elif out.kind == Kind.DBL and kd.store_kind in (Kind.LGL, Kind.INT):
            widen = True  # the executor's in-place widening store
        else:
            return _DECLINE
        stop = min(stop, len(out.data))
        if stop <= ji:
            return _DECLINE
        # runtime aliasing: never bulk-write a vector any element read sees
        if out is seq:
            return _DECLINE
        for key in kd.elem_keys:
            if invs[key] is out:
                return _DECLINE
    else:
        return _DECLINE

    # -- chaos: the scalar loop's draws over [ji, stop), up to the first that
    #    fires; the bulk code below then runs the iterations before it
    fire = None
    if vm.config.chaos_rate > 0.0 and kd.events:
        fire = _first_draw(vm.chaos_rng, vm.config.chaos_rate, kd.events, stop - ji)
        if fire is not None:
            stop = ji + fire[0]

    # -- the bulk code over [ji, stop) ---------------------------------------
    if kind == "sum":
        acc = _sum(invs[kd.elem_keys[0]].data[ji:stop], acc)
    elif kind == "fsum":
        acc = fn(ji, stop, acc, invs)
    else:
        # a store before the firing guard is part of its partial iteration
        end = stop + 1 if fire is not None and fire[1].store_before else stop
        spec = kd.val_spec
        if spec[0] == "reg":  # fill with a loop-invariant scalar
            xs = [regs[spec[1]]] * (end - ji)
        else:  # ("elem", key): copy
            xs = invs[spec[1]].data[ji:end]
        out.data[ji:end] = list(map(float, xs)) if widen else xs

    if fire is not None:
        return _chaos_fire(kd, fire[1], regs, j0, ji, stop, acc, invs)
    covered = stop - ji
    regs[kd.idx_reg] = j0 + covered
    for r in kd.seqv_regs:
        regs[r] = ji + covered
    if kd.acc_reg is not None:
        regs[kd.acc_reg] = acc
    io, ig, ie = kd.iter_counts
    return ("ok", covered * io, covered * ig, covered * ie, covered)
