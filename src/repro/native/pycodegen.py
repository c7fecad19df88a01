"""NativeCode → specialized Python source — the codegen execution tier.

The reference loop (executor.execute_ref) pays an if/elif opcode dispatch and
a tuple unpack per op.  ``_emit`` removes both by *generating target code* per
unit: registers become locals (``r7``), each op a statement or a few, a guard
an ``if``-raise of a :class:`DeoptSignal` carrying its deopt-descriptor index,
a bulk kernel a ``run_kernel`` call.  A template reads its operands in place
before it writes its result, so one register may hold several values
(``Lowerer._coalesce``).  ``compile()`` makes ``NativeCode.pycode``, ``exec``
the function ``pyfunc``; both stay on the cache template for later clones.

Control flow is *structured* (Ramsey, "Beyond Relooper", ICFP 2022): a unit
prints as one tree from op 0 along its dominator tree.  Every reducible loop
is a ``while True:`` nested inside the loops around it; a node only one edge
enters is printed at that edge; a branch whose sides meet again is an
``if``/``else`` with the join printed once after it (a side that cannot fall
through nests under ``if`` and the other goes on straight).  A backedge is
``continue`` or falling off the body, a loop exit ``break`` -- with ``_b``
set and a check after each inner ``while`` where it leaves several loops --
and an edge to a lone RET a ``return``.  A hop enters at an ``OsrEntry``
header through the label ``_b``: the lines on the way there run under
``if not _b:``, a branch holding the header tests ``_b`` first, and the
header clears it.  What the printer cannot nest (an irreducible region, the
nesting caps) stays an arm of a ``while True: if _b == k`` dispatch loop.

Equivalence contract: results, deopt frames and the engine-independent
telemetry (``native_ops``, ``native_generic_ops``, ``guards_executed``, the
ordered deopt events) are bit-identical to the reference loop.  Op counts are
*statically batched*: the emitter carries the pending counts along each path
and prints one literal ``_n += k`` where the path joins another (or folds
them into the return); every deopt site raises the exact pending totals.
Chaos draws follow each passing guard in op order, as in the reference loop.

Deopt protocol: a guard raises ``DeoptSignal(did, dn, dg, du, observed,
kind)`` and no registers; the one ``except`` hands it and ``locals()`` to
``_fail``, which lays the registers the descriptors read over the base image
(a hop's ``_regs``, else ``reg_init``) and tail-calls ``vm.deopt`` like the
reference loop (a kernel's deopt hands over its spill list).  The source is
pure text plus a constant pool (``pyconsts``, read as ``_K[i]``), so
jit/persist.py stores the code object and a unit read back is just exec'd.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from ..osr.framestate import DeoptReason, DeoptReasonKind
from ..runtime import coerce
from ..runtime.rtypes import Kind, RType
from ..runtime.values import NULL, RBuiltin, RClosure, RError, RPromise, RVector, rtype_quick
from . import ops as N
from .lower import branch_targets, descr_regs


class DeoptSignal(Exception):
    """A failing guard in generated code: ``dn``/``dg``/``du`` are the pending
    native/generic/guard counter deltas to flush; ``regs`` is None for a
    scalar site (``_fail`` reads the raising frame) and the spill list a
    kernel deopt materialized."""

    def __init__(self, did, dn, dg, du, observed, kind, regs=None):
        Exception.__init__(self)
        self.did, self.dn, self.dg, self.du = did, dn, dg, du
        self.observed, self.kind, self.regs = observed, kind, regs


class UnsupportedUnit(Exception):
    """The emitter cannot translate the op stream: the reference loop runs it."""


def _fail(ncode, vm, closure_env, sig, frame, base):
    """Handle a DeoptSignal: rebuild the frame chain and tail-call
    ``vm.deopt`` — the mirror of the reference loop's ``deopt()``.

    ``frame`` is the raising activation's ``locals()`` and ``base`` the
    register image it was hop-entered with (None: entered at op 0)."""
    descr = ncode.deopts[sig.did]
    regs = sig.regs
    if regs is None:
        # registers the generated code never bound keep their base value
        regs = list(ncode.reg_init if base is None else base)
        for r in descr_regs(descr):
            if "r%d" % r in frame:
                regs[r] = frame["r%d" % r]
    sig.__traceback__ = None  # no cycle sig -> raising frame -> its locals -> sig
    fs = build_framestate(ncode, regs, descr, closure_env)
    reason = DeoptReason(sig.kind or descr.reason_kind, descr.reason_pc,
                         observed=sig.observed, expected=descr.expected)
    state = vm.state
    state.native_ops += sig.dn
    state.native_generic_ops += sig.dg
    state.guards_executed += sig.du
    return vm.deopt(fs, reason, origin=ncode)


def _fallback(ncode, vm, args, closure_env, regs=None):
    """A generated ``_unit`` called with an argument count it was not emitted
    for: the reference loop binds what it is given (a codegen failure).  A
    register image for a unit without OSR entries is a caller's bug."""
    if regs is not None:
        raise RuntimeError("%s has no OSR entry to be hop-entered at" % ncode.name)
    vm.state.pycodegen_failures += 1
    return execute_ref(ncode, args, vm, closure_env)


def _na_rtype(v):
    """The ``observed`` type a VLOAD NA-deopt reports (see execute_ref)."""
    return RType(v.kind, scalar=True, maybe_na=True)


def _kernel_regs(ncode, kd) -> Tuple[list, list]:
    """(spill, reload) register sets for one bulk-kernel call site: what
    ``run_kernel`` reads (induction, bound, sequence, accumulator, chain
    roots, store value) plus what a chaos deopt's descriptors read; on
    ``ok`` only the advanced registers flow back."""
    spill = {r for r in (kd.idx_reg, kd.bound_reg, kd.seq_reg, kd.acc_reg) if r is not None}
    spill.update(kd.seqv_regs)
    spill.update(chain[1][1] for chain in kd.chains if chain[1][0] == "reg")  # (key, source, ...)
    spec = kd.val_spec
    if spec is not None and spec[0] == "reg":
        spill.add(spec[1])
    for ev in kd.events:
        spill.update(descr_regs(ncode.deopts[ev.did]))
    reload = {r for r in (kd.idx_reg, kd.acc_reg) if r is not None}.union(kd.seqv_regs)
    return sorted(spill), sorted(reload)


_BINOP = {
    N.PADD: "+", N.PSUB: "-", N.PMUL: "*",
    N.PLT: "<", N.PLE: "<=", N.PGT: ">", N.PGE: ">=",
    N.PEQ: "==", N.PNE: "!=",
}

#: one-line templates over a result and one operand register
_UNARY = {N.MOVE: "%s = %s", N.VLEN: "%s = len(%s.data)", N.UNBOX: "%s = %s.data[0]",
          N.PNEG: "%s = -%s", N.PNOT: "%s = not %s"}

_GEN_CALL = {N.GEN_ARITH: "_arith", N.GEN_COMPARE: "_cmpf", N.GEN_LOGIC: "_logic"}

#: generic ops that are one helper call over their register operands
_GEN_REGS = {N.GEN_COLON: "_colon", N.GEN_EX2: "_ex2", N.GEN_EX1: "_ex1",
             N.GEN_SET2: "_set2", N.GEN_SET1: "_set1"}


#: indents an arm's body may nest before the node going deeper is made an arm
#: (CPython's tokenizer stops at 100; the unit's frame and an op's lines take 8)
_MAX_NEST = 32
#: Python loops an arm may nest (CPython refuses a 21st nested block; the
#: unit's ``try``, the dispatch ``while`` and a PPOW ``try`` take three)
_MAX_LOOPS = 17


class _Demote(Exception):
    """The printer cannot nest node ``args[0]`` where it stands: make it an arm."""


def _emit(ncode) -> Tuple[str, list]:
    """Walk the canonical op stream and return ``(source, consts)``."""
    ops = ncode.ops
    nops = len(ops)
    if any(ins[0] not in N.NAMES for ins in ops):
        # declines the unit wherever the op sits, also in a block no edge
        # reaches (which the walk below never visits)
        raise UnsupportedUnit("unknown opcode")
    consts: List[Any] = []
    cindex = {}

    def K(obj) -> str:
        if id(obj) not in cindex:
            cindex[id(obj)] = len(consts)
            consts.append(obj)
        return "_K[%d]" % cindex[id(obj)]

    def match_expr(var: str, t) -> str:
        """Specialize ``_type_matches(var, t)`` for a static RType."""
        cls = {Kind.CLO: "RClosure", Kind.BUILTIN: "RBuiltin"}.get(t.kind)
        if cls:
            return "isinstance(%s, %s)" % (var, cls)
        parts = ["isinstance(%s, RVector)" % var, "%s.kind == %s" % (var, K(t.kind))]
        if t.scalar:
            parts.append("len(%s.data) == 1" % var)
            if not t.maybe_na:
                parts.append("%s.data[0] is not None" % var)
        return " and ".join(parts)

    entries = sorted({e.index for e in ncode.osr_entries.values()})
    leaderset = branch_targets(ops).union(entries)

    def follow(idx: int, fold: int = 0) -> Tuple[int, int]:
        """Thread JMP chains; ``fold`` counts the JMPs the reference loop runs."""
        seen = set()
        while ops[idx][0] == N.JMP and idx not in seen:  # a cycle: a malformed stream
            seen.add(idx)
            fold += 1
            idx = ops[idx][1]
        return idx, fold

    def successors(i: int) -> tuple:
        """Threaded targets of the edges leaving the block that starts at ``i``."""
        while True:
            ins = ops[i]
            if ins[0] in (N.JMP, N.BRT):
                return tuple(follow(t)[0] for t in (ins[1:2] if ins[0] == N.JMP else ins[2:4]))
            i += 1
            if ins[0] == N.RET or i >= nops:
                return ()
            if i in leaderset:
                return (follow(i)[0],)

    def labs(S) -> str:
        """A test that ``_b`` holds one of the labels ``S``."""
        return "_b == %d" % min(S) if len(S) == 1 else "_b in %r" % (tuple(sorted(S)),)

    def lone(t: int) -> bool:
        """A lone RET is printed at every edge to it: such an edge *is* a return."""
        return ops[t][0] == N.RET and t != 0

    maybe_unset = set()  # registers whose entry value may be read
    seen_regs = set()    # every register the text names (a hop binds them all)

    def here(t: int, cur: int) -> int:
        """How the edge from ``cur`` reaches ``t``: 1 printed on, pending counts
        carried (no other edge enters ``t``); 2 the same for a loop's header,
        counts flushed; 0 a jump."""
        if lone(t):
            return 1
        if fwd[t] != 1 or t in armset or t in afterset or (t in body and dom(t, cur)):
            return 0
        return 2 if t in body else 1

    def cover(L, lv, end=None) -> bool:
        """Put level ``lv``'s lines from its mark to ``end`` under ``if not _b:``
        while a hop label is live there (the hop skips them); mark the end."""
        end = len(L) if end is None else end
        wrap = bool(lv[2]) and end > lv[1]
        if wrap:
            L[lv[1]:end] = [(lv[0], "if not _b:")] + [(d + 1, t) for d, t in L[lv[1]:end]]
        lv[1] = len(L)
        return wrap

    def flush(L, ind: int, pend: List[int], fold: int) -> None:
        """The path's one literal counter flush, over ``fold`` threaded JMPs."""
        for name, k in zip("ngu", (pend[0] + fold, pend[1], pend[2])):
            if k:
                L.append((ind, "_%s += %d" % (name, k)))

    def jump(L, ind: int, t: int, nxt, ctx) -> bool:
        """Go to ``t``, counts flushed: fall off the end (True), ``continue`` or
        ``break`` a loop, or set ``_b = t`` for the checks after the loops it
        leaves (for an outer loop's header or exit, or another arm)."""
        if t == nxt:
            return True
        for k in range(len(ctx) - 1, -1, -1):
            if t in ctx[k][:2]:
                if k == len(ctx) - 1:
                    ctx[k][3] |= t == ctx[k][1]
                    L.append((ind, "continue" if t == ctx[k][0] else "break"))
                    return False
                break
        else:
            if t not in armset:
                raise _Demote(t)
            k = -1
        L += [(ind, "_b = %d" % t), (ind, "break" if ctx else "continue")]
        for fr in ctx[k + 1:]:
            fr[2].add(t)
        return False

    def side(L, lv, t: int, fold: int, pend, written, nxt, ctx, cur: int) -> bool:
        """Leave block ``cur`` for ``t``: print ``t`` here if this edge is its
        only way in, else flush the path's counts (or, for the one edge into
        what follows a loop, carry them past its ``break``) and jump."""
        how = here(t, cur)
        if how == 1:
            pend[0] += fold
            return node(L, t, lv, pend, written, nxt, ctx)
        out = next((fr for fr in ctx if after[fr[0]][:1] == [t] and fwd[t] == 1
                    and t not in body), None)
        if out:
            out[4] = [pend[0] + fold, pend[1], pend[2]]
        else:
            flush(L, lv[0], pend, fold)
        return node(L, t, lv, [0, 0, 0], written, nxt, ctx) if how else jump(L, lv[0], t, nxt, ctx)

    def node(L, x: int, lv, pend, written, nxt, ctx) -> bool:
        """Print node ``x`` and what it dominates at level ``lv`` = [indent,
        mark (where its lines not yet under a routing guard start), live (the
        hop labels control may carry there)]; returns whether control can fall
        off the end, to ``nxt``."""
        if x not in armset and not lone(x) and (
                lv[0] >= _MAX_NEST or x in body and len(ctx) >= _MAX_LOOPS):
            raise _Demote(x)
        if x not in body:
            return block(L, x, lv, pend, written, nxt, ctx,
                         [c for c in kids.get(x, ()) if fwd[c] > 1])
        # a loop: the labels inside it route in, the header's own clears ``_b``
        S, ind = body[x] & sub[x] & lv[2], lv[0]
        if S:
            rest, others, head = S - {x}, lv[2] - S, x in S
            if cover(L, lv) and head:  # the guard's ``else`` clears
                L += [(ind, "elif _b == %d:" % x if rest or others else "else:"),
                      (ind + 1, "_b = 0")]
                head = False
            if others:
                enter = rest | ({x} if head else set())
                L.append((ind, "if not _b or %s:" % labs(enter) if enter else "if not _b:"))
                ind += 1
            if head:
                L += [(ind, "if _b == %d:" % x)] if rest else []
                L.append((ind + bool(rest), "_b = 0"))
        fr = [x, after[x][0] if after[x] else nxt, set(), False, [0, 0, 0]]
        L.append((ind, "while True:"))
        block(L, x, [ind + 1, len(L), S - {x}], pend, written, x, ctx + (fr,),
              [c for c in kids[x] if c in body[x] and fwd[c] > 1])
        up = ctx[-1] if ctx else None
        own = [t for t in sorted(fr[2]) if up and t in up[:2]]
        for t in own:  # a multi-level exit reaching its loop
            L += [(ind, "if _b == %d:" % t), (ind + 1, "_b = 0"),
                  (ind + 1, "continue" if t == up[0] else "break")]
            up[3] |= t == up[1]
        if len(own) < len(fr[2]):  # ... or passing on
            L += [(ind, "if _b:"), (ind + 1, "break" if up else "continue")]
        if S:
            lv[1], lv[2] = len(L), lv[2] - S
        falls, outs = fr[3], after[x]
        for k, c in enumerate(outs):
            falls = node(L, c, lv, [0, 0, 0] if k else fr[4], set(),
                         outs[k + 1] if k + 1 < len(outs) else nxt, ctx)
        return falls

    def block(L, i: int, lv, pend: List[int], written: set, nxt, ctx, queue) -> bool:
        """The block at op ``i`` and those only it reaches (a side one level
        deeper, on copies of ``pend`` -- pending native / generic / guard
        counts -- and ``written``), then ``queue``, the joins they dominate."""
        base, cur, falls = lv[0], i, False

        def out(ind: int, *texts: str) -> None:
            for text in texts:
                L.append((base + ind, text))

        def use(r: int) -> str:
            if r not in written:
                maybe_unset.add(r)
            seen_regs.add(r)
            return "r%d" % r

        def defn(r: int) -> str:
            written.add(r)
            seen_regs.add(r)
            return "r%d" % r

        def counters() -> Tuple[str, str, str]:
            return ("_n+%d" % pend[0], ("_g+%d" % pend[1]) if pend[1] else "_g",
                    ("_u+%d" % pend[2]) if pend[2] else "_u")

        def raise_stmt(did: int, observed: str = "None", kind: str = "None") -> str:
            return "raise _DS(%d, %s, %s, %s, %s, %s)" % (
                (did,) + counters() + (observed, kind))

        def call_flush() -> None:
            # mirror of the reference loop's pre-call flush: the call op is
            # included, the generic/guard counters keep accumulating
            out(0, "state.native_ops += _n + %d" % pend[0], "_n = 0")
            pend[0] = 0

        def guard(test: str, did: int, observed: str = "None") -> None:
            # the check's raise, then the chaos draw's, in op order
            pend[2] += 1
            out(0, "if %s:" % test)
            out(1, raise_stmt(did, observed))
            out(0, "if _ch is not None and _ch.random() < _rate:")
            out(1, raise_stmt(did, observed, kind="_CHAOS"))

        while True:
            ins, op = ops[i], ops[i][0]
            if op != N.KERNEL:
                pend[0] += 1

            edge = None  # (leader, threaded JMPs) when the op ends its block
            if op == N.RET:
                dn, dg, du = counters()
                out(0, "state.native_ops += " + dn, "state.native_generic_ops += " + dg,
                    "state.guards_executed += " + du, "return " + use(ins[1]))
                break
            elif op == N.JMP:
                edge = follow(ins[1])
            elif op == N.BRT:
                # a side that cannot fall through to the join nests under ``if``
                # and the other goes on; if both can, ``if``/``else``, join after
                cond = use(ins[1])
                (t, tf), edge = follow(ins[2]), follow(ins[3])
                join = queue[0] if queue else nxt
                on = [here(u, cur) for u in (t, edge[0])]
                if not on[1] and edge[0] != join and (on[0] or t == join):
                    out(0, "if not %s:" % cond)
                    side(L, [base + 1, len(L), set()], edge[0], edge[1],
                         [pend[0], pend[1], pend[2]], set(written), join, ctx, cur)
                    edge = (t, tf)
                else:
                    T = sub.get(t, set()) & lv[2] if on[0] else set()
                    pos = len(L)
                    out(0, "")
                    tlv = [base + 1, len(L), T]
                    falls = side(L, tlv, t, tf, [pend[0], pend[1], pend[2]], set(written),
                                 join, ctx, cur)
                    cover(L, tlv)
                    F = sub.get(edge[0], set()) & lv[2] if falls and on[1] else set()
                    if falls:
                        out(0, "else:")
                        flv = [base + 1, len(L), lv[2] - T if T or F else set()]
                        side(L, flv, edge[0], edge[1], pend, written, join, ctx, cur)
                        cover(L, flv)
                    L[pos] = (base, "if %s:" % (
                        (labs(T) + " or not _b and " if lv[2] - T else "_b or ") + cond if T
                        else "not _b and " + cond if F else cond))
                    if T or F:  # the lines before a label's statement are skipped
                        cover(L, lv, pos)
                        lv[1], lv[2] = len(L), lv[2] - T - F
                    if falls:
                        break
            elif op in _BINOP:
                a, b = use(ins[2]), use(ins[3])
                out(0, "%s = %s %s %s" % (defn(ins[1]), a, _BINOP[op], b))
            elif op in _UNARY:
                a = use(ins[2])
                out(0, _UNARY[op] % (defn(ins[1]), a))
            elif op == N.VLOAD:
                v, x = use(ins[2]), use(ins[3])
                out(0, "_d = %s.data" % v)
                out(0, "if %s < 1 or %s > len(_d):" % (x, x))
                out(1, 'raise RError("subscript out of bounds")')
                # the element goes straight to its register (the NA deopt's
                # descriptor never reads it), unless that is the vector's;
                # an INT or LGL index is an int already, R truncates a DBL one
                w = "_w" if ins[1] == ins[2] else defn(ins[1])
                out(0, "%s = _d[%s - 1]" % (w, x if ins[5] else "int(%s)" % x))
                out(0, "if %s is None:" % w)
                out(1, raise_stmt(ins[4], observed="_naty(%s)" % v))
                if w == "_w":
                    out(0, "%s = _w" % defn(ins[1]))
            elif op == N.PDIV:
                a, b = use(ins[2]), use(ins[3])
                d = defn(ins[1])
                out(0, "if %s == 0:" % b)
                out(1, "if isinstance(%s, complex) or isinstance(%s, complex):" % (a, b))
                out(2, 'raise RError("complex division by zero")')
                out(1, '%s = float("nan") if %s == 0 else math.copysign(math.inf, %s)' % (d, a, a))
                out(0, "else:")
                out(1, "%s = %s / %s" % (d, a, b))
            elif op == N.GTYPE:
                v = use(ins[1])
                guard("not (%s)" % match_expr(v, ins[2]), ins[3], "_rq(%s)" % v)
            elif op == N.VSTORE:
                v, x, w = use(ins[2]), use(ins[3]), use(ins[4])
                if not ins[6]:
                    out(0, "_i = int(%s)" % x)
                    x = "_i"
                d = defn(ins[1])
                kind, vkind = ins[5], ins[7]
                widens = kind in (Kind.LGL, Kind.INT)
                # in place, the result is the vector: a copy only into another register
                keep = "%s = %s" % (d, v) if d != v else None
                if vkind == kind or (widens and vkind == Kind.DBL):
                    # a guard proved the vector's kind: sharing and bounds are left
                    out(0, "if %s.named <= 1 and 1 <= %s <= len(%s.data):" % (v, x, v))
                    out(1, "%s.data[%s - 1] = %s" % (v, x, w if vkind == kind else "float(%s)" % w))
                else:
                    out(0, "if isinstance(%s, RVector) and %s.named <= 1 and %s.kind == %s "
                           "and 1 <= %s <= len(%s.data):" % (v, v, v, K(kind), x, v))
                    out(1, "%s.data[%s - 1] = %s" % (v, x, w))
                    if widens:
                        if keep:
                            out(1, keep)
                        out(0, "elif isinstance(%s, RVector) and %s.named <= 1 and 1 <= %s "
                               "<= len(%s.data) and %s.kind == %s:" % (v, v, x, v, v, K(Kind.DBL)))
                        out(1, "%s.data[%s - 1] = float(%s)" % (v, x, w))
                if keep:
                    out(1, keep)
                out(0, "else:")
                out(1, "%s = _assign2(%s, RVector(%s, [%s]), RVector(%s, [%s]))"
                       % (d, v, K(Kind.INT), x, K(kind), w))
            elif op == N.BOX:
                a, kind = use(ins[2]), ins[3]
                # the payload in its kind's representation (see execute_ref)
                fix = {Kind.DBL: "float(%s) if type(%s) is int else %s",
                       Kind.INT: "int(%s) if type(%s) is bool else %s",
                       Kind.CPLX: "complex(%s) if not isinstance(%s, complex) and %s is not None "
                                  "else %s"}.get(kind, "%s")
                out(0, "%s = RVector(%s, [%s])" % (defn(ins[1]), K(kind),
                                                   fix.replace("%s", a)))
            elif op == N.PPOW:
                a, b = use(ins[2]), use(ins[3])
                out(0, "try:")
                out(1, "_x = %s ** %s" % (a, b))
                out(0, "except (OverflowError, ZeroDivisionError):")
                out(1, "_x = math.inf")
                out(0, "if isinstance(_x, complex) and not "
                       "(isinstance(%s, complex) or isinstance(%s, complex)):" % (a, b))
                out(1, '_x = float("nan")')
                out(0, "elif isinstance(_x, int):")
                out(1, "_x = float(_x)")
                out(0, "%s = _x" % defn(ins[1]))
            elif op in (N.PMODI, N.PIDIVI):
                b, a = use(ins[3]), use(ins[2])
                out(0, "if %s == 0:" % b)
                out(1, raise_stmt(ins[4]))
                out(0, "%s = %s %s %s" % (defn(ins[1]), a, "%" if op == N.PMODI else "//", b))
            elif op == N.PMODF:
                b, a = use(ins[3]), use(ins[2])
                out(0, '%s = float("nan") if %s == 0 else %s - math.floor(%s / %s) * %s'
                       % (defn(ins[1]), b, a, a, b, b))
            elif op == N.PIDIVF:
                b, a = use(ins[3]), use(ins[2])
                d = defn(ins[1])
                out(0, "if %s == 0:" % b)
                out(1, '%s = math.inf if %s > 0 else (-math.inf if %s < 0 else float("nan"))'
                       % (d, a, a))
                out(0, "else:")
                out(1, "%s = float(math.floor(%s / %s))" % (d, a, b))
            elif op == N.GIDENT:
                v = use(ins[1])
                guard("%s is not %s" % (v, K(ins[2])), ins[3], v)
            elif op == N.ISTYPE:
                a = use(ins[2])
                out(0, "%s = _tm(%s, %s)" % (defn(ins[1]), a, K(ins[3])))
            elif op == N.ISIDENT:
                a = use(ins[2])
                out(0, "%s = %s is %s" % (defn(ins[1]), a, K(ins[3])))
            elif op == N.ASSUME:
                guard("not " + use(ins[1]), ins[2])
            elif op == N.FORCE:
                a = use(ins[2])
                if ins[1] == ins[2]:
                    out(0, "if isinstance(%s, RPromise):" % a)
                    out(1, "%s = _force(%s, vm)" % (a, a))
                else:
                    out(0, "%s = _force(%s, vm) if isinstance(%s, RPromise) else %s"
                           % (defn(ins[1]), a, a, a))
            elif op == N.AS_LGL:
                a = use(ins[2])
                out(0, "%s = %s.is_true() if isinstance(%s, RVector) else _ab(%s)"
                       % (defn(ins[1]), a, a, a))
            elif op in _GEN_CALL:
                pend[1] += 1
                a, b = use(ins[3]), use(ins[4])
                out(0, "%s = %s(%r, %s, %s)"
                       % (defn(ins[1]), _GEN_CALL[op], ins[2], a, b))
            elif op == N.GEN_UNARY:
                pend[1] += 1
                a = use(ins[3])
                out(0, "%s = _unary(%r, %s)" % (defn(ins[1]), ins[2], a))
            elif op in _GEN_REGS:
                pend[1] += 1
                srcs = ", ".join([use(r) for r in ins[2:]])
                out(0, "%s = %s(%s)" % (defn(ins[1]), _GEN_REGS[op], srcs))
            elif op == N.GEN_SEQLEN:
                pend[1] += 1
                a = use(ins[2])
                out(0, "_i = len(%s.data) if isinstance(%s, RVector) else 0 if %s is NULL else 1"
                       % (a, a, a), "%s = RVector(%s, [_i])" % (defn(ins[1]), K(Kind.INT)))
            elif op == N.CHECKFUN:
                out(0, "if not isinstance(%s, (RClosure, RBuiltin)):" % use(ins[1]))
                out(1, 'raise RError("attempt to apply non-function")')
            elif op == N.SHARE:
                a = use(ins[1])
                out(0, "if isinstance(%s, RVector):" % a)
                out(1, "%s.named = 2" % a)
            elif op in (N.LDVAR_ENV, N.LDVAR_FREE):
                env = use(ins[2]) if op == N.LDVAR_ENV else "closure_env"
                d = defn(ins[1])
                out(0, "%s = %s.get(%r)" % (d, env, ins[-1]))
                out(0, "if isinstance(%s, RPromise):" % d)
                out(1, "%s = _force(%s, vm)" % (d, d))
            elif op == N.STVAR_ENV:
                e, v = use(ins[1]), use(ins[3])
                out(0, "if isinstance(%s, RVector):" % v)
                out(1, "if %s.named == 0:" % v)
                out(2, "%s.named = 1" % v)
                out(1, "elif %s.bindings.get(%r) is not %s:" % (e, ins[2], v))
                out(2, "%s.named = 2" % v)
                out(0, "%s.set(%r, %s)" % (e, ins[2], v))
            elif op == N.STSUPER:
                v = use(ins[3])
                out(0, "if isinstance(%s, RVector):" % v)
                out(1, "%s.named = 2" % v)
                if ins[1] is not None:
                    out(0, "%s.set_super(%r, %s)" % (use(ins[1]), ins[2], v))
                else:
                    out(0, "_sas(closure_env, %r, %s)" % (ins[2], v))
            elif op == N.LDFUN:
                env = use(ins[2]) if ins[2] is not None else "closure_env"
                out(0, "%s = %s.get_function(%r)" % (defn(ins[1]), env, ins[3]))
            elif op == N.MKCLOSURE:
                code, formals, fname = ins[3]
                e = use(ins[2])
                out(0, "%s = RClosure(%s, %s, %s, %r)"
                       % (defn(ins[1]), K(formals), K(code), e, fname))
            elif op == N.MKPROMISE:
                e = use(ins[2])
                out(0, "%s = RPromise(%s, %s)" % (defn(ins[1]), K(ins[3]), e))
            elif op == N.CALLB:
                call_flush()
                fargs = ", ".join("_force(%s, vm)" % use(r) for r in ins[3])
                out(0, "%s = %s.fn([%s], vm)" % (defn(ins[1]), K(ins[2]), fargs))
            elif op == N.CALLS:
                call_flush()
                fargs = ", ".join(use(r) for r in ins[3])
                out(0, "%s = vm.call_closure(%s, [%s], %r)"
                       % (defn(ins[1]), K(ins[2]), fargs, ins[4]))
            elif op == N.CALLG:
                call_flush()
                fn = use(ins[2])
                fargs = ", ".join(use(r) for r in ins[3])
                out(0, "%s = _callf(%s, [%s], %r, vm)"
                       % (defn(ins[1]), fn, fargs, ins[4]))
            elif op == N.KERNEL:
                kd = ncode.kernels[ins[1]]
                spill, reload = _kernel_regs(ncode, kd)
                k = 0
                if kd.idx_reg is not None:
                    # run_kernel declines a short trip (SHORT_TRIP): skip the spill too
                    j, b = use(kd.idx_reg), use(kd.bound_reg)
                    out(0, "if type(%s) is not int or type(%s) is not int or %s - %s >= %d:"
                           % (j, b, b, j, SHORT_TRIP))
                    k = 1
                out(k, "_rs = [None] * %d" % ncode.n_regs)
                out(k, *["_rs[%d] = %s" % (r, use(r)) for r in spill])
                out(k, "_r = _kern(ncode.kernels[%d], _rs, vm, closure_env)" % ins[1])
                out(k, "_s = _r[0]")
                out(k, 'if _s == "ok":')
                out(k + 1, "_n += _r[1]", "_u += _r[2]", "_g += _r[3]",
                    "state.kernel_elements += _r[4]")
                out(k + 1, *["%s = _rs[%d]" % (defn(r), r) for r in reload])
                out(k, 'elif _s == "deopt":')
                out(k + 1, "state.kernel_elements += _r[7]")
                dn, dg, du = counters()
                out(k + 1, "raise _DS(_r[1], %s + _r[4], %s + _r[6], %s + _r[5], "
                           "_r[2], _r[3], _rs)" % (dn, dg, du))
            else:  # pragma: no cover - an opcode in N.NAMES without a translation
                raise UnsupportedUnit("opcode %d" % op)

            if edge is None:
                i += 1
                if i >= nops:  # pragma: no cover - lowerer always terminates blocks
                    out(0, 'raise RError("fell off native code")')
                    break
                if i not in leaderset:
                    continue
                edge = follow(i)
            t, fold = edge
            if here(t, cur) != 1:
                falls = side(L, lv, t, fold, pend, written, queue[0] if queue else nxt,
                             ctx, cur)
                break
            pend[0] += fold
            i = cur = t
            queue[:0] = [c for c in kids.get(t, ()) if fwd[c] > 1]
        for k, m in enumerate(queue):
            falls = node(L, m, lv, [0, 0, 0], set(),
                         queue[k + 1] if k + 1 < len(queue) else nxt, ctx)
        return falls

    # The plan: the dominator tree of the leaders the arms reach.  A virtual
    # root (-1) enters every arm, so an arm's region is what it dominates.  A
    # node two regions reach, the target of a retreating edge its source is
    # not dominated by (an irreducible loop) and a hop entry outside op 0's
    # region become arms until none is left; then the printer, which makes an
    # arm of what it cannot nest (``_Demote``) and plans again.
    armset = {0}
    while True:
        succ, rpo, stack = {-1: sorted(armset)}, [], [(-1, iter(sorted(armset)))]
        while stack:  # depth first, iteratively
            b, it = stack[-1]
            t = next((t for t in it if t not in succ), None)
            if t is None:
                rpo.append(stack.pop()[0])
            else:
                succ[t] = [s for s in successors(t) if not lone(s)]
                stack.append((t, iter(succ[t])))
        rpo.reverse()
        num = {b: k for k, b in enumerate(rpo)}
        preds = {b: [] for b in rpo}
        for b in rpo:
            for t in succ[b]:
                preds[t].append(b)
        idom, changed = {-1: -1}, True
        while changed:  # Cooper, Harvey and Kennedy's iteration
            changed = False
            for b in rpo[1:]:
                ps = [p for p in preds[b] if p in idom]
                d = ps[0]
                for p in ps[1:]:
                    while p != d:
                        while num[p] > num[d]:
                            p = idom[p]
                        while num[d] > num[p]:
                            d = idom[d]
                changed |= idom.get(b) != d
                idom[b] = d

        def dom(a: int, b: int) -> bool:
            while num[b] > num[a]:
                b = idom[b]
            return a == b

        grow = {e for e in entries if e not in num or not dom(0, e)}
        grow.update(b for b in rpo[1:] if idom[b] == -1)
        grow.update(t for b in rpo[1:] for t in succ[b] if num[t] <= num[b] and not dom(t, b))
        if not grow <= armset:
            armset |= grow
            continue
        body = {}  # loop header -> the nodes of its natural loop
        for b, h in [(b, h) for b in rpo[1:] for h in succ[b] if num[h] <= num[b] and dom(h, b)]:
            lp, work = body.setdefault(h, {h}), [b]  # a backedge: what reaches b, not h
            while work:
                u = work.pop()
                if u not in lp:
                    lp.add(u)
                    work.extend(preds[u])
        fwd = {b: 0 for b in rpo}  # forward in-edges: a merge node has two
        kids = {b: [] for b in rpo}  # dominator tree, children in RPO
        for b in rpo:
            for t in succ[b]:
                fwd[t] += num[t] > num[b]  # a retreating edge is a backedge or enters an arm
            if b != -1:
                kids[idom[b]].append(b)
        labels = set(entries) - armset - {0}
        sub = {}  # node -> the hop labels among the nodes it dominates
        for b in reversed(rpo):
            sub[b] = ({b} & labels).union(*(sub[c] for c in kids[b]))
        after = {}  # loop header -> the nodes printed after its ``while``
        for h in body:
            outs = [c for c in kids[h] if c not in body[h]]
            after[h] = outs if len(outs) == 1 else [c for c in outs if fwd[c] > 1]
        afterset = set().union(*after.values())
        maybe_unset.clear()
        seen_regs.clear()
        blocks = {a: [] for a in armset}
        try:
            for a in armset:
                node(blocks[a], a, [0, 0, labels if a == 0 else set()], [0, 0, 0], set(),
                     None, ())
            break
        except _Demote as d:
            armset.add(d.args[0])

    lines: List[str] = []

    def render(ind: int, *texts: str) -> None:
        lines.extend(["    " * ind + text for text in texts])

    params, pu = list(ncode.param_regs), ncode.param_unbox
    const_regs = {i for i, v0 in enumerate(ncode.reg_init) if v0 is not None}
    fallback = "return _fallback(ncode, vm, args, closure_env, _regs)"
    render(0, "def _unit(ncode, vm, args, closure_env, _entry=None, _regs=None):")
    render(1, "state = vm.state", "_ch = vm.chaos_rng if vm.config.chaos_rate > 0.0 else None",
           "_rate = vm.config.chaos_rate")
    # only a unit with OSR entries can be hop-entered: the others carry no
    # _regs prologue and hand a register image to _fallback, which refuses it
    ind = 2 if entries else 1
    if entries:
        render(1, "if _regs is None:")
        render(2, "if len(args) != %d:" % len(params))
    else:
        render(1, "if _regs is not None or len(args) != %d:" % len(params))
    render(ind + 1, fallback)
    for r in sorted((const_regs & maybe_unset).difference(params)):
        render(ind, "r%d = %s" % (r, K(ncode.reg_init[r])))
    unset = sorted((maybe_unset - const_regs).difference(params))
    if unset:
        render(ind, " = ".join(["r%d" % r for r in unset] + ["None"]))
    for pos, r in enumerate(params):
        unbox = pu is not None and pu[pos] is not None
        render(ind, "r%d = args[%d]%s" % (r, pos, ".data[0]" if unbox else ""))
    arms = sorted(armset - {0}, key=lambda a: (a not in body, a))  # loop headers first
    if entries:
        # a hop: a seeded register image, ``_b`` the entry's loop header
        render(2, "_b = 0")
        render(1, "else:")
        render(2, "[%s] = _regs" % ", ".join(
            ["r%d" % r if r in seen_regs else "_" for r in range(ncode.n_regs)]),
            "if _entry not in %r:" % (tuple(entries),))
        render(3, 'raise RError("no native entry at op %d" % _entry)')
        render(2, "_b = _entry")
    elif arms or any("_b" in text for a in blocks for _, text in blocks[a]):
        render(1, "_b = 0")
    render(1, "_n = 0", "_g = 0", "_u = 0", "try:")
    if arms:  # the dispatch loop: ``_b`` names the arm to go on in, 0 op 0's
        render(2, "while True:")
        for n, a in enumerate(arms):
            render(3, "%s _b == %d:" % ("elif" if n else "if", a))
            render(4, "_b = 0", *("    " * d + text for d, text in blocks[a]))
        render(3, "else:")
    render(4 if arms else 2, *("    " * d + text for d, text in blocks[0]))
    render(1, "except _DS as _sig:")
    render(2, "return _fail(ncode, vm, closure_env, _sig, locals(), _regs)")
    return "\n".join(lines) + "\n", consts


_ENV_CACHE: Optional[dict] = None


def _shared_env() -> dict:
    """The globals of every generated function (``_K`` is added at bind)."""
    global _ENV_CACHE
    env = _ENV_CACHE
    if env is None:
        env = _ENV_CACHE = {
            "__builtins__": __builtins__, "_DS": DeoptSignal, "_fail": _fail,
            "_fallback": _fallback, "_tm": _type_matches, "_rq": rtype_quick,
            "_naty": _na_rtype, "_force": force_value, "_ab": _as_bool,
            "_sas": _super_assign_from, "_callf": call_function, "_kern": run_kernel,
            "_arith": coerce.arith, "_cmpf": coerce.compare, "_logic": coerce.logic,
            "_unary": coerce.unary, "_colon": coerce.colon, "_ex2": coerce.extract2,
            "_ex1": coerce.extract1, "_set2": _generic_set2, "_set1": coerce.assign1,
            "_assign2": coerce.assign2, "RVector": RVector, "RClosure": RClosure,
            "RBuiltin": RBuiltin, "RPromise": RPromise, "RError": RError, "NULL": NULL,
            "math": math, "_CHAOS": DeoptReasonKind.CHAOS,
        }
    return env


def _decline(ncode) -> None:
    """Mark a unit as untranslatable: the reference loop runs it."""
    ncode.pysrc = False
    ncode.pyconsts = ncode.pycode = ncode.pyfunc = None


def ensure_source(ncode, state=None):
    """Emit (once) the unit's source and constant pool and return the text:
    None once compiled (``pycode``), False once declined."""
    if ncode.pysrc is None and ncode.pycode is None:
        try:
            ncode.pysrc, ncode.pyconsts = _emit(ncode)
        except Exception:
            _decline(ncode)
            if state is not None:
                state.pycodegen_failures += 1
        else:
            if state is not None:
                state.pycodegen_units += 1
    return ncode.pysrc


def source(ncode) -> str:
    """The unit's source text, emitted again: it is not kept once compiled."""
    return _emit(ncode)[0]


def _compile(ncode):
    """The one ``compile()`` of generated source; ``dont_inherit``: the code
    object depends on the text alone, so jit/persist.py can store it."""
    return compile(ncode.pysrc, "<pycodegen:%s>" % ncode.name, "exec", dont_inherit=True)


def bind(ncode, vm):
    """The unit's generated function, or None when the reference loop runs
    it (emission or compilation declined).  Taken on the template the unit
    was cloned from and shared by every clone: the code object, compiled
    here once (the text then dropped) or arrived in the unit's bytes, is
    exec'd; a failure is paid once per template."""
    tmpl = ncode.cache_template or ncode
    if tmpl.pyfunc is None and tmpl.pysrc is not False:
        code = tmpl.pycode
        try:
            if code is None and ensure_source(tmpl, vm.state):
                code, tmpl.pysrc = _compile(tmpl), None
            if code is not None:
                g = dict(_shared_env())
                g["_K"] = tuple(tmpl.pyconsts or ())
                exec(code, g)
                tmpl.pycode, tmpl.pyfunc = code, g["_unit"]
        except Exception:
            vm.state.pycodegen_failures += 1
            _decline(tmpl)
    ncode.pysrc, ncode.pyconsts = tmpl.pysrc, tmpl.pyconsts
    ncode.pycode, ncode.pyfunc = tmpl.pycode, tmpl.pyfunc
    return ncode.pyfunc


def execute_codegen(ncode, args, vm, closure_env=None, entry=None, regs=None):
    """Run a unit through its generated function (bound on first use), or the
    reference loop for a unit the emitter declines."""
    fn = ncode.pyfunc
    if fn is None:
        fn = bind(ncode, vm)
        if fn is None:
            return execute_ref(ncode, args, vm, closure_env, entry or 0, regs)
    if closure_env is None and ncode.closure is not None:
        closure_env = ncode.closure.env
    return fn(ncode, vm, args, closure_env, entry, regs)


# imported last: these helpers live in executor.py / kernels.py, and
# executor.py imports us at its bottom
from .executor import (  # noqa: E402
    _as_bool, _generic_set2, _super_assign_from, _type_matches, build_framestate, call_function,
    execute_ref, force_value)
from .kernels import SHORT_TRIP, run_kernel  # noqa: E402
