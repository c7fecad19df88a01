"""NativeCode → specialized Python source — the codegen execution tier.

The reference loop (executor.execute_ref) pays an if/elif opcode dispatch
and a tuple unpack per op.  This module removes both the way a real JIT
does — by *generating target code* per compilation unit.  ``_emit`` walks a
lowered :class:`~repro.native.lower.NativeCode` and prints straight-line
Python source: registers become plain locals (``r7``), each op becomes one
statement (or a few), guards become ``if``-raise of a :class:`DeoptSignal`
carrying the op's deopt-descriptor index, and bulk vector kernels become
direct ``run_kernel`` calls with a statically computed spill/reload set.
``compile()`` turns the text into a module code object (``NativeCode.pycode``)
and ``exec`` that into a single specialized function (``NativeCode.pyfunc``),
both kept on the cache template the unit was cloned from so later install
clones share them.

Control flow is *structured*: after jump threading, a block that exactly
one edge reaches is printed inline at the end of its predecessor (under
``if rC:`` for a taken branch, straight on otherwise), so a superblock runs
from a join point to the next one without touching the dispatch variable.
Only op 0, OSR entry leaders and join points (loop headers among them) are
arms of the ``while True: if _b == k`` chain; a unit with no other arm than
op 0 has no loop at all.

Equivalence contract: results, deopt frames and the engine-independent
telemetry — ``native_ops``, ``native_generic_ops``, ``guards_executed`` and
the ordered deopt event stream — must be bit-identical to the reference
if/elif loop.  Op counts
are therefore *statically batched*: the emitter carries the pending counts
along each path through a superblock and emits one literal ``_n += k``
where the path leaves for an arm (or folds them into the return), with
every deopt site raising the exact pending totals it would have observed in
the reference loop.  Chaos-mode RNG draws are emitted
after each passing guard in op order, so the draw sequence is identical in
both engines.

Deopt protocol: a guard names a *mapping* out of the frame, not a copy of
it.  Generated code raises ``DeoptSignal(did, dn, dg, du, observed, kind)``
— the deopt-descriptor index, the pending counter deltas, and the observed
value/kind overrides — and no registers.  The one top-level ``except``
hands the signal and ``locals()`` to ``_fail``, which lays the registers
the descriptor chain reads over the activation's base image (the seeded
``_regs`` of a hop-entered activation, ``reg_init`` otherwise), builds the
FrameState through the ordinary ``build_framestate`` descriptor walk, and
tail-calls ``vm.deopt`` exactly like the reference loop's ``deopt()``.
Only a bulk kernel's deopt still hands over a register file: its spill
list, which the kernel has already materialized the frame into.

The generated source is pure text plus an opaque constant pool
(``NativeCode.pyconsts``, referenced as ``_K[i]``), so its code object
depends on nothing but the text: jit/persist.py stores the marshalled code
object and the pool alongside the op stream, and a unit that comes back as
bytes is bound by an ``exec`` alone — no emitter walk, no ``compile()``.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from ..osr.framestate import DeoptReason, DeoptReasonKind
from ..runtime import coerce
from ..runtime.rtypes import Kind, RType
from ..runtime.values import (
    NULL,
    RBuiltin,
    RClosure,
    RError,
    RPromise,
    RVector,
    rtype_quick,
)
from . import ops as N
from .lower import branch_targets


class DeoptSignal(Exception):
    """A failing guard in generated code.

    ``dn``/``dg``/``du`` are the pending native/generic/guard counter deltas
    to flush.  ``regs`` is None for a scalar site — ``_fail`` reads the
    registers out of the raising frame — and the full register file for a
    kernel deopt (the spill list ``KernelFrameTemplate`` materialized).
    """

    def __init__(self, did, dn, dg, du, observed, kind, regs=None):
        Exception.__init__(self)
        self.did = did
        self.dn = dn
        self.dg = dg
        self.du = du
        self.observed = observed
        self.kind = kind
        self.regs = regs


class UnsupportedUnit(Exception):
    """Raised by the emitter on an op stream it cannot translate; the unit
    runs on the reference loop."""


def _fail(ncode, vm, closure_env, sig, frame, base):
    """Handle a DeoptSignal: rebuild the frame chain and tail-call
    ``vm.deopt`` — the mirror of the reference loop's ``deopt()``.

    ``frame`` is the raising activation's ``locals()`` and ``base`` the
    register image it was hop-entered with (None: entered at op 0)."""
    descr = ncode.deopts[sig.did]
    regs = sig.regs
    if regs is None:
        # registers the generated code never bound keep their base value,
        # as in the reference loop's register file
        regs = list(ncode.reg_init if base is None else base)
        for r in _descr_ref_regs(descr):
            name = "r%d" % r
            if name in frame:
                regs[r] = frame[name]
    fs = build_framestate(ncode, regs, descr, closure_env)
    reason = DeoptReason(
        sig.kind or descr.reason_kind,
        descr.reason_pc,
        observed=sig.observed,
        expected=descr.expected,
    )
    state = vm.state
    state.native_ops += sig.dn
    state.native_generic_ops += sig.dg
    state.guards_executed += sig.du
    return vm.deopt(fs, reason, origin=ncode)


def _fallback(ncode, vm, args, closure_env, regs=None):
    """A generated ``_unit`` called with an argument count it was not
    emitted for: the reference loop binds what it is given (counted as a
    codegen failure; parameter order mirrors ``_fail``).  A register image
    for a unit that was emitted without OSR entries is a caller's bug."""
    if regs is not None:
        raise RuntimeError("%s has no OSR entry to be hop-entered at" % ncode.name)
    vm.state.pycodegen_failures += 1
    return execute_ref(ncode, args, vm, closure_env)


def _na_rtype(v):
    """The ``observed`` type a VLOAD NA-deopt reports (see execute_ref)."""
    return RType(v.kind, scalar=True, maybe_na=True)


def _descr_ref_regs(descr) -> set:
    """Every register a descriptor chain reads in ``build_framestate``."""
    regs = set()
    d = descr
    while d is not None:
        for _name, reg, _kind in d.env_slots:
            regs.add(reg)
        for reg, _kind in d.stack:
            regs.add(reg)
        if d.env_reg is not None:
            regs.add(d.env_reg)
        d = d.parent
    return regs


def _kernel_regs(ncode, kd) -> Tuple[list, list]:
    """(spill, reload) register sets for one bulk-kernel call site.

    ``run_kernel`` reads the induction/bound/sequence/accumulator registers,
    register-rooted invariant chains and the store value spec; on a chaos
    deopt the guard's frame template plus the spilled descriptor references
    must make the spill list a valid register file for ``build_framestate``.
    On ``ok`` only the advanced registers flow back.
    """
    spill = set()
    for r in (kd.idx_reg, kd.bound_reg, kd.seq_reg, kd.acc_reg):
        if r is not None:
            spill.add(r)
    spill.update(kd.seqv_regs)
    for _key, source, _gtype, _gident, _member_regs, _elementwise in kd.chains:
        if source[0] == "reg":
            spill.add(source[1])
    spec = kd.val_spec
    if spec is not None and spec[0] == "reg":
        spill.add(spec[1])
    for ev in kd.events:
        spill.update(_descr_ref_regs(ncode.deopts[ev.did]))
    reload = set()
    if kd.idx_reg is not None:
        reload.add(kd.idx_reg)
    reload.update(kd.seqv_regs)
    if kd.acc_reg is not None:
        reload.add(kd.acc_reg)
    return sorted(spill), sorted(reload)


_BINOP = {
    N.PADD: "+", N.PSUB: "-", N.PMUL: "*",
    N.PLT: "<", N.PLE: "<=", N.PGT: ">", N.PGE: ">=",
    N.PEQ: "==", N.PNE: "!=",
}

_GEN_CALL = {
    N.GEN_ARITH: "_arith", N.GEN_COMPARE: "_cmpf", N.GEN_LOGIC: "_logic",
}

#: generic ops that are one helper call over their register operands
_GEN_REGS = {
    N.GEN_COLON: "_colon", N.GEN_EX2: "_ex2", N.GEN_EX1: "_ex1",
    N.GEN_SET2: "_set2", N.GEN_SET1: "_set1",
}


#: ``if`` levels a superblock may nest before a taken-branch target is made a
#: dispatch arm instead.  CPython's tokenizer gives up at 100 indents; the
#: unit's def/try/while/arm frame and an op's own inner lines take seven.
_MAX_NEST = 32


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
        i = cindex.get(id(obj))
        if i is None:
            i = len(consts)
            consts.append(obj)
            cindex[id(obj)] = i
        return "_K[%d]" % i

    def match_expr(var: str, t) -> str:
        """Specialize ``_type_matches(var, t)`` for a static RType."""
        if t.kind == Kind.CLO:
            return "isinstance(%s, RClosure)" % var
        if t.kind == Kind.BUILTIN:
            return "isinstance(%s, RBuiltin)" % var
        parts = [
            "isinstance(%s, RVector)" % var,
            "%s.kind == %s" % (var, K(t.kind)),
        ]
        if t.scalar:
            parts.append("len(%s.data) == 1" % var)
            if not t.maybe_na:
                parts.append("%s.data[0] is not None" % var)
        return " and ".join(parts)

    entries = sorted({e.index for e in ncode.osr_entries.values()})
    leaderset = branch_targets(ops).union(entries)

    maybe_unset = set()  # registers whose entry value may be read
    seen_regs = set()    # every register the generated code names (the OSR
                         # hop binds all of them from its seeded image)

    def follow(idx: int, fold: int = 0) -> Tuple[int, int]:
        """Thread unconditional-jump chains; ``fold`` counts the JMP ops
        the reference loop would have executed along the way."""
        seen = set()
        while ops[idx][0] == N.JMP:
            if idx in seen:  # pragma: no cover - malformed stream
                break
            seen.add(idx)
            fold += 1
            idx = ops[idx][1]
        return idx, fold

    def successors(i: int) -> tuple:
        """Threaded targets of the edges leaving the block that starts at ``i``."""
        while True:
            ins = ops[i]
            if ins[0] == N.JMP:
                return (follow(ins[1])[0],)
            if ins[0] == N.BRT:
                return (follow(ins[2])[0], follow(ins[3])[0])
            i += 1
            if ins[0] == N.RET or i >= nops:
                return ()
            if i in leaderset:
                return (follow(i)[0],)

    # Plan: count the edges into every leader reachable from an entry point.
    # Op 0 and the OSR entries are arms whatever reaches them (a hop lands
    # there); so is every join — a loop header has its entry edge and its
    # backedge.  A leader one edge reaches is inlined into that edge's block,
    # and so is a lone RET however many reach it: an edge to it *is* a return.
    roots = [0] + entries
    npred = dict.fromkeys(roots, 0)
    back: List[int] = []  # backedge targets
    work = list(npred)
    while work:
        b = work.pop()
        for t in successors(b):
            if t not in npred:
                work.append(t)
            npred[t] = npred.get(t, 0) + 1
            if t <= b and t not in back:
                back.append(t)
    armset = set(roots).union(
        t for t, n in npred.items() if n > 1 and ops[t][0] != N.RET)
    arms = sorted(armset)  # the nesting cap appends to both

    def emit_block(L: List[Tuple[int, str]], i: int, base: int,
                   pend: List[int], written: set) -> None:
        """Emit the superblock at op ``i``, nested ``base`` deep: the block,
        then inline every block only it reaches — a taken-branch target one
        ``if`` deeper on copies of ``pend`` (pending native / generic /
        guard counts) and ``written``, anything else straight on.  Every
        path ends in a return, a raise or a flushed jump to an arm, so what
        follows an ``if`` body needs no ``else``."""

        def out(ind: int, text: str) -> None:
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
            return (
                "_n+%d" % pend[0],
                ("_g+%d" % pend[1]) if pend[1] else "_g",
                ("_u+%d" % pend[2]) if pend[2] else "_u",
            )

        def raise_stmt(did: int, observed: str = "None", kind: str = "None") -> str:
            return "raise _DS(%d, %s, %s, %s, %s, %s)" % (
                (did,) + counters() + (observed, kind))

        def jump(ind: int, fold: int, arm: int) -> None:
            """Leave for an arm over ``fold`` threaded JMPs: the path's one
            literal counter flush, then the dispatch."""
            if pend[0] + fold:
                out(ind, "_n += %d" % (pend[0] + fold))
            if pend[1]:
                out(ind, "_g += %d" % pend[1])
            if pend[2]:
                out(ind, "_u += %d" % pend[2])
            out(ind, "_b = %d" % arm)
            out(ind, "continue")

        def call_flush() -> None:
            # mirror of the reference loop's pre-call flush: the call op is
            # included, the generic/guard counters keep accumulating
            out(0, "state.native_ops += _n + %d" % pend[0])
            out(0, "_n = 0")
            pend[0] = 0

        while True:
            ins = ops[i]
            op = ins[0]
            if op != N.KERNEL:
                pend[0] += 1

            edge = None  # (leader, threaded JMPs) when the op ends its block
            if op == N.RET:
                dn, dg, du = counters()
                out(0, "state.native_ops += " + dn)
                out(0, "state.native_generic_ops += " + dg)
                out(0, "state.guards_executed += " + du)
                out(0, "return " + use(ins[1]))
                return
            elif op == N.JMP:
                edge = follow(ins[1])
            elif op == N.BRT:
                cond = use(ins[1])
                (tt, tf), edge = follow(ins[2]), follow(ins[3])
                if base >= _MAX_NEST and tt not in armset:
                    armset.add(tt)
                    arms.append(tt)
                out(0, "if %s:" % cond)
                if tt in armset:
                    jump(1, tf, tt)
                else:
                    emit_block(L, tt, base + 1,
                               [pend[0] + tf, pend[1], pend[2]], set(written))
            elif op in _BINOP:
                a, b = use(ins[2]), use(ins[3])
                out(0, "%s = %s %s %s" % (defn(ins[1]), a, _BINOP[op], b))
            elif op == N.MOVE:
                a = use(ins[2])
                out(0, "%s = %s" % (defn(ins[1]), a))
            elif op == N.VLOAD:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "_i = %s" % use(ins[3]))
                out(0, "_d = _v.data")
                out(0, "if _i < 1 or _i > len(_d):")
                out(1, 'raise RError("subscript out of bounds")')
                # an INT or LGL index is an int already; R truncates a DBL one
                out(0, "_w = _d[%s - 1]" % ("_i" if ins[5] else "int(_i)"))
                out(0, "if _w is None:")
                out(1, raise_stmt(ins[4], observed="_naty(_v)"))
                out(0, "%s = _w" % defn(ins[1]))
            elif op == N.PDIV:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "_w = %s" % use(ins[3]))
                d = defn(ins[1])
                out(0, "if _w == 0:")
                out(1, "if isinstance(_v, complex) or isinstance(_w, complex):")
                out(2, 'raise RError("complex division by zero")')
                out(1, '%s = float("nan") if _v == 0 else math.copysign(math.inf, _v)' % d)
                out(0, "else:")
                out(1, "%s = _v / _w" % d)
            elif op == N.GTYPE:
                pend[2] += 1
                out(0, "_v = %s" % use(ins[1]))
                out(0, "if not (%s):" % match_expr("_v", ins[2]))
                out(1, raise_stmt(ins[3], observed="_rq(_v)"))
                out(0, "if _ch is not None and _ch.random() < _rate:")
                out(1, raise_stmt(ins[3], observed="_rq(_v)", kind="_CHAOS"))
            elif op == N.VLEN:
                a = use(ins[2])
                out(0, "%s = len(%s.data)" % (defn(ins[1]), a))
            elif op == N.VSTORE:
                out(0, "_v = %s" % use(ins[2]))
                out(0, ("_i = %s" if ins[6] else "_i = int(%s)") % use(ins[3]))
                out(0, "_w = %s" % use(ins[4]))
                d = defn(ins[1])
                kind, vkind = ins[5], ins[7]
                widens = kind in (Kind.LGL, Kind.INT)
                if vkind == kind or (widens and vkind == Kind.DBL):
                    # a guard proved the vector's kind: sharing and bounds are left
                    out(0, "if _v.named <= 1 and 1 <= _i <= len(_v.data):")
                    out(1, "_v.data[_i - 1] = %s" % ("_w" if vkind == kind else "float(_w)"))
                    out(1, "%s = _v" % d)
                else:
                    out(0, "if isinstance(_v, RVector) and _v.named <= 1 and "
                           "_v.kind == %s and 1 <= _i <= len(_v.data):" % K(kind))
                    out(1, "_v.data[_i - 1] = _w")
                    out(1, "%s = _v" % d)
                    if widens:
                        out(0, "elif isinstance(_v, RVector) and _v.named <= 1 and "
                               "1 <= _i <= len(_v.data) and _v.kind == %s:" % K(Kind.DBL))
                        out(1, "_v.data[_i - 1] = float(_w)")
                        out(1, "%s = _v" % d)
                out(0, "else:")
                out(1, "%s = _assign2(_v, RVector(%s, [_i]), RVector(%s, [_w]))"
                       % (d, K(Kind.INT), K(kind)))
            elif op == N.BOX:
                out(0, "_v = %s" % use(ins[2]))
                kind = ins[3]
                if kind == Kind.DBL:
                    out(0, "if type(_v) is int:")
                    out(1, "_v = float(_v)")
                elif kind == Kind.INT:
                    out(0, "if type(_v) is bool:")
                    out(1, "_v = int(_v)")
                elif kind == Kind.CPLX:
                    out(0, "if not isinstance(_v, complex) and _v is not None:")
                    out(1, "_v = complex(_v)")
                out(0, "%s = RVector(%s, [_v])" % (defn(ins[1]), K(kind)))
            elif op == N.UNBOX:
                a = use(ins[2])
                out(0, "%s = %s.data[0]" % (defn(ins[1]), a))
            elif op == N.PPOW:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "_w = %s" % use(ins[3]))
                out(0, "try:")
                out(1, "_x = _v ** _w")
                out(0, "except (OverflowError, ZeroDivisionError):")
                out(1, "_x = math.inf")
                out(0, "if isinstance(_x, complex) and not "
                       "(isinstance(_v, complex) or isinstance(_w, complex)):")
                out(1, '_x = float("nan")')
                out(0, "elif isinstance(_x, int):")
                out(1, "_x = float(_x)")
                out(0, "%s = _x" % defn(ins[1]))
            elif op == N.PNEG:
                a = use(ins[2])
                out(0, "%s = -%s" % (defn(ins[1]), a))
            elif op == N.PNOT:
                a = use(ins[2])
                out(0, "%s = not %s" % (defn(ins[1]), a))
            elif op in (N.PMODI, N.PIDIVI):
                out(0, "_w = %s" % use(ins[3]))
                out(0, "if _w == 0:")
                out(1, raise_stmt(ins[4]))
                a = use(ins[2])
                out(0, "%s = %s %s _w"
                       % (defn(ins[1]), a, "%" if op == N.PMODI else "//"))
            elif op == N.PMODF:
                out(0, "_w = %s" % use(ins[3]))
                out(0, "_v = %s" % use(ins[2]))
                out(0, '%s = float("nan") if _w == 0 else '
                       "_v - math.floor(_v / _w) * _w" % defn(ins[1]))
            elif op == N.PIDIVF:
                out(0, "_w = %s" % use(ins[3]))
                out(0, "_v = %s" % use(ins[2]))
                d = defn(ins[1])
                out(0, "if _w == 0:")
                out(1, '%s = math.inf if _v > 0 else (-math.inf if _v < 0 else float("nan"))' % d)
                out(0, "else:")
                out(1, "%s = float(math.floor(_v / _w))" % d)
            elif op == N.GIDENT:
                pend[2] += 1
                out(0, "_v = %s" % use(ins[1]))
                out(0, "if _v is not %s:" % K(ins[2]))
                out(1, raise_stmt(ins[3], observed="_v"))
                out(0, "if _ch is not None and _ch.random() < _rate:")
                out(1, raise_stmt(ins[3], observed="_v", kind="_CHAOS"))
            elif op == N.ISTYPE:
                a = use(ins[2])
                out(0, "%s = _tm(%s, %s)" % (defn(ins[1]), a, K(ins[3])))
            elif op == N.ISIDENT:
                a = use(ins[2])
                out(0, "%s = %s is %s" % (defn(ins[1]), a, K(ins[3])))
            elif op == N.ASSUME:
                pend[2] += 1
                out(0, "if not %s:" % use(ins[1]))
                out(1, raise_stmt(ins[2]))
                out(0, "if _ch is not None and _ch.random() < _rate:")
                out(1, raise_stmt(ins[2], kind="_CHAOS"))
            elif op == N.FORCE:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "%s = _force(_v, vm) if isinstance(_v, RPromise) else _v"
                       % defn(ins[1]))
            elif op == N.AS_LGL:
                out(0, "_v = %s" % use(ins[2]))
                out(0, "%s = _v.is_true() if isinstance(_v, RVector) else _ab(_v)"
                       % defn(ins[1]))
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
                out(0, "_v = %s" % use(ins[2]))
                out(0, "if isinstance(_v, RVector):")
                out(1, "_i = len(_v.data)")
                out(0, "elif _v is NULL:")
                out(1, "_i = 0")
                out(0, "else:")
                out(1, "_i = 1")
                out(0, "%s = RVector(%s, [_i])" % (defn(ins[1]), K(Kind.INT)))
            elif op == N.CHECKFUN:
                out(0, "if not isinstance(%s, (RClosure, RBuiltin)):" % use(ins[1]))
                out(1, 'raise RError("attempt to apply non-function")')
            elif op == N.SHARE:
                out(0, "_v = %s" % use(ins[1]))
                out(0, "if isinstance(_v, RVector):")
                out(1, "_v.named = 2")
            elif op == N.LDVAR_ENV:
                out(0, "_v = %s.get(%r)" % (use(ins[2]), ins[3]))
                out(0, "if isinstance(_v, RPromise):")
                out(1, "_v = _force(_v, vm)")
                out(0, "%s = _v" % defn(ins[1]))
            elif op == N.LDVAR_FREE:
                out(0, "_v = closure_env.get(%r)" % (ins[2],))
                out(0, "if isinstance(_v, RPromise):")
                out(1, "_v = _force(_v, vm)")
                out(0, "%s = _v" % defn(ins[1]))
            elif op == N.STVAR_ENV:
                out(0, "_e = %s" % use(ins[1]))
                out(0, "_v = %s" % use(ins[3]))
                out(0, "if isinstance(_v, RVector):")
                out(1, "if _v.named == 0:")
                out(2, "_v.named = 1")
                out(1, "elif _e.bindings.get(%r) is not _v:" % (ins[2],))
                out(2, "_v.named = 2")
                out(0, "_e.set(%r, _v)" % (ins[2],))
            elif op == N.STSUPER:
                out(0, "_v = %s" % use(ins[3]))
                out(0, "if isinstance(_v, RVector):")
                out(1, "_v.named = 2")
                if ins[1] is not None:
                    out(0, "%s.set_super(%r, _v)" % (use(ins[1]), ins[2]))
                else:
                    out(0, "_sas(closure_env, %r, _v)" % (ins[2],))
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
                for r in spill:
                    out(k, "_rs[%d] = %s" % (r, use(r)))
                out(k, "_r = _kern(ncode.kernels[%d], _rs, vm, closure_env)" % ins[1])
                out(k, "_s = _r[0]")
                out(k, 'if _s == "ok":')
                out(k + 1, "_n += _r[1]")
                out(k + 1, "_u += _r[2]")
                out(k + 1, "_g += _r[3]")
                out(k + 1, "state.kernel_elements += _r[4]")
                for r in reload:
                    out(k + 1, "%s = _rs[%d]" % (defn(r), r))
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
                    return
                if i not in leaderset:
                    continue
                edge = follow(i)
            i, fold = edge
            if i in armset:
                jump(0, fold, i)
                return
            pend[0] += fold

    blocks = {}
    for leader in arms:  # grows while it is walked, see _MAX_NEST
        blocks[leader] = []
        emit_block(blocks[leader], leader, 0, [0, 0, 0], set())
    # hot-first chain order: backedge targets (loop headers) sit at the top
    ordered = [t for t in back if t in armset] + [t for t in arms if t not in back]
    # a unit whose only arm is op 0, never jumped to, needs no dispatch loop
    looped = len(arms) > 1 or 0 in back

    lines: List[str] = []

    def render(ind: int, text: str) -> None:
        lines.append("    " * ind + text)

    params = list(ncode.param_regs)
    const_regs = {i for i, v0 in enumerate(ncode.reg_init) if v0 is not None}
    fallback = "return _fallback(ncode, vm, args, closure_env, _regs)"

    render(0, "def _unit(ncode, vm, args, closure_env, _entry=None, _regs=None):")
    render(1, "state = vm.state")
    render(1, "_ch = vm.chaos_rng if vm.config.chaos_rate > 0.0 else None")
    render(1, "_rate = vm.config.chaos_rate")
    # only a unit with OSR entries can be hop-entered (execute_at takes its
    # entry from ncode.osr_entries): the others carry no _regs prologue and
    # hand a register image to _fallback, which refuses it
    ind = 2 if entries else 1
    if entries:
        render(1, "if _regs is None:")
        render(2, "if len(args) != %d:" % len(params))
        render(3, fallback)
    else:
        render(1, "if _regs is not None or len(args) != %d:" % len(params))
        render(2, fallback)
    pset = set(params)
    for r in sorted((const_regs & maybe_unset) - pset):
        render(ind, "r%d = %s" % (r, K(ncode.reg_init[r])))
    unset = sorted(maybe_unset - const_regs - pset)
    if unset:
        render(ind, " = ".join(["r%d" % r for r in unset] + ["None"]))
    pu = ncode.param_unbox
    for pos, r in enumerate(params):
        if pu is not None and pu[pos] is not None:
            render(ind, "r%d = args[%d].data[0]" % (r, pos))
        else:
            render(ind, "r%d = args[%d]" % (r, pos))
    if entries:
        # dispatched-OSR hop: a pre-seeded full register image replaces
        # parameter binding; execution starts at the _entry leader
        render(2, "_b = 0")
        render(1, "else:")
        render(2, "[%s] = _regs" % ", ".join(
            ["r%d" % r if r in seen_regs else "_" for r in range(ncode.n_regs)]))
        render(2, "_b = _entry")
    elif looped:
        render(1, "_b = 0")
    render(1, "_n = 0")
    render(1, "_g = 0")
    render(1, "_u = 0")
    render(1, "try:")
    if looped:
        render(2, "while True:")
        for n, leader in enumerate(ordered):
            render(3, "%s _b == %d:" % ("elif" if n else "if", leader))
            for ind, text in blocks[leader]:
                render(4 + ind, text)
        render(3, "else:")
        render(4, 'raise RError("no native entry at op %d" % _b)')
    else:
        for ind, text in blocks[0]:
            render(2 + ind, text)
    render(1, "except _DS as _sig:")
    render(2, "return _fail(ncode, vm, closure_env, _sig, locals(), _regs)")
    return "\n".join(lines) + "\n", consts


_ENV_CACHE: Optional[dict] = None


def _shared_env() -> dict:
    """The globals every generated function runs under (helpers only; the
    per-unit constant pool ``_K`` is added at bind time)."""
    global _ENV_CACHE
    env = _ENV_CACHE
    if env is None:
        env = _ENV_CACHE = {
            "__builtins__": __builtins__,
            "_DS": DeoptSignal,
            "_fail": _fail,
            "_fallback": _fallback,
            "_tm": _type_matches,
            "_rq": rtype_quick,
            "_naty": _na_rtype,
            "_force": force_value,
            "_ab": _as_bool,
            "_sas": _super_assign_from,
            "_callf": call_function,
            "_kern": run_kernel,
            "_arith": coerce.arith,
            "_cmpf": coerce.compare,
            "_logic": coerce.logic,
            "_unary": coerce.unary,
            "_colon": coerce.colon,
            "_ex2": coerce.extract2,
            "_ex1": coerce.extract1,
            "_set2": _generic_set2,
            "_set1": coerce.assign1,
            "_assign2": coerce.assign2,
            "RVector": RVector,
            "RClosure": RClosure,
            "RBuiltin": RBuiltin,
            "RPromise": RPromise,
            "RError": RError,
            "NULL": NULL,
            "math": math,
            "_CHAOS": DeoptReasonKind.CHAOS,
        }
    return env


def _decline(ncode) -> None:
    """Mark a unit as untranslatable: the reference loop runs it."""
    ncode.pysrc = False
    ncode.pyconsts = ncode.pycode = ncode.pyfunc = None


def ensure_source(ncode, state=None):
    """Emit (once) the unit's generated source + constant pool and return the
    text: None once the unit is compiled (``pycode``), the False sentinel
    once it is declined (the reference loop runs it)."""
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
    """The one ``compile()`` of generated source.  ``dont_inherit``: the code
    object depends on the text alone, not on this module's ``__future__``
    imports, which is what lets jit/persist.py store it."""
    return compile(ncode.pysrc, "<pycodegen:%s>" % ncode.name, "exec",
                   dont_inherit=True)


def bind(ncode, vm):
    """The unit's generated function, or None when the reference loop runs
    it (emission or compilation declined).

    One path, taken on the template the unit was cloned from (or the unit
    itself) and shared by every clone: a declined unit has no function;
    otherwise its code object — compiled here once, or arrived in the
    unit's bytes — is exec'd; a unit with neither is emitted and compiled
    first (its text then dropped).  A failure is paid once per template.
    """
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
    """Run a unit through its generated function (binding it on first use);
    units the emitter declines run on the reference loop instead."""
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
    _as_bool,
    _generic_set2,
    _super_assign_from,
    _type_matches,
    build_framestate,
    call_function,
    execute_ref,
    force_value,
)
from .kernels import SHORT_TRIP, run_kernel  # noqa: E402
