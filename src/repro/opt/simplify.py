"""Cleanup passes: phi simplification, copy propagation, box/unbox pairs,
constant folding of primitive ops, and redundant-guard elimination.

These run after the builder and keep the lowered code tight; none of them
are speculation-specific, but all of them must preserve FrameState
references (a value that only lives in a framestate is still live).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..runtime.rtypes import Kind
from ..runtime.values import RPromise, RVector
from ..ir import instructions as I
from ..ir.cfg import Graph


def simplify(graph: Graph) -> int:
    """Run local simplifications to a fixpoint; returns rewrite count."""
    total = 0
    # no rewrite edits the CFG and each goes through replace_all_uses: one order, one index
    order = graph.rpo()
    graph.compute_uses()
    for _ in range(10):
        n = (
            _simplify_phis(graph, order)
            + _peephole(graph, order)
            + _dedup_guards(graph, order)
        )
        total += n
        if n == 0:
            break
    return total


def _simplify_phis(graph: Graph, order) -> int:
    """Remove phis whose inputs are all the same value (or themselves)."""
    n = 0
    for bb in order:
        for phi in list(bb.phis()):
            inputs = {v for _, v in phi.inputs if v is not phi}
            if len(inputs) == 1:
                only = inputs.pop()
                graph.replace_all_uses(phi, only)
                bb.remove(phi)
                n += 1
    return n


def _skip_casts(v: I.Instr) -> I.Instr:
    """Look through CastType refinements (pure register copies), so the
    pair folds below also see ``Force(CastType(Box(x)))``."""
    while isinstance(v, I.CastType):
        v = v.args[0]
    return v


def _peephole(graph: Graph, order) -> int:
    """Unbox(Box(x)) -> x, Box(Unbox(x)) -> x, constant-fold prim ops,
    Unbox(Const) -> unboxed const, and fold IsType on statically-typed
    values.  All the pair folds look through CastType chains."""
    n = 0
    reboxed = []  # Box(Unbox(x)) pairs, folded after the sweep
    for bb in order:
        for ins in list(bb.instrs):
            # Force of a value that is statically not a promise is the
            # identity: a freshly Boxed scalar, an unboxed raw, or a
            # non-promise constant.  Inlined callees load every parameter
            # through Force; at an inline boundary the argument is usually
            # a Box of the caller's unboxed register, so this fold is what
            # lets the Box/IsType/Unbox chain below collapse across it.
            if isinstance(ins, I.Force):
                v = ins.args[0]
                w = _skip_casts(v)
                if (
                    isinstance(w, I.Box)
                    or w.unboxed
                    or (isinstance(w, I.Const) and not isinstance(w.value, RPromise))
                ):
                    graph.replace_all_uses(ins, v)
                    bb.remove(ins)
                    n += 1
                    continue
            # no-op CastType (no refinement)
            if isinstance(ins, I.CastType) and ins.type == ins.args[0].type:
                graph.replace_all_uses(ins, ins.args[0])
                bb.remove(ins)
                n += 1
                continue
            # Unbox(Box(x)) and Box(Unbox(x))
            if isinstance(ins, I.Unbox):
                box = _skip_casts(ins.args[0])
                if isinstance(box, I.Box):
                    inner = box.args[0]
                    if inner.unboxed and inner.type.kind == ins.kind:
                        graph.replace_all_uses(ins, inner)
                        bb.remove(ins)
                        n += 1
                        continue
            if isinstance(ins, I.Box):
                unbox = _skip_casts(ins.args[0])
                if isinstance(unbox, I.Unbox):
                    inner = unbox.args[0]
                    if not inner.unboxed and inner.type.kind == ins.kind and inner.type.scalar:
                        reboxed.append((ins, inner))
                        continue
            # Unbox(Const vector) -> unboxed Const
            if isinstance(ins, I.Unbox) and isinstance(ins.args[0], I.Const):
                cv = ins.args[0].value
                if isinstance(cv, RVector) and len(cv.data) == 1 and cv.data[0] is not None:
                    c = I.Const(cv.data[0], ins.type)
                    c.unboxed = True
                    bb.insert_before(ins, c)
                    graph.replace_all_uses(ins, c)
                    bb.remove(ins)
                    n += 1
                    continue
            # constant-fold unboxed primitive arithmetic/comparison
            if isinstance(ins, (I.PrimArith, I.PrimCompare)) and all(
                isinstance(a, I.Const) and a.unboxed for a in ins.args
            ):
                folded = _fold_prim(ins)
                if folded is not None:
                    bb.insert_before(ins, folded)
                    graph.replace_all_uses(ins, folded)
                    bb.remove(ins)
                    n += 1
                    continue
            # IsType on a value whose static type already satisfies the test
            if isinstance(ins, I.IsType) and ins.args[0].type <= ins.test_type:
                c = I.Const(True, ins.type)
                c.unboxed = True
                bb.insert_before(ins, c)
                graph.replace_all_uses(ins, c)
                bb.remove(ins)
                n += 1
                continue
            # Assume(const True) is a no-op guard; drop it (the paper's
            # "unsoundly dropped all deoptimization exit points" experiment
            # uses a separate switch, not this — this one is sound)
            if isinstance(ins, I.Assume):
                cond = ins.args[0]
                if isinstance(cond, I.Const) and cond.value is True:
                    bb.remove(ins)
                    n += 1
                    continue
    # last: a consumer's Unbox(Box(Unbox(x))) has folded to the inner Unbox
    # (outside its loop, maybe) and does not become a second Unbox(x) in place
    for ins, inner in reboxed:
        graph.replace_all_uses(ins, inner)
        ins.block.remove(ins)
    return n + len(reboxed)


def _fold_prim(ins) -> Optional[I.Const]:
    a = ins.args[0].value
    b = ins.args[1].value
    try:
        if isinstance(ins, I.PrimArith):
            op = ins.op
            if op == "+":
                v = a + b
            elif op == "-":
                v = a - b
            elif op == "*":
                v = a * b
            elif op == "/":
                if b == 0:
                    return None
                v = a / b
            elif op == "^":
                v = a ** b
            else:
                return None
            c = I.Const(v, ins.type)
            c.unboxed = True
            return c
        op = ins.op
        v = {
            "==": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b,
        }[op]
        c = I.Const(v, ins.type)
        c.unboxed = True
        return c
    except (TypeError, OverflowError, ZeroDivisionError):
        return None


def _dedup_guards(graph: Graph, order) -> int:
    """Within a block, drop a second identical type guard on the same value."""
    n = 0
    for bb in order:
        seen: Dict[tuple, I.Instr] = {}
        for ins in list(bb.instrs):
            if isinstance(ins, I.IsType):
                key = (id(ins.args[0]), ins.test_type)
                if key in seen:
                    graph.replace_all_uses(ins, seen[key])
                    bb.remove(ins)
                    n += 1
                else:
                    seen[key] = ins
        # duplicate Assumes over the same condition
        asserted = set()
        for ins in list(bb.instrs):
            if isinstance(ins, I.Assume):
                key = id(ins.args[0])
                if key in asserted:
                    bb.remove(ins)
                    n += 1
                else:
                    asserted.add(key)
    return n
