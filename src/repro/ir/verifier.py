"""IR well-formedness checks.

Run after construction and after every pass in debug mode.  Catches the
classic OSR-compiler bugs early: values used before definition (a dominance
violation, e.g. a phi missing an input for an edge), terminator-less
blocks, phis whose inputs don't match the predecessors, and framestates
referencing values that don't dominate their deopt point.
"""

from __future__ import annotations

from typing import Dict, List, Set

from . import instructions as I
from .builder import CompilationFailure
from .cfg import BasicBlock, Graph


class VerificationError(CompilationFailure):
    """A malformed graph.  A compilation failure like any other: every
    compile entry point counts it, reports it and falls back to the slower
    path instead of letting it escape into the running program."""


def verify(graph: Graph) -> None:
    """Raise :class:`VerificationError` on the first malformed property."""
    graph.recompute_preds()
    reachable = graph.rpo()
    blocks = {bb.id for bb in reachable}

    # every reachable block ends in exactly one terminator
    for bb in reachable:
        term = bb.terminator
        if term is None:
            raise VerificationError("BB%d has no terminator" % bb.id)
        for ins in bb.instrs[:-1]:
            if isinstance(ins, (I.Branch, I.Jump, I.Return)):
                raise VerificationError(
                    "BB%d has a terminator (%s) before its end" % (bb.id, ins.short())
                )
        for s in bb.successors():
            if s.id not in blocks:
                raise VerificationError(
                    "BB%d branches to unreachable BB%d" % (bb.id, s.id)
                )

    # phis: grouped at the block head, inputs match predecessors
    for bb in reachable:
        in_group = True
        for ins in bb.instrs:
            if isinstance(ins, I.Phi):
                if not in_group:
                    raise VerificationError("BB%d: phi after non-phi" % bb.id)
                pred_ids = {p.id for p in bb.preds}
                input_ids = {b.id for b, _ in ins.inputs}
                if not input_ids <= pred_ids | {bb.id}:
                    raise VerificationError(
                        "BB%d: %s has inputs from non-predecessors %s (preds %s)"
                        % (bb.id, ins.name, sorted(input_ids - pred_ids), sorted(pred_ids))
                    )
                live_inputs = {b.id for b, _ in ins.inputs if b.id in pred_ids}
                if live_inputs != pred_ids:
                    raise VerificationError(
                        "BB%d: %s missing inputs for preds %s"
                        % (bb.id, ins.name, sorted(pred_ids - live_inputs))
                    )
            else:
                in_group = False

    # dominance: a non-phi operand and a frame-state slot are dominated by
    # their definition (earlier in the block, or in a block up the dominator
    # tree), a phi input by the end of the predecessor it flows in from.
    # One walk down the tree keeps the set of definitions in scope.
    children: Dict[BasicBlock, List[BasicBlock]] = {}
    for bb, dom in graph.idom(reachable).items():
        if dom is not bb:
            children.setdefault(dom, []).append(bb)
    scope: Set[int] = set()
    walk = [(graph.entry, True)] if reachable else []
    while walk:
        bb, entering = walk.pop()
        if not entering:
            scope.difference_update(map(id, bb.instrs))
            continue
        walk.append((bb, False))
        walk.extend((c, True) for c in children.get(bb, ()))
        for ins in bb.instrs:
            if not isinstance(ins, I.Phi):
                for a in ins.args:
                    if id(a) not in scope:
                        _undominated(reachable, bb, ins.name, a, "before its definition")
            fs = getattr(ins, "framestate", None)
            if fs is not None:
                _check_frames(bb, ins, fs)
                for v in fs.iter_values():
                    if id(v) not in scope:
                        _undominated(reachable, bb, "framestate of " + ins.name, v,
                                     "defined after the checkpoint")
            scope.add(id(ins))
        for s in bb.successors():
            for phi in s.phis():
                for edge, v in phi.inputs:
                    if edge is bb and id(v) not in scope:
                        _undominated(reachable, bb, "%s of BB%d" % (phi.name, s.id), v,
                                     "before its definition")

    # OSR anchors are uses too (DCE drops the anchor of a value it removes)
    for pc, anchor in graph.osr_anchors.items():
        v = anchor.dead_value()
        if v is not None:
            raise VerificationError(
                "OSR anchor at pc %d names %s, which is in no block" % (pc, v.name))


def _undominated(reachable, bb: BasicBlock, user: str, v, same_block: str) -> None:
    """Say why ``v`` is not in scope at a use in ``bb`` (the slow path)."""
    home = next((b for b in reachable if any(i is v for i in b.instrs)), None)
    if home is None:
        why = "uses a value not in the graph: %s" % v.short()
    elif home is bb:
        why = "uses %s %s" % (v.name, same_block)
    else:
        why = "uses %s, whose definition in BB%d does not dominate it" % (v.name, home.id)
    raise VerificationError("BB%d: %s %s" % (bb.id, user, why))


def _check_frames(bb: BasicBlock, ins, fs) -> None:
    """The parent chain is acyclic; every frame's pc indexes its bytecode."""
    chain_seen: Set[int] = set()
    frame = fs
    while frame is not None:
        if id(frame) in chain_seen:
            raise VerificationError(
                "BB%d: framestate of %s has a cyclic parent chain" % (bb.id, ins.name))
        chain_seen.add(id(frame))
        if not (0 <= frame.pc < len(frame.code.code)):
            raise VerificationError(
                "BB%d: framestate of %s has pc %d outside %s (len %d)"
                % (bb.id, ins.name, frame.pc, frame.code.name, len(frame.code.code)))
        frame = frame.parent
