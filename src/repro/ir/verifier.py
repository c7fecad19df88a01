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

    # dominance-lite: every use is defined in the same block earlier, in a
    # strictly dominating block (approximated by: defined on every acyclic
    # path — we check the cheap necessary condition that the definition's
    # block reaches the use's block), or is a phi input from the right edge
    defined_in: Dict[int, BasicBlock] = {}
    for bb in reachable:
        for ins in bb.instrs:
            defined_in[id(ins)] = bb
    for bb in reachable:
        seen_here: Set[int] = set()
        for ins in bb.instrs:
            operands = ins.inputs if isinstance(ins, I.Phi) else [(None, a) for a in ins.args]
            for edge, a in operands:
                if id(a) not in defined_in:
                    raise VerificationError(
                        "BB%d: %s uses a value not in the graph: %s"
                        % (bb.id, ins.name, a.short())
                    )
                def_bb = defined_in[id(a)]
                if def_bb is bb and not isinstance(ins, I.Phi) and id(a) not in seen_here:
                    raise VerificationError(
                        "BB%d: %s uses %s before its definition"
                        % (bb.id, ins.name, a.name)
                    )
            seen_here.add(id(ins))

    # framestates: every frame of the (possibly nested) chain is well-formed
    #   * the parent chain is acyclic
    #   * each frame's pc is a valid index into its bytecode
    #   * every referenced value (any frame) is in the graph and, when it is
    #     defined in the checkpoint's own block, is defined *before* the
    #     checkpoint (the deopt must be able to read it)
    for bb in reachable:
        pos = {id(ins): i for i, ins in enumerate(bb.instrs)}
        for ins in bb.instrs:
            fs = getattr(ins, "framestate", None)
            if fs is None:
                continue
            chain_seen: Set[int] = set()
            frame = fs
            while frame is not None:
                if id(frame) in chain_seen:
                    raise VerificationError(
                        "BB%d: framestate of %s has a cyclic parent chain"
                        % (bb.id, ins.name)
                    )
                chain_seen.add(id(frame))
                if not (0 <= frame.pc < len(frame.code.code)):
                    raise VerificationError(
                        "BB%d: framestate of %s has pc %d outside %s (len %d)"
                        % (bb.id, ins.name, frame.pc, frame.code.name,
                           len(frame.code.code))
                    )
                frame = frame.parent
            for v in fs.iter_values():
                if id(v) not in defined_in:
                    raise VerificationError(
                        "BB%d: framestate of %s references a value not in "
                        "the graph" % (bb.id, ins.name)
                    )
                if defined_in[id(v)] is bb and pos[id(v)] >= pos[id(ins)]:
                    raise VerificationError(
                        "BB%d: framestate of %s references %s defined after "
                        "the checkpoint" % (bb.id, ins.name, v.name)
                    )
