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

    _verify_escape(graph, reachable, defined_in)


def _verify_escape(graph: Graph, reachable, defined_in) -> None:
    """Rematerialization completeness for escape-analyzed (mixed) graphs.

    A deopt from mixed code rebuilds the interpreter frame from two halves:
    the partial environment (``MkEnv``, live in a register) and the
    scalar-replaced slot map of the framestate.  Both halves together must
    describe every demoted local exactly once, and every elided capture or
    promise must be reconstructible — otherwise the rematerialized frame
    silently diverges from the never-optimized run.
    """
    info = getattr(graph, "escape_info", None)
    if info is None or not info.usable:
        return
    env_names = info.env_names
    mkenvs = [
        ins for bb in reachable for ins in bb.instrs if isinstance(ins, I.MkEnv)
    ]
    if len(mkenvs) > 1:
        raise VerificationError(
            "escape graph %s materializes %d partial environments (expected "
            "at most one)" % (graph.name, len(mkenvs))
        )
    if env_names and not mkenvs:
        raise VerificationError(
            "escape graph %s demotes %s but has no MkEnv to hold them"
            % (graph.name, sorted(env_names))
        )
    menv = mkenvs[0] if mkenvs else None
    if menv is not None:
        if len(menv.names) != len(menv.args):
            raise VerificationError(
                "escape graph %s: MkEnv binds %d names to %d values"
                % (graph.name, len(menv.names), len(menv.args))
            )
        if not set(menv.names) <= set(env_names):
            raise VerificationError(
                "escape graph %s: MkEnv pre-binds %s outside the demoted set %s"
                % (graph.name, sorted(set(menv.names) - set(env_names)),
                   sorted(env_names))
            )
    for bb in reachable:
        for ins in bb.instrs:
            # captures must either reference the partial environment or be
            # proven harmless (env edge dropped entirely)
            if isinstance(ins, (I.MkClosure, I.MkPromise)) and ins.args:
                if ins.args[0] is not menv:
                    raise VerificationError(
                        "escape graph %s: %s captures %s instead of the "
                        "partial environment"
                        % (graph.name, ins.name, ins.args[0].short())
                    )
            # environment accesses may only touch the partial env (or be
            # free lookups through the closure chain)
            if isinstance(ins, (I.LdVarEnv, I.StVarEnv)) and ins.args:
                env_arg = ins.args[0]
                if isinstance(env_arg, I.MkEnv) and env_arg is not menv:
                    raise VerificationError(
                        "escape graph %s: %s reads a foreign MkEnv"
                        % (graph.name, ins.name)
                    )
            fs = getattr(ins, "framestate", None)
            frame = fs
            while frame is not None:
                ev = getattr(frame, "env_value", None)
                if getattr(frame, "fun", None) is None:
                    # frames of the mixed graph's own code (inlined callee
                    # frames carry fun): the slot map and the partial env
                    # must partition the demoted/scalar split — a demoted
                    # name in the slot map would be materialized twice
                    # (divergently), a missing MkEnv loses the rest
                    slot_names = {name for name, _v in frame.env_slots}
                    overlap = slot_names & set(env_names)
                    if overlap:
                        raise VerificationError(
                            "escape graph %s: framestate slots %s shadow "
                            "demoted env names" % (graph.name, sorted(overlap))
                        )
                    if env_names and ev is None:
                        raise VerificationError(
                            "escape graph %s: framestate at pc %d lacks the "
                            "partial environment needed to rematerialize %s"
                            % (graph.name, frame.pc, sorted(env_names))
                        )
                if ev is not None and id(ev) not in defined_in:
                    raise VerificationError(
                        "escape graph %s: framestate env_value not in graph"
                        % graph.name
                    )
                frame = frame.parent
            # elided-promise markers must carry the thunk needed to rebuild
            # an indistinguishable forced promise at deopt
            thunk = getattr(ins, "elided_promise", None)
            if thunk is not None and not hasattr(thunk, "code"):
                raise VerificationError(
                    "escape graph %s: elided_promise marker on %s is not a "
                    "code object" % (graph.name, ins.name)
                )
