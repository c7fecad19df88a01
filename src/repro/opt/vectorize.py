"""Guard-hoisted loop vectorization (annotation pass).

Recognizes speculatively-typed *counted loops over vectors* in the optimized
IR — the canonical shape the builder produces for ``for (i in 1:n)`` — and
annotates the graph with a :class:`LoopPlan` per vectorizable loop.  The
lowerer (``native/lower.py``) turns each plan into one **bulk kernel op**
(``KERNEL``; the plan's kind — ``sum``, ``fsum``, ``fill`` or ``copy`` —
rides on its descriptor) placed at the
loop header, with the scalar loop retained as the fall-through: the kernel
verifies the hoisted whole-vector conditions once at entry (the per-element
``Assume``/``GTYPE`` guards of the body, plus bounds/aliasing/NA ranges) and
then runs the remaining elements over the raw unboxed buffer in one
dispatch.  Anything the kernel cannot prove — a promise in the way, a type
mismatch, an ``NA`` at element *k*, a chaos-mode invalidation — ends bulk
execution at an exact element boundary (or materializes the mid-iteration
registers through a ``KernelFrameTemplate``) and control falls back into
the unmodified scalar loop, which reproduces the reference execution —
including its deopts — from that element on.

The pass only *annotates*: the IR is never rewritten, so a rejected loop is
bit-identical to the unvectorized compile (the legality tests assert this),
and scalar engines (``Config.vectorize = False``) simply never consult the
plans.

Rejections are not silent: once a block has matched the counted-loop prelude
(induction phi + bound compare), any subsequent failure is recorded as a
*decline* with a reason tag — ``nested-control``, ``call``, ``aliasing``,
``env-store``, ``no-reduction``, ... — and the loop's approximate bytecode
pc (the first FrameState found in it).  ``vectorize_loops`` aggregates the
declines into ``Telemetry.vec_declines`` / ``vec_decline_reasons`` /
``vec_decline_log`` when given a telemetry ``state``, so a workload that
silently shows ``kernel_elements: 0`` (spectralnorm: its hot loops call a
closure per element) can be diagnosed instead of guessed at.

Legality (beyond the structural match):

* no calls, closure/promise creation, environment stores, branches or
  nested loops in the body;
* the only cross-iteration dependence is the single recognized reduction
  (``+``/``*`` accumulate of an element or a fused expression over raw
  scalars);
* every vector read is through a loop-invariant chain at the loop's own
  index (a computed subscript declines), the iteration space is a verified
  identity ``1:n`` colon, and the written vector (if any) is distinct from
  every read vector (runtime identity is re-checked at kernel entry);
* every loop-defined value that a deopt FrameState can reference maps to a
  symbolic role (``osr/framestate.py:eval_kernel_role``) so mid-kernel
  deopts can reconstruct the interpreter state at any element.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir import instructions as I
from ..ir.cfg import BasicBlock, Graph
from ..osr.framestate import FrameStateDescr

#: arithmetic ops a fused expression node can replicate exactly
_EXPR_OPS = ("+", "-", "*", "/")


class InvChain:
    """A loop-invariant value chain (env load / forced phi / outside value).

    ``root`` is ``("env", name)`` for a free-variable load re-executed every
    iteration, ``("phi", phi)`` for an invariant-valued header phi (the
    in-place output vector of a fill/copy), or ``("value", ir_value)``
    for a value defined outside the loop.  ``gtype`` is the hoisted
    per-iteration type guard, when the chain carries one.  ``members`` are
    the in-loop instructions whose registers hold this value (written once
    at kernel entry).  ``guard_assume`` is the Assume of the hoisted guard
    (its deopt descriptor doubles as the chaos exit for this chain).
    """

    __slots__ = ("key", "root", "gtype", "gident", "members", "guard_assume")

    def __init__(self, key: int, root: Tuple[str, Any]):
        self.key = key
        self.root = root
        self.gtype = None
        self.gident = None   # hoisted identity guard (IsIdentical expected value)
        self.members: List[I.Instr] = []
        self.guard_assume: Optional[I.Assume] = None


class LoopPlan:
    """Everything the lowerer needs to kernelize one recognized loop."""

    __slots__ = (
        "kind", "header", "body_blocks", "latch", "exit_block", "body_on_true",
        "idx_phi", "bound", "idx_inc", "seq_load", "seq_static", "seqv_phis",
        "acc_phi", "acc_kind", "acc_op", "invs", "roles", "elem_keys",
        "store", "out_key", "store_kind", "val_spec", "expr", "pc",
    )

    def __init__(self):
        self.kind = None                 # 'sum' | 'fsum' | 'fill' | 'copy'
        self.header = None
        self.body_blocks: List[BasicBlock] = []
        self.latch = None
        self.exit_block = None
        self.body_on_true = True
        self.idx_phi = None
        self.bound = None
        self.idx_inc = None
        self.seq_load = None
        self.seq_static = True   # identity colon proven statically
        self.seqv_phis: List[I.Phi] = []   # phis carrying the loop variable
        self.acc_phi = None
        self.acc_kind = None             # Kind of the raw accumulator (sum/fsum)
        self.acc_op = None               # '+' or '*'
        self.invs: List[InvChain] = []
        self.roles: Dict[int, tuple] = {}
        self.elem_keys: List[int] = []   # inv keys of vectors read element-wise
        self.store = None
        self.out_key = None
        self.store_kind = None
        self.val_spec = None             # ('const', ir) | ('elem', key)
        self.expr = None                 # fused map→reduce role tree (fsum)
        self.pc = -1                     # approximate bytecode pc of the loop

    def __repr__(self) -> str:  # pragma: no cover
        return "<LoopPlan %s header=BB%d>" % (self.kind, self.header.id if self.header else -1)


#: cap on the per-VM (fn, pc, reason) decline log — counts are unbounded,
#: the log is a deduped diagnostic sample of distinct sites (the bounded
#: dedupe itself lives in jit.telemetry.dedup_log)
_DECLINE_LOG_CAP = 200


def vectorize_loops(graph: Graph, config=None, state=None) -> List[LoopPlan]:
    """Annotate ``graph.vector_loops``; returns the plans for convenience.

    ``state`` (a :class:`~repro.jit.telemetry.Telemetry`) receives the
    decline diagnostics; pass None to run the pass silently.
    """
    plans: List[LoopPlan] = []
    graph.vector_loops = plans
    if config is not None and not getattr(config, "vectorize", True):
        return plans
    if not graph.env_elided:
        # an escaping environment can be mutated behind the kernel's back
        return plans
    declines: List[Tuple[str, int, frozenset]] = []
    uses = graph.compute_uses()
    for bb in graph.rpo():
        plan = _match_loop(graph, bb, uses, declines.append)
        if plan is not None:
            plans.append(plan)
    if state is not None:
        _record_telemetry(graph, plans, declines, state)
    return plans


def _record_telemetry(graph: Graph, plans, declines, state) -> None:
    # lazy: opt modules load during jit's own package init (vm -> pipeline)
    from ..jit.telemetry import dedup_log
    # a "nested-control" decline whose collected blocks contain a planned
    # inner header is the *outer scalar driver* of a recognized nest — the
    # inner loop kernelizes, so retag the decline to make that auditable
    plan_headers = {p.header.id: p for p in plans}
    outer_pcs: Dict[int, int] = {}
    for i, (reason, pc, ids) in enumerate(declines):
        if reason == "nested-control":
            inner = [h for h in plan_headers if h in ids]
            if inner:
                declines[i] = ("outer-driver", pc, ids)
                for h in inner:
                    outer_pcs.setdefault(h, pc)
    for reason, pc, _ids in declines:
        state.vec_declines += 1
        state.vec_decline_reasons[reason] = (
            state.vec_decline_reasons.get(reason, 0) + 1
        )
        # dedupe: one log entry per (fn, pc, reason) with an occurrence count
        dedup_log(state.vec_decline_log, (graph.name, pc, reason))
    for p in plans:
        entry = (graph.name, p.pc, p.kind, outer_pcs.get(p.header.id))
        if entry not in state.vec_plans and len(state.vec_plans) < _DECLINE_LOG_CAP:
            state.vec_plans.append(entry)


# ---------------------------------------------------------------------------
# structural matching
# ---------------------------------------------------------------------------

def _match_loop(graph: Graph, header: BasicBlock, uses, report=None) -> Optional[LoopPlan]:
    term = header.terminator
    if not isinstance(term, I.Branch):
        return None
    cond = term.args[0]
    if not (isinstance(cond, I.PrimCompare) and cond.op == "<" and cond.block is header):
        return None
    idx_phi, bound = cond.args[0], cond.args[1]
    if not (isinstance(idx_phi, I.Phi) and idx_phi.block is header):
        return None

    # From here the block is a counted-loop header (induction phi + bound
    # compare): every subsequent failure is a reportable *decline*.
    body: List[BasicBlock] = []

    def loop_pc() -> int:
        for bb in [header] + body:
            for ins in bb.instrs:
                fs = getattr(ins, "framestate", None)
                if fs is not None and getattr(fs, "pc", None) is not None:
                    return fs.pc
        return -1

    def decline(reason: str) -> None:
        if report is not None:
            # the collected block ids let the caller recognize this loop as
            # the outer driver of a planned inner kernel (nest retagging)
            report((reason, loop_pc(), frozenset(bb.id for bb in body)))
        return None

    def fail(reason: str) -> bool:
        decline(reason)
        return False

    # the header must be exactly phis + compare + branch (the lowerer's
    # kernel placement assumes the scalar exit check starts at header+1)
    for ins in header.instrs:
        if isinstance(ins, I.Phi) or ins is cond or ins is term:
            continue
        return decline("header-effects")

    plan = LoopPlan()
    plan.header = header
    plan.idx_phi = idx_phi
    plan.bound = bound
    plan.body_on_true = True
    body_entry, plan.exit_block = term.true_block, term.false_block

    # collect the loop body: blocks reachable from the body entry without
    # passing through the header again.  The body is collected *fully* (so a
    # "nested-control" decline can report which blocks it saw — the nest
    # retagging in ``vectorize_loops`` keys on them), then bounded.
    seen = {header.id}
    work = [body_entry]
    while work:
        bb = work.pop()
        if bb.id in seen:
            continue
        seen.add(bb.id)
        body.append(bb)
        if len(body) > 64:  # runaway region — give up collecting
            return decline("nested-control")
        for s in bb.successors():
            if s is not header:
                work.append(s)
    body_ids = {bb.id for bb in body}
    # an inner cycle (a back-edge within the body) means a nested loop: this
    # loop stays scalar and can only be the outer driver of an inner kernel
    if _has_inner_cycle(body_entry, header, body_ids):
        return decline("nested-control")
    if plan.exit_block.id in body_ids:
        return decline("irreducible-body")
    # single latch; no side entries into the body
    latches = [p for p in header.preds if p.id in body_ids]
    if len(latches) != 1 or len(header.preds) != 2:
        return decline("multiple-latches")
    plan.latch = latches[0]
    if not isinstance(plan.latch.terminator, I.Jump):
        return decline("irreducible-body")
    for bb in body:
        for p in bb.preds:
            if p.id not in body_ids and not (bb is body_entry and p is header):
                return decline("side-entry")
    plan.body_blocks = [bb for bb in graph.rpo() if bb.id in body_ids]

    def in_loop(v: I.Instr) -> bool:
        return v.block is not None and (v.block.id in body_ids or v.block is header)

    if in_loop(bound) or isinstance(bound, I.Phi) and bound.block is header:
        return decline("loop-varying-bound")

    # induction: idx_phi's backedge input is idx + 1
    back = _phi_input(idx_phi, plan.latch)
    if not (
        isinstance(back, I.PrimArith) and back.op == "+" and back.block.id in body_ids
        and back.args[0] is idx_phi and isinstance(back.args[1], I.Const)
        and back.args[1].value == 1
    ):
        return decline("irregular-induction")
    plan.idx_inc = back

    # iteration space: a VecLoad of an identity 1:n colon at idx+1.  OSR-entry
    # graphs carry the sequence in as opaque loop state (a Param) — accept any
    # loop-invariant base and let the kernel verify the 1..n content at
    # runtime (it declines on anything else, leaving the scalar loop to run).
    seq_load = None
    fallback = None
    for bb in plan.body_blocks:
        for ins in bb.instrs:
            if isinstance(ins, I.VecLoad) and ins.args[1] is plan.idx_inc and not in_loop(ins.args[0]):
                if _is_identity_colon(ins.args[0], in_loop):
                    seq_load = ins
                    break
                if fallback is None:
                    fallback = ins
        if seq_load is not None:
            break
    if seq_load is None and fallback is not None:
        seq_load = fallback
        plan.seq_static = False
    if seq_load is None:
        return decline("no-elementwise-read")
    plan.seq_load = seq_load

    if not _assign_roles(graph, plan, uses, in_loop, fail):
        return None
    plan.pc = loop_pc()
    return plan


def _phi_input(phi: I.Phi, pred: BasicBlock):
    for blk, val in phi.inputs:
        if blk is pred:
            return val
    return None


def _has_inner_cycle(entry: BasicBlock, header: BasicBlock, body_ids) -> bool:
    """DFS back-edge detection within the body region (edges to the header —
    the loop's own backedge — excluded).  Forks/joins are acyclic and pass
    (the role pass declines their branch); a nested loop's latch→header
    edge trips."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {bid: WHITE for bid in body_ids}
    succs = lambda b: iter([s for s in b.successors()
                            if s is not header and s.id in body_ids])
    color[entry.id] = GRAY
    stack = [(entry, succs(entry))]
    while stack:
        node, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            color[node.id] = BLACK
            stack.pop()
        elif color[nxt.id] == GRAY:
            return True
        elif color[nxt.id] == WHITE:
            color[nxt.id] = GRAY
            stack.append((nxt, succs(nxt)))
    return False


def _is_identity_colon(v: I.Instr, in_loop) -> bool:
    """``CastType(Force(Colon(1, n)))`` outside the loop: elements are the
    ints ``1..n`` — no NAs, and element ``j + 1`` is ``j + 1``."""
    while isinstance(v, (I.CastType, I.Force)):
        if in_loop(v):
            return False
        v = v.args[0]
    if not (isinstance(v, I.Colon) and not in_loop(v)):
        return False
    start = v.args[0]
    if not isinstance(start, I.Const):
        return False
    val = getattr(start, "value", None)
    if hasattr(val, "data") and hasattr(val, "kind"):  # boxed scalar const
        val = val.data[0] if len(val.data) == 1 else None
    return not isinstance(val, bool) and val in (1, 1.0)


# ---------------------------------------------------------------------------
# role assignment + kernel classification
# ---------------------------------------------------------------------------

#: decline tags for whole-op classes the kernels can never model
_OP_DECLINES = {
    I.Call: "call",
    I.StaticCall: "call",
    I.CallBuiltin: "call",
    I.CheckFun: "call",
    I.MkClosure: "closure-alloc",
    I.MkPromise: "closure-alloc",
    I.StVarEnv: "env-store",
    I.StVarSuper: "env-store",
    I.SetIndex1: "generic-index-store",
    I.SetIndex2: "generic-index-store",
    I.Extract1: "generic-index-read",
    I.Extract2: "generic-index-read",
    I.Arith: "generic-arith",
    I.PrimCompare: "unrecognized-compare",
    I.Branch: "data-dependent-branch",
}


def _assign_roles(graph: Graph, plan: LoopPlan, uses, in_loop, fail) -> bool:
    roles = plan.roles
    roles[id(plan.idx_phi)] = ("idx",)
    roles[id(plan.idx_inc)] = ("idx1",)
    roles[id(plan.seq_load)] = ("seq",)

    invs: List[InvChain] = plan.invs
    inv_by_root: Dict[Any, InvChain] = {}

    def new_chain(root) -> InvChain:
        ch = inv_by_root.get(root if root[0] != "value" else ("value", id(root[1])))
        if ch is not None:
            return ch
        ch = InvChain(len(invs), root)
        invs.append(ch)
        inv_by_root[root if root[0] != "value" else ("value", id(root[1]))] = ch
        return ch

    def chain_of(v: I.Instr) -> Optional[InvChain]:
        r = roles.get(id(v))
        if r is not None and r[0] == "inv":
            return invs[r[1]]
        if not in_loop(v):
            return new_chain(("value", v))
        return None

    #: roles a fused expression tree may reference directly
    _EXPR_OK = ("elem", "seq", "idx1", "idx", "inv", "uinv", "expr", "cval")

    def expr_role(v: I.Instr):
        """The role of ``v`` usable as a fused-expression operand, or None."""
        r = roles.get(id(v))
        if r is not None and r[0] in _EXPR_OK:
            return r
        if isinstance(v, I.Const):
            val = getattr(v, "value", None)
            if hasattr(val, "data") and hasattr(val, "kind"):  # boxed scalar
                val = val.data[0] if len(val.data) == 1 else None
            if val is not None and isinstance(val, (int, float)):
                return ("cval", val)
            return None
        if not in_loop(v):
            ch = new_chain(("value", v))
            return ("inv", ch.key)
        return None

    # -- header phis: the accumulator and invariant-valued vector phis -------
    acc_candidates: List[I.Phi] = []
    for phi in plan.header.phis():
        if phi is plan.idx_phi:
            continue
        back = _phi_input(phi, plan.latch)
        if back is plan.seq_load:
            # the loop variable itself, carried across the backedge (the
            # OSR-entry shape): at the head of iteration j it holds
            # seq[j] == j — the kernel entry-checks that and advances the
            # register together with the induction variable
            roles[id(phi)] = ("idx",)
            plan.seqv_phis.append(phi)
            continue
        if _chases_to_phi(back, phi):
            ch = new_chain(("phi", phi))
            ch.members.append(phi)
            roles[id(phi)] = ("inv", ch.key)
        else:
            acc_candidates.append(phi)
    if len(acc_candidates) > 1:
        return fail("multiple-accumulators")
    acc_phi = acc_candidates[0] if acc_candidates else None
    if acc_phi is not None:
        roles[id(acc_phi)] = ("acc",)
    plan.acc_phi = acc_phi

    istype_guards: Dict[int, I.Instr] = {}   # id(IsType) -> guarded value
    ident_guards: Dict[int, I.Instr] = {}    # id(IsIdentical) -> guarded value
    acc_update = None
    store = None

    for bb in plan.body_blocks:
        for ins in bb.instrs:
            if ins is plan.idx_inc or ins is plan.seq_load:
                continue
            t = type(ins)
            if t is I.Const:
                continue
            if t is I.Jump:
                continue
            if t is I.LdVarEnv:
                if ins.args:  # env-chain load through a real environment
                    return fail("env-chain-load")
                ch = new_chain(("env", ins.vname))
                ch.members.append(ins)
                roles[id(ins)] = ("inv", ch.key)
                continue
            if t is I.LdFun:
                # a function lookup re-executed every iteration: invariant as
                # long as no body op stores into an environment (none may).
                # The kernel replays the lexical-chain lookup once at entry
                # and declines if the name does not resolve to a function.
                if ins.args:  # lookup through a real environment
                    return fail("env-chain-load")
                ch = new_chain(("fun", ins.vname))
                ch.members.append(ins)
                roles[id(ins)] = ("inv", ch.key)
                continue
            if t is I.Force:
                src = ins.args[0]
                if src is acc_phi:
                    roles[id(ins)] = ("acc",)
                    continue
                ch = chain_of(src)
                if ch is None:
                    return fail("non-invariant-operand")
                ch.members.append(ins)
                roles[id(ins)] = ("inv", ch.key)
                continue
            if t is I.CastType:
                src = ins.args[0]
                r = roles.get(id(src))
                if r is not None and r[0] == "acc":
                    roles[id(ins)] = ("acc",)
                    continue
                ch = chain_of(src)
                if ch is None:
                    return fail("non-invariant-operand")
                ch.members.append(ins)
                roles[id(ins)] = ("inv", ch.key)
                continue
            if t is I.IsType:
                src = ins.args[0]
                # must lower to a fused GTYPE: single use feeding one Assume
                users = uses.get(ins, [])
                if len(users) != 1 or not isinstance(users[0], I.Assume):
                    return fail("unfused-guard")
                if roles.get(id(src)) == ("acc",):
                    # a boxed accumulator: the generic reduce stays scalar
                    return fail("boxed-accumulator")
                ch = chain_of(src)
                if ch is None:
                    return fail("non-invariant-operand")
                if ch.gtype is not None and ch.gtype != ins.test_type:
                    return fail("conflicting-guards")
                ch.gtype = ins.test_type
                istype_guards[id(ins)] = src
                continue
            if t is I.IsIdentical:
                # must lower to a fused GIDENT: single use feeding one Assume
                users = uses.get(ins, [])
                if len(users) != 1 or not isinstance(users[0], I.Assume):
                    return fail("unfused-guard")
                ch = chain_of(ins.args[0])
                if ch is None:
                    return fail("non-invariant-operand")
                if ch.gident is not None and ch.gident is not ins.expected:
                    return fail("conflicting-guards")
                ch.gident = ins.expected
                ident_guards[id(ins)] = ins.args[0]
                continue
            if t is I.Assume:
                cond = ins.args[0]
                src = istype_guards.get(id(cond)) or ident_guards.get(id(cond))
                if src is None:
                    # cold-branch assumes: not modeled
                    return fail("unmodeled-assume")
                r = roles.get(id(src))
                if r is not None and r[0] == "inv":
                    invs[r[1]].guard_assume = ins
                continue
            if t is I.VecLoad:
                if ins.args[1] is not plan.seq_load and ins.args[1] is not plan.idx_inc:
                    # a computed subscript (x[[idx[[i]]]], x[[a + s*i]]):
                    # the scalar loop runs it with its own checks
                    return fail("gather-index")
                ch = chain_of(ins.args[0])
                if ch is None:
                    return fail("non-invariant-vector")
                key = ch.key
                roles[id(ins)] = ("elem", key)
                if key not in plan.elem_keys:
                    plan.elem_keys.append(key)
                continue
            if t is I.Unbox:
                r = roles.get(id(ins.args[0]))
                if r is not None and r[0] == "inv":
                    roles[id(ins)] = ("uinv", r[1])
                    continue
                return fail("unrecognized-unbox")
            if t is I.Box:
                r = roles.get(id(ins.args[0]))
                if r is None:
                    return fail("unrecognized-box")
                roles[id(ins)] = ("box", r, ins.kind)
                continue
            if t is I.PrimArith:
                ra = roles.get(id(ins.args[0]))
                rb = roles.get(id(ins.args[1]))
                # reduction update: acc ⊕ X, where X is a bare element added
                # (the sum fast shape) or any fused expression (fsum)
                if acc_phi is not None and acc_update is None and ins.op in ("+", "*"):
                    a_is_acc = ins.args[0] is acc_phi or ra == ("acc",)
                    b_is_acc = ins.args[1] is acc_phi or rb == ("acc",)
                    if a_is_acc != b_is_acc:
                        other = ins.args[1] if a_is_acc else ins.args[0]
                        ro = rb if a_is_acc else ra
                        if ins.op == "+" and ro is not None and ro[0] == "elem":
                            plan.kind = "sum"
                        else:
                            ro = expr_role(other)
                            if ro is not None:
                                plan.kind = "fsum"
                                plan.expr = ro
                        if plan.kind is not None:
                            plan.acc_op = ins.op
                            plan.acc_kind = ins.kind
                            acc_update = ins
                            roles[id(ins)] = ("acc_next",)
                            continue
                # an interior node of a fused map→reduce expression
                if ins.op in _EXPR_OPS:
                    ea = expr_role(ins.args[0])
                    eb = expr_role(ins.args[1])
                    if ea is not None and eb is not None:
                        roles[id(ins)] = ("expr", ins.op, ea, eb)
                        continue
                return fail("unrecognized-arith")
            if t is I.VecStore:
                if store is not None:
                    return fail("multiple-stores")
                if ins.args[1] is not plan.seq_load and ins.args[1] is not plan.idx_inc:
                    return fail("gather-index")
                ch = chain_of(ins.args[0])
                if ch is None or ch.root[0] != "phi":
                    return fail("store-target-not-invariant")
                vr = roles.get(id(ins.args[2]))
                if isinstance(ins.args[2], I.Const):
                    plan.val_spec = ("const", ins.args[2])
                elif vr is not None and vr[0] == "elem":
                    plan.val_spec = ("elem", vr[1])
                else:
                    return fail("unrecognized-store-value")
                store = ins
                plan.out_key = ch.key
                plan.store_kind = ins.kind
                # the store's value *is* the out vector (in-place fast path,
                # guaranteed by the kernel's entry checks)
                roles[id(ins)] = ("inv", ch.key)
                continue
            return fail(_OP_DECLINES.get(t, "unsupported-op:%s" % t.__name__))

    return _classify(graph, plan, uses, in_loop, acc_update, store, fail)


def _chases_to_phi(v: I.Instr, phi: I.Phi) -> bool:
    """Backedge value of an invariant phi: Force/CastType/in-place VecStore
    chains terminating at the phi itself.  Box/Unbox round-trips are chased
    too: a guarded scalar invariant re-boxed each iteration
    (``Box(Unbox(Force(phi)))``) carries the same payload — the guard pins
    the kind, so the re-box is value-identical."""
    seen = 0
    while seen < 12:
        if v is phi:
            return True
        if isinstance(v, (I.Force, I.CastType, I.VecStore, I.Box, I.Unbox)):
            v = v.args[0]
            seen += 1
            continue
        return False
    return False


def _expr_within_bound(plan: LoopPlan, fail) -> bool:
    """Bound the fused expression's size."""
    nodes = 0
    work = [plan.expr]
    while work:
        r = work.pop()
        nodes += 1
        if nodes > 64:
            # spectralnorm's inlined eval_A chain is ~29 nodes; the cap only
            # exists to bound pathological machine-generated expressions
            return fail("fused-expr-too-large")
        if r[0] == "expr":
            work.append(r[2])
            work.append(r[3])
    return True


def _classify(graph: Graph, plan: LoopPlan, uses, in_loop, acc_update, store, fail) -> bool:
    header, latch = plan.header, plan.latch

    if store is not None:
        if acc_update is not None or plan.acc_phi is not None:
            return fail("mixed-store-reduction")
        plan.store = store
        plan.kind = "fill" if plan.val_spec[0] == "const" else "copy"
        # never write a vector the loop also reads (runtime identity is
        # additionally re-checked at kernel entry)
        if plan.out_key in plan.elem_keys:
            return fail("aliasing")
        out_root = plan.invs[plan.out_key].root
        for k in plan.elem_keys:
            if plan.invs[k].root == out_root:
                return fail("aliasing")
    elif acc_update is not None:
        if plan.acc_phi is None or _phi_input(plan.acc_phi, latch) is not acc_update:
            return fail("reduction-shape")
        if plan.kind == "fsum" and not _expr_within_bound(plan, fail):
            return False
    else:
        return fail("no-reduction")

    # no loop-defined value may be used outside the loop (the kernel only
    # reconstructs registers the retained scalar loop re-derives, and header phis)
    loop_blocks = {header.id} | {bb.id for bb in plan.body_blocks}
    loop_frames = set()  # every frame of every checkpoint in the body
    for ins in (ins for bb in plan.body_blocks for ins in bb.instrs):
        fs = getattr(ins, "framestate", None)
        while fs is not None:
            loop_frames.add(id(fs))
            fs = fs.parent
    for ins in (ins for bb in plan.body_blocks for ins in bb.instrs):
        for user in uses.get(ins, ()):
            if isinstance(user, FrameStateDescr):
                outside = id(user) not in loop_frames
            else:  # (an OSR anchor is a holder no code runs at)
                blk = getattr(user, "block", None)
                outside = blk is not None and blk.id not in loop_blocks
            if outside:
                return fail("value-escapes-loop")

    # every framestate value referenced inside the loop must be role-mapped
    # or loop-invariant (checked again with registers at lowering)
    for bb in plan.body_blocks:
        for ins in bb.instrs:
            fs = getattr(ins, "framestate", None)
            if fs is None:
                continue
            for v in fs.iter_values():
                # in-loop Consts are preloaded registers — always correct
                if in_loop(v) and id(v) not in plan.roles and not isinstance(v, I.Const):
                    return fail("unmapped-framestate")
    return True
