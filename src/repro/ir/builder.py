"""Bytecode → IR translation with speculation.

The builder performs, in order:

1. **Partitioning** of the bytecode into basic blocks, from an arbitrary
   ``entry_pc`` (0 for whole functions; mid-function for OSR-in and for
   deoptless continuations — the paper's "the bytecode to IR translation has
   to support starting at an offset").  An entry inside a loop is the rest
   of that iteration, as copied blocks, and then the loop from its header.
2. **Escape analysis** over the *whole* bytecode: the local environment can
   be promoted to registers only if no closure/promise captures it anywhere.
   Scanning only the code reachable from ``entry_pc`` would wrongly elide
   environments that escaped before a continuation's entry — exactly the
   OSR-in unsoundness the paper reports for dead-store elimination
   (section 4.2); a config flag reintroduces the bug for the regression
   test.
3. **Type analysis**: a forward fixpoint over (operand stack × variables)
   in the :class:`~repro.runtime.rtypes.RType` lattice, with *planned
   speculations* applied — where trustworthy type feedback is more precise
   than the static type, the analysis assumes the guard will be placed and
   uses the feedback type.
4. **Translation**: one pass in reverse postorder, emitting typed fast
   instructions under ``Assume`` guards exactly where the analysis planned
   them, each guard referencing a fresh ``FrameStateDescr`` so the program
   can exit to the interpreter at that point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..bytecode import opcodes as O
from ..bytecode.feedback import BinopFeedback, BranchFeedback, CallFeedback, ObservedType
from ..osr.framestate import DeoptReasonKind, FrameStateDescr
from ..runtime.rtypes import ANY, Kind, RType
from ..runtime.values import NULL, RBuiltin, RClosure, RNull, RVector
from . import instructions as I
from . import typerules as T
from .cfg import BasicBlock, Graph, OsrAnchor


class CompilationFailure(Exception):
    """Raised when the unit cannot (or should not) be compiled natively."""


# bottom element marker for the variable lattice
_BOTTOM = object()

#: static types for which a branch condition can be used unboxed directly
_BOOL_OK = RType(Kind.LGL, scalar=True, maybe_na=False)

#: minimum one-sided observations before a cold branch is speculated away
COLD_BRANCH_MIN_COUNT = 5

#: sites that deoptimized more often than this are not re-speculated
MAX_SITE_DEOPTS = 3


# ---------------------------------------------------------------------------
# bytecode block partitioning
# ---------------------------------------------------------------------------

class BcBlock:
    """Bytecode ``[start, end)``: one entry at the top, one branch, return or
    fall-through at the bottom.  A block's identity is the object, not its
    start pc — a block of the entry prologue and the loop's own block cover
    the same pcs."""

    __slots__ = ("start", "end", "prologue", "succs", "preds", "is_join", "is_loop_header")

    def __init__(self, start: int, end: int, prologue: bool):
        self.start = start
        self.end = end  # exclusive
        #: entry-only copy of pcs that a loop reachable from here runs too
        self.prologue = prologue
        self.succs: List["BcBlock"] = []
        self.preds: List["BcBlock"] = []
        self.is_join = False
        self.is_loop_header = False

    def latches(self) -> List["BcBlock"]:
        """Predecessors that close a loop on this block: pc-backward edges
        from its own side (a prologue block's edge into the function's
        header enters the loop, it does not close it)."""
        return [p for p in self.preds if p.prologue == self.prologue and p.start >= self.start]

    def succ_at(self, pc: int) -> "BcBlock":
        """The successor this block reaches at ``pc``: from the prologue
        that is another prologue block or a block of the function proper."""
        for s in self.succs:
            if s.start == pc:
                return s
        raise KeyError(pc)


_BRANCHES = (O.BR, O.BRFALSE, O.BRTRUE)


def partition_bytecode(code, entry_pc: int) -> List[BcBlock]:
    """The blocks reachable from ``entry_pc``, entry first, in reverse postorder.

    Leaders are pc 0 and what the branches name; ``entry_pc`` is not one.  An
    entry between leaders starts a block that nothing else reaches.  An entry
    inside a loop first runs a *prologue* — the rest of this iteration:
    entry-only copies of the blocks between ``entry_pc`` and the header of
    the innermost loop around it, where the function's own blocks take over.
    So that loop, and every loop inside it, is entered at its header only
    and has the blocks, the edges and the empty stack at its joins that it
    has in the whole function; a loop around it is entered at that header
    too, as by OSR-in there.  The prologue and the rest each have one way
    in, which keeps the unit's CFG reducible whatever ``entry_pc`` is: an
    edge that arrives late in the order is a back edge to a block that
    dominates its source.  Blocks on no cycle are never copied: a unit
    entered at pc 0 is the function's CFG (DESIGN.md, "The shape of a
    continuation").
    """
    instrs = code.code
    n = len(instrs)
    leaders = {0}
    loops = []  # (head, tail): the branch at pc ``tail`` goes back to ``head``
    for pc in range(n):
        op = instrs[pc][0]
        if op in _BRANCHES:
            leaders.add(instrs[pc][1])
            if instrs[pc][1] <= pc:
                loops.append((instrs[pc][1], pc))
        if (op in _BRANCHES or op == O.RETURN) and pc + 1 < n:
            leaders.add(pc + 1)

    # where the prologue hands over: the header of the innermost loop around
    # the entry (no loop: the entry itself, and nothing is prologue)
    stop = max((h for h, t in loops if h <= entry_pc <= t), default=entry_pc)

    made: Dict[Tuple[int, bool], BcBlock] = {}

    def block_at(pc: int, prologue: bool) -> BcBlock:
        # the prologue copies what lies on a cycle of the rest: the inside of
        # a loop, and the header of a loop around ``stop`` (entered at
        # ``stop``, that loop closes its cycle through its header)
        prologue = prologue and pc != stop and any(
            h < pc <= t or h == pc < stop <= t for h, t in loops)
        b = made.get((pc, prologue))
        if b is None:
            end = pc + 1
            while instrs[end - 1][0] not in _BRANCHES and instrs[end - 1][0] != O.RETURN \
                    and end < n and end not in leaders:
                end += 1
            b = made[(pc, prologue)] = BcBlock(pc, end, prologue)
        return b

    def link(b: BcBlock) -> BcBlock:
        ins = instrs[b.end - 1]
        if ins[0] == O.BR:
            targets = [ins[1]]
        elif ins[0] in _BRANCHES:
            targets = [b.end, ins[1]]
        else:
            targets = [] if ins[0] == O.RETURN or b.end == n else [b.end]
        b.succs = [block_at(t, b.prologue) for t in targets]
        return b

    entry = link(block_at(entry_pc, True))
    order: List[BcBlock] = []
    seen = {entry}
    stack = [(entry, iter(entry.succs))]
    while stack:
        b, it = stack[-1]
        for t in it:
            if t not in seen:
                seen.add(t)
                stack.append((link(t), iter(t.succs)))
                break
        else:
            order.append(b)
            stack.pop()
    order.reverse()

    for b in order:
        for t in b.succs:
            t.preds.append(b)
    for b in order:
        # the graph's entry edge is one more predecessor of the entry block;
        # it matters where the entry is the function's own block — OSR-in at
        # a loop header, a deopt at the first pc of a join outside every loop
        # (inside one the entry is a prologue block, which nothing else reaches)
        b.is_join = len(b.preds) + (b is entry) > 1
        b.is_loop_header = bool(b.latches())
    return order


# ---------------------------------------------------------------------------
# whole-code escape analysis
# ---------------------------------------------------------------------------

def env_escapes(code, scan_from: int = 0) -> bool:
    """Does the local environment escape (closures/promises capture it, or
    a variable may be read before it is certainly assigned)?

    ``scan_from`` exists only to reproduce the unsound variant that scans
    from the continuation entry instead of pc 0.
    """
    for pc in range(scan_from, len(code.code)):
        op = code.code[pc][0]
        if op in (O.MK_CLOSURE, O.MK_PROMISE):
            return True
    return False


# ---------------------------------------------------------------------------
# feedback helpers
# ---------------------------------------------------------------------------

def _site_blocked(code, pc: int) -> bool:
    return code.deopt_sites.get(pc, 0) >= MAX_SITE_DEOPTS


def usable_observed(code, pc: int, fb: Optional[ObservedType]) -> Optional[RType]:
    """The speculation type for an ObservedType slot, or None."""
    if fb is None or fb.stale or fb.count == 0 or _site_blocked(code, pc):
        return None
    k = fb.monomorphic_kind
    if k is None or not k.is_vector:
        return None
    return RType(k, scalar=fb.all_scalar, maybe_na=fb.saw_na)


def usable_call_target(code, pc: int, fb: Optional[CallFeedback]):
    if fb is None or fb.stale or _site_blocked(code, pc):
        return None
    return fb.monomorphic_target


def loop_exit(code, branch_pc: int) -> bool:
    """Is this conditional a loop exit (never speculate those away)?"""
    instrs = code.code
    target = instrs[branch_pc][1]
    for pc in range(len(instrs)):
        ins = instrs[pc]
        if ins[0] == O.BR and ins[1] <= pc:
            head, tail = ins[1], pc
            if head <= branch_pc <= tail and (target > tail or target < head):
                return True
    return False


# ---------------------------------------------------------------------------
# abstract state
# ---------------------------------------------------------------------------

class AbsState:
    """Types of the operand stack and of local variables at one program point."""

    __slots__ = ("stack", "vars")

    def __init__(self, stack: List[RType], vars_: Dict[str, Any]):
        self.stack = stack
        self.vars = vars_

    def copy(self) -> "AbsState":
        return AbsState(list(self.stack), dict(self.vars))

    def merge(self, other: "AbsState") -> bool:
        """Merge ``other`` into self; returns True when something changed."""
        if len(self.stack) != len(other.stack):
            raise CompilationFailure(
                "operand stack depth mismatch at merge (%d vs %d)"
                % (len(self.stack), len(other.stack))
            )
        changed = False
        for i, (a, b) in enumerate(zip(self.stack, other.stack)):
            m = a.lub(b)
            if m != a:
                self.stack[i] = m
                changed = True
        for name in set(self.vars) | set(other.vars):
            a = self.vars.get(name, _BOTTOM)
            b = other.vars.get(name, _BOTTOM)
            if a is _BOTTOM and b is _BOTTOM:
                continue
            if a is _BOTTOM or b is _BOTTOM:
                m = "maybe-undefined"
            elif a == "maybe-undefined" or b == "maybe-undefined":
                m = "maybe-undefined"
            else:
                m = a.lub(b)
            if m != a:
                self.vars[name] = m
                changed = True
        return changed


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------

class GraphBuilder:
    """Builds (and types) the IR for one compilation unit."""

    def __init__(
        self,
        vm,
        code,
        closure: Optional[RClosure],
        entry_pc: int = 0,
        entry_var_types: Optional[Dict[str, RType]] = None,
        entry_stack_types: Optional[List[RType]] = None,
        is_continuation: bool = False,
        injected_types: Optional[Dict[int, RType]] = None,
        feedback_override: Optional[Dict[int, Any]] = None,
        entry_ctx=None,
        unbox_params: bool = True,
    ):
        self.vm = vm
        self.code = code
        self.closure = closure
        self.entry_pc = entry_pc
        self.entry_var_types = entry_var_types or {}
        self.entry_stack_types = entry_stack_types or []
        self.is_continuation = is_continuation
        #: CallContext assumed proven at entry (contextual dispatch): formals
        #: start at the context's types instead of ANY, so the argument
        #: guards the profile would request are dropped from the body —
        #: they are checked once, at dispatch.  ``unbox_params`` additionally
        #: lets unboxable typed params bind their raw scalar payload (the
        #: inliner passes False: spliced args are boxed IR values).
        self.entry_ctx = entry_ctx
        self.unbox_params = unbox_params
        #: pc -> RType injected by deoptless feedback repair (the observed
        #: type of the value that failed the guard; overrides feedback).
        self.injected_types = injected_types or {}
        #: feedback map consulted for speculation decisions; deoptless passes
        #: a repaired copy here so the live baseline profile stays untouched
        self.feedback = feedback_override if feedback_override is not None else code.feedback

        #: bytecode blocks in translation order; the first is the entry
        self.bc_order = partition_bytecode(code, entry_pc)
        scan_from = entry_pc if vm.config.unsound_continuation_escape and is_continuation else 0
        self.env_mode = env_escapes(code, scan_from)
        if not self.env_mode:
            # non-constant default arguments need a real environment
            if closure is not None and any(
                f[1] is not None and not _const_default(f[1]) for f in closure.formals
            ):
                self.env_mode = True

        self.graph = Graph(code.name)
        self.graph.bc_code = code
        self.graph.entry_pc = entry_pc
        self.graph.is_continuation = is_continuation
        self.graph.env_elided = not self.env_mode

        # filled by analyze()
        self.in_states: Dict[BcBlock, AbsState] = {}

    # -- speculation decision rules (shared by analysis and translation) --------

    def _spec_observed(self, pc: int) -> Optional[RType]:
        if pc in self.injected_types:
            return self.injected_types[pc]
        fb = self.feedback.get(pc)
        if isinstance(fb, ObservedType):
            return usable_observed(self.code, pc, fb)
        return None

    def _spec_binop(self, pc: int) -> Tuple[Optional[RType], Optional[RType]]:
        fb = self.feedback.get(pc)
        if isinstance(fb, BinopFeedback) and not fb.stale and not _site_blocked(self.code, pc):
            return (
                usable_observed(self.code, pc, fb.lhs),
                usable_observed(self.code, pc, fb.rhs),
            )
        return (None, None)

    @staticmethod
    def _guardable(spec: RType, static: RType) -> bool:
        """May we usefully guard a value of static type to ``spec``?

        The feedback type must be strictly more precise, and must not change
        the *kind* of a statically known value: a value the analysis proved
        to be a double can never pass an is-int guard, so emitting one would
        deopt unconditionally (this is how stale feedback would otherwise
        poison deoptless continuations — the paper's section 4.3 problem).
        """
        if not (spec < static):
            return False
        return static.kind == Kind.ANY or spec.kind == static.kind

    def _ld_var_plan(self, pc: int, static: RType) -> Tuple[RType, Optional[RType]]:
        """(result type, guard type or None) for a variable load site."""
        spec = self._spec_observed(pc)
        if spec is not None and self._guardable(spec, static):
            return spec, spec
        return static, None

    def _operand_plan(self, pc: int, slot: int, static: RType) -> Tuple[RType, Optional[RType]]:
        """Same for one operand of a binop-like site (slot 0 = lhs)."""
        lhs_spec, rhs_spec = self._spec_binop(pc)
        spec = lhs_spec if slot == 0 else rhs_spec
        if spec is not None and self._guardable(spec, static):
            return spec, spec
        return static, None

    # ------------------------------------------------------------------------
    # pass 1: type analysis
    # ------------------------------------------------------------------------

    def analyze(self) -> None:
        # in env-mode, variables live in a real environment and are not
        # tracked by the analysis (loads are typed from feedback only)
        entry_vars = {} if self.env_mode else dict(self.entry_var_types)
        entry = AbsState(list(self.entry_stack_types), entry_vars)
        if (self.closure is not None and self.entry_pc == 0
                and not self.env_mode and not self.is_continuation):
            ctx = self.entry_ctx
            for i, (fname, default) in enumerate(self.closure.formals):
                if fname not in entry.vars:
                    if ctx is not None and i < len(ctx.arg_types):
                        # proven at dispatch, free to assume here
                        entry.vars[fname] = ctx.arg_types[i]
                    else:
                        entry.vars[fname] = ANY
        self.in_states = {self.bc_order[0]: entry}
        work = [self.bc_order[0]]
        iterations = 0
        while work:
            iterations += 1
            if iterations > 10000:
                raise CompilationFailure("type analysis did not converge")
            block = work.pop(0)
            state = self.in_states[block].copy()
            for succ_pc, sstate in self._transfer_block(block, state):
                succ = block.succ_at(succ_pc)
                if succ not in self.in_states:
                    self.in_states[succ] = sstate.copy()
                    work.append(succ)
                else:
                    if self.in_states[succ].merge(sstate):
                        if succ not in work:
                            work.append(succ)

    def _transfer_block(self, block: BcBlock, st: AbsState) -> List[Tuple[int, AbsState]]:
        """Abstractly execute one bytecode block; returns successor states."""
        instrs = self.code.code
        pc = block.start
        while pc < block.end:
            ins = instrs[pc]
            op = ins[0]
            if op == O.PUSH_CONST:
                st.stack.append(_const_type(self.code.consts[ins[1]]))
            elif op == O.PUSH_NULL:
                st.stack.append(RType(Kind.NULL, scalar=False, maybe_na=False))
            elif op == O.POP:
                st.stack.pop()
            elif op == O.DUP:
                st.stack.append(st.stack[-1])
            elif op == O.ROT3:
                c = st.stack.pop()
                b = st.stack.pop()
                a = st.stack.pop()
                st.stack += [b, c, a]
            elif op == O.LD_VAR:
                name = self.code.names[ins[1]]
                static = self._static_var_type(st, name)
                result, _guard = self._ld_var_plan(pc, static)
                st.stack.append(result)
                if not self.env_mode and name in st.vars and isinstance(st.vars.get(name), RType):
                    st.vars[name] = result  # refinement after the guard
            elif op == O.ST_VAR:
                v = st.stack.pop()
                if not self.env_mode:
                    st.vars[name_of(self.code, ins)] = v
            elif op == O.ST_VAR_SUPER:
                st.stack.pop()
            elif op == O.LD_FUN:
                st.stack.append(ANY)
            elif op == O.MK_CLOSURE:
                st.stack.append(RType(Kind.CLO, scalar=True, maybe_na=False))
            elif op == O.MK_PROMISE:
                st.stack.append(ANY)
            elif op == O.BINOP:
                b = st.stack.pop()
                a = st.stack.pop()
                a2, _ = self._operand_plan(pc, 0, a)
                b2, _ = self._operand_plan(pc, 1, b)
                kind = T.prim_arith_kind(a2, b2)
                if kind is not None and not (kind == Kind.CPLX and ins[1] in ("%%", "%/%")):
                    # mirrors the builder's fast path (zero divisors deopt,
                    # so the result is never NA and phis can stay unboxed)
                    st.stack.append(T.prim_arith_result(ins[1], kind))
                else:
                    st.stack.append(T.arith_result(ins[1], a2, b2))
            elif op == O.COMPARE:
                b = st.stack.pop()
                a = st.stack.pop()
                a2, _ = self._operand_plan(pc, 0, a)
                b2, _ = self._operand_plan(pc, 1, b)
                st.stack.append(T.compare_result(a2, b2))
            elif op == O.LOGIC:
                b = st.stack.pop()
                a = st.stack.pop()
                st.stack.append(RType(Kind.LGL, scalar=a.scalar and b.scalar))
            elif op == O.UNOP:
                a = st.stack.pop()
                st.stack.append(T.unary_result(ins[1], a))
            elif op == O.COLON:
                b = st.stack.pop()
                a = st.stack.pop()
                a2, _ = self._operand_plan(pc, 0, a)
                b2, _ = self._operand_plan(pc, 1, b)
                st.stack.append(T.colon_result(a2, b2))
            elif op == O.INDEX2:
                idx = st.stack.pop()
                obj = st.stack.pop()
                obj2, _ = self._operand_plan(pc, 0, obj)
                st.stack.append(T.extract2_result(obj2))
            elif op == O.INDEX1:
                idx = st.stack.pop()
                obj = st.stack.pop()
                obj2, _ = self._operand_plan(pc, 0, obj)
                st.stack.append(T.extract1_result(obj2))
            elif op == O.SET_INDEX2 or op == O.SET_INDEX1:
                val = st.stack.pop()
                idx = st.stack.pop()
                obj = st.stack.pop()
                st.stack.append(T.set_index_result(obj, val))
            elif op == O.SEQ_LENGTH:
                st.stack.pop()
                st.stack.append(T.INT_SCALAR)
            elif op == O.CHECK_FUN:
                if ins[1] != "callable":
                    st.stack.pop()
                    st.stack.append(T.LGL_SCALAR)
            elif op == O.CALL:
                nargs = ins[1]
                del st.stack[len(st.stack) - nargs :]
                st.stack.pop()
                st.stack.append(self._call_result_type(pc))
            elif op == O.BR:
                return [(ins[1], st)]
            elif op in (O.BRFALSE, O.BRTRUE):
                st.stack.pop()
                return [(pc + 1, st), (ins[1], st.copy())]
            elif op == O.RETURN:
                st.stack.pop()
                return []
            else:
                raise CompilationFailure("unknown opcode %d" % op)
            pc += 1
        if block.succs:
            return [(block.end, st)]
        return []

    def _static_var_type(self, st: AbsState, name: str) -> RType:
        if self.env_mode:
            return ANY
        t = st.vars.get(name, _BOTTOM)
        if t is _BOTTOM:
            return ANY  # free variable: runtime lookup in the closure chain
        if t == "maybe-undefined":
            raise CompilationFailure("variable %r may be read before assignment" % name)
        return t

    def _call_result_type(self, pc: int) -> RType:
        return ANY

    # ------------------------------------------------------------------------
    # pass 2: translation
    # ------------------------------------------------------------------------

    def build(self) -> Graph:
        self.analyze()
        g = self.graph
        # IR blocks, one per reachable bc block
        entry_bb = g.new_block()
        self.ir_blocks: Dict[BcBlock, BasicBlock] = {b: g.new_block() for b in self.bc_order}

        self.in_values: Dict[BcBlock, "ValState"] = {}
        #: joins and loop headers: edges sealed before the block is translated
        #: wait in ``early_edges``; ``_join_values`` then makes its phis and
        #: files what each slot became under ``joined``, for the back edges
        self.early_edges: Dict[BcBlock, list] = {}
        self.joined: Dict[BcBlock, "ValState"] = {}
        self.sealed: set = set()  # bc blocks a translated edge leads to
        self.bc_pos = {b: i for i, b in enumerate(self.bc_order)}

        # entry block: parameters, then the edge into the first bc block
        vals_entry = self._build_entry(entry_bb)
        self._seal_edge(entry_bb, self.bc_order[0], vals_entry)
        entry_bb.append(I.Jump(self.ir_blocks[self.bc_order[0]]))

        for b in self.bc_order:
            self._translate_block(b)

        g.recompute_preds()
        return g

    # -- entry construction -------------------------------------------------------

    def _build_entry(self, bb: BasicBlock):
        g = self.graph
        vals = ValState([], {})
        if self.env_mode:
            env = I.EnvParam()
            bb.append(env)
            g.params.append(env)
            g.env_param = env
            env.type = RType(Kind.ENV, scalar=True, maybe_na=False)
            self.env_value = env
        else:
            self.env_value = None

        if not self.is_continuation and self.entry_pc == 0 and self.closure is not None:
            if not self.env_mode:
                ctx = self.entry_ctx
                for i, (fname, default) in enumerate(self.closure.formals):
                    t = ANY
                    if ctx is not None and i < len(ctx.arg_types):
                        t = ctx.arg_types[i]
                    p = I.Param(i, fname, t)
                    if self.unbox_params and t.unboxable:
                        # dispatch binds the raw payload into this register
                        p.unboxed = True
                    bb.append(p)
                    g.params.append(p)
                    vals.vars[fname] = p
        else:
            # continuation: env slots then stack slots
            idx = 0
            if not self.env_mode:
                g.cont_var_names = list(self.entry_var_types.keys())
                for name in g.cont_var_names:
                    p = I.Param(idx, name, self.entry_var_types[name])
                    bb.append(p)
                    g.params.append(p)
                    vals.vars[name] = p
                    idx += 1
            else:
                g.cont_var_names = []
            g.cont_stack_size = len(self.entry_stack_types)
            for si, st_t in enumerate(self.entry_stack_types):
                p = I.Param(idx, "<stack%d>" % si, st_t)
                bb.append(p)
                g.params.append(p)
                vals.stack.append(p)
                idx += 1
        return vals

    # -- block translation ----------------------------------------------------------

    def _translate_block(self, b: BcBlock) -> None:
        bb = self.ir_blocks[b]
        if b not in self.sealed:
            # bc-reachable but IR-unreachable: cold-branch speculation cut
            # every forward edge into it (bc order is RPO: they came first —
            # a loop header left with back edges only is dead, phis or not).
            # The empty IR block is dropped by recompute_preds/rpo.
            return
        if b.is_join or b.is_loop_header:
            canonical = self._join_values(b)
            vals = ValState(list(canonical.stack), dict(canonical.vars))
        else:
            vals = self.in_values[b]
        self.cur = vals
        self.cur_bb = bb
        self.cur_block = b
        instrs = self.code.code
        pc = b.start
        terminated = False
        while pc < b.end:
            ins = instrs[pc]
            handler = _DISPATCH[ins[0]]
            if handler(self, ins, pc):
                terminated = True
                break
            pc += 1
        if not terminated:
            self.cur_bb.append(I.Jump(self._edge_to(b.end)))  # fallthrough

    def _edge_to(self, pc: int) -> BasicBlock:
        """Seal the edge from the block being translated to its successor at
        ``pc``; returns the IR block to jump to."""
        succ = self.cur_block.succ_at(pc)
        self._seal_edge(self.cur_bb, succ, self.cur)
        return self.ir_blocks[succ]

    def _seal_edge(self, pred_bb: BasicBlock, succ: BcBlock, out: "ValState") -> None:
        self.sealed.add(succ)
        if not (succ.is_join or succ.is_loop_header):
            self.in_values[succ] = ValState(list(out.stack), dict(out.vars))
        elif succ in self.joined:
            self._add_phi_inputs(succ, pred_bb, out)
        else:
            self.early_edges.setdefault(succ, []).append((pred_bb, out))

    def _join_values(self, b: BcBlock) -> "ValState":
        """The values at the top of a join or loop header, made when it is
        translated (bc order is RPO of a reducible CFG: every forward edge is
        sealed, and what is still to come is a back edge).  A slot
        gets a phi only where ``simplify`` would keep one: when all sealed
        edges deliver one value in the phi's type and mode, the slot *is*
        that value.  With back edges to come that holds at a plain loop
        header (one forward edge, the rest pc-backward) for the variables
        ``_loop_rebinds`` clears; DESIGN.md, "Uses, orders and dominators"."""
        st = self.in_states[b]
        bb = self.ir_blocks[b]
        edges = self.early_edges.pop(b)
        late = [p for p in b.preds if self.bc_pos[p] >= self.bc_pos[b]]
        # no edge to come: nothing rebinds; else anything may, a plain loop excepted
        rebinds = lambda name, v: bool(late)  # noqa: E731
        if late and len(edges) == 1 and set(late) == set(b.latches()):
            rebinds = self._loop_rebinds(b.start, max(p.end for p in late))
        preds, outs = zip(*edges)

        def slot(t: RType, unboxed: bool, name, values) -> I.Instr:
            v = values[0]
            if None in values:
                raise CompilationFailure("variable %r undefined on some path" % name)
            if values.count(v) == len(values) and (v.unboxed == unboxed or len(values) == 1):
                # one value, and one coercion of it at most (each of several
                # edges would make its own, and those differ)
                if v.unboxed != unboxed:
                    v = self._coerce(v, t, unboxed, preds[0])
                # (a Force stays behind its phi: the translation forces an
                # ANY-typed phi again, and nothing folds Force(Force(x)))
                if v.type == t and not isinstance(v, I.Force) and not rebinds(name, v):
                    return v
                ins = [v] * len(values)
            else:
                ins = [self._coerce(w, t, unboxed, pred) for w, pred in zip(values, preds)]
            phi = I.Phi(t)
            phi.unboxed = unboxed
            bb.append(phi)  # the block is still empty: phis lead it
            for c, pred in zip(ins, preds):
                phi.add_input(pred, c)
            return phi

        vals = ValState([], {})
        # Stack slots stay boxed.  The bytecode leaves the stack empty between
        # statements, so a slot live across a join is the value of an ``if``
        # arm on its way to one consumer (532 of the 540 joins the registry
        # programs build, and none of their 1,194 loop headers), typed by the
        # lub of the arms.  No entry pc changes that: a unit entered
        # mid-expression uses its stack up in the prologue
        # (``partition_bytecode``) and its loop headers join what they join
        # in the whole function.
        for i, t in enumerate(st.stack):
            vals.stack.append(slot(t, False, None, [out.stack[i] for out in outs]))
        for name, t in st.vars.items():
            if isinstance(t, RType):  # not bottom, not "maybe-undefined"
                vals.vars[name] = slot(t, t.unboxable, name, [out.vars.get(name) for out in outs])
        self.joined[b] = vals
        if b.is_loop_header and not b.prologue:
            # a frame materialized at this pc maps slot-for-slot onto these
            # values (lower.py turns surviving anchors into the OSR entry map);
            # it enters the function's own loop, not a copy the prologue runs
            self.graph.osr_anchors[b.start] = OsrAnchor(bb, dict(vals.vars), list(vals.stack))
        return vals

    def _loop_rebinds(self, head: int, tail: int):
        """Test ``(name, value) -> bool``: may translating pcs ``[head, tail)``
        bind ``name`` to anything but ``value``?  A store does, and a load
        that forces or guards what it finds; stack slots (no name) always."""
        stored, loads = set(), {}
        for pc in range(head, tail):
            ins = self.code.code[pc]
            if ins[0] == O.ST_VAR:
                stored.add(self.code.names[ins[1]])
            elif ins[0] in (O.LD_VAR, O.LD_FUN):
                loads.setdefault(self.code.names[ins[1]], []).append(pc)

        def rebinds(name: str, v: I.Instr) -> bool:
            if name is None or name in stored:
                return True
            pcs = loads.get(name, ())
            if v.type == ANY and not v.unboxed:
                return bool(pcs)  # the first load forces it
            return any(self.code.code[pc][0] == O.LD_VAR
                       and self._ld_var_plan(pc, v.type)[1] is not None for pc in pcs)

        return rebinds

    def _add_phi_inputs(self, succ: BcBlock, pred_bb: BasicBlock, out: "ValState") -> None:
        """An edge sealed after its target was translated (a back edge)."""
        vals = self.joined[succ]
        bb = self.ir_blocks[succ]
        slots = [(None, at, v) for at, v in zip(vals.stack, out.stack)]
        slots += [(name, at, out.vars.get(name)) for name, at in vals.vars.items()]
        for name, at, v in slots:
            if v is None:
                raise CompilationFailure("variable %r undefined on some path" % name)
            if isinstance(at, I.Phi) and at.block is bb:
                at.add_input(pred_bb, self._coerce(v, at.type, at.unboxed, pred_bb))
            elif v is not at:
                raise CompilationFailure("loop-invariant %r rebound in its loop" % name)

    def _coerce(self, v: I.Instr, t: RType, unboxed: bool, pred_bb: BasicBlock) -> I.Instr:
        """Box/unbox ``v`` at the end of ``pred_bb`` to a phi's mode."""
        if unboxed and not v.unboxed:
            if not v.type.unboxable and not t.unboxable:
                raise CompilationFailure("cannot unbox %r for phi" % v.type)
            u = I.Unbox(t.kind, v)
            self._insert_at_end(pred_bb, u)
            return u
        if not unboxed and v.unboxed:
            bx = I.Box(v.type.kind, v)
            self._insert_at_end(pred_bb, bx)
            return bx
        return v

    @staticmethod
    def _insert_at_end(bb: BasicBlock, instr: I.Instr) -> None:
        term = bb.terminator
        if term is not None:
            bb.insert_before(term, instr)
        else:
            bb.append(instr)

    # -- framestates ------------------------------------------------------------------

    def _framestate(self, pc: int) -> FrameStateDescr:
        """FrameState describing interpreter state *before* the op at ``pc``."""
        if self.env_mode:
            return FrameStateDescr(self.code, pc, [], list(self.cur.stack), env_value=self.env_value)
        slots = [(name, v) for name, v in self.cur.vars.items()]
        return FrameStateDescr(self.code, pc, slots, list(self.cur.stack))

    # -- guard helpers -------------------------------------------------------------------

    def _guard_type(self, value: I.Instr, want: RType, pc: int) -> I.Instr:
        """Emit IsType+Assume; returns the (typed, possibly unboxed) value."""
        fs = self._framestate(pc)
        test = self.cur_bb.append(I.IsType(value, want))
        test.bc_pc = pc
        asm = self.cur_bb.append(
            I.Assume(test, fs, DeoptReasonKind.TYPECHECK, pc, expected=want)
        )
        asm.bc_pc = pc
        if want.unboxable:
            u = self.cur_bb.append(I.Unbox(want.kind, value))
            u.bc_pc = pc
            return u
        # refinement as a separate value so the guard stays live
        cast = self.cur_bb.append(I.CastType(value, want))
        cast.bc_pc = pc
        return cast

    def _as_unboxed(self, value: I.Instr, kind: Kind, pc: int) -> I.Instr:
        if value.unboxed:
            return value
        if value.type.unboxable:
            u = self.cur_bb.append(I.Unbox(value.type.kind, value))
            u.bc_pc = pc
            return u
        return self._guard_type(value, RType(kind, scalar=True, maybe_na=False), pc)

    def _as_boxed(self, value: I.Instr, pc: int) -> I.Instr:
        if not value.unboxed:
            return value
        bx = self.cur_bb.append(I.Box(value.type.kind, value))
        bx.bc_pc = pc
        return bx

    # -- opcode handlers (return True when the block is terminated) ------------------------

    def _op_push_const(self, ins, pc) -> bool:
        value = self.code.consts[ins[1]]
        c = self.cur_bb.append(I.Const(value, _const_type(value)))
        c.bc_pc = pc
        self.cur.stack.append(c)
        return False

    def _op_push_null(self, ins, pc) -> bool:
        c = self.cur_bb.append(I.Const(NULL, RType(Kind.NULL, scalar=False, maybe_na=False)))
        self.cur.stack.append(c)
        return False

    def _op_pop(self, ins, pc) -> bool:
        self.cur.stack.pop()
        return False

    def _op_dup(self, ins, pc) -> bool:
        self.cur.stack.append(self.cur.stack[-1])
        return False

    def _op_rot3(self, ins, pc) -> bool:
        c = self.cur.stack.pop()
        b = self.cur.stack.pop()
        a = self.cur.stack.pop()
        self.cur.stack += [b, c, a]
        return False

    def _op_ld_var(self, ins, pc) -> bool:
        name = self.code.names[ins[1]]
        if self.env_mode:
            v = self.cur_bb.append(I.LdVarEnv(self.env_value, name))
            v.bc_pc = pc
            result_t, guard_t = self._ld_var_plan(pc, ANY)
            if guard_t is not None:
                v = self._guard_type(v, guard_t, pc)
            self.cur.stack.append(v)
            return False
        cur = self.cur.vars.get(name)
        if cur is None:
            # free variable: lexical-chain lookup at run time (forces promises)
            v = self.cur_bb.append(I.LdVarEnv(None, name))
            v.bc_pc = pc
            result_t, guard_t = self._ld_var_plan(pc, ANY)
            if guard_t is not None:
                v = self._guard_type(v, guard_t, pc)
            self.cur.stack.append(v)
            return False
        if cur.type == ANY and not cur.unboxed and not isinstance(cur, I.Force):
            # may hold an unforced promise
            f = self.cur_bb.append(I.Force(cur))
            f.bc_pc = pc
            cur = f
            self.cur.vars[name] = f
        result_t, guard_t = self._ld_var_plan(pc, cur.type)
        if guard_t is not None:
            cur = self._guard_type(cur, guard_t, pc)
            self.cur.vars[name] = cur
        self.cur.stack.append(cur)
        return False

    def _op_st_var(self, ins, pc) -> bool:
        name = self.code.names[ins[1]]
        v = self.cur.stack.pop()
        if self.env_mode:
            s = self.cur_bb.append(I.StVarEnv(self.env_value, name, self._as_boxed(v, pc)))
            s.bc_pc = pc
        else:
            self.cur.vars[name] = v
        return False

    def _op_st_var_super(self, ins, pc) -> bool:
        name = self.code.names[ins[1]]
        v = self._as_boxed(self.cur.stack.pop(), pc)
        s = self.cur_bb.append(I.StVarSuper(self.env_value, name, v))
        s.bc_pc = pc
        return False

    def _op_ld_fun(self, ins, pc) -> bool:
        name = self.code.names[ins[1]]
        local = self.cur.vars.get(name) if not self.env_mode else None
        if local is not None:
            # the callee is a register-promoted local (e.g. a function passed
            # as a parameter).  R's lookup would skip a non-function binding
            # and keep searching outward; we approximate by erroring instead
            # (shadowing a called function name with a local non-function is
            # not supported in compiled code — the interpreter handles it).
            if local.type == ANY and not local.unboxed and not isinstance(local, I.Force):
                f = self.cur_bb.append(I.Force(local))
                f.bc_pc = pc
                local = f
                self.cur.vars[name] = f
            chk = self.cur_bb.append(I.CheckFun(local))
            chk.bc_pc = pc
            self.cur.stack.append(local)
            return False
        v = self.cur_bb.append(I.LdFun(self.env_value, name))
        v.bc_pc = pc
        self.cur.stack.append(v)
        return False

    def _op_mk_closure(self, ins, pc) -> bool:
        assert self.env_mode, "closure creation requires a materialized environment"
        v = self.cur_bb.append(I.MkClosure(self.env_value, self.code.consts[ins[1]]))
        v.bc_pc = pc
        self.cur.stack.append(v)
        return False

    def _op_mk_promise(self, ins, pc) -> bool:
        assert self.env_mode, "promise creation requires a materialized environment"
        v = self.cur_bb.append(I.MkPromise(self.env_value, self.code.consts[ins[1]]))
        v.bc_pc = pc
        self.cur.stack.append(v)
        return False

    def _op_binop(self, ins, pc) -> bool:
        self._binop_like(ins[1], pc, "arith")
        return False

    def _op_compare(self, ins, pc) -> bool:
        self._binop_like(ins[1], pc, "compare")
        return False

    def _binop_like(self, op: str, pc: int, mode: str) -> None:
        b = self.cur.stack.pop()
        a = self.cur.stack.pop()
        # try to reach unboxable operand types, guarding per feedback
        at, a_guard = self._operand_plan(pc, 0, a.type)
        bt, b_guard = self._operand_plan(pc, 1, b.type)
        kind = T.prim_arith_kind(at, bt)
        cplx_bad = mode == "compare" and kind == Kind.CPLX and op not in ("==", "!=")
        mod_bad = mode == "arith" and kind == Kind.CPLX and op in ("%%", "%/%")
        if kind is not None and not cplx_bad and not mod_bad:
            # restore operand order on the abstract stack for the framestates
            self.cur.stack += [a, b]
            if a_guard is not None and not a.unboxed:
                a = self._guard_type(a, a_guard, pc)
                self.cur.stack[-2] = a
            if b_guard is not None and not b.unboxed:
                b = self._guard_type(b, b_guard, pc)
                self.cur.stack[-1] = b
            del self.cur.stack[-2:]
            ua = self._as_unboxed(a, at.kind, pc)
            ub = self._as_unboxed(b, bt.kind, pc)
            if mode == "arith":
                if op in ("%%", "%/%") and kind in (Kind.LGL, Kind.INT):
                    # integer %% 0 is NA in R: deopt on zero divisor
                    self.cur.stack += [a, b]
                    fs = self._framestate(pc)
                    del self.cur.stack[-2:]
                    r = self.cur_bb.append(_GuardedMod(op, Kind.INT, ua, ub, fs, pc))
                else:
                    r = self.cur_bb.append(I.PrimArith(op, kind, ua, ub))
            else:
                r = self.cur_bb.append(I.PrimCompare(op, kind, ua, ub))
            r.bc_pc = pc
            self.cur.stack.append(r)
            return
        # generic
        ab = self._as_boxed(a, pc)
        bb_ = self._as_boxed(b, pc)
        if mode == "arith":
            r = self.cur_bb.append(I.Arith(op, ab, bb_, T.arith_result(op, a.type, b.type)))
        else:
            r = self.cur_bb.append(I.Compare(op, ab, bb_, T.compare_result(a.type, b.type)))
        r.bc_pc = pc
        self.cur.stack.append(r)

    def _op_logic(self, ins, pc) -> bool:
        b = self._as_boxed(self.cur.stack.pop(), pc)
        a = self._as_boxed(self.cur.stack.pop(), pc)
        r = self.cur_bb.append(I.Logic(ins[1], a, b))
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_unop(self, ins, pc) -> bool:
        a = self.cur.stack.pop()
        op = ins[1]
        if a.type.unboxable and op in ("-", "+", "!") and a.type.kind != Kind.STR:
            ua = self._as_unboxed(a, a.type.kind, pc)
            r = self.cur_bb.append(I.PrimUnary(op, a.type.kind, ua))
        else:
            r = self.cur_bb.append(I.Unary(op, self._as_boxed(a, pc), T.unary_result(op, a.type)))
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_colon(self, ins, pc) -> bool:
        b = self._as_boxed(self.cur.stack.pop(), pc)
        a = self._as_boxed(self.cur.stack.pop(), pc)
        r = self.cur_bb.append(I.Colon(a, b, T.colon_result(a.type, b.type)))
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_index2(self, ins, pc) -> bool:
        idx = self.cur.stack.pop()
        obj = self.cur.stack.pop()
        ot, o_guard = self._operand_plan(pc, 0, obj.type)
        if ot.kind in (Kind.LGL, Kind.INT, Kind.DBL, Kind.CPLX):
            self.cur.stack += [obj, idx]
            if o_guard is not None:
                want = RType(o_guard.kind, scalar=False, maybe_na=True)
                obj = self._guard_type(obj, want, pc)
                self.cur.stack[-2] = obj
            if not (idx.unboxed or idx.type.unboxable):
                idx = self._guard_type(idx, RType(Kind.INT, scalar=True, maybe_na=False), pc)
                self.cur.stack[-1] = idx
            uidx = self._as_unboxed(idx, Kind.INT, pc)
            fs = self._framestate(pc)
            del self.cur.stack[-2:]
            # a scalar is a length-1 vector: re-box unboxed scalars so the
            # vector load sees a real vector object
            r = self.cur_bb.append(I.VecLoad(ot.kind, self._as_boxed(obj, pc), uidx, fs, pc))
            r.bc_pc = pc
            self.cur.stack.append(r)
            return False
        r = self.cur_bb.append(
            I.Extract2(self._as_boxed(obj, pc), self._as_boxed(idx, pc), T.extract2_result(obj.type))
        )
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_index1(self, ins, pc) -> bool:
        idx = self._as_boxed(self.cur.stack.pop(), pc)
        obj = self._as_boxed(self.cur.stack.pop(), pc)
        r = self.cur_bb.append(I.Extract1(obj, idx, T.extract1_result(obj.type)))
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_set_index2(self, ins, pc) -> bool:
        val = self.cur.stack.pop()
        idx = self.cur.stack.pop()
        obj = self.cur.stack.pop()
        if (
            obj.type.kind in (Kind.LGL, Kind.INT, Kind.DBL, Kind.CPLX)
            and (idx.unboxed or idx.type.unboxable)
            and (val.unboxed or val.type.unboxable)
        ):
            uidx = self._as_unboxed(idx, Kind.INT, pc)
            uval = self._as_unboxed(val, val.type.kind, pc)
            r = self.cur_bb.append(
                I.VecStore(obj.type.kind, self._as_boxed(obj, pc), uidx, uval, None, pc))
            r.type = T.set_index_result(obj.type, val.type)
        else:
            r = self.cur_bb.append(
                I.SetIndex2(
                    self._as_boxed(obj, pc), self._as_boxed(idx, pc), self._as_boxed(val, pc),
                    T.set_index_result(obj.type, val.type),
                )
            )
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_set_index1(self, ins, pc) -> bool:
        val = self._as_boxed(self.cur.stack.pop(), pc)
        idx = self._as_boxed(self.cur.stack.pop(), pc)
        obj = self._as_boxed(self.cur.stack.pop(), pc)
        r = self.cur_bb.append(I.SetIndex1(obj, idx, val, T.set_index_result(obj.type, val.type)))
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_seq_length(self, ins, pc) -> bool:
        v = self.cur.stack.pop()
        spec = self._spec_observed(pc)
        if v.type.kind.is_vector and v.type.kind != Kind.ANY:
            r = self.cur_bb.append(I.VecLength(self._as_boxed(v, pc)))
        elif spec is not None:
            self.cur.stack.append(v)
            v = self._guard_type(v, RType(spec.kind, scalar=False, maybe_na=True), pc)
            self.cur.stack.pop()
            r = self.cur_bb.append(I.VecLength(self._as_boxed(v, pc)))
        else:
            r = self.cur_bb.append(I.SeqLength(self._as_boxed(v, pc)))
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_check_fun(self, ins, pc) -> bool:
        if ins[1] == "callable":
            r = self.cur_bb.append(I.CheckFun(self.cur.stack[-1]))
            r.bc_pc = pc
            return False
        v = self.cur.stack.pop()
        if v.unboxed and v.type.kind == Kind.LGL:
            self.cur.stack.append(v)
            return False
        r = self.cur_bb.append(I.AsLogicalScalar(self._as_boxed(v, pc)))
        r.unboxed = True
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_call(self, ins, pc) -> bool:
        nargs = ins[1]
        call_names = self.code.consts[ins[2]] if ins[2] >= 0 else None
        args = self.cur.stack[len(self.cur.stack) - nargs :] if nargs else []
        del self.cur.stack[len(self.cur.stack) - nargs :]
        fn = self.cur.stack.pop()
        args = [self._as_boxed(a, pc) for a in args]
        fb = self.feedback.get(pc)
        target = usable_call_target(self.code, pc, fb) if isinstance(fb, CallFeedback) else None
        if target is not None:
            # guard the callee identity, then call the known target
            self.cur.stack += [fn] + args
            fs = self._framestate(pc)
            del self.cur.stack[len(self.cur.stack) - nargs - 1 :]
            test = self.cur_bb.append(I.IsIdentical(fn, target))
            test.bc_pc = pc
            asm = self.cur_bb.append(
                I.Assume(test, fs, DeoptReasonKind.CALL_TARGET, pc, expected=target)
            )
            asm.bc_pc = pc
            if isinstance(target, RBuiltin):
                r = self.cur_bb.append(I.CallBuiltin(target, args))
            else:
                r = self.cur_bb.append(I.StaticCall(target, args, call_names))
        else:
            r = self.cur_bb.append(I.Call(fn, args, call_names))
        r.bc_pc = pc
        self.cur.stack.append(r)
        return False

    def _op_br(self, ins, pc) -> bool:
        self.cur_bb.append(I.Jump(self._edge_to(ins[1])))
        return True

    def _op_brcond(self, ins, pc) -> bool:
        is_brfalse = self.code.code[pc][0] == O.BRFALSE
        cond = self.cur.stack.pop()
        # normalize to an unboxed boolean
        if cond.unboxed and cond.type.kind == Kind.LGL:
            ucond = cond
        else:
            self.cur.stack.append(cond)
            boxed = self._as_boxed(cond, pc)
            ucond = self.cur_bb.append(I.AsLogicalScalar(boxed))
            ucond.unboxed = True
            ucond.bc_pc = pc
            self.cur.stack.pop()

        taken_pc = ins[1]
        fall_pc = pc + 1
        fb = self.feedback.get(pc)
        bias = fb.bias if isinstance(fb, BranchFeedback) and not _site_blocked(self.code, pc) else None
        count = (fb.taken + fb.not_taken) if isinstance(fb, BranchFeedback) else 0
        if (
            bias is not None
            and count >= COLD_BRANCH_MIN_COUNT
            and not loop_exit(self.code, pc)
        ):
            # speculate the branch always goes the biased way
            fs = self._framestate(pc)
            fs.stack = fs.stack + [_reboxed_for_fs(self, cond, pc)]
            if bias:
                guard_val = ucond
            else:
                guard_val = self.cur_bb.append(I.PrimUnary("!", Kind.LGL, ucond))
                guard_val.bc_pc = pc
            asm = self.cur_bb.append(
                I.Assume(guard_val, fs, DeoptReasonKind.COLD_BRANCH, pc, expected=bias)
            )
            asm.bc_pc = pc
            live_pc = (taken_pc if not is_brfalse else fall_pc) if bias else (fall_pc if not is_brfalse else taken_pc)
            self.cur_bb.append(I.Jump(self._edge_to(live_pc)))
            return True

        # regular two-way branch
        if is_brfalse:
            true_pc, false_pc = fall_pc, taken_pc
        else:
            true_pc, false_pc = taken_pc, fall_pc
        self.cur_bb.append(I.Branch(ucond, self._edge_to(true_pc), self._edge_to(false_pc)))
        return True

    def _op_return(self, ins, pc) -> bool:
        v = self._as_boxed(self.cur.stack.pop(), pc)
        self.cur_bb.append(I.Return(v))
        return True


class ValState:
    """Concrete IR values for the operand stack and variables."""

    __slots__ = ("stack", "vars")

    def __init__(self, stack: List[I.Instr], vars_: Dict[str, I.Instr]):
        self.stack = stack
        self.vars = vars_


class _GuardedMod(I.Instr):
    """%% and %/% on unboxed scalars; division by zero deopts (R yields NA)."""

    __slots__ = ("op", "kind", "framestate", "reason_pc")
    effectful = True

    def __init__(self, op: str, kind, a, b, framestate, reason_pc: int):
        rk = kind
        super().__init__(RType(rk, scalar=True, maybe_na=False), [a, b])
        self.op = op
        self.kind = kind
        self.framestate = framestate
        self.reason_pc = reason_pc
        self.unboxed = True

    def _extra(self) -> str:
        return "%s %s" % (self.op, self.kind.name)


GuardedMod = _GuardedMod


def _const_type(value: Any) -> RType:
    if isinstance(value, RVector):
        return value.rtype()
    if isinstance(value, RNull):
        return RType(Kind.NULL, scalar=False, maybe_na=False)
    return ANY


def _const_default(default_code) -> bool:
    """Is a default-argument thunk a simple constant?"""
    ops = [ins[0] for ins in default_code.code]
    return ops in ([O.PUSH_CONST, O.RETURN], [O.PUSH_NULL, O.RETURN])


def name_of(code, ins) -> str:
    return code.names[ins[1]]


def _reboxed_for_fs(builder: GraphBuilder, cond: I.Instr, pc: int):
    """The branch condition as a boxed value for the pre-branch framestate."""
    if cond.unboxed:
        bx = I.Box(cond.type.kind, cond)
        builder.cur_bb.append(bx)
        return bx
    return cond


#: opcode -> handler dispatch table
_DISPATCH = {
    O.PUSH_CONST: GraphBuilder._op_push_const,
    O.PUSH_NULL: GraphBuilder._op_push_null,
    O.POP: GraphBuilder._op_pop,
    O.DUP: GraphBuilder._op_dup,
    O.ROT3: GraphBuilder._op_rot3,
    O.LD_VAR: GraphBuilder._op_ld_var,
    O.ST_VAR: GraphBuilder._op_st_var,
    O.ST_VAR_SUPER: GraphBuilder._op_st_var_super,
    O.LD_FUN: GraphBuilder._op_ld_fun,
    O.MK_CLOSURE: GraphBuilder._op_mk_closure,
    O.MK_PROMISE: GraphBuilder._op_mk_promise,
    O.BINOP: GraphBuilder._op_binop,
    O.COMPARE: GraphBuilder._op_compare,
    O.LOGIC: GraphBuilder._op_logic,
    O.UNOP: GraphBuilder._op_unop,
    O.COLON: GraphBuilder._op_colon,
    O.INDEX2: GraphBuilder._op_index2,
    O.INDEX1: GraphBuilder._op_index1,
    O.SET_INDEX2: GraphBuilder._op_set_index2,
    O.SET_INDEX1: GraphBuilder._op_set_index1,
    O.SEQ_LENGTH: GraphBuilder._op_seq_length,
    O.CHECK_FUN: GraphBuilder._op_check_fun,
    O.CALL: GraphBuilder._op_call,
    O.BR: GraphBuilder._op_br,
    O.BRFALSE: GraphBuilder._op_brcond,
    O.BRTRUE: GraphBuilder._op_brcond,
    O.RETURN: GraphBuilder._op_return,
}
