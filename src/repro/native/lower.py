"""IR → register-machine lowering.

Produces a :class:`NativeCode`: a flat list of register ops with branch
targets resolved to indices, plus the deopt descriptor table that maps each
guard to the FrameState layout needed to exit (which register holds which
interpreter variable / stack slot, and whether it must be re-boxed).

Phis are lowered to parallel register moves on the incoming edges; critical
edges (a branching predecessor into a join) get synthesized move-blocks.
Fused guard ops (``GTYPE``/``GIDENT``) are emitted when an ``IsType``/
``IsIdentical`` feeds exactly one ``Assume`` — the common case produced by
the builder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir import instructions as I
from ..ir.builder import GuardedMod
from ..ir.cfg import Graph
from ..osr.framestate import DeoptReasonKind
from ..runtime.rtypes import Kind
from . import ops as N


class LoweringError(Exception):
    pass


#: generic (boxed) opcodes — charged to native_generic_ops by the executors
_GEN_CODES = frozenset((
    N.GEN_ARITH, N.GEN_COMPARE, N.GEN_LOGIC, N.GEN_UNARY, N.GEN_COLON,
    N.GEN_EX2, N.GEN_EX1, N.GEN_SET2, N.GEN_SET1, N.GEN_SEQLEN,
))

#: dst-writing opcodes a kernelized loop body may contain (anything else —
#: calls, env stores, value deopts like PMODI — disables the kernel)
_WALK_OK = frozenset((
    N.PADD, N.PSUB, N.PMUL, N.PDIV, N.PPOW, N.PNEG, N.PNOT, N.PMODF,
    N.PIDIVF, N.PLT, N.PLE, N.PGT, N.PGE, N.PEQ, N.PNE, N.MOVE, N.VLOAD,
    N.VLEN, N.VSTORE, N.BOX, N.UNBOX, N.FORCE, N.ISTYPE, N.ISIDENT, N.AS_LGL,
    N.LDVAR_FREE, N.LDFUN,
)) | _GEN_CODES


def _role_materializable(role: tuple) -> bool:
    """Roles whose value at an arbitrary guard position is well-defined.
    Post-update values (``acc_next``) are only meaningful *after* the point
    where any guard can sit."""
    tag = role[0]
    if tag == "acc_next":
        return False
    if tag == "box":
        return _role_materializable(role[1])
    return True


def _role_needs_def(role: tuple) -> bool:
    """Roles computed by the loop body (rather than held in header phis or
    entry-written invariant registers) — a guard's descriptor may only
    reference them if the defining op precedes the guard in the iteration."""
    tag = role[0]
    if tag == "box":
        return _role_needs_def(role[1])
    return tag in ("idx1", "seq", "elem", "expr", "uinv")


class DeoptDescr:
    """Everything the executor needs to build a runtime FrameState."""

    __slots__ = (
        "code", "pc", "env_slots", "stack", "env_reg", "reason_kind",
        "reason_pc", "expected", "parent", "fun",
    )

    def __init__(self, code, pc, env_slots, stack, env_reg, reason_kind,
                 reason_pc, expected, parent=None, fun=None):
        self.code = code
        self.pc = pc
        #: a tuple of (name, reg, kind_or_None), kind set when the reg is raw
        self.env_slots: Tuple[Tuple[str, int, Optional[Kind]], ...] = env_slots
        #: a tuple of (reg, kind_or_None); equal maps are one (Lowerer._shared)
        self.stack: Tuple[Tuple[int, Optional[Kind]], ...] = stack
        #: register of the live environment (env mode: env_slots is empty)
        self.env_reg: Optional[int] = env_reg
        self.reason_kind = reason_kind
        self.reason_pc = reason_pc
        self.expected = expected
        #: enclosing caller frame when this descr sits inside inlined code
        self.parent: Optional["DeoptDescr"] = parent
        #: the RClosure an inlined frame belongs to (None: the executing
        #: NativeCode's own closure — the root frame)
        self.fun = fun


class OsrEntry:
    """Hop-in recipe for one loop-header pc of a compiled unit.

    Records, per interpreter frame slot, which register of this unit holds
    it at the header and in what representation, so a materialized
    ``FrameState`` (or a live interpreter frame) can be mapped slot-for-slot
    into the register file and execution entered at ``index`` — the
    version-to-version OSR transition.  Entries only exist for headers whose
    loop region is *closed over* the anchor phis: every value the region
    reads is one of the phis, a constant (pre-seeded by ``reg_init``), or
    the environment in ``env_reg``.  Anything else (a parameter or
    loop-invariant temporary computed by skipped entry code) makes the pc
    unenterable and no entry is emitted.
    """

    __slots__ = ("pc", "index", "var_slots", "stack_slots", "env_reg", "const_slots")

    def __init__(self, pc, index, var_slots, stack_slots, env_reg, const_slots):
        self.pc = pc
        #: op index to start execution at (the loop header; one past the
        #: bulk-kernel op for kernelized headers — mid-loop state enters the
        #: retained scalar loop)
        self.index = index
        #: [(name, reg, kind_or_None, rtype)] — kind set when the register
        #: holds the raw scalar payload; rtype is the phi's proven type the
        #: live value must satisfy
        self.var_slots: Tuple[Tuple[str, int, Optional[Kind], Any], ...] = var_slots
        #: [(reg, kind_or_None, rtype)] positional operand-stack slots
        self.stack_slots: Tuple[Tuple[int, Optional[Kind], Any], ...] = stack_slots
        #: register the live environment object is bound to; None when the
        #: unit's environment is elided
        self.env_reg: Optional[int] = env_reg
        #: [(name, reg, kind_or_None)] — variables the optimizer folded to a
        #: constant at the header: ``reg_init[reg]`` holds it (the raw payload
        #: when kind is set), and the live binding must equal it
        self.const_slots: Tuple[Tuple[str, int, Optional[Kind]], ...] = const_slots

    def __repr__(self) -> str:  # pragma: no cover
        return "<OsrEntry pc=%d idx=%d vars=%d stack=%d>" % (
            self.pc, self.index, len(self.var_slots), len(self.stack_slots))


class KernelGuard:
    """One guard of the scalar loop body, as seen from inside a bulk kernel.

    ``template`` rebuilds the loop-defined registers the guard's DeoptDescr
    reads for an arbitrary element index; ``guard_role`` identifies the
    guarded value (an invariant chain, ``("inv", key)``) so the chaos exit
    can report the same ``observed`` the scalar guard would — the value's
    type for a ``gtype`` guard, the value itself for a ``gident`` one;
    ``store_before`` is set when the loop's VecStore precedes the guard, so
    the partial iteration's store must be applied before materializing.
    """

    __slots__ = ("did", "guard_role", "template", "store_before", "kind")

    def __init__(self, did, guard_role, template, store_before, kind="gtype"):
        self.did = did
        self.guard_role = guard_role
        self.template = template
        self.store_before = store_before
        self.kind = kind


class KernelDescr:
    """Runtime description of one bulk kernel op (see native/kernels.py).

    Built by the lowerer from a :class:`~repro.opt.vectorize.LoopPlan` plus a
    walk of the *emitted* scalar loop, so the per-iteration op/guard/generic
    counts are exact by construction — a kernel covering ``k`` elements
    charges exactly what the scalar loop would have charged for ``k``
    iterations.  ``kind == "disabled"`` marks a kernel whose finalization
    failed validation: the op stays in the stream but always declines.
    """

    __slots__ = (
        "kind", "idx_reg", "bound_reg", "seq_reg", "seq_static", "seqv_regs",
        "acc_reg", "acc_op",
        "acc_kind", "chains", "elem_keys", "out_key",
        "store_kind", "val_spec", "iter_counts", "events", "expr", "pyfn",
    )

    def __init__(self, kind):
        self.kind = kind
        self.idx_reg = None
        self.bound_reg = None
        self.seq_reg = None
        #: False when the iteration-space vector is opaque loop state (the
        #: OSR-entry shape): the kernel verifies the 1..n content at runtime
        self.seq_static = True
        #: registers of header phis carrying the loop variable's value
        #: (entry-checked == j, advanced with the induction register)
        self.seqv_regs = ()
        self.acc_reg = None
        self.acc_op = None
        self.acc_kind = None
        #: [(key, source, gtype, gident, member_regs, elementwise)] — source
        #: is ("env", name), ("fun", name) or ("reg", reg); gident is the
        #: expected value of a hoisted identity guard (or None); elementwise
        #: marks a vector read at ``i`` (NA-prescanned, bounds the covered
        #: range)
        self.chains = ()
        self.elem_keys = ()
        self.out_key = None
        self.store_kind = None
        self.val_spec = None
        #: (ops, guards, generic_ops) charged per covered iteration
        self.iter_counts = (0, 0, 0)
        #: KernelGuard list in execution order (the chaos draw sequence)
        self.events = ()
        #: fused map→reduce expression role tree (fsum kernels)
        self.expr = None
        #: lazily compiled per-descriptor Python reduction loop (fsum)
        self.pyfn = None

    def __getstate__(self):
        # the exec'd loop does not pickle: serialized after a run as before it
        return None, {n: None if n == "pyfn" else getattr(self, n) for n in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        return "<KernelDescr %s iter=%r>" % (self.kind, self.iter_counts)


class NativeCode:
    """A lowered compilation unit, executable by the register machine."""

    def __init__(self, graph: Graph, name: str):
        self.name = name
        self.ops: List[tuple] = []
        self.n_regs = 0
        self.reg_init: List[Any] = []
        self.deopts: List[DeoptDescr] = []
        #: bulk-kernel descriptors, indexed by the kernel ops' operand
        self.kernels: List[KernelDescr] = []
        self.param_regs: List[int] = []
        #: per-param element Kind when the register takes the raw scalar
        #: (entry-context compiles with unboxed parameter passing), else
        #: None for the whole list when every param is boxed
        self.param_unbox: Optional[List[Optional[Any]]] = None
        #: the context the unit was compiled under, set at install
        #: (``jit/unit.py``): None for the generic version, the CallContext
        #: an entry version assumes (checked once, at dispatch), the
        #: ContinuationContext of an OSR-in unit, the DeoptContext of a
        #: deoptless continuation
        self.ctx = None
        self.env_reg: Optional[int] = None
        self.env_elided = graph.env_elided
        self.cont_var_names = graph.cont_var_names
        self.cont_stack_size = graph.cont_stack_size
        self.entry_pc = graph.entry_pc
        self.is_continuation = graph.is_continuation
        self.bc_code = graph.bc_code
        #: set by the VM when installing: the closure this code belongs to
        self.closure = None
        self.invalidated = False
        #: set by ``RVM.place``: ``(code, reason_pc, deopt count then)`` per
        #: guard site of ``deopts`` — a site whose count grew since was
        #: refuted, and a hop must not re-enter this unit (``osr_hop``)
        self.guard_sites: Tuple[Tuple[Any, int, int], ...] = ()
        #: codegen tier (native/pycodegen.py): generated Python source text
        #: (False: emission or compilation declined, the reference loop runs
        #: the unit), its constant pool, the compiled module code object and
        #: the exec'd specialized function.  ``pycode``/``pyconsts`` are the
        #: persistable artifact (jit/persist.py); ``bind`` drops the source
        #: once compiled, and the function is exec'd in each process.
        self.pysrc = None
        self.pyconsts = None
        self.pycode = None
        self.pyfunc = None
        #: bytecode pc -> OsrEntry for loop headers that admit a dispatched
        #: OSR hop into this unit (built by the lowerer from the graph's
        #: surviving osr_anchors)
        self.osr_entries: Dict[int, OsrEntry] = {}
        #: when this unit is a clone served by the code cache: the cached
        #: template it was cloned from (native/pycodegen.py binds on the
        #: template, so the code object and function — or the declined
        #: sentinel — are made once and every clone shares them)
        self.cache_template: Optional["NativeCode"] = None

    def clone_for_install(self) -> "NativeCode":
        """A fresh installable view sharing the immutable compilation output.

        The op stream, register plan, deopt/kernel tables and generated
        function are safely shareable: the executors keep all run-state in
        the activation, never in the code object.  What
        must be per-install is the identity bookkeeping — ``closure`` (frame
        attribution of the root frame in ``build_framestate``) and the
        ``invalidated`` flag (retiring one closure's version must not kill a
        sibling's).
        """
        clone = NativeCode.__new__(NativeCode)
        clone.__dict__.update(self.__dict__)
        clone.closure = None
        clone.invalidated = False
        clone.cache_template = self
        return clone

    @property
    def size(self) -> int:
        # kernel ops (one per descriptor) are excluded: they have no
        # counterpart in a scalar compile of the same graph, so
        # compiled_instrs and code_size read the same whether the unit
        # runs on a kernel-capable engine or not
        return len(self.ops) - len(self.kernels)

    def __repr__(self) -> str:  # pragma: no cover
        return "<NativeCode %s: %d ops, %d regs>" % (self.name, len(self.ops), self.n_regs)


class Lowerer:
    def __init__(self, graph: Graph, drop_deopt_exits: bool = False):
        #: for the section 4.1 experiment: skip emitting guard exits
        self.drop_deopt_exits = drop_deopt_exits
        self.graph = graph
        self.nc = NativeCode(graph, graph.name)
        self.reg_of: Dict[int, int] = {}
        self.block_start: Dict[int, int] = {}
        self.fixups: List[Tuple[int, int, Any]] = []  # (op_index, operand_pos, block)
        self.order = graph.rpo()
        #: header block id -> LoopPlan for loops the vectorizer kernelized
        self.kernel_plans: Dict[int, Any] = {}
        #: header block id -> block ids whose edges into the header are
        #: backedges (they must re-enter at the scalar loop, not the kernel)
        self.loop_pred_ids: Dict[int, set] = {}
        for plan in getattr(graph, "vector_loops", ()):
            self.kernel_plans[plan.header.id] = plan
            self.loop_pred_ids[plan.header.id] = {bb.id for bb in plan.body_blocks}
        #: (kernel op index, plan) in emission order
        self.kernel_sites: List[Tuple[int, Any]] = []
        #: this unit's one copy of each equal deopt slot map and slot
        self._interned: Dict[tuple, tuple] = {}

    # -- registers -----------------------------------------------------------------

    def reg(self, ins: I.Instr) -> int:
        r = self.reg_of.get(id(ins))
        if r is None:
            r = self.nc.n_regs
            self.nc.n_regs += 1
            self.reg_of[id(ins)] = r
        return r

    def fresh_reg(self) -> int:
        r = self.nc.n_regs
        self.nc.n_regs += 1
        return r

    def emit(self, *op: Any) -> int:
        self.nc.ops.append(tuple(op))
        return len(self.nc.ops) - 1

    # -- deopt descriptors ------------------------------------------------------------

    def deopt_id(self, ins, reason_kind=None, expected=None) -> int:
        fs = ins.framestate
        reason_pc = getattr(ins, "reason_pc", None)
        if reason_pc is None:
            reason_pc = ins.feedback_origin if isinstance(ins, I.Assume) else fs.pc
        if reason_kind is None:
            reason_kind = ins.reason_kind  # an Assume; other guards pass theirs
        d = self._frame_descr(fs, reason_kind, reason_pc, expected)
        self.nc.deopts.append(d)
        return len(self.nc.deopts) - 1

    def _frame_descr(self, fs, reason_kind, reason_pc, expected) -> DeoptDescr:
        """Lower one FrameStateDescr frame; recurses through ``parent`` so
        nested (inlined) frame chains survive lowering intact."""
        parent = None
        if fs.parent is not None:
            parent = self._frame_descr(fs.parent, reason_kind, reason_pc, expected)
        env_slots = ()
        env_reg = None
        if fs.env_value is not None:
            env_reg = self.reg(fs.env_value)
        else:
            env_slots = self._shared(
                (name, self.reg(v), v.type.kind if v.unboxed else None)
                for name, v in fs.env_slots)
        stack = self._shared((self.reg(v), v.type.kind if v.unboxed else None)
                             for v in fs.stack)
        return DeoptDescr(
            fs.code, fs.pc, env_slots, stack, env_reg, reason_kind, reason_pc,
            expected, parent=parent, fun=getattr(fs, "fun", None),
        )

    def _shared(self, slots) -> tuple:
        """``slots`` as a tuple, it and each slot the unit's one equal copy."""
        t = self._interned
        slots = tuple(t.setdefault(x, x) for x in slots)
        return t.setdefault(slots, slots)

    # -- main ---------------------------------------------------------------------------

    def lower(self) -> NativeCode:
        g = self.graph
        # constants go into the initial register image
        for ins in g.iter_instrs():
            if isinstance(ins, I.Const):
                r = self.reg(ins)
        # params
        unbox_kinds: List[Any] = []
        for p in g.params:
            self.nc.param_regs.append(self.reg(p))
            unbox_kinds.append(
                p.type.kind if isinstance(p, I.Param) and p.unboxed else None
            )
            if isinstance(p, I.EnvParam):
                self.nc.env_reg = self.reg(p)
        if any(k is not None for k in unbox_kinds):
            # entry-context compile: the dispatcher binds raw scalars into
            # these registers (args are pre-checked against the context)
            self.nc.param_unbox = unbox_kinds

        fused = self._find_fused_guards()
        self.guarded_kinds = self._find_guarded_kinds()

        pending_edges: List[Tuple[Any, Any, int]] = []  # (pred_bb, succ_bb, jump_op_index/branch pos)
        for bb in self.order:
            self.block_start[bb.id] = len(self.nc.ops)
            plan = self.kernel_plans.get(bb.id)
            if plan is not None:
                # the kernel op sits at the loop header, in front of the
                # retained scalar loop; entry edges hit it once, backedges
                # re-enter one op later (see _patch_branches)
                self.kernel_sites.append((len(self.nc.ops), plan))
                self.emit(N.KERNEL, len(self.kernel_sites) - 1)
            for ins in bb.instrs:
                self._lower_instr(ins, fused)
        # synthesize move-blocks for critical edges and patch targets
        self._patch_branches()
        # with final op indices known, build the kernel descriptors
        self._finalize_kernels()
        # ... and the dispatched-OSR entry map for surviving loop anchors
        self._build_osr_entries()

        # initial register image: None except constants
        init = [None] * self.nc.n_regs
        for ins in g.iter_instrs():
            if isinstance(ins, I.Const):
                init[self.reg(ins)] = ins.value
        self.nc.reg_init = init
        return self.nc

    # -- guards fusion ---------------------------------------------------------------------

    def _find_fused_guards(self) -> Dict[int, I.Assume]:
        """Map id(test-instr) -> Assume when the test feeds only that Assume
        (a frame-state slot is a use too, and blocks fusion)."""
        fused = {}
        for ins, holders in self.graph.compute_uses().items():
            if isinstance(ins, (I.IsType, I.IsIdentical)) and len(holders) == 1:
                asm = holders[0]
                if isinstance(asm, I.Assume) and asm.args[0] is ins:
                    fused[id(ins)] = asm
        return fused

    def _find_guarded_kinds(self) -> Dict[int, Kind]:
        """Map id(CastType) -> its kind when a guard earlier in the same
        block checked that kind of the value it refines.  A type's kind is
        an upper bound under coercion (a phi of a logical and an integer
        vector is typed integer); a guard compares the vector's own kind, so
        only a value it checked has exactly that kind.  A value a loop
        anchor holds is left out: an OSR hop seeds its register without
        running the guard, checking the kind only up to coercion."""
        kinds = {}
        if self.drop_deopt_exits:
            return kinds
        seeded = {id(v) for anchor in self.graph.osr_anchors.values() for v in anchor.values()}
        for bb in self.order:
            checked = {}
            for ins in bb.instrs:
                if isinstance(ins, I.Assume) and isinstance(ins.args[0], I.IsType):
                    test = ins.args[0]
                    checked[id(test.args[0])] = test.test_type.kind
                elif (isinstance(ins, I.CastType) and id(ins) not in seeded
                      and checked.get(id(ins.args[0])) == ins.type.kind):
                    kinds[id(ins)] = ins.type.kind
        return kinds

    # -- phi moves ------------------------------------------------------------------------

    def _phi_moves(self, pred_bb, succ_bb) -> List[Tuple[int, int]]:
        """(destination, source) per phi of ``succ_bb`` along the edge from
        ``pred_bb``, leaving out the ones that would move a register onto
        itself."""
        moves = []
        for phi in succ_bb.phis():
            for blk, val in phi.inputs:
                if blk is pred_bb and self.reg(phi) != self.reg(val):
                    moves.append((self.reg(phi), self.reg(val)))
        return moves

    def _emit_moves(self, moves: List[Tuple[int, int]]) -> None:
        """The phi moves of one edge as a parallel copy: each destination
        gets its source's value from before the edge.  A move into a
        register no pending move reads goes first; when only cycles are
        left, one temporary breaks one."""
        pending = dict(moves)
        while pending:
            read = set(pending.values())
            ready = [d for d in pending if d not in read]
            if not ready:
                d = next(iter(pending))
                t = self.fresh_reg()
                self.emit(N.MOVE, t, d)
                pending = {k: t if s == d else s for k, s in pending.items()}
                continue
            for d in ready:
                self.emit(N.MOVE, d, pending.pop(d))

    # -- branch patching --------------------------------------------------------------------

    def _patch_branches(self) -> None:
        """Resolve branch/jump targets; synthesize edge blocks where a
        branching predecessor flows into a block with phis."""
        extra_blocks: List[Tuple[int, Any, Any]] = []
        for idx, op in enumerate(self.nc.ops):
            if op[0] == N.JMP and isinstance(op[1], _BlockRef):
                # moves were already emitted inline before the JMP
                ref = op[1]
                tgt = self.block_start[ref.bb.id]
                in_loop = self.loop_pred_ids.get(ref.bb.id)
                if in_loop is not None and ref.pred.id in in_loop:
                    tgt += 1  # backedge: skip the kernel op at the header
                self.nc.ops[idx] = (N.JMP, tgt)
            elif op[0] == N.BRT and (isinstance(op[2], _BlockRef) or isinstance(op[3], _BlockRef)):
                t_ref, f_ref = op[2], op[3]
                t_idx = self._edge_target(t_ref, extra_blocks)
                f_idx = self._edge_target(f_ref, extra_blocks)
                self.nc.ops[idx] = (N.BRT, op[1], t_idx, f_idx)
        # append synthesized edge blocks, then resolve their jumps
        for start_marker, moves, succ_bb in extra_blocks:
            pass  # already appended in _edge_target

    def _edge_target(self, ref: "_BlockRef", extra_blocks) -> int:
        succ = ref.bb
        moves = self._phi_moves(ref.pred, succ)
        if not moves:
            return self.block_start[succ.id]
        # synthesize: moves + JMP succ at the end of the op stream
        start = len(self.nc.ops)
        self._emit_moves(moves)
        self.emit(N.JMP, self.block_start[succ.id])
        extra_blocks.append((start, moves, succ))
        return start

    # -- dispatched-OSR entry map -----------------------------------------------------------------

    def _build_osr_entries(self) -> None:
        """Turn the builder's loop-header anchors into :class:`OsrEntry`
        records.  An anchor survives only when the loop region (blocks
        reachable from the header) is closed over its phis: every value read
        in-region is an anchor phi, defined in-region, a constant, or the
        environment seed.  Any other outside definition means entering at
        the header would skip the code that computes it, so the pc gets no
        entry and hops fall back to whole-loop OSR compilation."""
        for pc, anchor in self.graph.osr_anchors.items():
            entry = self._osr_entry_for(pc, anchor.header, anchor.vars, anchor.stack)
            if entry is not None:
                self.nc.osr_entries[pc] = entry

    def _osr_entry_for(self, pc, header, var_phis, stack_phis) -> Optional[OsrEntry]:
        if header.id not in self.block_start:
            return None  # header unreachable after optimization

        region = set()
        work = [header]
        while work:
            b = work.pop()
            if b.id in region:
                continue
            region.add(b.id)
            work.extend(b.successors())

        seeds = set()
        var_slots = []
        const_slots = []
        for name in sorted(var_phis):
            v = var_phis[name]
            if isinstance(v, I.Const):
                # folded to a provable constant: reg_init pre-seeds it, and
                # writing its (possibly shared) register would clobber other
                # uses — the hop checks the live binding against it instead
                const_slots.append((name, self.reg(v), v.type.kind if v.unboxed else None))
                continue
            r = self.reg_of.get(id(v))
            if r is None:
                return None
            kind = v.type.kind if v.unboxed else None
            var_slots.append((name, r, kind, v.type))
            seeds.add(id(v))
        stack_slots = []
        for v in stack_phis:
            if isinstance(v, I.Const):
                return None  # a const stack slot's register may be shared
            r = self.reg_of.get(id(v))
            if r is None:
                return None
            kind = v.type.kind if v.unboxed else None
            stack_slots.append((r, kind, v.type))
            seeds.add(id(v))

        env_reg = None
        for bb in self.order:
            if bb.id not in region:
                continue
            for ins in bb.instrs:
                if isinstance(ins, I.Phi):
                    # inputs flowing in over skipped (non-region) edges are
                    # irrelevant: the hop seeds the phi's register directly
                    vals = [v for blk, v in ins.inputs if blk.id in region]
                else:
                    vals = list(ins.args)
                fs = getattr(ins, "framestate", None)
                if fs is not None:
                    vals.extend(fs.iter_values())
                for v in vals:
                    if id(v) in seeds:
                        continue
                    vb = v.block
                    if vb is not None and vb.id in region:
                        continue
                    if isinstance(v, I.Const):
                        continue  # pre-seeded by reg_init
                    if isinstance(v, I.EnvParam):
                        env_reg = self.reg_of.get(id(v))
                        if env_reg is None:
                            return None
                        continue
                    return None  # param / entry-computed invariant: unseedable

        index = self.block_start[header.id]
        if header.id in self.kernel_plans:
            index += 1  # mid-loop state enters the retained scalar loop
        return OsrEntry(pc, index, tuple(var_slots), tuple(stack_slots), env_reg,
                        tuple(const_slots))

    # -- bulk kernel finalization ---------------------------------------------------------------

    def _finalize_kernels(self) -> None:
        from ..osr.framestate import KernelFrameTemplate

        for hs, plan in self.kernel_sites:
            kd = self._build_kernel(hs, plan, KernelFrameTemplate)
            if kd is None:
                kd = KernelDescr("disabled")
            self.nc.kernels.append(kd)

    def _build_kernel(self, hs: int, plan, KernelFrameTemplate) -> Optional[KernelDescr]:
        """Turn a LoopPlan into a runtime KernelDescr by walking the emitted
        scalar loop once.  The walk yields the exact per-iteration op/guard/
        generic-op counts the scalar engines would charge, the guard events
        in execution order (the chaos RNG draw sequence), and — per guard —
        the loop-defined registers its deopt descriptor reads, validated
        against the symbolic roles the vectorizer assigned.  Any mismatch
        disables the kernel (returns None); the retained scalar loop then
        runs unchanged."""
        nc = self.nc
        role_of_reg: Dict[int, tuple] = {}
        for iid, role in plan.roles.items():
            r = self.reg_of.get(iid)
            if r is not None:
                role_of_reg[r] = role
        phi_regs = {
            self.reg_of[id(p)] for p in plan.header.phis() if id(p) in self.reg_of
        }

        walk = self._walk_loop(hs, plan)
        if walk is None:
            return None
        iter_counts, raw_events, written_all = walk

        kd = KernelDescr(plan.kind)
        kd.idx_reg = self.reg_of.get(id(plan.idx_phi))
        kd.bound_reg = self.reg_of.get(id(plan.bound))
        kd.seq_reg = self.reg_of.get(id(plan.seq_load.args[0]))
        if kd.idx_reg is None or kd.bound_reg is None or kd.seq_reg is None:
            return None
        kd.seq_static = plan.seq_static
        seqv = []
        for phi in plan.seqv_phis:
            r = self.reg_of.get(id(phi))
            if r is None:
                return None
            seqv.append(r)
        kd.seqv_regs = tuple(seqv)
        if plan.acc_phi is not None:
            kd.acc_reg = self.reg_of.get(id(plan.acc_phi))
            if kd.acc_reg is None:
                return None
        kd.acc_op = plan.acc_op
        kd.acc_kind = plan.acc_kind
        kd.elem_keys = tuple(plan.elem_keys)
        kd.out_key = plan.out_key
        kd.store_kind = plan.store_kind
        kd.iter_counts = iter_counts

        # invariant chains
        chains = []
        for ch in plan.invs:
            if ch.root[0] in ("env", "fun"):
                source = ch.root
            else:
                r = self.reg_of.get(id(ch.root[1]))
                if r is None:
                    return None
                source = ("reg", r)
            member_regs = tuple(
                r for r in (self.reg_of.get(id(m)) for m in ch.members) if r is not None
            )
            chains.append((ch.key, source, ch.gtype, ch.gident, member_regs,
                           ch.key in plan.elem_keys))
        kd.chains = tuple(chains)
        kd.expr = plan.expr

        # store value (fill/copy)
        if plan.val_spec is not None:
            if plan.val_spec[0] == "const":
                r = self.reg_of.get(id(plan.val_spec[1]))
                if r is None:
                    return None
                kd.val_spec = ("reg", r)
            else:
                kd.val_spec = plan.val_spec

        # guard events: deopt descriptor registers -> iteration-indexed roles
        events = []
        for op, counts_incl, written_before, store_before in raw_events:
            did = op[3]
            grole = role_of_reg.get(op[1])
            if grole is None or grole[0] != "inv":
                return None
            descr = nc.deopts[did]
            refs = set()
            d = descr
            while d is not None:  # inlined frames chain through parent
                refs.update(r for _n, r, _k in d.env_slots)
                refs.update(r for r, _k in d.stack)
                if d.env_reg is not None:
                    refs.add(d.env_reg)
                d = d.parent
            slots = []
            for r in sorted(refs):
                role = role_of_reg.get(r)
                if role is None:
                    if r in written_all:
                        return None  # loop-defined register without a role
                    continue  # invariant: already holds the right value
                if not _role_materializable(role):
                    return None
                if _role_needs_def(role) and r not in written_before and r not in phi_regs:
                    return None
                slots.append((r, role))
            tmpl = KernelFrameTemplate(slots, counts_incl[0], counts_incl[1], counts_incl[2])
            events.append(KernelGuard(
                did, grole, tmpl, store_before,
                kind="gident" if op[0] == N.GIDENT else "gtype",
            ))
        kd.events = tuple(events)

        # per-kind completeness
        if kd.kind == "fsum":
            if kd.acc_reg is None or kd.acc_kind is None or kd.expr is None:
                return None
        elif kd.kind == "sum":
            if kd.acc_reg is None or kd.acc_kind is None or not kd.elem_keys:
                return None
        elif kd.kind in ("fill", "copy"):
            if kd.out_key is None or kd.val_spec is None or kd.store_kind is None:
                return None
        else:
            return None
        return kd

    def _walk_loop(self, hs: int, plan):
        """Walk one iteration of the emitted scalar loop starting at the
        header's first scalar op (``hs + 1``) until the backedge returns
        there.  Returns ``(iter_counts, events, written)`` or None when the
        stream contains anything the kernel cannot model (a branch other
        than the loop's own exit check among them)."""
        ops = self.nc.ops
        counts = [0, 0, 0]  # ops, guards, generic ops
        events: List[tuple] = []
        written: set = set()
        store_seen = False
        idx = hs + 1
        steps = 0
        while True:
            steps += 1
            if steps > 300:
                return None
            op = ops[idx]
            code = op[0]
            counts[0] += 1
            if code == N.JMP:
                if op[1] == hs + 1:
                    break  # backedge: one full iteration walked
                idx = op[1]
                continue
            if code == N.BRT:
                if idx != hs + 2:
                    return None
                # the loop's own exit check: follow the body edge
                idx = op[2] if plan.body_on_true else op[3]
                continue
            if code == N.GTYPE or code == N.GIDENT:
                counts[1] += 1
                events.append((op, tuple(counts), frozenset(written), store_seen))
                idx += 1
                continue
            if code in _GEN_CODES:
                counts[2] += 1
            elif code == N.VSTORE:
                store_seen = True
            elif code not in _WALK_OK:
                return None
            written.add(op[1])
            idx += 1
        return tuple(counts), events, frozenset(written)

    # -- instruction lowering ------------------------------------------------------------------

    def _lower_instr(self, ins: I.Instr, fused: Dict[int, I.Assume]) -> None:
        t = type(ins)
        if t is I.Const or t is I.Param or t is I.EnvParam or t is I.Phi:
            self.reg(ins)  # ensure allocation; params/consts preloaded, phis via moves
            return
        if t is I.IsType and id(ins) in fused:
            if self.drop_deopt_exits:
                return
            asm = fused[id(ins)]
            did = self.deopt_id(asm, expected=asm.expected)
            self.emit(N.GTYPE, self.reg(ins.args[0]), ins.test_type, did)
            return
        if t is I.IsIdentical and id(ins) in fused:
            if self.drop_deopt_exits:
                return
            asm = fused[id(ins)]
            did = self.deopt_id(asm, expected=asm.expected)
            self.emit(N.GIDENT, self.reg(ins.args[0]), ins.expected, did)
            return
        if t is I.IsType:
            self.emit(N.ISTYPE, self.reg(ins), self.reg(ins.args[0]), ins.test_type)
            return
        if t is I.IsIdentical:
            self.emit(N.ISIDENT, self.reg(ins), self.reg(ins.args[0]), ins.expected)
            return
        if t is I.Assume:
            if self.drop_deopt_exits:
                return
            cond = ins.args[0]
            if id(cond) in fused and fused[id(cond)] is ins:
                return  # already emitted as a fused guard
            did = self.deopt_id(ins, expected=ins.expected)
            self.emit(N.ASSUME, self.reg(cond), did)
            return
        if t is I.PrimArith:
            opmap = {"+": N.PADD, "-": N.PSUB, "*": N.PMUL, "/": N.PDIV, "^": N.PPOW,
                     "%%": N.PMODF, "%/%": N.PIDIVF}
            self.emit(opmap[ins.op], self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]))
            return
        if t is GuardedMod:
            did = self.deopt_id(ins, reason_kind=DeoptReasonKind.NA_CHECK)
            code = N.PMODI if ins.op == "%%" else N.PIDIVI
            self.emit(code, self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]), did)
            return
        if t is I.PrimCompare:
            opmap = {"<": N.PLT, "<=": N.PLE, ">": N.PGT, ">=": N.PGE, "==": N.PEQ, "!=": N.PNE}
            self.emit(opmap[ins.op], self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]))
            return
        if t is I.PrimUnary:
            self.emit(N.PNOT if ins.op == "!" else N.PNEG, self.reg(ins), self.reg(ins.args[0]))
            return
        if t is I.VecLoad:
            did = self.deopt_id(ins, reason_kind=DeoptReasonKind.NA_CHECK)
            self.emit(N.VLOAD, self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]), did,
                      _int_index(ins.args[1]))
            return
        if t is I.VecStore:
            self.emit(
                N.VSTORE, self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]),
                self.reg(ins.args[2]), ins.kind, _int_index(ins.args[1]),
                self.guarded_kinds.get(id(ins.args[0])),
            )
            return
        if t is I.VecLength:
            self.emit(N.VLEN, self.reg(ins), self.reg(ins.args[0]))
            return
        if t is I.CastType:
            # pure static refinement: a register copy
            self.emit(N.MOVE, self.reg(ins), self.reg(ins.args[0]))
            return
        if t is I.Box:
            self.emit(N.BOX, self.reg(ins), self.reg(ins.args[0]), ins.kind)
            return
        if t is I.Unbox:
            self.emit(N.UNBOX, self.reg(ins), self.reg(ins.args[0]))
            return
        if t is I.Arith:
            self.emit(N.GEN_ARITH, self.reg(ins), ins.op, self.reg(ins.args[0]), self.reg(ins.args[1]))
            return
        if t is I.Compare:
            self.emit(N.GEN_COMPARE, self.reg(ins), ins.op, self.reg(ins.args[0]), self.reg(ins.args[1]))
            return
        if t is I.Logic:
            self.emit(N.GEN_LOGIC, self.reg(ins), ins.op, self.reg(ins.args[0]), self.reg(ins.args[1]))
            return
        if t is I.Unary:
            self.emit(N.GEN_UNARY, self.reg(ins), ins.op, self.reg(ins.args[0]))
            return
        if t is I.Colon:
            self.emit(N.GEN_COLON, self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]))
            return
        if t is I.Extract2:
            self.emit(N.GEN_EX2, self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]))
            return
        if t is I.Extract1:
            self.emit(N.GEN_EX1, self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]))
            return
        if t is I.SetIndex2:
            self.emit(N.GEN_SET2, self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]), self.reg(ins.args[2]))
            return
        if t is I.SetIndex1:
            self.emit(N.GEN_SET1, self.reg(ins), self.reg(ins.args[0]), self.reg(ins.args[1]), self.reg(ins.args[2]))
            return
        if t is I.SeqLength:
            self.emit(N.GEN_SEQLEN, self.reg(ins), self.reg(ins.args[0]))
            return
        if t is I.AsLogicalScalar:
            self.emit(N.AS_LGL, self.reg(ins), self.reg(ins.args[0]))
            return
        if t is I.CheckFun:
            self.emit(N.CHECKFUN, self.reg(ins.args[0]))
            return
        if t is I.Share:
            self.emit(N.SHARE, self.reg(ins.args[0]))
            return
        if t is I.LdVarEnv:
            if ins.args:
                self.emit(N.LDVAR_ENV, self.reg(ins), self.reg(ins.args[0]), ins.vname)
            else:
                self.emit(N.LDVAR_FREE, self.reg(ins), ins.vname)
            return
        if t is I.StVarEnv:
            self.emit(N.STVAR_ENV, self.reg(ins.args[0]), ins.vname, self.reg(ins.args[1]))
            return
        if t is I.StVarSuper:
            if len(ins.args) == 2:
                self.emit(N.STSUPER, self.reg(ins.args[0]), ins.vname, self.reg(ins.args[1]))
            else:
                self.emit(N.STSUPER, None, ins.vname, self.reg(ins.args[0]))
            return
        if t is I.LdFun:
            env_reg = self.reg(ins.args[0]) if ins.args else None
            self.emit(N.LDFUN, self.reg(ins), env_reg, ins.vname)
            return
        if t is I.Force:
            self.emit(N.FORCE, self.reg(ins), self.reg(ins.args[0]))
            return
        if t is I.MkClosure:
            self.emit(N.MKCLOSURE, self.reg(ins), self.reg(ins.args[0]), ins.payload)
            return
        if t is I.MkPromise:
            self.emit(N.MKPROMISE, self.reg(ins), self.reg(ins.args[0]), ins.thunk_code)
            return
        if t is I.CallBuiltin:
            self.emit(N.CALLB, self.reg(ins), ins.builtin, tuple(self.reg(a) for a in ins.args))
            return
        if t is I.StaticCall:
            self.emit(N.CALLS, self.reg(ins), ins.closure, tuple(self.reg(a) for a in ins.args), ins.call_names)
            return
        if t is I.Call:
            self.emit(
                N.CALLG, self.reg(ins), self.reg(ins.args[0]),
                tuple(self.reg(a) for a in ins.args[1:]), ins.call_names,
            )
            return
        if t is I.Jump:
            self._emit_moves(self._phi_moves(ins.block, ins.target))
            self.emit(N.JMP, _BlockRef(ins.block, ins.target))
            return
        if t is I.Branch:
            self.emit(
                N.BRT, self.reg(ins.args[0]),
                _BlockRef(ins.block, ins.true_block), _BlockRef(ins.block, ins.false_block),
            )
            return
        if t is I.Return:
            self.emit(N.RET, self.reg(ins.args[0]))
            return
        raise LoweringError("cannot lower %s" % type(ins).__name__)


def _int_index(idx: I.Instr) -> bool:
    """Does a subscript's register hold a Python int (a bool is one)?  Its
    type says so for an unboxed INT or LGL; a DBL one is truncated first."""
    return idx.unboxed and idx.type.kind in (Kind.LGL, Kind.INT)


class _BlockRef:
    __slots__ = ("pred", "bb")

    def __init__(self, pred, bb):
        self.pred = pred
        self.bb = bb


def lower(graph: Graph, drop_deopt_exits: bool = False) -> NativeCode:
    return Lowerer(graph, drop_deopt_exits=drop_deopt_exits).lower()


def branch_targets(ops: List[tuple]) -> set:
    """Every op index that control flow can enter non-sequentially."""
    targets = {0}
    for op in ops:
        if op[0] == N.JMP:
            targets.add(op[1])
        elif op[0] == N.BRT:
            targets.add(op[2])
            targets.add(op[3])
    return targets
