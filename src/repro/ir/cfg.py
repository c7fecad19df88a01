"""Control-flow graph container for the optimizing IR."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional

from .instructions import Branch, Const, EnvParam, Instr, Jump, Param, Phi, Return


class BasicBlock:
    __slots__ = ("id", "instrs", "preds", "graph")

    def __init__(self, id_: int, graph: "Graph"):
        self.id = id_
        self.instrs: List[Instr] = []
        self.preds: List[BasicBlock] = []
        self.graph = graph

    # -- structure ------------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and isinstance(self.instrs[-1], (Branch, Jump, Return)):
            return self.instrs[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        t = self.terminator
        if isinstance(t, Branch):
            return [t.true_block, t.false_block]
        if isinstance(t, Jump):
            return [t.target]
        return []

    def append(self, instr: Instr) -> Instr:
        instr.id = self.graph.next_id()
        instr.block = self
        self.instrs.append(instr)
        return instr

    def insert_front(self, instr: Instr) -> Instr:
        instr.id = self.graph.next_id()
        instr.block = self
        # phis stay in a leading group
        i = 0
        if not isinstance(instr, Phi):
            while i < len(self.instrs) and isinstance(self.instrs[i], Phi):
                i += 1
        self.instrs.insert(i, instr)
        return instr

    def insert_before(self, anchor: Instr, instr: Instr) -> Instr:
        instr.id = self.graph.next_id()
        instr.block = self
        self.instrs.insert(self.instrs.index(anchor), instr)
        return instr

    def remove(self, instr: Instr) -> None:
        self.instrs.remove(instr)
        instr.block = None

    def phis(self) -> List[Phi]:
        out = []
        for ins in self.instrs:
            if isinstance(ins, Phi):
                out.append(ins)
            else:
                break
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return "BB%d" % self.id


class OsrAnchor:
    """What a frame materialized at a loop header's pc maps onto: the value
    each live variable and operand-stack slot has at the top of ``header``.
    The third kind of use holder, so the entry map follows rewrites."""

    __slots__ = ("header", "vars", "stack")

    def __init__(self, header: BasicBlock, vars_: Dict[str, Instr], stack: List[Instr]):
        self.header = header
        self.vars = vars_
        self.stack = stack

    def replace_value(self, old: Instr, new: Instr) -> None:
        for name, v in self.vars.items():
            if v is old:
                self.vars[name] = new
        self.stack = [new if v is old else v for v in self.stack]

    def values(self) -> List[Instr]:
        return [*self.vars.values(), *self.stack]

    def dead_value(self) -> Optional[Instr]:
        """A value named here that no block holds, if any (entry values and
        constants need none: calling convention and ``reg_init`` define them)."""
        for v in self.values():
            if v.block is None and not isinstance(v, (Param, EnvParam, Const)):
                return v
        return None


class Graph:
    """The IR of one compilation unit (a function or an OSR continuation).

    ``params`` are the entry values (argument slots, and for continuations
    the incoming environment/stack slots).  ``env_elided`` records whether
    the local environment was promoted to registers; when False, env ops
    remain and ``env_param`` holds the environment value.
    """

    def __init__(self, name: str = "<graph>"):
        self.name = name
        self.blocks: List[BasicBlock] = []
        self._next_id = 0
        self.entry: Optional[BasicBlock] = None
        self.params: List[Instr] = []
        self.env_elided = True
        self.env_param: Optional[Instr] = None
        #: the bytecode this was compiled from (deopt target)
        self.bc_code = None
        #: entry pc (0 for whole functions, >0 for OSR continuations)
        self.entry_pc = 0
        #: compiled-for-continuation marker (disables DSE; see the paper's
        #: OSR-in soundness anecdote in section 4.2)
        self.is_continuation = False
        #: continuation calling convention (filled by the builder)
        self.cont_var_names: List[str] = []
        self.cont_stack_size = 0
        #: loop plans annotated by opt/vectorize.py (consumed by the lowerer)
        self.vector_loops: list = []
        #: loop-header OSR anchors recorded by the builder, by bytecode pc.
        #: The lowerer turns the anchors that survive optimization into the
        #: unit's per-pc OSR entry map (NativeCode.osr_entries)
        self.osr_anchors: Dict[int, OsrAnchor] = {}
        #: the use index of the running pass (see ``compute_uses``)
        self.uses: Optional[Dict[Any, list]] = None

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def new_block(self) -> BasicBlock:
        bb = BasicBlock(len(self.blocks), self)
        self.blocks.append(bb)
        if self.entry is None:
            self.entry = bb
        return bb

    # -- traversal ---------------------------------------------------------------

    def rpo(self) -> List[BasicBlock]:
        """Reverse postorder over reachable blocks."""
        seen = set()
        order: List[BasicBlock] = []

        def visit(bb: BasicBlock) -> None:
            stack = [(bb, iter(bb.successors()))]
            seen.add(bb.id)
            while stack:
                blk, it = stack[-1]
                advanced = False
                for s in it:
                    if s.id not in seen:
                        seen.add(s.id)
                        stack.append((s, iter(s.successors())))
                        advanced = True
                        break
                if not advanced:
                    order.append(blk)
                    stack.pop()

        if self.entry is not None:
            visit(self.entry)
        order.reverse()
        return order

    def iter_instrs(self) -> Iterator[Instr]:
        for bb in self.blocks:
            for ins in bb.instrs:
                yield ins

    def recompute_preds(self) -> None:
        for bb in self.blocks:
            bb.preds = []
        for bb in self.rpo():
            for s in bb.successors():
                s.preds.append(bb)

    # -- dominators ----------------------------------------------------------------

    def idom(self, order: Optional[List[BasicBlock]] = None) -> Dict[BasicBlock, BasicBlock]:
        """Immediate dominator of every reachable block (the entry maps to
        itself): Cooper–Harvey–Kennedy over ``rpo()``, on current ``preds``."""
        order = order or self.rpo()
        pos = {bb: i for i, bb in enumerate(order)}
        idom = {order[0]: order[0]}
        changed = True
        while changed:
            changed = False
            for bb in order[1:]:
                new = None
                for p in bb.preds:
                    if p not in idom:
                        continue  # not processed yet (a back edge, first round)
                    if new is None:
                        new = p
                        continue
                    while p is not new:  # nearest common dominator
                        while pos[p] > pos[new]:
                            p = idom[p]
                        while pos[new] > pos[p]:
                            new = idom[new]
                if idom.get(bb) is not new:
                    idom[bb] = new
                    changed = True
        return idom

    # -- uses ----------------------------------------------------------------------

    def compute_uses(self) -> Dict[Any, list]:
        """Build the use index by one walk: value -> its holders, one entry
        per slot that names it.  A holder is an instruction (``args``), a
        ``FrameStateDescr`` (each frame of a chain for its own slots, a
        shared parent once) or an :class:`OsrAnchor`; all answer
        ``replace_value``.  Only ``replace_all_uses`` keeps the index current:
        a pass builds it before rewriting; removed instructions stay behind
        as harmless stale holders, so a pass that *counts* takes a fresh one
        (read with ``get``: a defaultdict).  DESIGN.md has the contract."""
        uses: Dict[Any, list] = defaultdict(list)
        frames = set()
        for bb in self.blocks:
            for ins in bb.instrs:
                for a in ins.args:
                    uses[a].append(ins)
                fs = getattr(ins, "framestate", None)
                while fs is not None and id(fs) not in frames:
                    frames.add(id(fs))
                    for v in fs.own_values():
                        uses[v].append(fs)
                    fs = fs.parent
        for anchor in self.osr_anchors.values():
            for v in anchor.values():
                uses[v].append(anchor)
        self.uses = uses
        return uses

    def replace_all_uses(self, old: Instr, new: Instr) -> None:
        """Point every holder of ``old`` at ``new`` and hand the holders
        over — work proportional to ``old``'s uses (``compute_uses`` first)."""
        holders = self.uses.pop(old, None)
        if holders is None:
            return
        last = None
        for h in holders:
            if h is not last:  # one holder's slots sit together
                h.replace_value(old, new)
                last = h
        self.uses[new].extend(holders)

    def __repr__(self) -> str:  # pragma: no cover
        return "<Graph %s: %d blocks>" % (self.name, len(self.blocks))


def print_graph(graph: Graph) -> str:
    """Textual dump of the IR (used by tests and for debugging)."""
    lines = ["graph %s (entry BB%d)" % (graph.name, graph.entry.id if graph.entry else -1)]
    for p in graph.params:
        lines.append("  param %s" % p.short())
    for bb in graph.rpo():
        preds = ",".join("BB%d" % p.id for p in bb.preds)
        lines.append("BB%d:  ; preds: %s" % (bb.id, preds))
        for ins in bb.instrs:
            from .instructions import Branch as Br, Jump as Jp

            if isinstance(ins, Br):
                lines.append("  Branch %s ? BB%d : BB%d" % (ins.args[0].name, ins.true_block.id, ins.false_block.id))
            elif isinstance(ins, Jp):
                lines.append("  Jump BB%d" % ins.target.id)
            else:
                lines.append("  " + ins.short())
    return "\n".join(lines)
