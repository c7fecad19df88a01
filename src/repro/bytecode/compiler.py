"""AST → bytecode compiler.

Notable lowering decisions (all load-bearing for the OSR machinery):

* ``for`` loops are desugared into hidden-variable ``while`` form::

      for (v in seq) body
        ==>
      .fs <- seq; .fn <- length(.fs); .fi <- 0L
      while (.fi < .fn) { .fi <- .fi + 1L; v <- .fs[[.fi]]; body }

  so the operand stack is empty at every backedge, and the element access
  goes through the ordinary ``INDEX2`` profile point — exactly the site the
  paper's sum/colsum benchmarks speculate on.

* Call arguments that are provably effect-free (literals, variable reads,
  arithmetic/subscripts over such) are evaluated **eagerly** at the call
  site; anything that may have effects is wrapped in a promise
  (call-by-need).  This deviates from R only for programs that rely on
  laziness of effectful arguments, which none of our workloads do.

* Subscript assignment ``x[[i]] <- v`` compiles to a copy-on-write
  read-modify-write with an in-place fast path driven by a NAMED-style
  sharedness counter, like GNU R.  Nested targets desugar through
  temporaries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..rlang import ast_nodes as A
from ..rlang.parser import parse
from ..runtime.rtypes import Kind
from ..runtime.values import NULL, RVector
from . import opcodes as O


class CompileError(Exception):
    pass


class CodeObject:
    """A compiled unit: a function body, a promise thunk, or a program.

    Carries everything both tiers need: the instruction list, const/name
    pools, lazily-allocated per-pc feedback slots, a pc→source-line map, and
    JIT bookkeeping (backedge counter for OSR-in, deopt counts).
    """

    __slots__ = (
        "code", "consts", "names", "feedback", "feedback_slots", "lines", "name",
        "backedge_count", "osr_disabled", "deopt_count", "deopt_sites",
        "stable_hash", "live",
    )

    def __init__(self, name: str = "<code>"):
        self.code: List[tuple] = []
        self.consts: List[Any] = []
        self.names: List[str] = []
        self.feedback: Dict[int, Any] = {}
        #: per-pc feedback objects, preallocated by :meth:`seal_feedback`;
        #: the interpreter records through this list (indexed, not hashed)
        self.feedback_slots: Optional[List[Any]] = None
        self.lines: List[int] = []
        self.name = name
        self.backedge_count = 0
        self.osr_disabled = False
        self.deopt_count = 0
        #: per-site deopt counters; repeatedly failing sites stop being
        #: re-speculated by the compiler
        self.deopt_sites: Dict[int, int] = {}
        #: memoized content hash (jit/codecache.stable_code_hash)
        self.stable_hash: Optional[str] = None
        #: per-pc live names, computed on first use (:meth:`live_at`)
        self.live: Optional[List[frozenset]] = None

    def live_at(self, pc: int) -> frozenset:
        """The names some path from ``pc`` reads before a ``ST_VAR`` assigns
        them: an ``LD_VAR`` or ``LD_FUN`` of the name, or a closure or
        promise made there whose code mentions it.  A binding outside this
        set is dead at ``pc``: no later read can observe it."""
        if self.live is None:
            self.live = _liveness(self)
        return self.live[pc]

    def seal_feedback(self) -> None:
        """Preallocate one feedback object per profiling site.

        The slot array and the ``feedback`` dict share the same objects, so
        all existing consumers (the IR builder's ``feedback.get(pc)``, the
        deoptless repair pass' ``.items()``) keep working unchanged; an
        unexecuted site holds an empty observation, which every consumer
        already treats exactly like an absent one (``count == 0`` /
        ``bias is None`` / no call targets).
        """
        from .feedback import slot_for_op

        slots: List[Any] = [None] * len(self.code)
        for pc, ins in enumerate(self.code):
            cls = slot_for_op(ins[0])
            if cls is None:
                continue
            fb = self.feedback.get(pc)
            if fb is None:
                fb = self.feedback[pc] = cls()
            slots[pc] = fb
        self.feedback_slots = slots

    def const_index(self, value: Any) -> int:
        for i, c in enumerate(self.consts):
            if c is value:
                return i
        self.consts.append(value)
        return len(self.consts) - 1

    def name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def __repr__(self) -> str:  # pragma: no cover
        return "<code %s: %d instrs>" % (self.name, len(self.code))


def _mentioned(c: Any) -> frozenset:
    """Every name a promise's code or a closure's (an ``MK_CLOSURE`` payload:
    body, formals, name) mentions, with the closures and promises inside
    it: what it may read in the frame that made it, whenever it runs."""
    if isinstance(c, CodeObject):
        return frozenset(c.names).union(*map(_mentioned, c.consts))
    if isinstance(c, tuple) and len(c) == 3 and isinstance(c[0], CodeObject):
        return _mentioned(c[0]).union(*(_mentioned(d) for _, d in c[1] if d is not None))
    return frozenset()


def _liveness(code: CodeObject) -> List[frozenset]:
    """Backward may-read dataflow over the instruction list, to a fixpoint."""
    instrs = code.code
    n = len(instrs)
    flow = []  # per pc: (successors, names read, name assigned)
    for pc, ins in enumerate(instrs):
        op = ins[0]
        if op == O.RETURN:
            succs = ()
        elif op == O.BR:
            succs = (ins[1],)
        elif op in (O.BRFALSE, O.BRTRUE):
            succs = (pc + 1, ins[1])
        else:
            succs = (pc + 1,) if pc + 1 < n else ()
        reads = frozenset()
        if op in (O.LD_VAR, O.LD_FUN):
            reads = frozenset((code.names[ins[1]],))
        elif op in (O.MK_PROMISE, O.MK_CLOSURE):
            reads = _mentioned(code.consts[ins[1]])
        flow.append((succs, reads, code.names[ins[1]] if op == O.ST_VAR else None))
    live = [frozenset()] * n
    changed = True
    while changed:
        changed = False
        for pc in range(n - 1, -1, -1):
            succs, reads, assigned = flow[pc]
            out = frozenset().union(*(live[s] for s in succs))
            new = (out - {assigned}) | reads
            if new != live[pc]:
                live[pc] = new
                changed = True
    return list(map({}.setdefault, live, live))  # equal sets: one object


#: expression node types that can never observe or cause an effect.
_PURE_LEAVES = (A.NumLit, A.IntLit, A.ComplexLit, A.StrLit, A.BoolLit, A.NullLit, A.NaLit, A.Ident)

#: base functions assumed unshadowed.  Each is a builtin, which forces all its
#: arguments, left to right, before it runs, so a call to one evaluates them in
#: place (``Compiler._c_Call``), as GNU R's byte compiler does for base BUILTINs.
#: The one divergence: a closure bound to one of these names that leaves an
#: effectful argument unforced sees the effect happen anyway.
PURE_BASE_CALLEES = frozenset({
    "c", "length", "rep", "seq_len", "seq", "vector", "logical", "integer",
    "numeric", "double", "character", "complex", "list",
    "sum", "prod", "min", "max", "mean", "sqrt", "abs", "exp", "log",
    "sin", "cos", "tan", "atan", "atan2", "floor", "ceiling", "round",
    "trunc", "Re", "Im", "Mod", "nchar", "paste0", "identical",
    "is.logical", "is.integer", "is.double", "is.complex", "is.character",
    "is.list", "is.numeric", "is.function", "is.null", "is.na",
    "as.logical", "as.integer", "as.double", "as.numeric", "as.complex",
    "as.character", "as.list",
})


def runs_loop(node: Any) -> bool:
    """Does evaluating ``node`` run a loop?  (OSR-in needs an empty operand
    stack at a backedge, which an eager argument would not leave.)"""
    if isinstance(node, list):
        return any(map(runs_loop, node))
    if not isinstance(node, A.Node) or isinstance(node, A.Function):
        return False
    return isinstance(node, (A.For, A.While, A.Repeat)) or any(map(runs_loop, vars(node).values()))


def is_effect_free(node: A.Node) -> bool:
    """Conservative effect analysis used to decide eager vs promise args."""
    if isinstance(node, _PURE_LEAVES):
        return True
    if isinstance(node, A.Function):
        return True  # closure creation itself is pure
    if isinstance(node, A.UnOp):
        return is_effect_free(node.operand)
    if isinstance(node, (A.BinOp, A.Colon)):
        return is_effect_free(node.lhs) and is_effect_free(node.rhs)
    if isinstance(node, A.Index):
        return is_effect_free(node.obj) and all(is_effect_free(a) for a in node.args)
    if isinstance(node, A.Call):
        return (
            isinstance(node.fn, A.Ident)
            and node.fn.name in PURE_BASE_CALLEES
            and all(is_effect_free(a) for a in node.args)
        )
    return False


class Compiler:
    """Compiles one compilation unit; nested functions recurse."""

    def __init__(self, name: str = "<code>"):
        self.co = CodeObject(name)
        #: per-unit hidden-name counter.  Deliberately NOT process-global:
        #: compiling the same source twice must yield byte-identical units
        #: (incl. the hidden ``.fs1``/``.fi3`` loop variables) so that the
        #: content-addressed code cache can share compiled code across
        #: re-evaluations (jit/codecache.py)
        self._gensym_counter = 0
        #: stack of (break_patch_list, next_target_pc, entry_depth)
        self.loops: List[Tuple[List[int], int, int]] = []
        #: statically tracked operand stack depth at the current emit point;
        #: lets break/next unwind partially built expressions correctly.
        self.depth = 0
        self.max_depth = 0

    # -- emission helpers ------------------------------------------------------

    def emit(self, op: int, *args: Any, line: int = 0) -> int:
        self.co.code.append((op,) + args)
        self.co.lines.append(line)
        if op == O.CALL:
            self.depth -= args[0]  # pops fn + nargs, pushes result
        else:
            self.depth += O.STACK_EFFECT.get(op, 0)
        if self.depth > self.max_depth:
            self.max_depth = self.depth
        return len(self.co.code) - 1

    def patch(self, at: int, *args: Any) -> None:
        op = self.co.code[at][0]
        self.co.code[at] = (op,) + args

    def here(self) -> int:
        return len(self.co.code)

    def gensym(self, prefix: str) -> str:
        self._gensym_counter += 1
        return ".%s%d" % (prefix, self._gensym_counter)

    # -- entry points -------------------------------------------------------------

    @staticmethod
    def compile_program(source: str, name: str = "<program>") -> CodeObject:
        ast = parse(source)
        c = Compiler(name)
        c.compile_block_value(ast)
        c.emit(O.RETURN, line=ast.line)
        c.co.seal_feedback()
        return c.co

    @staticmethod
    def compile_function(fn: A.Function, name: str) -> Tuple[CodeObject, list]:
        """Compile a function body; returns (code, formals) where formals is
        a list of (name, default CodeObject or None)."""
        c = Compiler(name)
        c.compile_expr(fn.body)
        c.emit(O.RETURN, line=fn.line)
        c.co.seal_feedback()
        formals = []
        for fname, default in fn.formals:
            if default is None:
                formals.append((fname, None))
            else:
                dc = Compiler("<default %s>" % fname)
                dc.compile_expr(default)
                dc.emit(O.RETURN, line=default.line)
                dc.co.seal_feedback()
                formals.append((fname, dc.co))
        return c.co, formals

    @staticmethod
    def compile_thunk(expr: A.Node, name: str = "<promise>") -> CodeObject:
        c = Compiler(name)
        c.compile_expr(expr)
        c.emit(O.RETURN, line=expr.line)
        c.co.seal_feedback()
        return c.co

    # -- statements / blocks ----------------------------------------------------------

    def compile_block_value(self, block: A.Block) -> None:
        if not block.body:
            self.emit(O.PUSH_NULL, line=block.line)
            return
        for stmt in block.body[:-1]:
            self.compile_expr(stmt)
            self.emit(O.POP, line=stmt.line)
        self.compile_expr(block.body[-1])

    # -- expressions ---------------------------------------------------------------------

    def compile_expr(self, node: A.Node) -> None:
        method = getattr(self, "_c_" + type(node).__name__, None)
        if method is None:
            raise CompileError("cannot compile %s" % type(node).__name__)
        method(node)

    # literals

    def _push_const_vector(self, kind: Kind, value: Any, line: int) -> None:
        vec = RVector(kind, [value])
        vec.named = 2  # shared: the const pool owns it
        self.emit(O.PUSH_CONST, self.co.const_index(vec), line=line)

    def _c_NumLit(self, n: A.NumLit) -> None:
        self._push_const_vector(Kind.DBL, n.value, n.line)

    def _c_IntLit(self, n: A.IntLit) -> None:
        self._push_const_vector(Kind.INT, n.value, n.line)

    def _c_ComplexLit(self, n: A.ComplexLit) -> None:
        self._push_const_vector(Kind.CPLX, n.value, n.line)

    def _c_StrLit(self, n: A.StrLit) -> None:
        self._push_const_vector(Kind.STR, n.value, n.line)

    def _c_BoolLit(self, n: A.BoolLit) -> None:
        self._push_const_vector(Kind.LGL, n.value, n.line)

    def _c_NaLit(self, n: A.NaLit) -> None:
        kind = {"lgl": Kind.LGL, "int": Kind.INT, "dbl": Kind.DBL, "str": Kind.STR}[n.kind]
        self._push_const_vector(kind, None, n.line)

    def _c_NullLit(self, n: A.NullLit) -> None:
        self.emit(O.PUSH_NULL, line=n.line)

    # variables

    def _c_Ident(self, n: A.Ident) -> None:
        self.emit(O.LD_VAR, self.co.name_index(n.name), line=n.line)

    # operators

    def _c_BinOp(self, n: A.BinOp) -> None:
        if n.op in ("&&", "||"):
            self._compile_shortcircuit(n)
            return
        self.compile_expr(n.lhs)
        self.compile_expr(n.rhs)
        if n.op in ("==", "!=", "<", "<=", ">", ">="):
            self.emit(O.COMPARE, n.op, line=n.line)
        elif n.op in ("&", "|"):
            self.emit(O.LOGIC, n.op, line=n.line)
        else:
            self.emit(O.BINOP, n.op, line=n.line)

    def _compile_shortcircuit(self, n: A.BinOp) -> None:
        # a && b  ==>  if (a) as.logical(b) else FALSE     (scalar semantics)
        self.compile_expr(n.lhs)
        if n.op == "&&":
            jump = self.emit(O.BRFALSE, -1, line=n.line)
            self.compile_expr(n.rhs)
            self.emit(O.CHECK_FUN, "as_lgl_scalar", line=n.line)  # normalize
            end = self.emit(O.BR, -1, line=n.line)
            self.patch(jump, self.here())
            self._push_const_vector(Kind.LGL, False, n.line)
            self.patch(end, self.here())
        else:
            jump = self.emit(O.BRTRUE, -1, line=n.line)
            self.compile_expr(n.rhs)
            self.emit(O.CHECK_FUN, "as_lgl_scalar", line=n.line)
            end = self.emit(O.BR, -1, line=n.line)
            self.patch(jump, self.here())
            self._push_const_vector(Kind.LGL, True, n.line)
            self.patch(end, self.here())

    def _c_UnOp(self, n: A.UnOp) -> None:
        self.compile_expr(n.operand)
        self.emit(O.UNOP, n.op, line=n.line)

    def _c_Colon(self, n: A.Colon) -> None:
        self.compile_expr(n.lhs)
        self.compile_expr(n.rhs)
        self.emit(O.COLON, line=n.line)

    # subscripts

    def _c_Index(self, n: A.Index) -> None:
        if len(n.args) != 1:
            raise CompileError("line %d: multi-dimensional subscripts are not supported" % n.line)
        self.compile_expr(n.obj)
        self.compile_expr(n.args[0])
        self.emit(O.INDEX2 if n.double else O.INDEX1, line=n.line)

    # assignment

    def _c_Assign(self, n: A.Assign) -> None:
        target = n.target
        if isinstance(target, A.Ident):
            # value ; DUP ; ST_VAR  — assignment is an expression in R
            if isinstance(n.value, A.Function):
                self._compile_closure(n.value, name=target.name)
            else:
                self.compile_expr(n.value)
            self.emit(O.DUP, line=n.line)
            op = O.ST_VAR_SUPER if n.superassign else O.ST_VAR
            self.emit(op, self.co.name_index(target.name), line=n.line)
            return
        if isinstance(target, A.Index):
            self._compile_index_assign(target, n.value, n.superassign, n.line)
            return
        raise CompileError("line %d: unsupported assignment target" % n.line)

    def _compile_index_assign(self, target: A.Index, value: A.Node, superassign: bool, line: int) -> None:
        if len(target.args) != 1:
            raise CompileError("line %d: multi-dimensional subscript assignment" % line)
        if isinstance(target.obj, A.Index):
            # nested: t[[i]][[j]] <- v  desugars through a temporary
            tmp = self.gensym("tmp")
            inner = target.obj
            #   tmp <- t[[i]]
            self.compile_expr(inner)
            self.emit(O.ST_VAR, self.co.name_index(tmp), line=line)
            #   tmp[[j]] <- v   (leaves value on stack; we pop it)
            self._compile_index_assign(
                A.Index(line=line, obj=A.Ident(line=line, name=tmp), args=target.args, double=target.double),
                value, False, line,
            )
            self.emit(O.POP, line=line)
            #   t[[i]] <- tmp   (leaves tmp on stack == assignment value; close enough:
            #   R's value of nested assignment is `value`; we re-push it below)
            self._compile_index_assign(
                A.Index(line=line, obj=inner.obj, args=inner.args, double=inner.double),
                A.Ident(line=line, name=tmp), superassign, line,
            )
            return
        if not isinstance(target.obj, A.Ident):
            raise CompileError("line %d: invalid subscript assignment target" % line)
        var = target.obj.name
        # stack: [v] [v] [obj] [idx] --ROT3--> [v] [obj] [idx] [v]
        self.compile_expr(value)
        self.emit(O.DUP, line=line)
        self.emit(O.LD_VAR, self.co.name_index(var), line=line)
        self.compile_expr(target.args[0])
        self.emit(O.ROT3, line=line)
        self.emit(O.SET_INDEX2 if target.double else O.SET_INDEX1, line=line)
        op = O.ST_VAR_SUPER if superassign else O.ST_VAR
        self.emit(op, self.co.name_index(var), line=line)

    # control flow

    def _c_If(self, n: A.If) -> None:
        self.compile_expr(n.cond)
        jump = self.emit(O.BRFALSE, -1, line=n.line)
        depth = self.depth
        self.compile_expr(n.then)
        end = self.emit(O.BR, -1, line=n.line)
        self.patch(jump, self.here())
        self.depth = depth  # the other arm starts from the same stack
        if n.orelse is not None:
            self.compile_expr(n.orelse)
        else:
            self.emit(O.PUSH_NULL, line=n.line)
        self.patch(end, self.here())

    def _c_While(self, n: A.While) -> None:
        head = self.here()
        self.compile_expr(n.cond)
        exit_jump = self.emit(O.BRFALSE, -1, line=n.line)
        breaks: List[int] = []
        self.loops.append((breaks, head, self.depth))
        self.compile_expr(n.body)
        self.emit(O.POP, line=n.line)
        self.loops.pop()
        self.emit(O.BR, head, line=n.line)  # backedge
        end = self.here()
        self.patch(exit_jump, end)
        for b in breaks:
            self.patch(b, end)
        self.emit(O.PUSH_NULL, line=n.line)

    def _c_Repeat(self, n: A.Repeat) -> None:
        head = self.here()
        breaks: List[int] = []
        self.loops.append((breaks, head, self.depth))
        self.compile_expr(n.body)
        self.emit(O.POP, line=n.line)
        self.loops.pop()
        self.emit(O.BR, head, line=n.line)
        end = self.here()
        for b in breaks:
            self.patch(b, end)
        self.emit(O.PUSH_NULL, line=n.line)

    def _c_For(self, n: A.For) -> None:
        fs = self.gensym("fs")
        fn_ = self.gensym("fn")
        fi = self.gensym("fi")
        line = n.line
        # .fs <- seq
        self.compile_expr(n.seq)
        self.emit(O.ST_VAR, self.co.name_index(fs), line=line)
        # .fn <- length(.fs)
        self.emit(O.LD_VAR, self.co.name_index(fs), line=line)
        self.emit(O.SEQ_LENGTH, line=line)
        self.emit(O.ST_VAR, self.co.name_index(fn_), line=line)
        # .fi <- 0L
        self._push_const_vector(Kind.INT, 0, line)
        self.emit(O.ST_VAR, self.co.name_index(fi), line=line)
        # head: if (!(.fi < .fn)) goto end
        head = self.here()
        self.emit(O.LD_VAR, self.co.name_index(fi), line=line)
        self.emit(O.LD_VAR, self.co.name_index(fn_), line=line)
        self.emit(O.COMPARE, "<", line=line)
        exit_jump = self.emit(O.BRFALSE, -1, line=line)
        # .fi <- .fi + 1L
        self.emit(O.LD_VAR, self.co.name_index(fi), line=line)
        self._push_const_vector(Kind.INT, 1, line)
        self.emit(O.BINOP, "+", line=line)
        self.emit(O.ST_VAR, self.co.name_index(fi), line=line)
        # var <- .fs[[.fi]]
        self.emit(O.LD_VAR, self.co.name_index(fs), line=line)
        self.emit(O.LD_VAR, self.co.name_index(fi), line=line)
        self.emit(O.INDEX2, line=line)
        self.emit(O.ST_VAR, self.co.name_index(n.var), line=line)
        # body
        breaks: List[int] = []
        self.loops.append((breaks, head, self.depth))
        self.compile_expr(n.body)
        self.emit(O.POP, line=line)
        self.loops.pop()
        self.emit(O.BR, head, line=line)  # backedge
        end = self.here()
        self.patch(exit_jump, end)
        for b in breaks:
            self.patch(b, end)
        self.emit(O.PUSH_NULL, line=line)

    def _unwind_to(self, depth: int, line: int) -> None:
        """Emit POPs to unwind the operand stack to ``depth`` (for break/next
        escaping out of a partially evaluated expression)."""
        while self.depth > depth:
            self.emit(O.POP, line=line)

    def _c_Break(self, n: A.Break) -> None:
        if not self.loops:
            raise CompileError("line %d: break outside loop" % n.line)
        saved = self.depth
        self._unwind_to(self.loops[-1][2], n.line)
        jump = self.emit(O.BR, -1, line=n.line)
        self.loops[-1][0].append(jump)
        # dead code keeping the static depth consistent for the surrounding
        # expression (break "produces" a value that is never observed)
        self.depth = saved
        self.emit(O.PUSH_NULL, line=n.line)

    def _c_Next(self, n: A.Next) -> None:
        if not self.loops:
            raise CompileError("line %d: next outside loop" % n.line)
        saved = self.depth
        self._unwind_to(self.loops[-1][2], n.line)
        self.emit(O.BR, self.loops[-1][1], line=n.line)
        self.depth = saved
        self.emit(O.PUSH_NULL, line=n.line)

    def _c_Block(self, n: A.Block) -> None:
        self.compile_block_value(n)

    def _c_Return(self, n: A.Return) -> None:
        if n.value is not None:
            self.compile_expr(n.value)
        else:
            self.emit(O.PUSH_NULL, line=n.line)
        self.emit(O.RETURN, line=n.line)
        self.emit(O.PUSH_NULL, line=n.line)  # unreachable

    # functions and calls

    def _c_Function(self, n: A.Function) -> None:
        self._compile_closure(n)

    def _compile_closure(self, n: A.Function, name: str = "<anonymous>") -> None:
        code, formals = Compiler.compile_function(n, name)
        k = self.co.const_index((code, formals, name))
        self.emit(O.MK_CLOSURE, k, line=n.line)

    def _c_Call(self, n: A.Call) -> None:
        # callee
        if isinstance(n.fn, A.Ident):
            self.emit(O.LD_FUN, self.co.name_index(n.fn.name), line=n.line)
        else:
            self.compile_expr(n.fn)
            self.emit(O.CHECK_FUN, "callable", line=n.line)
        # arguments: eager when effect-free or passed to a base builtin
        base = isinstance(n.fn, A.Ident) and n.fn.name in PURE_BASE_CALLEES
        for arg in n.args:
            if is_effect_free(arg) or (base and not runs_loop(arg)):
                self.compile_expr(arg)
            else:
                thunk = Compiler.compile_thunk(arg)
                self.emit(O.MK_PROMISE, self.co.const_index(thunk), line=arg.line)
        names = tuple(n.arg_names)
        names_idx = self.co.const_index(names) if any(x is not None for x in names) else -1
        self.emit(O.CALL, len(n.args), names_idx, line=n.line)
