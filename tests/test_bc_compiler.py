"""Tests for the AST→bytecode compiler: lowering shapes, stack discipline,
and the desugarings OSR relies on."""

import pytest

from repro.bytecode import opcodes as O
from repro.bytecode.compiler import CompileError, Compiler, is_effect_free
from repro.rlang.parser import parse_expr


def compile_src(src):
    return Compiler.compile_program(src)


def ops_of(code):
    return [ins[0] for ins in code.code]


def test_simple_expression_shape():
    co = compile_src("1 + 2")
    assert ops_of(co) == [O.PUSH_CONST, O.PUSH_CONST, O.BINOP, O.RETURN]


def test_assignment_dups_value():
    co = compile_src("x <- 1")
    assert ops_of(co) == [O.PUSH_CONST, O.DUP, O.ST_VAR, O.RETURN]


def test_statements_are_popped():
    co = compile_src("1\n2")
    assert O.POP in ops_of(co)


def test_for_loop_desugars_with_empty_stack_backedge():
    """The operand stack must be empty at every backedge (the OSR-in
    precondition)."""
    co = compile_src("for (i in 1:10) i")
    # statically simulate stack depth and check it at backward branches
    depth = {0: 0}
    work = [0]
    seen = set()
    while work:
        pc = work.pop()
        if pc in seen or pc >= len(co.code):
            continue
        seen.add(pc)
        ins = co.code[pc]
        op = ins[0]
        d = depth[pc]
        if op == O.BR:
            if ins[1] <= pc:  # backedge
                assert d == 0, "non-empty stack at backedge from %d" % pc
            nxt = [(ins[1], d)]
        elif op in (O.BRFALSE, O.BRTRUE):
            nxt = [(pc + 1, d - 1), (ins[1], d - 1)]
        elif op == O.RETURN:
            nxt = []
        elif op == O.CALL:
            nxt = [(pc + 1, d - ins[1])]
        else:
            nxt = [(pc + 1, d + O.STACK_EFFECT.get(op, 0))]
        for t, dd in nxt:
            if t not in depth:
                depth[t] = dd
                work.append(t)
            else:
                assert depth[t] == dd, "stack depth mismatch at pc %d" % t


def test_for_loop_uses_index2_for_elements():
    co = compile_src("for (x in v) x")
    assert O.INDEX2 in ops_of(co)
    assert O.SEQ_LENGTH in ops_of(co)


def test_break_unwinds_partial_expression_stack():
    # break in expression position must not leak stack slots
    co = compile_src("while (TRUE) { x <- 1 + (if (y) break else 2) }")
    # presence of unwind POPs before the break jump
    assert ops_of(co).count(O.POP) >= 2


def test_index_assign_shape():
    co = compile_src("x[[1]] <- 5")
    ops = ops_of(co)
    assert O.ROT3 in ops and O.SET_INDEX2 in ops and O.ST_VAR in ops


def test_nested_index_assign_desugars_to_temporaries():
    co = compile_src("t[[1]][[2]] <- 5")
    ops = ops_of(co)
    assert ops.count(O.SET_INDEX2) == 2


def test_single_bracket_assignment():
    co = compile_src("x[2] <- 5")
    assert O.SET_INDEX1 in ops_of(co)


def test_effectful_argument_becomes_promise():
    co = compile_src("f(g())")
    assert O.MK_PROMISE in ops_of(co)


def test_pure_argument_stays_eager():
    co = compile_src("f(x + 1)")
    assert O.MK_PROMISE not in ops_of(co)


def test_a_base_builtins_arguments_are_eager():
    """A call to a name in ``PURE_BASE_CALLEES`` evaluates its arguments in
    place, left to right; an argument that runs a loop keeps its promise,
    because OSR-in needs an empty operand stack at every backedge."""
    assert O.MK_PROMISE not in ops_of(compile_src("list(f(), g(x))"))
    assert O.MK_PROMISE in ops_of(compile_src("list(f(), for (i in 1:3) i)"))
    assert O.MK_PROMISE in ops_of(compile_src("h(f())"))


def test_every_pure_base_callee_is_an_installed_builtin():
    """What eager arguments rest on: each of these names is a builtin, and
    a builtin forces all its arguments, left to right, before it runs."""
    from repro import RVM
    from repro.bytecode.compiler import PURE_BASE_CALLEES
    from repro.runtime.values import RBuiltin

    env = RVM().global_env
    assert all(isinstance(env.get(name), RBuiltin) for name in PURE_BASE_CALLEES)


def test_is_effect_free_classification():
    assert is_effect_free(parse_expr("x + y * 2"))
    assert is_effect_free(parse_expr("v[[i]]"))
    assert is_effect_free(parse_expr("function(q) q"))
    assert not is_effect_free(parse_expr("g()"))
    assert not is_effect_free(parse_expr("{ x <- 1\nx }"))
    assert not is_effect_free(parse_expr("v[[g()]]"))


def test_superassign_opcode():
    co = Compiler.compile_function(parse_expr("function() n <<- 1"), "f")[0]
    assert O.ST_VAR_SUPER in ops_of(co)


def test_call_with_named_args_records_names():
    co = compile_src("f(1, b = 2)")
    call = [ins for ins in co.code if ins[0] == O.CALL][0]
    assert call[1] == 2
    assert co.consts[call[2]] == (None, "b")


def test_break_outside_loop_is_compile_error():
    with pytest.raises(CompileError):
        compile_src("break")


def test_next_outside_loop_is_compile_error():
    with pytest.raises(CompileError):
        compile_src("next")


def test_closure_const_holds_code_and_formals():
    co = compile_src("f <- function(a, b = 1) a")
    payload = [c for c in co.consts if isinstance(c, tuple) and len(c) == 3][0]
    code, formals, name = payload
    assert formals[0] == ("a", None)
    assert formals[1][0] == "b" and formals[1][1] is not None
    assert name == "f"


def test_source_lines_tracked():
    co = compile_src("x <- 1\ny <- 2")
    assert co.lines[0] == 1
    assert co.lines[-2] >= 2


def test_shortcircuit_compiles_to_branches():
    co = compile_src("a && b")
    ops = ops_of(co)
    assert O.BRFALSE in ops and O.LOGIC not in ops


def test_vectorized_logic_is_logic_opcode():
    co = compile_src("a & b")
    assert O.LOGIC in ops_of(co)
