"""Tests for the IR verifier and printer."""

import pytest

from conftest import make_vm
from repro.ir import instructions as I
from repro.ir.builder import GraphBuilder
from repro.ir.cfg import Graph, print_graph
from repro.ir.verifier import VerificationError, verify
from repro.runtime.rtypes import Kind, scalar


def good_graph():
    g = Graph("g")
    bb = g.new_block()
    c = bb.append(I.Const(1.0, scalar(Kind.DBL)))
    bb.append(I.Return(c))
    return g, bb, c


def test_valid_graph_verifies():
    g, _, _ = good_graph()
    verify(g)


def test_missing_terminator_rejected():
    g = Graph("g")
    bb = g.new_block()
    bb.append(I.Const(1.0, scalar(Kind.DBL)))
    with pytest.raises(VerificationError, match="no terminator"):
        verify(g)


def test_terminator_mid_block_rejected():
    g, bb, c = good_graph()
    bb.append(I.Return(c))  # a second return after the first
    with pytest.raises(VerificationError, match="before its end"):
        verify(g)


def test_use_before_definition_rejected():
    g = Graph("g")
    bb = g.new_block()
    c = I.Const(1.0, scalar(Kind.DBL))
    c.id = 999
    c.block = bb
    box = bb.append(I.Box(Kind.DBL, c))
    bb.instrs.append(c)  # definition after the use, same block
    bb.append(I.Return(box))
    with pytest.raises(VerificationError, match="before its definition"):
        verify(g)


def test_phi_after_non_phi_rejected():
    g = Graph("g")
    b0 = g.new_block()
    b1 = g.new_block()
    c = b0.append(I.Const(1.0, scalar(Kind.DBL)))
    b0.append(I.Jump(b1))
    d = b1.append(I.Const(2.0, scalar(Kind.DBL)))
    phi = I.Phi(scalar(Kind.DBL))
    phi.id = g.next_id()
    phi.block = b1
    b1.instrs.append(phi)  # phi after a const: malformed
    phi.add_input(b0, c)
    b1.append(I.Return(d))
    with pytest.raises(VerificationError, match="phi after non-phi"):
        verify(g)


def test_phi_missing_edge_rejected():
    g = Graph("g")
    b0 = g.new_block()
    b1 = g.new_block()
    b2 = g.new_block()
    cond = b0.append(I.Const(True, scalar(Kind.LGL)))
    cond.unboxed = True
    b0.append(I.Branch(cond, b1, b2))
    v1 = b1.append(I.Const(1.0, scalar(Kind.DBL)))
    b1.append(I.Jump(b2))
    phi = I.Phi(scalar(Kind.DBL))
    b2.insert_front(phi)
    phi.add_input(b1, v1)  # missing the b0 edge
    b2.append(I.Return(phi))
    with pytest.raises(VerificationError, match="missing inputs"):
        verify(g)


def test_use_of_foreign_value_rejected():
    g, bb, c = good_graph()
    alien = I.Const(9.0, scalar(Kind.DBL))
    alien.id = 777
    bb.insert_before(bb.terminator, I.Box(Kind.DBL, alien))
    with pytest.raises(VerificationError, match="not in the graph"):
        verify(g)


def _diamond():
    """b0 branches to b1 and b2, which join in b3; ``v1`` is defined in b1."""
    g = Graph("g")
    b0, b1, b2, b3 = (g.new_block() for _ in range(4))
    cond = b0.append(I.Const(True, scalar(Kind.LGL)))
    cond.unboxed = True
    b0.append(I.Branch(cond, b1, b2))
    v1 = b1.append(I.Const(1.0, scalar(Kind.DBL)))
    b1.append(I.Jump(b3))
    b2.append(I.Jump(b3))
    return g, cond, v1, b3


def test_use_after_a_join_of_a_value_from_one_arm_rejected():
    """In the graph, reached from its definition, not dominated by it."""
    g, _, v1, b3 = _diamond()
    b3.append(I.Return(b3.append(I.Box(Kind.DBL, v1))))
    with pytest.raises(VerificationError, match="definition in BB1 does not dominate"):
        verify(g)


def test_framestate_slot_from_one_arm_rejected():
    from repro.osr.framestate import DeoptReasonKind, FrameStateDescr

    class FakeCode:
        name, code = "f", [None] * 4

    g, cond, v1, b3 = _diamond()
    fs = FrameStateDescr(FakeCode(), 3, [("x", v1)], [])
    b3.append(I.Assume(cond, fs, DeoptReasonKind.TYPECHECK, 3))
    b3.append(I.Return(cond))
    with pytest.raises(VerificationError, match="framestate of .* does not dominate"):
        verify(g)


def test_loop_carried_value_verifies():
    """A phi input need only dominate the end of the edge it flows in on:
    the back edge's value is defined below the phi that reads it."""
    g = Graph("g")
    b0, b1, b2, b3 = (g.new_block() for _ in range(4))
    zero = b0.append(I.Const(0, scalar(Kind.INT)))
    one = b0.append(I.Const(1, scalar(Kind.INT)))
    zero.unboxed = one.unboxed = True
    b0.append(I.Jump(b1))
    phi = I.Phi(scalar(Kind.INT))
    phi.unboxed = True
    b1.insert_front(phi)
    cond = b1.append(I.PrimCompare("<", Kind.INT, phi, one))
    b1.append(I.Branch(cond, b2, b3))
    nxt = b2.append(I.PrimArith("+", Kind.INT, phi, one))
    b2.append(I.Jump(b1))
    phi.add_input(b0, zero)
    phi.add_input(b2, nxt)
    b3.append(I.Return(b3.append(I.Box(Kind.INT, phi))))
    verify(g)
    # ... and an input that is not there at the end of its edge is caught
    phi.inputs[0] = (b0, nxt)
    phi.args[0] = nxt
    with pytest.raises(VerificationError, match="does not dominate"):
        verify(g)


def test_osr_anchor_naming_a_removed_instruction_rejected():
    from repro.ir.cfg import OsrAnchor

    g, bb, c = good_graph()
    gone = bb.insert_before(bb.terminator, I.Box(Kind.DBL, c))
    g.osr_anchors[0] = OsrAnchor(bb, {"x": gone}, [])
    verify(g)
    bb.remove(gone)  # a rewrite that forgot the anchor
    with pytest.raises(VerificationError, match="OSR anchor at pc 0"):
        verify(g)


def test_all_compiled_functions_verify():
    """Every graph the real pipeline produces must verify (builder output,
    optimized output, and continuations)."""
    vm = make_vm(compile_threshold=1)
    vm.eval("""
f <- function(v, n) {
  s <- 0
  for (i in 1:n) {
    if (v[[i]] > 0) s <- s + v[[i]]
    else s <- s - 1
  }
  s
}
""")
    vm.eval("x <- c(1.5, -2.5, 3.5)")
    for _ in range(3):
        vm.eval("f(x, 3L)")
    clo = vm.global_env.get("f")
    g = GraphBuilder(vm, clo.code, clo).build()
    verify(g)
    from repro.opt.pipeline import optimize

    optimize(g, vm.config)
    verify(g)


def test_print_graph_readable():
    vm = make_vm(enable_jit=False)
    vm.eval("f <- function(a, b) a + b")
    vm.eval("f(1.5, 2.5)")
    clo = vm.global_env.get("f")
    g = GraphBuilder(vm, clo.code, clo).build()
    text = print_graph(g)
    assert "BB0" in text
    assert "Param" in text
    assert "Return" in text


def test_bytecode_disassembler_readable():
    from repro.bytecode.compiler import Compiler
    from repro.bytecode.opcodes import disassemble

    co = Compiler.compile_program("x <- 1\nx + 2")
    text = disassemble(co)
    assert "PUSH_CONST" in text and "ST_VAR" in text and "; x" in text


def test_native_disassembler_readable():
    vm = make_vm(compile_threshold=1)
    vm.eval("f <- function(a) a * 2")
    for _ in range(3):
        vm.eval("f(21)")
    from repro.native.ops import disassemble

    text = disassemble(vm.global_env.get("f").jit.version)
    assert "RET" in text
