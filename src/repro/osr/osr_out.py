"""OSR-out: resuming in the interpreter after a deoptimization.

This is the paper's Listing 4: materialize the interpreter state described
by the FrameState (environment bindings and operand stack), then run the
bytecode interpreter from the recorded pc.  The result is returned to the
deoptimized native code's caller (the native guard *tail-called* us).

FrameStates chain (``parent``) to describe inlined frames.  The deopt
delivers the innermost (callee) frame: it is resumed first, at the faulting
pc, and runs to its return.  Each enclosing caller frame is then re-entered
at its recorded *post-call* pc with the callee's return value pushed onto
its operand stack — exactly the state the interpreter would be in had the
call never been inlined.  This matches Listing 4's recursion with the
roles made explicit: inner frames complete before outer frames resume.
"""

from __future__ import annotations

from typing import Any

from ..bytecode import interpreter
from .framestate import FrameState


def resume_in_interpreter(vm, fs: FrameState) -> Any:
    """Continue execution of a deoptimized activation in the interpreter.

    The owning closure is threaded through so the resumed frame keeps its
    OSR-in eligibility: with a backedge counter armed by the dispatched-OSR
    path (``osr_hop``), the very next backedge can hop back into compiled
    code instead of interpreting out the loop.
    """
    return unwind_parents(vm, fs, interpreter.run(
        fs.code, fs.materialize_env(), vm, list(fs.stack), fs.pc, fs.fun))


def unwind_parents(vm, fs: FrameState, result: Any) -> Any:
    """Resume the frames enclosing ``fs`` once it returned ``result`` — from
    the interpreter above, or from a deoptless continuation."""
    parent = fs.parent
    while parent is not None:
        result = interpreter.run(parent.code, parent.materialize_env(), vm,
                                 list(parent.stack) + [result], parent.pc, parent.fun)
        parent = parent.parent
    return result
