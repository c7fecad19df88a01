"""OSR-in: tiering up out of a hot interpreter loop (paper Listing 5).

When the interpreter counts enough backedges it calls :func:`try_osr_in`.
We compile a *continuation*: the same bytecode translated from the current
pc (the loop head) to the end of the function, with the interpreter's
variables passed in as arguments.  By construction of our loop lowering the
operand stack is empty at backedge targets, so only the environment needs
to be transferred.

Per the paper, the continuation is used once and not kept installed: on the
next call of the function, the whole function is compiled from the beginning
("for the price of compiling these functions twice").  The code cache keeps
the *lowered unit* though, keyed like any continuation on its
``ContinuationContext`` (loop pc, live variable types) and the feedback
signature: re-entering the same loop shape — another closure of the same
source, or a restarted VM — skips the second compile.  It is a deoptless
continuation with no refuted fact.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..deoptless import context  # its module body imports this package
from ..jit import unit
from ..native.executor import execute
from . import osr_hop
from .framestate import FrameState


def try_osr_in(vm, code, env, pc: int, closure=None) -> Tuple[bool, Any]:
    """Attempt OSR-in at a loop head. Returns (entered, result)."""
    code.backedge_count = 0  # re-arm the counter whatever happens
    # the interpreter's frame, in the shape every frame hand-over reads
    fs = FrameState(code, pc, None, [],
                    closure.env if closure is not None else env.parent,
                    env=env, fun=closure)

    # Dispatched OSR first: when the closure already has installed versions
    # carrying an OSR entry at this header, hop straight in — O(lookup), no
    # compile.  The hop distills the live frame's call context and consults
    # seen_contexts before selecting, so a version whose entry assumptions
    # the running frame has violated is never picked.
    if vm.config.osr_hop and closure is not None and closure.jit is not None:
        result = osr_hop.try_hop_in(vm, fs)
        if result is not osr_hop.NO_HOP:
            return (True, result)

    ncode = unit.obtain(vm, unit.UnitSpec(code, closure, ctx=context.continuation_context(fs)))
    if ncode is None:
        code.osr_disabled = True  # the build failed: not attempted again
        return (False, None)
    vm.state.osr_ins += 1
    vm.state.code_size += ncode.size
    vm.state.emit("osr_in", code.name, pc=pc, size=ncode.size,
                  env_elided=ncode.env_elided)
    result = execute(ncode, unit.continuation_args(ncode, fs), vm,
                     closure_env=fs.closure_env)
    # single-use continuation: release the code (paper section 4.2)
    vm.state.code_size -= ncode.size
    return (True, result)
