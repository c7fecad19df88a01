"""Dead code elimination.

An instruction is live when it is effectful, a terminator, or (transitively)
used by a live instruction — **including uses from FrameStates**: a value
that only the deoptimizer needs must survive, which is exactly the "amass
enough meta-data for the state mapping" obligation the paper describes in
section 2.
"""

from __future__ import annotations

from typing import Set

from ..ir import instructions as I
from ..ir.cfg import Graph


def dce(graph: Graph) -> int:
    live: Set[int] = set()
    work = []
    for bb in graph.rpo():
        for ins in bb.instrs:
            if ins.effectful or isinstance(ins, (I.Branch, I.Jump, I.Return)):
                if id(ins) not in live:
                    live.add(id(ins))
                    work.append(ins)
    while work:
        ins = work.pop()
        for a in ins.args:
            if id(a) not in live:
                live.add(id(a))
                work.append(a)
        fs = getattr(ins, "framestate", None)
        if fs is not None:
            for v in fs.iter_values():
                if id(v) not in live:
                    live.add(id(v))
                    work.append(v)
    removed = 0
    for bb in graph.rpo():
        for ins in list(bb.instrs):
            if id(ins) not in live:
                bb.remove(ins)
                removed += 1
    # an OSR anchor is no root; where a header value died, a frame entered
    # at that pc and deopted out again would lose a binding: no entry there
    for pc, anchor in list(graph.osr_anchors.items()):
        if anchor.dead_value() is not None:
            del graph.osr_anchors[pc]
    return removed
