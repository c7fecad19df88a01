"""The optimization pipeline.

Order: inline → simplify → DSE → DCE → simplify.  Speculative call-target
inlining runs first (it needs the raw guard+StaticCall shape the builder
emits, and the cleanup passes then optimize across the inline boundary);
it only runs when a ``vm`` is supplied, because splicing a callee requires
building its IR from feedback.  DSE is skipped for continuation graphs
unless forced (paper section 4.2 anecdote).  The pipeline is deliberately
small; the heavy lifting (speculation, unboxing, typed ops) happens during
BC→IR translation, mirroring how Ř's early PIR phases do the speculative
rewriting and later phases clean up.
"""

from __future__ import annotations

from ..ir.cfg import Graph
from ..ir.verifier import verify
from .dce import dce
from .dse import dse
from .inline import inline_calls
from .simplify import simplify
from .vectorize import vectorize_loops


def optimize(graph: Graph, config=None, vm=None) -> Graph:
    _verify(graph, vm)
    if vm is not None and config is not None and getattr(config, "inline", False):
        if inline_calls(graph, vm):
            _verify(graph, vm)
    simplify(graph)
    force_dse = bool(config and getattr(config, "unsound_continuation_escape", False))
    dse(graph, force=force_dse)
    dce(graph)
    simplify(graph)
    dce(graph)
    # runs last: the pass only *annotates* (graph.vector_loops); it must see
    # the final cleaned shape the lowerer will consume
    vectorize_loops(graph, config, state=vm.state if vm is not None else None)
    _verify(graph, vm)
    return graph


def _verify(graph: Graph, vm=None) -> None:
    """IR verification, counted: verification happens once per *distinct*
    cache key — a code-cache hit skips this pipeline entirely, and the
    ``ir_verifies`` counter is how tests observe that."""
    if vm is not None:
        vm.state.ir_verifies += 1
    verify(graph)
