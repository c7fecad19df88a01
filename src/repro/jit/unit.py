"""Obtaining a compiled unit: one description, one build, one install.

A unit is a whole function or a continuation: a ``CodeObject`` translated
from pc 0, or from the pc of a ``ContinuationContext``, under assumed types
and feedback.  Both take one path (DESIGN.md, "Obtaining a compiled unit"):
a :class:`UnitSpec` says *what*; :func:`build` is the pipeline, which
installs nothing, so fleet workers may run it; :func:`install` is the
effectful half, session thread only; :func:`obtain` is cache hit → clone,
else build → install.  *When* a unit is wanted, *where* it then lives and
what a failed build stops is policy and stays with the callers:
``RVM.compile_closure``, ``RVM._compile_context_version``,
``deoptless.engine.deoptless_compile``, ``osr.osr_in.try_osr_in``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..deoptless.context import CallContext, ContinuationContext, DeoptContext
from ..ir.builder import CompilationFailure, GraphBuilder
from ..native import pycodegen
from ..native.lower import NativeCode, lower
from ..opt.pipeline import optimize
from . import codecache


@dataclass(eq=False)
class UnitSpec:
    """Everything the pipeline reads for one unit.  ``ctx`` says which kind
    it is: None (the generic version) or an assumed ``CallContext`` (an
    entry version) make a whole function; a ``ContinuationContext`` — a
    ``DeoptContext`` for a deoptless continuation — a unit entered at its
    pc with its types."""

    code: Any
    closure: Any
    ctx: Any = None
    #: pc -> the type deoptless feedback repair observed there
    injected: Optional[Dict[int, Any]] = None
    #: the profile to compile from when it is not the live one (a queue
    #: snapshot, a repaired copy)
    feedback: Any = None

    @property
    def kind(self) -> str:
        return "cont" if isinstance(self.ctx, ContinuationContext) else "fn"

    def key(self, config) -> tuple:
        """The code-cache key: ``codecache``'s constructor for the kind."""
        if isinstance(self.ctx, ContinuationContext):
            return codecache.continuation_key(self.code, self.closure, self.ctx,
                                              config, self.feedback)
        return codecache.function_key(self.closure, self.ctx, config, self.feedback)


def build(vm, spec: UnitSpec) -> NativeCode:
    """The pipeline for ``spec``; raises ``CompilationFailure``.

    A continuation is translated from its context's pc under its types; one
    with no closure is top-level code, whose environment is the shared
    global one callees observe — it is never elided.  Only a whole function
    honours ``unsound_drop_deopt_exits`` (the section 4.1 experiment
    measures function code size).
    """
    ctx = spec.ctx
    cont = isinstance(ctx, ContinuationContext)
    builder = GraphBuilder(
        vm, spec.code, spec.closure,
        entry_pc=ctx.pc if cont else 0,
        entry_var_types=dict(ctx.env_types) if cont else None,
        entry_stack_types=list(ctx.stack_types) if cont else None,
        is_continuation=cont,
        injected_types=spec.injected,
        feedback_override=spec.feedback,
        entry_ctx=None if cont else ctx,
    )
    if cont and spec.closure is None:
        builder.env_mode = True
        builder.graph.env_elided = False
    graph = builder.build()
    optimize(graph, vm.config, vm=vm)
    return lower(graph, drop_deopt_exits=not cont and vm.config.unsound_drop_deopt_exits)


def failed(vm, spec: UnitSpec, error: Exception) -> None:
    """A build raised: counted and reported once.  What it stops is the
    caller's: the closure, the context's version, the code's OSR-in."""
    vm.state.compile_failures += 1
    vm.state.emit("compile_failed", spec.code.name, unit=spec.kind, error=str(error))


def install(vm, spec: UnitSpec, ncode: NativeCode, key=None) -> Optional[NativeCode]:
    """Account for a freshly built unit and publish it (session thread):
    the compile counters, cache insert (under ``key`` when the caller's
    probe already computed it), codegen prep, event.

    None for an entry version that lowered env-mode: it takes the ``[env]``
    calling convention, useless behind entry dispatch, and is dropped
    uncounted (a build that raises is counted); its caller stops asking."""
    ctx = spec.ctx
    if isinstance(ctx, CallContext) and not ncode.env_elided:
        return None
    ncode.closure, ncode.ctx = spec.closure, ctx
    state = vm.state
    state.compiles += 1
    state.compiled_instrs += ncode.size
    if isinstance(ctx, DeoptContext):
        state.deoptless_compiles += 1
    elif isinstance(ctx, CallContext):
        state.ctx_compiles += 1
    if vm.code_cache is not None:
        vm.code_cache.insert(key or spec.key(vm.config), ncode, vm, spec.code)
    if vm.config.threaded_dispatch:
        # emit the unit's Python source now (idempotent; the cache insert
        # may already have); binding stays lazy, clones share it
        pycodegen.ensure_source(ncode, state)
    state.emit("compile", spec.code.name, unit=spec.kind, ctx=ctx,
               size=ncode.size, env_elided=ncode.env_elided)
    return ncode


def obtain(vm, spec: UnitSpec, probe_only: bool = False) -> Optional[NativeCode]:
    """An installable unit for ``spec``: a clone of the cached template when
    the key was compiled before (here, by another tenant, or on disk), else
    a fresh build.  ``probe_only`` stops after the cache (fleet-coalesced
    installs must never run the pipeline on the session thread).  None when
    the probe missed, the compile failed or produced nothing usable."""
    cache, key = vm.code_cache, None
    if cache is not None:
        key = spec.key(vm.config)
        template = cache.lookup(key, vm, spec.code)
        if template is not None:
            ncode = template.clone_for_install()
            ncode.closure, ncode.ctx = spec.closure, spec.ctx
            vm.state.emit("codecache_hit", spec.code.name, unit=spec.kind,
                          ctx=spec.ctx, size=ncode.size)
            return ncode
    if probe_only:
        return None
    try:
        ncode = build(vm, spec)
    except CompilationFailure as e:
        failed(vm, spec, e)
        return None
    return install(vm, spec, ncode, key)


def continuation_args(ncode: NativeCode, fs) -> List[Any]:
    """The argument buffer of a continuation entered at ``fs`` — the
    paper's calling convention: register-promoted code takes its locals in
    ``cont_var_names`` order and the environment is *not* materialized;
    env-mode code takes the live or re-materialized environment.  The
    operand stack follows either way."""
    if ncode.env_elided:
        values = fs.bindings()
        return [values.get(n) for n in ncode.cont_var_names] + list(fs.stack)
    return [fs.materialize_env()] + list(fs.stack)
