"""Obtaining a compiled unit: one description, one build, one install.

Whole functions, entry-context versions, OSR-in continuations and deoptless
continuations are one job — translate a ``CodeObject`` from some pc under
assumed types and feedback — and share one path (DESIGN.md, "Obtaining a
compiled unit"): a :class:`UnitSpec` says *what*; :func:`build` is the
pipeline, which installs nothing, so background and fleet workers may run
it; :func:`install` is the effectful half, session thread only;
:func:`obtain` is cache hit → clone, else build → install.  *When* a unit
is wanted and *where* it then lives is policy and stays with the callers:
``RVM.compile_closure``, ``RVM._compile_context_version``,
``deoptless.engine.deoptless_compile``, ``osr.osr_in.try_osr_in``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..ir.builder import CompilationFailure, GraphBuilder
from ..native import pycodegen
from ..native.lower import NativeCode, lower
from ..opt.pipeline import optimize
from . import codecache

#: kind -> (event of a failed compile, event of a fresh one, the counter it
#: bumps beside compiles/compiled_instrs/lowered_instrs)
_KINDS = {
    "fn": ("compile_failed", "compile", None),
    "ctxfn": ("compile_failed", "ctx_compile", "ctx_compiles"),
    "osr": ("osr_in_failed", None, None),
    "cont": ("deoptless_compile_failed", "deoptless_compile", "deoptless_compiles"),
}


@dataclass(eq=False)
class UnitSpec:
    """Everything the pipeline reads for one unit — upstream Ř's
    ``ContinuationContext``, widened by ``pc = 0`` for whole functions."""

    kind: str  # "fn" | "ctxfn" | "osr" | "cont"
    code: Any
    closure: Any
    pc: int = 0
    var_types: Optional[Dict[str, Any]] = None
    stack_types: Optional[List[Any]] = None
    #: the assumed CallContext of a ctxfn, the DeoptContext of a cont
    ctx: Any = None
    injected: Optional[Dict[int, Any]] = None
    #: the profile to compile from when it is not the live one (a queue
    #: snapshot, a repaired copy)
    feedback: Any = None

    def key(self, config) -> tuple:
        """The code-cache key: per kind exactly ``codecache``'s tuples."""
        if self.kind == "fn":
            return codecache.entry_key(self.closure, config, self.feedback)
        if self.kind == "ctxfn":
            return codecache.context_entry_key(self.closure, self.ctx, config,
                                               self.feedback)
        if self.kind == "osr":
            return codecache.osr_key(self.code, self.closure, self.pc,
                                     self.var_types, config)
        return codecache.continuation_key(self.code, self.ctx, config,
                                          self.feedback)


def build(vm, spec: UnitSpec) -> NativeCode:
    """The pipeline for ``spec``; raises ``CompilationFailure``.

    The two per-kind differences live here: only whole-function units honour
    ``unsound_drop_deopt_exits`` (the section 4.1 experiment measures
    function code size), and an ``osr`` unit with no closure is top-level
    code, whose environment is the shared global one callees observe — it
    is never elided.
    """
    whole = spec.kind in ("fn", "ctxfn")
    builder = GraphBuilder(
        vm, spec.code, spec.closure,
        entry_pc=spec.pc,
        entry_var_types=spec.var_types,
        entry_stack_types=spec.stack_types,
        is_continuation=not whole,
        injected_types=spec.injected,
        feedback_override=spec.feedback,
        entry_ctx=spec.ctx if spec.kind == "ctxfn" else None,
    )
    if spec.kind == "osr" and spec.closure is None:
        builder.env_mode = True
        builder.graph.env_elided = False
    graph = builder.build()
    optimize(graph, vm.config, vm=vm)
    return lower(graph, drop_deopt_exits=whole and vm.config.unsound_drop_deopt_exits)


def _tag(ncode: NativeCode, spec: UnitSpec) -> NativeCode:
    """Per-install identity of a built or cloned unit."""
    ncode.closure = spec.closure
    if spec.kind == "ctxfn":
        ncode.is_context_version = True
        ncode.call_context = spec.ctx
    elif spec.kind == "cont":
        ncode.is_deoptless_continuation = True
        ncode.deoptless_ctx = spec.ctx
    return ncode


def failed(vm, spec: UnitSpec, error: Exception) -> None:
    """A build raised: counted and reported once, and the kind's stop flag
    set so the request is not retried — ``cant_compile`` on the closure, the
    context's deopt budget for a version, ``osr_disabled`` on the code.  A
    continuation has none: the deopt that wanted it tiers down."""
    if spec.kind == "fn":
        vm.jit_state(spec.closure).cant_compile = True
    elif spec.kind == "ctxfn":
        vm._ctx_stop(vm.jit_state(spec.closure), spec.ctx)
    elif spec.kind == "osr":
        spec.code.osr_disabled = True
    vm.state.compile_failures += 1
    vm.state.emit(_KINDS[spec.kind][0], spec.code.name, error=str(error))


def install(vm, spec: UnitSpec, ncode: NativeCode, key=None) -> Optional[NativeCode]:
    """Account for a freshly built unit and publish it (session thread):
    the one compile counter group, cache insert (under ``key`` when the
    caller's probe already computed it), codegen prep, event."""
    if spec.kind == "ctxfn" and not ncode.env_elided:
        # an env-mode unit takes the [env] calling convention — useless as
        # an entry-dispatched version.  Dropped uncounted, as before the
        # paths were folded (a build that raises is counted).
        vm._ctx_stop(vm.jit_state(spec.closure), spec.ctx)
        return None
    _tag(ncode, spec)
    state = vm.state
    _, event, extra = _KINDS[spec.kind]
    state.compiles += 1
    state.compiled_instrs += ncode.size
    state.lowered_instrs += ncode.size
    if extra is not None:
        setattr(state, extra, getattr(state, extra) + 1)
    if vm.code_cache is not None:
        vm.code_cache.insert(key or spec.key(vm.config), ncode, vm, spec.code)
    if vm.config.threaded_dispatch:
        # emit the unit's Python source now (idempotent; the cache insert
        # may already have); binding stays lazy, clones share it
        pycodegen.ensure_source(ncode, state)
    if event is not None:
        state.emit(event, spec.code.name, pc=spec.pc, size=ncode.size,
                   env_elided=ncode.env_elided)
    return ncode


def obtain(vm, spec: UnitSpec, probe_only: bool = False) -> Optional[NativeCode]:
    """An installable unit for ``spec``: a clone of the cached template when
    the key was compiled before (here, by another tenant, or on disk), else
    a fresh build.  ``probe_only`` stops after the cache (fleet-coalesced
    installs must never run the pipeline on the session thread).  None when
    the compile failed or produced nothing usable."""
    cache, key = vm.code_cache, None
    if cache is not None:
        key = spec.key(vm.config)
        template = cache.lookup(key, vm, spec.code)
        if template is not None:
            ncode = _tag(template.clone_for_install(), spec)
            if cache.last_hit_shared:
                # another tenant compiled this unit: rebound in O(lookup),
                # accounted as the compile it replaces
                vm._account_shared_rebind(ncode, spec.kind == "cont")
            vm.state.emit("codecache_hit", spec.code.name, unit=spec.kind,
                          pc=spec.pc, size=ncode.size)
            return ncode
    if probe_only:
        return None
    try:
        ncode = build(vm, spec)
    except CompilationFailure as e:
        failed(vm, spec, e)
        return None
    return install(vm, spec, ncode, key)


# ---------------------------------------------------------------------------
# frame hand-over: entering a unit mid-activation
# ---------------------------------------------------------------------------

def frame_values(fs) -> Optional[Dict[str, Any]]:
    """Locals of a ``FrameState`` — the one view every hand-over reads
    (OSR hops, continuation calls, continuation tier-up)."""
    if fs.env_values is not None:
        return fs.env_values
    if fs.env is not None:
        return fs.env.bindings
    return None


def continuation_args(ncode: NativeCode, fs) -> List[Any]:
    """The argument buffer of an ``osr``/``cont`` unit — the paper's calling
    convention: register-promoted code takes its locals in
    ``cont_var_names`` order and the environment is *not* materialized;
    env-mode code takes the live or re-materialized environment.  The
    operand stack follows either way."""
    if ncode.env_elided:
        values = frame_values(fs)
        return [values.get(n) for n in ncode.cont_var_names] + list(fs.stack)
    return [fs.materialize_env()] + list(fs.stack)
