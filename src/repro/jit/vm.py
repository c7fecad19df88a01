"""The virtual machine: tiering, compilation policy, deoptimization.

``RVM`` owns the global environment, the telemetry, and the policy glue:

* **baseline**: every closure starts in the profiling bytecode interpreter;
* **tier-up**: after ``compile_threshold`` calls a closure is compiled by
  the optimizing pipeline and subsequent calls run native; hot interpreter
  loops additionally tier up mid-function through OSR-in;
* **deopt** (``RVM.deopt``): a failed guard is counted, then
  :meth:`RVM.recover` decides where control goes: a deoptless continuation
  (paper Listing 6), else — once :meth:`RVM.refute` has retired what the
  failure refuted — a hop into a surviving version, else the interpreter
  (Listing 4), which re-profiles so that a recompile is more generic.  That
  retire-reprofile-regeneralize loop is what deoptless avoids.

Both tiers run their fast engine by default (``bytecode/interpreter.py``
fast loop + per-unit generated functions, ``native/pycodegen.py``); setting
``RERPO_REF_EXEC=1`` selects the reference loops, which are kept bit-for-bit
equivalent in results and telemetry (see DESIGN.md, "Dispatch
architecture").
"""

from __future__ import annotations

import random
import sys
from typing import Any, List, NamedTuple, Optional, Tuple

from ..bytecode import interpreter
from ..bytecode.compiler import CodeObject, Compiler
from ..deoptless import engine as deoptless_engine
from ..deoptless.context import CallContext, DeoptContext, distill_call_context
from ..deoptless.dispatch import ContextTable
from ..native.executor import execute, execute_at
from ..native.lower import NativeCode
from ..osr import osr_hop, osr_in, osr_out
from ..osr.framestate import DeoptReason, DeoptReasonKind, FrameState
from ..runtime.builtins import install_builtins
from ..runtime.env import REnvironment
from ..runtime.values import NULL, RClosure, RVector
from . import unit
from .codecache import CodeCache
from .compile_queue import CompileQueue
from .config import Config, CostModel
from .telemetry import Telemetry
from .unit import UnitSpec


#: distinct entry contexts a closure must exhibit before versions are
#: compiled (1 would specialize monomorphic entries, pure overhead)
MIN_CONTEXTS = 2
#: deopts attributed to one context before it stops being respecialized
MAX_CONTEXT_DEOPTS = 2


class Recovery(NamedTuple):
    """Where a deopt sends control (``continuation``, ``hop`` or
    ``interpreter``), what it enters there (the continuation, or the hop's
    ``execute_at`` arguments), and each option passed over with why."""

    kind: str
    unit: Any
    refused: Tuple[Tuple[str, str], ...]


class ClosureJitState:
    """Per-closure compilation state (hangs off ``RClosure.jit``)."""

    __slots__ = (
        "call_count", "version", "deoptless_table", "deopt_count",
        "cant_compile", "default_consts", "versions", "seen_contexts",
        "ctx_fail_counts", "cont_hits",
    )

    def __init__(self, config: Config):
        self.call_count = 0
        self.version: Optional[NativeCode] = None
        self.deoptless_table = ContextTable(config.deoptless_max_continuations)
        self.deopt_count = 0
        self.cant_compile = False
        #: positional default values when all defaults are constants
        self.default_consts: Optional[List[Any]] = None
        #: entry-specialized compiled versions keyed by CallContext; the
        #: generic ``version`` above is the dispatch fall-through and is
        #: deliberately not a table entry (lazily allocated — most closures
        #: are monomorphic and never pay for a table)
        self.versions: Optional[ContextTable] = None
        #: distinct distilled contexts observed at tiered-up entries; a
        #: closure is specialized only once this shows real polymorphism
        self.seen_contexts: Optional[List[Any]] = None
        #: CallContext -> deopt count inside that version; a context that
        #: keeps mis-speculating stops being recompiled
        self.ctx_fail_counts: Optional[dict] = None
        #: DeoptContext -> dispatch count for installed deoptless
        #: continuations; the hotness seed for continuation tier-up
        self.cont_hits: Optional[dict] = None


class RVM:
    """A mini-R virtual machine with a speculative optimizing JIT."""

    def __init__(self, config: Optional[Config] = None):
        self.config = config or Config()
        self.state = Telemetry()
        self.cost_model = CostModel()
        self.chaos_rng = random.Random(self.config.chaos_seed)
        self.base_env = REnvironment()
        install_builtins(self.base_env)
        self.global_env = REnvironment(parent=self.base_env)
        self.output: List[str] = []
        #: context-keyed cache of lowered compilation units (None: disabled)
        self.code_cache: Optional[CodeCache] = (
            CodeCache(self.config) if self.config.codecache else None
        )
        #: tier-up requests: compiled inline unless a fleet queue is attached
        self.compile_queue = CompileQueue(self)
        #: hot flag set by a fleet worker when built code awaits install
        self.queue_ready = False
        # hot flags read by the interpreter's dispatch loop
        self.state.osr_in_enabled = self.config.enable_jit and self.config.enable_osr_in
        self.state.osr_threshold = self.config.osr_threshold
        if sys.getrecursionlimit() < 20000:
            sys.setrecursionlimit(20000)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def eval(self, source: str, name: str = "<program>") -> Any:
        """Parse, compile and run a mini-R program in the global env."""
        code = Compiler.compile_program(source, name)
        return interpreter.run(code, self.global_env, self)

    def call(self, fn_name: str, *args: Any) -> Any:
        """Call a global function with already-constructed runtime values."""
        fn = self.global_env.get_function(fn_name)
        return interpreter.call_function(fn, list(args), None, self)

    def get_global(self, name: str) -> Any:
        return self.global_env.get(name)

    def set_global(self, name: str, value: Any) -> None:
        self.global_env.set(name, value)

    def write_output(self, s: str) -> None:
        self.output.append(s)

    def cycles(self) -> float:
        """Deterministic simulated-cycle reading (see CostModel)."""
        return self.cost_model.cycles(self.state)

    # ------------------------------------------------------------------
    # tiering: calls
    # ------------------------------------------------------------------

    def jit_state(self, closure: RClosure) -> ClosureJitState:
        st = closure.jit
        if st is None:
            st = closure.jit = ClosureJitState(self.config)
        return st

    def call_closure(self, closure: RClosure, args: List[Any], names) -> Any:
        st = self.jit_state(closure)
        st.call_count += 1

        if self.queue_ready:
            self.compile_queue.install_ready()
        ncode = st.version
        if (
            ncode is None
            and self.config.enable_jit
            and not st.cant_compile
            and st.call_count > self.config.compile_threshold
            and st.deopt_count < self.config.max_deopts_per_function
        ):
            ncode = self.maybe_tier_up(closure, st)

        if ncode is not None:
            if ncode.env_elided:
                pos = self._match_native(closure, st, args, names)
                if pos is not None:
                    if self.config.ctxdispatch:
                        ver = self._dispatch_context_version(closure, st, pos)
                        if ver is not None:
                            return execute(ver, pos, self, closure_env=closure.env)
                    return execute(ncode, pos, self, closure_env=closure.env)
            else:
                env = interpreter.match_arguments(closure, args, names, self)
                return execute(ncode, [env], self, closure_env=closure.env)
        elif (
            self.config.ctxdispatch
            and st.versions is not None
            and len(st.versions)
        ):
            # the generic version was retired (or is still re-warming) but
            # entry-specialized siblings survive: calls matching an installed
            # context keep running native — a deopt in one version must not
            # push the others back to the interpreter
            pos = self._match_native(closure, st, args, names)
            if pos is not None:
                ver = self._dispatch_context_version(closure, st, pos, compile_ok=False)
                if ver is not None:
                    return execute(ver, pos, self, closure_env=closure.env)

        env = interpreter.match_arguments(closure, args, names, self)
        return interpreter.run(closure.code, env, self, closure=closure)

    def _match_native(self, closure: RClosure, st: ClosureJitState, args, names):
        """Positional argument vector for the register calling convention,
        or None when this call shape needs the interpreter path."""
        formals = closure.formals
        if names is None and len(args) == len(formals):
            slots: List[Any] = list(args)
        else:
            if st.default_consts is None:
                st.default_consts = _default_consts(closure)
            if st.default_consts is _NO_CONSTS:
                return None
            formal_names = [f[0] for f in formals]
            slots = [_MISSING] * len(formals)
            used = [False] * len(args)
            if names is not None:
                for i, nm in enumerate(names):
                    if nm is None:
                        continue
                    if nm not in formal_names:
                        return None
                    j = formal_names.index(nm)
                    slots[j] = args[i]
                    used[i] = True
            pos = 0
            for i, a in enumerate(args):
                if names is not None and used[i]:
                    continue
                while pos < len(formals) and slots[pos] is not _MISSING:
                    pos += 1
                if pos >= len(formals):
                    return None
                slots[pos] = a
                pos += 1
            for j, v in enumerate(slots):
                if v is _MISSING:
                    d = st.default_consts[j]
                    if d is _MISSING:
                        return None
                    slots[j] = d
        for v in slots:
            if isinstance(v, RVector):
                v.named = 2
        return slots

    # ------------------------------------------------------------------
    # entry contextual dispatch (per-call-context compiled versions)
    # ------------------------------------------------------------------

    def _dispatch_context_version(self, closure: RClosure, st: ClosureJitState,
                                  pos: List[Any], compile_ok: bool = True
                                  ) -> Optional[NativeCode]:
        """Resolve an entry-specialized version for this call's distilled
        context (most-specific-first table scan), possibly compiling a new
        one when the entry has proven polymorphic.  None means: run the
        generic fall-through."""
        cfg = self.config
        if len(pos) != len(closure.formals):
            return None
        ctx = distill_call_context(pos)
        if ctx is None:
            return None
        vt = st.versions
        if vt is not None:
            ver = vt.dispatch(ctx)
            if ver is not None:
                self.state.ctx_dispatches += 1
                return ver
        if not compile_ok:
            return None
        # collect distinct contexts; specialize only genuinely polymorphic
        # entries (a monomorphic closure's generic version is already ideal)
        seen = st.seen_contexts
        if seen is None:
            seen = st.seen_contexts = []
        if ctx not in seen:
            if len(seen) >= 8:
                return None
            seen.append(ctx)
        if len(seen) < MIN_CONTEXTS:
            return None
        if st.cant_compile or st.deopt_count >= cfg.max_deopts_per_function:
            return None
        fails = st.ctx_fail_counts
        if fails is not None and fails.get(ctx, 0) >= MAX_CONTEXT_DEOPTS:
            return None
        if not self.admits(st):
            return None
        return self._compile_context_version(closure, ctx)

    # ------------------------------------------------------------------
    # compilation: policy over jit/unit.py
    # ------------------------------------------------------------------

    def _compile_context_version(self, closure: RClosure, ctx,
                                 feedback_override=None) -> Optional[NativeCode]:
        """Policy: the version assuming ``ctx`` at entry lives in the
        closure's version table.  ``feedback_override`` is the profile the
        build consumes instead of the live one (continuation tier-up passes
        the *repaired* feedback)."""
        return self.tier_up(UnitSpec(closure.code, closure, ctx=ctx,
                                     feedback=feedback_override))

    def compile_closure(self, closure: RClosure, feedback_override=None) -> Optional[NativeCode]:
        """Policy: synchronous tier-up, the generic version lives in the
        closure's entry slot."""
        return self.tier_up(UnitSpec(closure.code, closure, feedback=feedback_override))

    def maybe_tier_up(self, closure: RClosure, st: ClosureJitState) -> Optional[NativeCode]:
        """Tier-up policy point: compile inline, or — with a fleet queue
        attached — install a cached unit or queue a request."""
        if self.compile_queue.fleet is None:
            return self.compile_closure(closure)
        spec = UnitSpec(closure.code, closure)
        return self.tier_up(spec, probe_only=True) or self.compile_queue.request(spec)

    def tier_up(self, spec: UnitSpec, probe_only: bool = False) -> Optional[NativeCode]:
        """Obtain a whole-function unit (DESIGN.md, "Obtaining a compiled
        unit") and put it where calls find it; a build that gave nothing
        stops its unit being asked for again (:meth:`stop`)."""
        ncode = unit.obtain(self, spec, probe_only)
        if ncode is not None:
            self.place(spec, ncode)
        elif not probe_only:
            self.stop(spec)
        return ncode

    def admits(self, st: ClosureJitState) -> bool:
        """The full-table rule for entry versions: refuse, as the paper and
        upstream do, and count it.  Asked before an entry version is
        compiled, queued or installed, so a saturated table costs nothing."""
        if st.versions is not None and st.versions.full:
            self.state.dispatch_refusals += 1
            return False
        return True

    def place(self, spec: UnitSpec, ncode: NativeCode) -> None:
        """The two install paths: the generic version takes the closure's
        entry slot, an entry version its version table (which
        :meth:`admits` found room in).  The unit's guard sites are stamped
        with their deopt counts now, so a hop can tell a refuted version."""
        sites = dict.fromkeys((d.code, d.reason_pc) for d in ncode.deopts)
        ncode.guard_sites = tuple((c, pc, c.deopt_sites.get(pc, 0)) for c, pc in sites)
        st = self.jit_state(spec.closure)
        if spec.ctx is None:
            st.version = ncode
        else:
            if st.versions is None:
                st.versions = ContextTable(self.config.dispatch_versions)
            st.versions.insert(spec.ctx, ncode)
        self.state.code_size += ncode.size

    def stop(self, spec: UnitSpec) -> None:
        """A whole-function build failed or gave nothing usable: the generic
        version stops for good (``cant_compile``), an entry version only for
        its context, without poisoning the generic compilation."""
        st = self.jit_state(spec.closure)
        if spec.ctx is None:
            st.cant_compile = True
        else:
            if st.ctx_fail_counts is None:
                st.ctx_fail_counts = {}
            st.ctx_fail_counts[spec.ctx] = MAX_CONTEXT_DEOPTS

    def save_code_cache(self) -> int:
        """Flush stable cache entries to the warm-start artifact directory
        (``Config.codecache_dir``); returns buckets written."""
        cache = self.code_cache
        return cache.disk.flush() if cache is not None and cache.disk is not None else 0

    # ------------------------------------------------------------------
    # OSR
    # ------------------------------------------------------------------

    def try_osr_in(self, code: CodeObject, env: REnvironment, pc: int, closure=None):
        if not (self.config.enable_jit and self.config.enable_osr_in):
            return (False, None)
        return osr_in.try_osr_in(self, code, env, pc, closure)

    def deopt(self, fs: FrameState, reason: DeoptReason, origin: Optional[NativeCode] = None) -> Any:
        """Handle a failed guard: count it, decide where control goes
        (:meth:`recover`), say so on its ``deopt`` event, and go there."""
        self.state.deopts += 1
        event = self.state.emit(
            "deopt", fs.code.name, pc=fs.pc, reason=reason.kind.value,
            observed=repr(reason.observed),
            from_continuation=isinstance(getattr(origin, "ctx", None), DeoptContext),
        )
        if reason.kind != DeoptReasonKind.CHAOS:
            fs.code.deopt_sites[reason.pc] = fs.code.deopt_sites.get(reason.pc, 0) + 1
            fs.code.deopt_count += 1
        rec = self.recover(fs, reason, origin)
        event.details.update(recovery=rec.kind, refused=rec.refused)
        if rec.kind == "continuation":
            return deoptless_engine.call_continuation(self, rec.unit, fs, reason)
        if rec.kind == "hop":
            return execute_at(*rec.unit)
        return osr_out.resume_in_interpreter(self, fs)

    def recover(self, fs: FrameState, reason: DeoptReason,
                origin: Optional[NativeCode]) -> Recovery:
        """Where a deopt sends control (DESIGN.md, "The deopt tail: refute,
        then recover"): a deoptless continuation (paper Listing 6); else,
        once :meth:`refute` has retired what the failure refuted, a hop into
        a surviving version; else the interpreter (Listing 4).  Decides, and
        may compile a continuation, but runs nothing."""
        st = fs.fun.jit if fs.fun is not None else None
        # no recursive deoptless (paper section 4.3); a deopt in inlined code
        # may recover: the continuation runs the innermost frame only
        why = ("off" if not self.config.enable_deoptless
               else "from-continuation" if isinstance(getattr(origin, "ctx", None), DeoptContext)
               else "no-table" if st is None else None)
        refused = [("continuation", why)] if why else []
        if why is None:
            cont = deoptless_engine.try_deoptless(self, fs, reason, refused)
            if cont is not deoptless_engine.MISS:
                return Recovery("continuation", cont, ())
        self.refute(fs, reason, origin)
        why = ("off" if not self.config.osr_hop
               else "inlined-frame" if fs.parent is not None
               else "no-table" if st is None else None)
        if why is None:
            hop = osr_hop.try_hop_out(self, fs, origin)
            if hop is not osr_hop.NO_HOP:
                return Recovery("hop", hop, tuple(refused))
            why = "no-version"
            if not fs.code.osr_disabled:
                # the interpreter re-attempts OSR-in (asking the version
                # tables again) on its next backedge, not osr_threshold on
                fs.code.backedge_count = self.config.osr_threshold
        return Recovery("interpreter", None, (*refused, ("hop", why)))

    def refute(self, fs: FrameState, reason: DeoptReason,
               origin: Optional[NativeCode]) -> Tuple[List[NativeCode], int]:
        """Deoptimize (paper Figure 1): retire the units the failure refuted
        and drop the cache entries its widened profile makes dead; returns
        both.  The unit abandoned is the root frame's, the caller an
        inlinee was spliced into.  A chaos deopt refutes no profile."""
        real = reason.kind != DeoptReasonKind.CHAOS
        root = fs
        while root.parent is not None:
            root = root.parent
        fun, ctx, dropped = root.fun, getattr(origin, "ctx", None), 0
        # an entry version refutes only itself: its siblings and the generic
        # version never assumed its context
        narrow = isinstance(ctx, CallContext)
        target = fun.code if fun is not None else fs.code
        if self.code_cache is not None and real:
            inv = self.code_cache.invalidate_code
            dropped = (self.code_cache.invalidate_context(target, ctx, self)
                       if narrow else inv(fs.code, self))
            if target is not fs.code:  # inlined: the other of the two codes
                dropped += inv(fs.code if narrow else target, self)
        st = fun.jit if fun is not None else None
        if st is None:
            return [], dropped
        cont = isinstance(ctx, DeoptContext)
        retired = [origin] if cont or (narrow and not origin.invalidated) else []
        if narrow:
            if real:  # a context that keeps failing stops being compiled
                fails = st.ctx_fail_counts = st.ctx_fail_counts or {}
                fails[ctx] = fails.get(ctx, 0) + 1
        elif real or not cont:
            # the generic version goes ("deoptimized for good" after a
            # continuation's real failure) and re-warms on a fresh profile
            if st.version is not None:
                retired.append(st.version)
            st.deopt_count += 1
            st.call_count = 0
        for code in retired:
            self.retire(st, code)
        return retired, dropped

    def retire(self, st: ClosureJitState, code: NativeCode) -> None:
        """Take ``code`` out of the place its context says it lives: the
        continuation table (a ``DeoptContext``), the version table (a
        ``CallContext``) or the generic slot.  A whole-function unit is
        marked ``invalidated`` and counted; a continuation is only dropped."""
        if isinstance(code.ctx, DeoptContext):
            st.deoptless_table.remove(code)
        else:
            if code.ctx is None:
                st.version = None
            elif st.versions is not None:
                st.versions.remove(code)
            code.invalidated = True
            self.state.invalidations += 1
        self.state.code_size -= code.size


_MISSING = object()
_NO_CONSTS = object()


def _default_consts(closure: RClosure):
    """Positional default values when every default is a constant thunk."""
    from ..bytecode import opcodes as O
    from ..ir.builder import _const_default

    out = []
    for _, default in closure.formals:
        if default is None:
            out.append(_MISSING)
        elif _const_default(default):
            ins = default.code[0]
            out.append(NULL if ins[0] == O.PUSH_NULL else default.consts[ins[1]])
        else:
            return _NO_CONSTS
    return out
