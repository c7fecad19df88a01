"""The virtual machine: tiering, compilation policy, deoptimization.

``RVM`` owns the global environment, the telemetry, and the policy glue:

* **baseline**: every closure starts in the profiling bytecode interpreter;
* **tier-up**: after ``compile_threshold`` calls a closure is compiled by
  the optimizing pipeline and subsequent calls run native; hot interpreter
  loops additionally tier up mid-function through OSR-in;
* **deopt** (``RVM.deopt``): guard failures arrive here.  With deoptless
  enabled, the dispatched-OSR engine gets the first shot (paper Listing 6);
  otherwise — or when it declines — the optimized version is retired and
  execution resumes in the interpreter (paper Listing 4), which keeps
  profiling so that a later recompile produces more generic code.  That
  retire-reprofile-regeneralize loop is exactly the behaviour deoptless is
  designed to avoid.

Both tiers run their fast engine by default (``bytecode/interpreter.py``
fast loop + per-unit generated functions, ``native/pycodegen.py``); setting
``RERPO_REF_EXEC=1`` selects the reference loops, which are kept bit-for-bit
equivalent in results and telemetry (see DESIGN.md, "Dispatch
architecture").
"""

from __future__ import annotations

import random
import sys
from typing import Any, List, Optional

from ..bytecode import interpreter
from ..bytecode.compiler import CodeObject, Compiler
from ..deoptless import engine as deoptless_engine
from ..deoptless.context import distill_call_context
from ..deoptless.dispatch import DispatchTable, VersionTable
from ..native.executor import execute
from ..native.lower import NativeCode
from ..osr import osr_hop, osr_in, osr_out
from ..osr.framestate import CATASTROPHIC_REASONS, DeoptReason, DeoptReasonKind, FrameState
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
        self.deoptless_table = DispatchTable(config.deoptless_max_continuations)
        self.deopt_count = 0
        self.cant_compile = False
        #: positional default values when all defaults are constants
        self.default_consts: Optional[List[Any]] = None
        #: entry-specialized compiled versions keyed by CallContext; the
        #: generic ``version`` above is the dispatch fall-through and is
        #: deliberately not a table entry (lazily allocated — most closures
        #: are monomorphic and never pay for a table)
        self.versions: Optional[VersionTable] = None
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
        #: tier-up request queue; in "sync" mode it compiles inline
        self.compile_queue = CompileQueue(self)
        if self.compile_queue.mode in ("bg", "fleet"):
            # snapshot() must see install-time counter groups atomically
            # while a worker stages builds (serve stats threads poll it)
            self.state.snapshot_lock = self.compile_queue.lock
        #: hot flag set by the bg worker when built code awaits install
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
        if self.config.capture_output:
            self.output.append(s)
        else:  # pragma: no cover
            sys.stdout.write(s)

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

        if ncode is not None and not ncode.invalidated:
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
            return list(args)
        if st.default_consts is None:
            st.default_consts = _default_consts(closure)
        if st.default_consts is _NO_CONSTS:
            return None
        formal_names = [f[0] for f in formals]
        slots: List[Any] = [_MISSING] * len(formals)
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
                if not ver.invalidated:
                    self.state.ctx_dispatches += 1
                    return ver
                vt.remove(ver)
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
        return self.tier_up(UnitSpec("ctxfn", closure.code, closure, ctx=ctx,
                                     feedback=feedback_override))

    def compile_closure(self, closure: RClosure, feedback_override=None) -> Optional[NativeCode]:
        """Policy: synchronous tier-up, the generic version lives in the
        closure's entry slot."""
        return self.tier_up(UnitSpec("fn", closure.code, closure,
                                     feedback=feedback_override))

    def maybe_tier_up(self, closure: RClosure, st: ClosureJitState) -> Optional[NativeCode]:
        """Tier-up policy point: compile inline (sync mode), else install a
        cached unit or queue a request (step/bg/fleet modes)."""
        if self.compile_queue.mode == "sync":
            return self.compile_closure(closure)
        spec = UnitSpec("fn", closure.code, closure)
        return self.tier_up(spec, probe_only=True) or self.compile_queue.request(spec)

    def tier_up(self, spec: UnitSpec, probe_only: bool = False) -> Optional[NativeCode]:
        """Obtain a whole-function unit (DESIGN.md, "Obtaining a compiled
        unit") and put it where calls find it."""
        ncode = unit.obtain(self, spec, probe_only)
        if ncode is not None:
            self.place(spec, ncode)
        return ncode

    def admits(self, st: ClosureJitState) -> bool:
        """The full-table rule for entry versions: refuse, as the paper and
        upstream do, and count it.  Asked before a ``ctxfn`` unit is
        compiled, queued or installed, so a saturated table costs nothing."""
        if st.versions is not None and st.versions.full:
            self.state.dispatch_refusals += 1
            return False
        return True

    def place(self, spec: UnitSpec, ncode: NativeCode) -> None:
        """The two install paths: a ``fn`` unit takes the closure's entry
        slot, a ``ctxfn`` unit an entry of its version table (which
        :meth:`admits` found room in)."""
        st = self.jit_state(spec.closure)
        if spec.kind == "fn":
            st.version = ncode
        else:
            if st.versions is None:
                st.versions = VersionTable(self.config.dispatch_versions)
            st.versions.insert(spec.ctx, ncode)
        self.state.code_size += ncode.size

    def _ctx_stop(self, st: ClosureJitState, ctx) -> None:
        """Stop attempting to specialize ``ctx`` (compile failed / env mode)
        without poisoning the closure's generic compilation."""
        if st.ctx_fail_counts is None:
            st.ctx_fail_counts = {}
        st.ctx_fail_counts[ctx] = MAX_CONTEXT_DEOPTS

    def _account_shared_rebind(self, ncode: NativeCode,
                               is_continuation: bool = False) -> None:
        """Compile-parity accounting for a unit rebound from the fleet's
        shared cache.  An *isolated* session would have compiled this unit
        itself (its local cache never saw another tenant's work), so the
        signature counters — compiles/compiled_instrs, and
        deoptless_compiles for continuations — bump exactly as that compile
        would have.  The real saving (no pipeline ran) is recorded in the
        snapshot-only shared_rebinds/lowered_instrs split, keeping each
        tenant's ``dispatch_signature`` bit-identical serve on/off."""
        self.state.shared_rebinds += 1
        self.state.compiles += 1
        self.state.compiled_instrs += ncode.size
        # the inliner's frame count is recorded on the unit at build time so
        # the rebind replays it (it, too, is a signature counter)
        self.state.inlined_frames += getattr(ncode, "inlined_frames", 0)
        if is_continuation:
            self.state.deoptless_compiles += 1
        self.state.emit("shared_rebind", ncode.name, size=ncode.size)

    def drain_compile_queue(self, budget: Optional[int] = None) -> int:
        """Explicit drain for "step" mode (and tests): compile+install up to
        ``budget`` instructions' worth of queued tier-up requests."""
        return self.compile_queue.drain(budget)

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
        """Handle a failed guard: deoptless first, else true deoptimization."""
        self.state.deopts += 1
        self.state.emit(
            "deopt", fs.code.name, pc=fs.pc, reason=reason.kind.value,
            observed=repr(reason.observed),
            from_continuation=bool(origin is not None and origin.is_deoptless_continuation),
        )
        if reason.kind != DeoptReasonKind.CHAOS:
            fs.code.deopt_sites[reason.pc] = fs.code.deopt_sites.get(reason.pc, 0) + 1
            fs.code.deopt_count += 1

        result = deoptless_engine.try_deoptless(self, fs, reason, origin)
        if result is not deoptless_engine.MISS:
            return result

        # -- actual deoptimization (paper Figure 1) -------------------------------
        # With inlined frames the failing guard belongs to the innermost
        # (callee) frame, but the compiled code being abandoned is the ROOT
        # frame's — the caller whose unit the callee was spliced into.  The
        # deopt_sites bump above stays on the callee's code, which is what
        # blocks re-speculating that site in future builds.
        root = fs
        while root.parent is not None:
            root = root.parent
        fun = root.fun
        if self.code_cache is not None and reason.kind != DeoptReasonKind.CHAOS:
            # a real mis-speculation widens the profile (deopt_sites bump now,
            # reprofiling after the retire below): every future cache key for
            # this code differs, so entries under the old context are dead.
            # Chaos deopts are exempt — they change no feedback, and serving
            # the identical recompile from cache is precisely the win.
            if origin is not None and origin.is_context_version:
                # an entry-specialized version mis-speculated: only its own
                # cache entry dies; sibling contexts' units stay valid (they
                # never assumed what this one assumed)
                target = fun.code if fun is not None else fs.code
                self.code_cache.invalidate_context(target, origin.call_context, self)
                if fun is not None and fun.code is not fs.code:
                    self.code_cache.invalidate_code(fs.code, self)
            else:
                self.code_cache.invalidate_code(fs.code, self)
                if fun is not None and fun.code is not fs.code:
                    self.code_cache.invalidate_code(fun.code, self)
        if fun is not None and fun.jit is not None:
            st = fun.jit
            if reason.kind in CATASTROPHIC_REASONS:
                self._retire(st)
                st.deoptless_table.clear()
                if st.versions is not None and len(st.versions):
                    # catastrophic reasons invalidate every assumption the
                    # entry versions were built on too
                    for e in st.versions.iter_entries():
                        e.code.invalidated = True
                        self.state.code_size -= e.code.size
                    st.versions.clear()
                self.state.invalidations += 1
            elif origin is not None and origin.is_deoptless_continuation:
                # a deoptless continuation mis-speculated: drop it; a real
                # (non-chaos) mis-speculation also retires the original code
                # ("leads to the function being deoptimized for good")
                st.deoptless_table.remove(origin)
                self.state.code_size -= origin.size
                if reason.kind != DeoptReasonKind.CHAOS:
                    self._retire(st)
                    st.deopt_count += 1
                    st.call_count = 0
            elif origin is not None and origin.is_context_version:
                # per-version invalidation: retire exactly this specialized
                # version — the generic fall-through and every sibling
                # context stay installed and dispatchable (no reprofiling,
                # no call-count reset: nothing they assumed was refuted)
                if not origin.invalidated:
                    if st.versions is not None:
                        st.versions.remove(origin)
                    origin.invalidated = True
                    self.state.code_size -= origin.size
                    self.state.invalidations += 1
                if reason.kind != DeoptReasonKind.CHAOS:
                    fails = st.ctx_fail_counts
                    if fails is None:
                        fails = st.ctx_fail_counts = {}
                    c = origin.call_context
                    fails[c] = fails.get(c, 0) + 1
            else:
                self._retire(st)
                st.deopt_count += 1
                st.call_count = 0  # re-warm with fresh profile before recompiling
        if self.config.osr_hop:
            # dispatched OSR: the failing unit is retired, but a *sibling*
            # version (specialized or generic) may still stand and carry an
            # OSR entry at this loop header — re-enter it compiled instead
            # of falling back to the interpreter
            hop = osr_hop.try_hop_out(self, fs, origin)
            if hop is not osr_hop.NO_HOP:
                return hop
            if (fs.parent is None and not fs.code.osr_disabled
                    and fun is not None and fun.jit is not None):
                # no version admits a direct hop: arm the backedge counter
                # so the interpreter re-attempts OSR-in on the *next*
                # backedge (consulting the version tables again) instead of
                # paying osr_threshold interpreted iterations first
                fs.code.backedge_count = self.config.osr_threshold
        return osr_out.resume_in_interpreter(self, fs)

    def _retire(self, st: ClosureJitState) -> None:
        if st.version is not None:
            self.state.code_size -= st.version.size
            st.version.invalidated = True
            st.version = None
            self.state.invalidations += 1


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
