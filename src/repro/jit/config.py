"""VM configuration.

All knobs of the reproduction in one place.  The deoptless bounds default to
the paper's values (section 4.3): at most 16 operand stack entries and 32
environment entries in a dispatchable context, and at most 5 continuations
per dispatch table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def _fast_engines_default() -> bool:
    """``RERPO_REF_EXEC=1`` makes the reference loops the default engine of
    both tiers.  They are the oracle the fast engines are checked against,
    so CI runs one tier-1 leg that way; this and the warm-start directory
    below are the only names the VM reads from the environment."""
    return os.environ.get("RERPO_REF_EXEC") != "1"


def _codecache_dir_default():
    """Warm-start artifact directory; unset disables persistence."""
    return os.environ.get("RERPO_CODECACHE_DIR") or None


@dataclass
class Config:
    # -- execution engine --------------------------------------------------------
    #: run the fast engine of each tier: the opcode-ordered bytecode loop
    #: and one specialized exec'd Python function per NativeCode unit
    #: (native/pycodegen.py).  False (``RERPO_REF_EXEC=1``) runs the if/elif
    #: reference loops, which must produce identical results and telemetry
    #: (tests/test_threaded_equivalence.py) and also run any unit codegen
    #: declines.  Deliberately absent from ``codecache.config_key``: the
    #: engine changes how units *run*, not what is lowered.
    threaded_dispatch: bool = field(default_factory=_fast_engines_default)

    # -- tiering ---------------------------------------------------------------
    #: enable the optimizing tier at all
    enable_jit: bool = True
    #: calls of a closure before it is natively compiled
    compile_threshold: int = 2
    #: enable OSR-in (interpreter loop -> native continuation)
    enable_osr_in: bool = True
    #: interpreter backedges before OSR-in triggers
    osr_threshold: int = 1000
    #: deoptimizations of one closure before the optimizer gives up on it
    max_deopts_per_function: int = 25
    #: dispatched OSR: mid-loop exits hop into a context-compatible compiled
    #: version at the equivalent pc (via the per-(version, pc) OSR entry
    #: map) instead of falling back to the interpreter, and hot deoptless
    #: continuations are promoted to full entry versions.  Keyed into the
    #: code cache (the flag changes what tier-up lowers and installs).
    #: False reverts to terminal continuations and generic-only OSR.
    osr_hop: bool = True

    # -- speculation -----------------------------------------------------------
    enable_speculation: bool = True
    #: guard-hoisted loop vectorization (opt/vectorize.py): recognized
    #: counted loops execute as bulk kernels over the raw vector buffers.
    #: Kernel accounting charges per covered element at scalar rates (the
    #: exact per-iteration op/guard/generic counts of the replaced loop), so
    #: the cost model and dispatch signature are engine-independent; the
    #: real speedup shows up in wall-clock only (benchmarks/).
    #: False keeps the scalar loops only.
    vectorize: bool = True
    #: speculative call-target inlining (opt/inline.py): monomorphic
    #: ``CallFeedback`` sites splice the callee's IR under the existing
    #: identity guard.  Checkpoints inside the inlined body carry nested
    #: FrameStates; deopts there materialize the full frame chain.
    #: False disables the pass (every call stays guarded).
    inline: bool = True
    #: cost model: max callee bytecode ops for an inline candidate
    inline_max_size: int = 48

    # -- compilation subsystem (jit/codecache.py, jit/compile_queue.py) -----------
    #: context-keyed code cache: compiled units are shared across closures
    #: with content-identical code under the same speculation context, and
    #: repeat deoptless contexts recover in O(lookup) instead of O(pipeline).
    #: False always recompiles.
    codecache: bool = True
    #: LRU eviction bound, in cached compiled instructions
    codecache_budget: int = 100_000
    #: warm-start artifact directory (``RERPO_CODECACHE_DIR``); None disables
    #: persistence.  Stable entries are written by ``RVM.save_code_cache()``
    #: and probed on cache misses.
    codecache_dir: "str | None" = field(default_factory=_codecache_dir_default)
    #: how tier-up requests compile: "sync" inline (default), "step" queued
    #: until an explicit budgeted ``vm.drain_compile_queue()``, "bg" on a
    #: worker thread with main-thread installs
    tierup_mode: str = "sync"

    # -- multi-tenant serving (repro/serve) ---------------------------------------
    #: master switch for the serving layer: when False, ``serve.Server``
    #: runs every tenant on a fully isolated VM (no shared code cache, no
    #: fleet compile queue, no cold-start coalescing).  Per-tenant results
    #: and ``dispatch_signature`` are identical either way — sharing only
    #: changes how compiled code is *obtained* (see DESIGN.md,
    #: "Multi-tenant serving")
    serve: bool = True

    # -- entry contextual dispatch (deoptless/dispatch.VersionTable) --------------
    #: dispatch function entries on a distilled CallContext: polymorphic
    #: call sites split into per-context compiled versions (argument guards
    #: hoisted to the dispatch check, unboxed parameter passing) instead of
    #: widening the single generic version.  False reverts to one version
    #: per closure.
    ctxdispatch: bool = True
    #: specialized versions per closure, on top of the generic fall-through
    dispatch_versions: int = 4

    # -- deoptless (the paper's contribution) -----------------------------------
    enable_deoptless: bool = False
    #: dispatch-table bound (paper: "only allow up to 5 continuations")
    deoptless_max_continuations: int = 5
    #: context bounds (paper: stack <= 16, environment <= 32)
    deoptless_max_stack: int = 16
    deoptless_max_env: int = 32
    #: apply the type-feedback cleanup + inference pass (section 4.3)
    deoptless_feedback_repair: bool = True

    # -- chaos mode (section 5.1: randomly failing assumptions) ------------------
    #: probability that any executed Assume triggers a (spurious) deopt
    chaos_rate: float = 0.0
    chaos_seed: int = 42

    # -- unsound switches for regression tests ------------------------------------
    #: scan continuation escape info only from the entry pc (reproduces the
    #: dead-store/escape unsoundness anecdote of section 4.2)
    unsound_continuation_escape: bool = False
    #: unsoundly drop all deoptimization exit points in the backend — the
    #: paper's section 4.1 code-size experiment ("when we unsoundly dropped
    #: all deoptimization exit points ... performance was unchanged ...
    #: an effect on code size with 30%% more LLVM instructions")
    unsound_drop_deopt_exits: bool = False

    # -- misc ---------------------------------------------------------------------
    #: run the IR verifier after building and after optimizing (cheap for
    #: our graph sizes; catches malformed graphs before they execute)
    verify_ir: bool = True
    #: capture stdout of R programs into a buffer instead of printing
    capture_output: bool = True


@dataclass
class CostModel:
    """Deterministic cycle accounting.

    Wall-clock on the host varies; these weights give a machine-independent
    "simulated cycles" number with the right relative magnitudes: one
    specialized native op is the unit, a generic interpreter op costs tens of
    units (dispatch + boxing + feedback), and compilation costs per IR
    instruction model the compile pauses visible in the paper's Figures 4/10.
    """

    native_op: float = 1.0
    #: extra weight for generic (boxed) native ops on top of native_op:
    #: a generic arith runs the full coercion dispatch of the runtime
    generic_op_extra: float = 60.0
    interp_op: float = 24.0
    guard: float = 1.0
    deopt_event: float = 400.0
    deoptless_dispatch: float = 60.0
    compile_per_instr: float = 220.0

    def cycles(self, telemetry) -> float:
        # a dispatched deopt does NOT pay the tier-down penalty: state
        # extraction + context dispatch is the (much smaller)
        # deoptless_dispatch cost — the design requirement the paper states
        # in section 3.2
        tier_downs = max(0, telemetry.deopts - telemetry.deoptless_dispatches)
        return (
            telemetry.native_ops * self.native_op
            + telemetry.native_generic_ops * self.generic_op_extra
            + telemetry.interp_ops * self.interp_op
            + telemetry.guards_executed * self.guard
            + tier_downs * self.deopt_event
            + telemetry.deoptless_dispatches * self.deoptless_dispatch
            + telemetry.compiled_instrs * self.compile_per_instr
        )
