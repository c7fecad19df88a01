"""Dispatched OSR between optimized versions (the "osr hop").

Classic OSR-out (``osr_out.py``) abandons compiled code entirely: after a
mis-speculation the frame is materialized and the *interpreter* runs the
rest of the activation.  This module makes OSR a version-to-version
transition instead.  When a unit deopts mid-loop we consult the closure's
installed versions — the entry-specialized ``VersionTable`` entries and the
generic version — for one that (a) still stands, (b) carries an OSR entry
map slot for the loop header we are parked at, and (c) whose entry context
the live frame still satisfies.  If validation passes, the materialized
``FrameState`` is mapped slot-for-slot into the target's register/unbox
layout and execution resumes *compiled*, at the equivalent pc.

Two hop sites:

* **hop-out** (:func:`try_hop_out`, called from ``RVM.deopt`` after the
  failing unit has been retired): re-enter a surviving sibling version
  directly, skipping the interpreter altogether.
* **hop-in** (:func:`try_hop_in`, called from ``osr_in.try_osr_in``): a hot
  interpreter loop re-enters an already-installed version in O(lookup)
  instead of compiling a single-use continuation.  Per the issue, the live
  frame's call context is distilled *first* and registered in
  ``seen_contexts`` — an OSR entry must never pick a specialized version
  whose entry context the running frame already violates.

When no candidate validates we fall back to generic OSR-out, but ``deopt``
arms the bytecode's backedge counter so the next backedge re-attempts
OSR-in immediately rather than after ``osr_threshold`` interpreted
iterations.

Validation is deliberately strict (every decline is counted and logged):
an over-permissive hop would seed a register with a value the target's
type lattice ruled out, which no downstream guard re-checks.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..deoptless.context import distill_call_context
from ..jit.telemetry import dedup_log
from ..jit.unit import frame_values
from ..native import executor
from ..native.lower import NativeCode, OsrEntry
from ..runtime.values import RPromise, rtype_quick

#: sentinel: no candidate version admitted the hop; caller falls back
NO_HOP = object()

_MISSING = object()


def _decline(vm, fn_name: str, pc: int, why: str) -> None:
    vm.state.osr_hop_declines += 1
    dedup_log(vm.state.osr_hop_decline_log, (fn_name, pc, why))


# ---------------------------------------------------------------------------
# version selection
# ---------------------------------------------------------------------------

def live_context(closure, values: Dict[str, Any]):
    """Distill a CallContext from the formals' *current* values (they may
    have been overwritten since entry).  None when a formal is unbound or
    the shape exceeds what contexts describe."""
    args: List[Any] = []
    for name, _default in closure.formals:
        v = values.get(name, _MISSING)
        if v is _MISSING:
            return None
        args.append(v)
    return distill_call_context(args)


def select_versions(st, pc: int, live_ctx,
                    exclude: Optional[NativeCode] = None) -> Iterator[NativeCode]:
    """Candidate versions with an OSR entry at ``pc``, most specific first.

    Specialized versions require ``live_ctx <= entry ctx`` (the frame still
    satisfies everything the version assumed about the formals); the generic
    version is the unconditional last candidate.  The just-retired origin is
    never offered back.
    """
    vt = st.versions
    if vt is not None:
        for e in vt.iter_entries():
            code = e.code
            if code is exclude or code.invalidated:
                continue
            if pc not in code.osr_entries:
                continue
            if live_ctx is None or not (live_ctx <= e.ctx):
                continue
            yield code
    gen = st.version
    if (gen is not None and gen is not exclude and not gen.invalidated
            and pc in gen.osr_entries):
        yield gen


# ---------------------------------------------------------------------------
# frame -> register-file mapping
# ---------------------------------------------------------------------------

def _seed_slot(regs: List[Any], reg: int, kind, rtype, value: Any) -> bool:
    """Map one live value into one target register; False on type refusal."""
    if isinstance(value, RPromise):
        # register slots read raw values (forcing happened at compile-proven
        # points); a promise here means the target would skip the force
        return False
    if kind is not None:
        if not executor._type_matches(value, rtype):
            return False
        regs[reg] = value.data[0]
    else:
        if not (rtype_quick(value) <= rtype):
            return False
        regs[reg] = value
    return True


def seed_registers(vm, ncode: NativeCode, entry: OsrEntry,
                   values: Dict[str, Any], stack: List[Any],
                   env_obj, fn_name: str, pc: int) -> Optional[List[Any]]:
    """Build the target's full register file for a hop at ``entry``.

    ``values`` is the frame's locals (:func:`frame_values`); ``env_obj`` is
    a zero-argument thunk producing the materialized environment when the
    target runs env-mode.  Returns None (after decline accounting) when the
    live state does not fit the entry map.
    """
    if len(stack) != len(entry.stack_slots):
        _decline(vm, fn_name, pc, "stack-shape")
        return None
    regs = list(ncode.reg_init)
    covered = set()
    for name, reg, kind, rtype in entry.var_slots:
        v = values.get(name, _MISSING)
        if v is _MISSING:
            _decline(vm, fn_name, pc, "missing-var:" + name)
            return None
        if not _seed_slot(regs, reg, kind, rtype, v):
            _decline(vm, fn_name, pc, "var-type:" + name)
            return None
        covered.add(name)
    for (reg, kind, rtype), v in zip(entry.stack_slots, stack):
        if not _seed_slot(regs, reg, kind, rtype, v):
            _decline(vm, fn_name, pc, "stack-type")
            return None
    if entry.env_reg is None:
        # fully scalar-replaced target: any live binding outside the slot
        # set would be silently dropped by a later deopt-out — refuse
        if any(n not in covered for n in values):
            _decline(vm, fn_name, pc, "extra-binding")
            return None
    else:
        # env-mode target: the live environment object itself is the seed,
        # so every binding (slotted or not) survives by construction
        regs[entry.env_reg] = env_obj()
    return regs


# ---------------------------------------------------------------------------
# hop sites
# ---------------------------------------------------------------------------

def _hop(vm, fs, values: Dict[str, Any], live_ctx, via: str,
         exclude: Optional[NativeCode] = None):
    """The body of both hop sites: seed the first candidate version that
    admits the frame, count and announce the hop.  Returns the arguments
    ``executor.execute_at`` resumes with, or None."""
    closure_env = fs.closure_env if fs.closure_env is not None else fs.fun.env
    name, pc = fs.code.name, fs.pc
    for ncode in select_versions(fs.fun.jit, pc, live_ctx, exclude=exclude):
        entry = ncode.osr_entries[pc]
        regs = seed_registers(vm, ncode, entry, values, list(fs.stack),
                              fs.materialize_env, name, pc)
        if regs is not None:
            vm.state.osr_hops += 1
            vm.state.emit("osr_hop", name, pc=pc, size=ncode.size, via=via,
                          target="ctx" if ncode.is_context_version else "generic")
            return ncode, entry.index, regs, vm, closure_env
    return None


def try_hop_out(vm, fs, origin: Optional[NativeCode]) -> Any:
    """Dispatched OSR at a deopt: re-enter a surviving version mid-loop.

    Called by ``RVM.deopt`` *after* retirement/invalidation ran, so the
    failing ``origin`` is already out of every table (and excluded here
    besides — a real deopt must never bounce straight back into the unit
    that just mis-speculated).  Root frames only: inlined-frame deopts keep
    the parent-chain resume convention.
    """
    if fs.parent is not None or fs.fun is None or fs.fun.jit is None:
        return NO_HOP
    values = frame_values(fs)
    if values is None:
        return NO_HOP
    hop = _hop(vm, fs, values, live_context(fs.fun, values), "deopt", origin)
    return executor.execute_at(*hop) if hop is not None else NO_HOP


def try_hop_in(vm, fs) -> Any:
    """Dispatched OSR at a hot interpreter loop (``fs`` is the interpreter's
    frame, see ``osr_in.try_osr_in``): enter an *installed* version at the
    header instead of compiling a one-shot continuation.

    The operand stack is empty at backedge targets (loop-lowering
    invariant), so only the environment transfers.
    """
    values = fs.env.bindings
    live_ctx = live_context(fs.fun, values)
    if live_ctx is not None:
        # same polymorphism bookkeeping as entry dispatch: the loop's live
        # context is evidence even when no version matches yet
        st = fs.fun.jit
        if st.seen_contexts is None:
            st.seen_contexts = []
        if live_ctx not in st.seen_contexts and len(st.seen_contexts) < 8:
            st.seen_contexts.append(live_ctx)
    hop = _hop(vm, fs, values, live_ctx, "osr_in")
    return executor.execute_at(*hop) if hop is not None else NO_HOP
