"""Context-keyed code cache.

Deoptless puts compilation on the deopt critical path: every mis-speculation
that misses the dispatch table synchronously compiles a specialized
continuation, and every tier-up stalls the interpreter (paper section 5.4 /
Figure 11 measure exactly this reoptimization cost).  "On-Stack Replacement
a la Carte" observes that OSR machinery cost is dominated by *redundant code
version generation*: identical (code, context) pairs are recompiled from
scratch per closure and per process.

This module amortizes that. A compiled unit is cached under a key that
captures **everything the pipeline reads**:

* a *stable hash* of the ``CodeObject`` — instruction stream, const pool,
  names, and (for function-entry compiles) the formals with their default
  thunks.  The hash is content-based, so closures created by re-evaluating
  the same source (fresh ``CodeObject`` instances) share compiled code;
* the *speculation context*: a count-insensitive signature of the type
  feedback the builder speculates on (observed kind sets, scalarity, NA
  bits, branch bias, call targets), the set of deopt-blocked sites, and —
  recursively, up to the inline depth bound — the signatures of monomorphic
  callees the inliner would splice;
* for deoptless continuations, the :class:`DeoptContext` itself (target pc,
  frame depth, reason payload, stack/env types);
* the ``Config`` flags that change lowering output.

Keys come in two strengths.  The **exact** key pins runtime objects (call
targets, feedback-observed closures) by identity — cheap and always correct
within one world of objects.  The **stable** key replaces identities with
world-independent references (global name + content hash), which is what
makes cache entries shareable across re-evaluated programs and across
processes (see :mod:`repro.jit.persist` for the serialized form).

Eviction is LRU by a compiled-instruction budget.  Invalidation hooks fire
when a real deoptimization widens a function's profile (feedback repair /
``deopt_sites`` bumps change every future key for that code, so the old
entries can never be requested again and are dropped eagerly).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..bytecode.compiler import CodeObject
from ..bytecode.feedback import (
    BinopFeedback,
    BranchFeedback,
    CallFeedback,
    ObservedType,
)
from ..deoptless.context import CallContext, DeoptContext
from ..opt.inline import MAX_DEPTH as INLINE_MAX_DEPTH
from ..runtime.rtypes import RType
from ..runtime.values import NULL, RBuiltin, RClosure, RNull, RVector

#: sites with this many deopts stop being re-speculated (mirrors
#: ir/builder.MAX_SITE_DEOPTS without importing the builder — import cycle)
MAX_SITE_DEOPTS = 3


class Ident:
    """Identity wrapper: keys a runtime object by ``is``, keeping it alive.

    The cached code embeds the very object (e.g. a ``GIDENT`` guard against
    a specific closure), so keying by identity is exact; because the cache
    entry strongly references the key, the object cannot be collected and
    its identity cannot be recycled while the entry lives.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: Any):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ident) and other.obj is self.obj

    def __repr__(self) -> str:  # pragma: no cover
        return "<id %s>" % getattr(self.obj, "name", self.obj)


# ---------------------------------------------------------------------------
# stable content hashing
# ---------------------------------------------------------------------------

def _canon(value: Any, out: list) -> None:
    """Append a canonical, process-independent rendering of ``value``."""
    if value is None:
        out.append("N")
    elif value is NULL or isinstance(value, RNull):
        out.append("null")
    elif isinstance(value, bool):
        out.append("b%d" % value)
    elif isinstance(value, int):
        out.append("i%d" % value)
    elif isinstance(value, float):
        out.append("f%r" % value)
    elif isinstance(value, complex):
        out.append("c%r:%r" % (value.real, value.imag))
    elif isinstance(value, str):
        out.append("s%d:%s" % (len(value), value))
    elif isinstance(value, (tuple, list)):
        out.append("(")
        for v in value:
            _canon(v, out)
        out.append(")")
    elif isinstance(value, RVector):
        out.append("v%s[" % value.kind.name)
        for v in value.data:
            _canon(v, out)
        out.append("]")
    elif isinstance(value, CodeObject):
        out.append("C" + stable_code_hash(value))
    elif isinstance(value, RType):
        out.append("T%s%d%d" % (value.kind.name, value.scalar, value.maybe_na))
    else:
        # enums and other value-like leaves: kind-qualified repr
        out.append("O%s:%r" % (type(value).__name__, value))


def stable_code_hash(code: CodeObject) -> str:
    """Content hash of a compilation unit, stable across processes.

    Memoized on the ``CodeObject`` (instruction streams are immutable after
    ``seal_feedback``).  Two units compiled from the same source text hash
    identically — ``Compiler.gensym`` is deterministic per unit, so even the
    hidden loop variables agree.
    """
    h = code.stable_hash
    if h is not None:
        return h
    # the unit NAME is deliberately excluded: it is display metadata, and
    # including it would stop `f <- function(x) ...` and `g <- function(x)
    # ...` with identical bodies from sharing compiled code
    out: list = ["code:"]
    for ins in code.code:
        _canon(ins, out)
    out.append("|consts|")
    for c in code.consts:
        _canon(c, out)
    out.append("|names|")
    for n in code.names:
        out.append(n)
        out.append(",")
    h = hashlib.sha256("".join(out).encode("utf-8", "surrogatepass")).hexdigest()
    code.stable_hash = h
    return h


def stable_closure_hash(closure: RClosure) -> str:
    """Body hash extended with the formals (names + default thunks): two
    functions with identical bodies but different defaults must not share."""
    out: list = ["clo:", stable_code_hash(closure.code), ";"]
    for name, default in closure.formals:
        out.append(name)
        out.append("=")
        out.append(stable_code_hash(default) if default is not None else "_")
        out.append(",")
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# speculation-context signatures (what the optimizer reads from feedback)
# ---------------------------------------------------------------------------

def _target_ref(t: Any) -> Any:
    if isinstance(t, RBuiltin):
        return ("builtin", t.name)
    return Ident(t)


def _slot_sig(fb: Any) -> Optional[tuple]:
    """Decision-relevant bits of one feedback slot; None when the slot is
    empty (a preallocated slot that never recorded is the same as absent)."""
    if isinstance(fb, ObservedType):
        if fb.count == 0:
            return None
        return (
            "t",
            tuple(sorted(k.name for k in fb.kinds)),
            fb.all_scalar,
            fb.saw_na,
            fb.stale,
        )
    if isinstance(fb, BinopFeedback):
        lhs, rhs = _slot_sig(fb.lhs), _slot_sig(fb.rhs)
        if lhs is None and rhs is None and not fb.stale:
            return None
        return ("2", lhs, rhs, fb.stale)
    if isinstance(fb, BranchFeedback):
        if not fb.taken and not fb.not_taken and not fb.stale:
            return None
        return ("br", fb.taken > 0, fb.not_taken > 0, fb.stale)
    if isinstance(fb, CallFeedback):
        if fb.count == 0 and not fb.targets and not fb.megamorphic:
            return None
        # the argument-kind profile is decision-relevant: the inliner builds
        # the callee under a static entry context, so units compiled from a
        # mono- vs poly-typed site profile can differ
        profiles = (
            tuple(tuple(k.name for k in p) for p in fb.arg_profiles)
            if fb.arg_profiles is not None else "poly"
        )
        return (
            "call",
            tuple(_target_ref(t) for t in fb.targets),
            fb.megamorphic,
            fb.stale,
            profiles,
        )
    return None


def _blocked_sites(code: CodeObject) -> tuple:
    return tuple(sorted(
        pc for pc, n in code.deopt_sites.items() if n >= MAX_SITE_DEOPTS
    ))


def feedback_signature(
    code: CodeObject,
    config,
    feedback: Optional[Dict[int, Any]] = None,
    _depth: int = 0,
    _seen: Optional[frozenset] = None,
) -> tuple:
    """Count-insensitive signature of everything codegen reads from the
    profile of ``code`` — recursing into monomorphic closure callees (their
    bodies get spliced by the inliner, so their profiles are inputs too)."""
    fb_map = feedback if feedback is not None else code.feedback
    slots = []
    calls = []
    recurse = getattr(config, "inline", False) and _depth <= INLINE_MAX_DEPTH
    seen = _seen or frozenset()
    for pc in sorted(fb_map):
        fb = fb_map[pc]
        sig = _slot_sig(fb)
        if sig is None:
            continue
        slots.append((pc, sig))
        if (
            recurse
            and isinstance(fb, CallFeedback)
            and len(fb.targets) == 1
            and not fb.megamorphic
            and not fb.stale
            and isinstance(fb.targets[0], RClosure)
        ):
            callee = fb.targets[0]
            if id(callee.code) not in seen:
                calls.append((pc, feedback_signature(
                    callee.code, config,
                    _depth=_depth + 1,
                    _seen=seen | {id(callee.code)},
                )))
    return (tuple(slots), _blocked_sites(code), tuple(calls))


def config_key(config) -> tuple:
    """The Config flags that change what the pipeline emits."""
    return (
        config.enable_speculation,
        config.vectorize,
        config.inline,
        config.inline_max_size,
        config.unsound_drop_deopt_exits,
        config.unsound_continuation_escape,
        config.deoptless_feedback_repair,
        # entry contextual dispatch changes generic units too (the inliner
        # splices context-matched callee builds when it is on)
        config.ctxdispatch,
        # dispatched OSR: tier-up promotes continuations into entry versions
        # and hop validation assumes the entry maps were built
        config.osr_hop,
    )


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------

def _formals_sig(closure: RClosure) -> tuple:
    return tuple(
        (name, stable_code_hash(d) if d is not None else None)
        for name, d in closure.formals
    )


def entry_key(closure: RClosure, config, feedback: Optional[Dict[int, Any]] = None) -> tuple:
    """Key for a whole-function (tier-up) compile of ``closure``.

    ``key[1]`` is always the plain body-code hash (the invalidation and
    disk-bucket tag — see :func:`key_code_hash`); the formals ride along as
    their own component, since two functions with identical bodies but
    different defaults must not share compiled code.
    """
    return (
        "fn",
        stable_code_hash(closure.code),
        _formals_sig(closure),
        feedback_signature(closure.code, config, feedback),
        config_key(config),
    )


def continuation_key(code: CodeObject, ctx: DeoptContext, config,
                     feedback: Optional[Dict[int, Any]] = None) -> tuple:
    """Key for a deoptless continuation: the dispatch context (pc, depth,
    reason payload, stack/env types) plus the repaired-feedback signature."""
    return (
        "cont",
        stable_code_hash(code),
        ctx,
        feedback_signature(code, config, feedback),
        config_key(config),
    )


def context_entry_key(closure: RClosure, ctx: CallContext, config,
                      feedback: Optional[Dict[int, Any]] = None) -> tuple:
    """Key for an entry-context-specialized version of ``closure``: the
    whole-function key plus the assumed :class:`CallContext` the version was
    compiled under.  ``key[1]`` stays the plain body-code hash so narrow
    invalidation (:meth:`CodeCache.invalidate_context`) and the disk bucket
    file under the same tag as the generic version."""
    return (
        "ctxfn",
        stable_code_hash(closure.code),
        _formals_sig(closure),
        ctx,
        feedback_signature(closure.code, config, feedback),
        config_key(config),
    )


def osr_key(code: CodeObject, closure: Optional[RClosure], pc: int,
            var_types: Dict[str, RType], config) -> tuple:
    """Key for an OSR-in continuation (loop head -> function end)."""
    formals = _formals_sig(closure) if closure is not None else "top"
    return (
        "osr",
        stable_code_hash(code),
        formals,
        pc,
        tuple(sorted(var_types.items())),
        feedback_signature(code, config),
        config_key(config),
    )


def key_code_hash(key: tuple) -> str:
    """The content-hash tag a key files under (used for invalidation and for
    naming the on-disk artifact bucket)."""
    return key[1]


# ---------------------------------------------------------------------------
# stable (world-independent) key digests
# ---------------------------------------------------------------------------

class Unstable(Exception):
    """Raised while stabilizing a key/entry that pins a runtime object with
    no world-independent name (e.g. a non-global closure)."""


class WorldResolver:
    """Maps runtime identities <-> world-independent references.

    A closure is *stable* when it is bound to a global name and its content
    hash pins it; a builtin is stable by name.  Resolution is best-effort by
    design: an unresolvable reference simply keeps the entry world-local.
    """

    def __init__(self, vm):
        self.vm = vm
        self._names: Optional[Dict[int, str]] = None

    def _global_name(self, obj: Any) -> Optional[str]:
        if self._names is None:
            self._names = {}
            for name, value in self.vm.global_env.bindings.items():
                self._names.setdefault(id(value), name)
        return self._names.get(id(obj))

    def stable_ref(self, obj: Any) -> tuple:
        if isinstance(obj, RBuiltin):
            return ("builtin", obj.name)
        if isinstance(obj, RClosure):
            name = self._global_name(obj)
            if name is None:
                raise Unstable("closure %r is not a global" % obj.name)
            return ("clo", name, stable_closure_hash(obj))
        raise Unstable("no stable reference for %r" % (obj,))

    def resolve_ref(self, ref: tuple) -> Any:
        if ref[0] == "builtin":
            fn = self.vm.base_env.bindings.get(ref[1])
            if not isinstance(fn, RBuiltin):
                raise Unstable("builtin %s not found" % ref[1])
            return fn
        if ref[0] == "clo":
            obj = self.vm.global_env.bindings.get(ref[1])
            if not isinstance(obj, RClosure) or stable_closure_hash(obj) != ref[2]:
                raise Unstable("global %s does not match" % ref[1])
            return obj
        raise Unstable("bad reference %r" % (ref,))


def _stabilize(value: Any, resolver: WorldResolver, out: list) -> None:
    """Canonicalize one key component, replacing identities with stable
    references; raises :class:`Unstable` when that is impossible."""
    if isinstance(value, Ident):
        _canon(resolver.stable_ref(value.obj), out)
    elif isinstance(value, DeoptContext):
        out.append("ctx(")
        _canon(value.stable_parts(resolver.stable_ref), out)
        out.append(")")
    elif isinstance(value, CallContext):
        out.append("callctx(")
        _canon(value.stable_parts(), out)
        out.append(")")
    elif isinstance(value, (tuple, list)):
        out.append("(")
        for v in value:
            _stabilize(v, resolver, out)
        out.append(")")
    else:
        _canon(value, out)


def stable_digest(key: tuple, resolver: WorldResolver) -> Optional[str]:
    """World-independent digest of ``key``, or None when the key pins an
    object that has no stable name in this world."""
    out: list = []
    try:
        _stabilize(key, resolver, out)
    except Unstable:
        return None
    return hashlib.sha256("".join(out).encode("utf-8", "surrogatepass")).hexdigest()


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

class CacheEntry:
    __slots__ = ("key", "ncode", "size", "code_hash", "root_code", "hits",
                 "digest")

    def __init__(self, key: tuple, ncode, size: int, code_hash: str, root_code,
                 digest: Optional[str] = None):
        self.key = key
        self.ncode = ncode
        self.size = size
        self.code_hash = code_hash
        #: the CodeObject the unit was compiled from.  Exact (L1) hits are
        #: restricted to this identity: the compiled unit's deopt descriptors
        #: reference it, so serving it to a content-identical-but-distinct
        #: CodeObject would misattribute profile updates.  Those claimants
        #: find the unit by its digest and rebind it through its bytes.
        self.root_code = root_code
        self.hits = 0
        #: world-independent digest of ``key`` when one exists.  Two exact
        #: keys differing only in pinned identities (a re-evaluated program's
        #: fresh closures) share a digest — and must share ONE budget charge
        #: (see :meth:`CodeCache._admit`).
        self.digest = digest


class CodeCache:
    """Context-keyed cache of lowered compilation units, which live in two
    places (DESIGN.md, "Two places, one rule"):

    * ``entries`` — live templates, exact-keyed, LRU-ordered, bounded by a
      compiled-instruction ``budget``;
    * :attr:`stores` — bytes under the stable digest, outside the VM, only
      when one is attached (``get``/``put``/``hit_counter``: the artifact
      directory, the fleet's cache).  Made at :meth:`insert`, or on the spot
      to rebind a live entry held under another exact key.
    """

    def __init__(self, config):
        self.budget = config.codecache_budget
        self.entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.total_size = 0
        #: stable digest -> exact key currently charged to the budget.  One
        #: stable form is one unit of resident code no matter how many exact
        #: keys (re-evaluated worlds, sibling closures) resolve to it: here
        #: :meth:`_admit` finds the stale charge, :meth:`lookup` the live unit.
        self._digest_keys: Dict[str, tuple] = {}
        #: the two stores, None when not attached: the artifact directory,
        #: and the fleet's cache (``serve.Server`` sets it, and the ``tenant``
        #: label it attributes to); invalidation fans out to the latter
        self.disk = self.shared = None
        self.tenant: Optional[str] = None
        if config.codecache_dir:
            from . import persist  # on first use: 10 ms no JIT-off run should pay

            self.disk = persist.DirectoryStore(config.codecache_dir)
        #: True when the last :meth:`lookup` rebound its template from the
        #: shared store: the install path then applies compile-parity
        #: accounting (DESIGN.md, "Multi-tenant serving")
        self.last_hit_shared = False
        #: (key, its stable digest) of the last :meth:`lookup` that missed:
        #: ``unit.obtain`` inserts what it then builds under that very key —
        #: no program code ran in between — and the digest is not taken twice
        self._missed: tuple = (None, None)

    @property
    def stores(self) -> tuple:
        """The attached stores in probe order: memory before a file read."""
        return tuple(s for s in (self.shared, self.disk) if s is not None)

    def __len__(self) -> int:
        return len(self.entries)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, key: tuple, vm, root_code: CodeObject):
        """Template for ``key`` or None.  An exact entry first; else the
        key's stable digest names bytes — the first source that has them
        wins, is rebound into the current world and admitted."""
        self.last_hit_shared = False
        entry = self.entries.get(key)
        if entry is not None and entry.root_code is root_code:
            self.entries.move_to_end(key)
            entry.hits += 1
            vm.state.codecache_hits += 1
            vm.state.codecache_instrs_saved += entry.size
            return entry.ncode

        from . import persist

        resolver = WorldResolver(vm)
        digest = stable_digest(key, resolver)
        try:
            for counter, data in self._sources(digest, key_code_hash(key), resolver):
                if data is None:
                    continue
                tmpl = persist.deserialize(data, root_code, resolver)
                self._admit(key, tmpl, vm, root_code, digest)
                setattr(vm.state, counter, getattr(vm.state, counter) + 1)
                self.last_hit_shared = counter == "shared_cache_hits"
                vm.state.codecache_instrs_saved += tmpl.size
                return tmpl
        except (Unstable, persist.PersistError):
            # bytes that do not read back are a miss: the unit recompiles
            vm.state.codecache_persist_failures += 1
        self._missed = (key, digest)
        vm.state.codecache_misses += 1
        return None

    def _sources(self, digest: Optional[str], bucket: str, resolver: WorldResolver):
        """``(hit counter, bytes or None)`` per place the unit of ``digest``
        may live, nearest first: the live entry holding it under another
        exact key, serialized on the spot; then each attached store."""
        if digest is None:
            return
        live = self.entries.get(self._digest_keys.get(digest))
        if live is not None:
            from . import persist

            try:
                data = persist.serialize(live.ncode, live.root_code, resolver)
            except Unstable:
                data = None  # pins an object this world has no name for
            yield "codecache_stable_hits", data
        for store in self.stores:
            yield store.hit_counter, store.get(digest, bucket, self.tenant)

    # -- insert / eviction ----------------------------------------------------

    def insert(self, key: tuple, ncode, vm, root_code: CodeObject) -> None:
        """Admit a fresh unit — under the digest of the probe that missed,
        when ``key`` is that probe's own (queued installs bring a new one and
        digest again) — and hand its bytes to each attached store."""
        resolver = WorldResolver(vm)
        missed, digest = self._missed
        if missed is not key:
            digest = stable_digest(key, resolver)
        self._admit(key, ncode, vm, root_code, digest)
        if digest is None or not self.stores:
            return
        from . import persist

        try:
            data = persist.serialize(ncode, root_code, resolver)
            for store in self.stores:
                store.put(digest, key_code_hash(key), data, ncode.size, self.tenant)
        except Unstable:
            pass
        except persist.PersistError:
            vm.state.codecache_persist_failures += 1

    def _drop_entry(self, key: tuple) -> CacheEntry:
        """Remove one exact entry, releasing its budget charge and digest
        claim.  The key must be present."""
        entry = self.entries.pop(key)
        self.total_size -= entry.size
        if entry.digest is not None and self._digest_keys.get(entry.digest) == key:
            del self._digest_keys[entry.digest]
        return entry

    def _admit(self, key: tuple, ncode, vm, root_code: CodeObject,
               digest: Optional[str] = None) -> None:
        if key in self.entries:
            self._drop_entry(key)
        if digest is not None:
            # one stable form, one budget charge: a rebind admitted under a
            # fresh exact key (re-evaluated program, content-identical
            # sibling) supersedes the origin world's entry instead of
            # double-counting the same unit's instructions against the
            # budget on both sides
            stale = self._digest_keys.get(digest)
            if stale is not None and stale in self.entries:
                self._drop_entry(stale)
            self._digest_keys[digest] = key
        entry = CacheEntry(key, ncode, ncode.size, key_code_hash(key),
                           root_code, digest)
        self.entries[key] = entry
        self.total_size += entry.size
        while self.total_size > self.budget and self.entries:
            victim_key = next(iter(self.entries))
            evicted = self._drop_entry(victim_key)
            vm.state.codecache_evictions += 1
            vm.state.emit("codecache_evict", evicted.ncode.name,
                          size=evicted.size, hits=evicted.hits)

    # -- invalidation ---------------------------------------------------------

    def invalidate_code(self, code: CodeObject, vm=None) -> int:
        """Drop every exact entry derived from ``code``'s content.

        Called when a real deoptimization widens the profile of ``code``
        (feedback repair injects the observed type and ``deopt_sites``
        records the failure): every future key for this code differs, so the
        old entries are unreachable dead weight.
        """
        h = stable_code_hash(code)
        doomed = [k for k, e in self.entries.items() if e.code_hash == h]
        for k in doomed:
            self._drop_entry(k)
        if doomed and vm is not None:
            vm.state.codecache_invalidations += len(doomed)
            vm.state.emit("codecache_invalidate", code.name, entries=len(doomed))
        if self.shared is not None:
            # fleet fan-out: a real mis-speculation on this code content
            # retires every shared stable form filed under its bucket, so
            # no tenant's next probe rebinds the refuted speculation.  Each
            # VM's *installed* versions are untouched — only that tenant's
            # own deopts retire them (install separation; see DESIGN.md).
            self.shared.invalidate_bucket(h, self.tenant)
        return len(doomed)

    def invalidate_context(self, code: CodeObject, ctx, vm=None) -> int:
        """Drop only the ``"ctxfn"`` entries for ``code`` compiled under
        ``ctx``.  A deopt inside one entry-specialized version widens
        nothing about its siblings or the generic unit — the narrow
        counterpart of :meth:`invalidate_code`."""
        h = stable_code_hash(code)
        doomed = [
            k for k, e in self.entries.items()
            if e.code_hash == h and k[0] == "ctxfn" and k[3] == ctx
        ]
        digests = [self.entries[k].digest for k in doomed]
        for k in doomed:
            self._drop_entry(k)
        if self.shared is not None:
            # narrow fan-out: only the stable forms of the refuted context
            # leave the fleet cache; sibling contexts' entries stay shared
            self.shared.invalidate_digests(
                [d for d in digests if d is not None], h, self.tenant)
        if doomed and vm is not None:
            vm.state.codecache_invalidations += len(doomed)
            vm.state.emit("codecache_invalidate", code.name, entries=len(doomed),
                          unit="ctxfn")
        return len(doomed)

    # -- introspection --------------------------------------------------------

    def describe(self) -> str:
        lines = [
            "code cache: %d entries, %d/%d instrs, stores: %s"
            % (len(self.entries), self.total_size, self.budget,
               ", ".join(type(s).__name__ for s in self.stores) or "none"),
        ]
        for entry in self.entries.values():
            kind = entry.key[0]
            lines.append(
                "  [%-4s] %-24s size=%-4d hits=%d" %
                (kind, entry.ncode.name[:24], entry.size, entry.hits)
            )
        return "\n".join(lines)

