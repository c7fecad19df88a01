"""Warm-start persistence: world-independent serialization of compiled code.

A :class:`~repro.native.lower.NativeCode` is a flat op stream, but its
operands embed live runtime objects: guard expectations (``GIDENT`` pins an
``RClosure``), direct-call targets, builtins, ``CodeObject`` payloads for
``MKCLOSURE``/``MKPROMISE``, and the deopt descriptors' back-references into
the bytecode.  Pickling those structurally would freeze one process's object
graph — useless in a restarted VM and incorrect in a re-evaluated one.

Instead, serialization runs through ``pickle``'s *persistent reference*
hooks: every runtime identity is replaced by a stable name —

* ``("obj", ("builtin", name))`` — a builtin, by its base-env name;
* ``("obj", ("clo", name, hash))`` — a closure bound to a global, pinned by
  its content hash (rebinding or redefinition makes the entry unresolvable,
  never wrong);
* ``("code", base, path)`` — a ``CodeObject``, addressed as a const-pool
  path (through ``MKCLOSURE`` payloads, default thunks and promise thunks)
  from either the entry's own root unit or a stable global closure's body;
* ``("null",)`` — the ``RNull`` singleton.

Environments are refused outright (:class:`~repro.jit.codecache.Unstable`):
an entry that closes over live environment state is world-local by nature.

Deserialization resolves the same references against the *current* world, so
a cache hit from disk executes against today's objects — the deopt
descriptors point at the claimant's own ``CodeObject`` (profile updates and
``deopt_sites`` bumps land where they should), and identity guards pin
today's closures.

When bytes are made is :class:`~repro.jit.codecache.CodeCache`'s rule.  One
of its two stores is here, :class:`DirectoryStore`: one file per code hash
(``<dir>/<hh>/<hash>.ccache``) holding a digest→bytes map, merged on flush;
a file that does not read is a miss, never an error in the program.
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
from typing import Any, Dict, Optional, Tuple

from ..bytecode.compiler import CodeObject
from ..native import pycodegen
from ..native.lower import NativeCode
from ..runtime.env import REnvironment
from ..runtime.values import NULL, RBuiltin, RClosure, RNull
from .codecache import Unstable, WorldResolver, stable_closure_hash

#: bumped when a pickled shape changes or generated sources pass their
#: helpers other arguments (4: ``_DS``/``_fail``/``_fallback`` stopped taking
#: registers; 5: ``DeoptDescr`` lost ``promises``/``escape``, ``OsrEntry.env``
#: became ``env_reg``).  Another version is a miss and a fresh compile.
FORMAT_VERSION = 5


class PersistError(Exception):
    """Artifact could not be written or read back (corrupt, wrong version,
    reference unresolvable in this world, ...)."""


#: NativeCode fields that constitute the replayable lowering output.  The
#: mutable/per-install fields (closure, invalidated, pyfunc, pics) are
#: deliberately excluded and reset on load.
_NC_FIELDS = (
    "name", "ops", "n_regs", "reg_init", "deopts", "kernels", "param_regs",
    "env_reg", "env_elided", "cont_var_names", "cont_stack_size", "entry_pc",
    "is_continuation", "is_deoptless_continuation", "bc_code",
)


# ---------------------------------------------------------------------------
# CodeObject <-> const-pool path addressing
# ---------------------------------------------------------------------------

def _walk_code(code: CodeObject, base: tuple, path: tuple, out: Dict[int, tuple]) -> None:
    out.setdefault(id(code), (base, path))
    for i, c in enumerate(code.consts):
        if isinstance(c, CodeObject):
            _walk_code(c, base, path + (("const", i),), out)
        elif isinstance(c, tuple) and len(c) == 3 and isinstance(c[0], CodeObject):
            # an MK_CLOSURE payload: (body code, formals, name)
            _walk_code(c[0], base, path + (("payload", i),), out)
            for j, (_, default) in enumerate(c[1]):
                if default is not None:
                    _walk_code(default, base, path + (("default", i, j),), out)


def _resolve_path(code: CodeObject, path: tuple) -> CodeObject:
    for step in path:
        tag = step[0]
        try:
            if tag == "const":
                code = code.consts[step[1]]
            elif tag == "payload":
                code = code.consts[step[1]][0]
            elif tag == "default":
                code = code.consts[step[1]][1][step[2]][1]
            else:
                raise PersistError("bad code path step %r" % (step,))
        except (IndexError, TypeError):
            raise PersistError("dangling code path %r" % (path,))
    if not isinstance(code, CodeObject):
        raise PersistError("code path %r resolves to %r" % (path, type(code)))
    return code


# ---------------------------------------------------------------------------
# pickling with persistent references
# ---------------------------------------------------------------------------

class _Pickler(pickle.Pickler):
    def __init__(self, file, root_code: CodeObject, resolver: WorldResolver):
        super().__init__(file, protocol=4)
        self.root_code = root_code
        self.resolver = resolver
        self._paths: Dict[int, tuple] = {}
        _walk_code(root_code, ("root",), (), self._paths)
        self._scanned_globals = False

    def _scan_globals(self) -> None:
        """Lazily index codes reachable from *stable* global closures (an
        inlined callee's DeoptDescr references the callee's own unit)."""
        self._scanned_globals = True
        for name, obj in self.resolver.vm.global_env.bindings.items():
            if isinstance(obj, RClosure):
                try:
                    ref = self.resolver.stable_ref(obj)
                except Unstable:
                    continue
                _walk_code(obj.code, ref, (), self._paths)
                for j, (_, default) in enumerate(obj.formals):
                    if default is not None:
                        _walk_code(default, ref, (("fdefault", j),), self._paths)

    def persistent_id(self, obj: Any) -> Optional[tuple]:
        if obj is NULL or isinstance(obj, RNull):
            return ("null",)
        if isinstance(obj, (RBuiltin, RClosure)):
            return ("obj", self.resolver.stable_ref(obj))
        if isinstance(obj, CodeObject):
            ref = self._paths.get(id(obj))
            if ref is None and not self._scanned_globals:
                self._scan_globals()
                ref = self._paths.get(id(obj))
            if ref is None:
                raise Unstable("code %r has no stable address" % obj.name)
            return ("code", ref[0], ref[1])
        if isinstance(obj, REnvironment):
            raise Unstable("entry references a live environment")
        return None


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, root_code: CodeObject, resolver: WorldResolver):
        super().__init__(file)
        self.root_code = root_code
        self.resolver = resolver

    def persistent_load(self, ref: tuple) -> Any:
        tag = ref[0]
        if tag == "null":
            return NULL
        if tag == "obj":
            return self.resolver.resolve_ref(ref[1])
        if tag == "code":
            base, path = ref[1], ref[2]
            if base == ("root",):
                code = self.root_code
            else:
                owner = self.resolver.resolve_ref(base)
                if path and path[0][0] == "fdefault":
                    try:
                        code = owner.formals[path[0][1]][1]
                    except (IndexError, TypeError):
                        raise PersistError("dangling formal default %r" % (path,))
                    path = path[1:]
                    if not isinstance(code, CodeObject):
                        raise PersistError("formal default is not code")
                else:
                    code = owner.code
            return _resolve_path(code, path)
        raise PersistError("unknown persistent ref %r" % (ref,))


def serialize(ncode: NativeCode, root_code: CodeObject, resolver: WorldResolver) -> bytes:
    """World-independent bytes for ``ncode`` (compiled from ``root_code``).

    Raises :class:`Unstable` when the unit pins an object with no stable
    name, :class:`PersistError` on any other pickling failure.
    """
    state = {f: getattr(ncode, f) for f in _NC_FIELDS}
    state["deoptless_ctx"] = getattr(ncode, "deoptless_ctx", None)
    # the OSR entry map is pure lowering output (registers, kinds, RTypes —
    # no world references beyond the already-pathed bc_code)
    state["osr_entries"] = getattr(ncode, "osr_entries", {})
    # optional extensions ride as .get-defaulted keys so artifacts written
    # before they existed still load under the same FORMAT_VERSION
    state["param_unbox"] = getattr(ncode, "param_unbox", None)
    state["call_context"] = getattr(ncode, "call_context", None)
    state["inlined_frames"] = getattr(ncode, "inlined_frames", 0)
    # codegen-tier artifact (native/pycodegen.py): generated source + its
    # constant pool ride with the unit so a warm start only re-compile()s
    # the text instead of re-running the emitter.  The consts are pickled in
    # the same stream as the ops, so shared runtime objects (identity-guard
    # pins, builtins, CodeObjects) keep their identity on load.  Emission is
    # forced here because a store takes the bytes at insert time, before the
    # unit first runs (what a run adds — ``pyfunc``, ``pics``, a kernel's
    # ``pyfn`` — stays out of the bytes of an in-VM rebind too).
    if resolver.vm.config.threaded_dispatch:
        pycodegen.ensure_source(ncode, resolver.vm.state)
    src = getattr(ncode, "pysrc", None)
    if src:
        state["pycodegen_src"] = src
        state["pycodegen_consts"] = getattr(ncode, "pyconsts", None)
    buf = io.BytesIO()
    try:
        _Pickler(buf, root_code, resolver).dump((FORMAT_VERSION, state))
    except Unstable:
        raise
    except Exception as e:
        raise PersistError("serialize failed: %s" % e)
    return buf.getvalue()


def deserialize(data: bytes, root_code: CodeObject, resolver: WorldResolver) -> NativeCode:
    """Rebuild a template ``NativeCode`` against the current world.

    Raises :class:`Unstable` when a reference does not resolve (global
    rebound, hash mismatch) and :class:`PersistError` on corrupt input.
    """
    nc = NativeCode.__new__(NativeCode)
    try:
        version, state = _Unpickler(io.BytesIO(data), root_code, resolver).load()
        for f in _NC_FIELDS:  # a flipped byte in a field name still unpickles
            setattr(nc, f, state[f])
    except (Unstable, PersistError):
        raise
    except Exception as e:
        raise PersistError("deserialize failed: %r" % (e,))
    if version != FORMAT_VERSION:
        raise PersistError("artifact format %r unsupported" % (version,))
    nc.closure = None
    nc.invalidated = False
    nc.pics = {}
    nc.cache_template = None
    nc.param_unbox = state.get("param_unbox")
    nc.call_context = state.get("call_context")
    nc.inlined_frames = state.get("inlined_frames", 0)
    nc.is_context_version = False
    nc.osr_entries = state.get("osr_entries") or {}
    # restore the codegen artifact; the exec'd function is never persisted
    # (it is process-local) but the source + consts make the first bind a
    # compile()/exec with no emitter walk
    nc.pysrc = state.get("pycodegen_src")
    nc.pyconsts = state.get("pycodegen_consts")
    nc.pyfunc = None
    if nc.pysrc is not None:
        resolver.vm.state.pycodegen_src_reuses += 1
    if state.get("deoptless_ctx") is not None:
        nc.deoptless_ctx = state["deoptless_ctx"]
    return nc


# ---------------------------------------------------------------------------
# on-disk artifact store (one bucket file per code hash)
# ---------------------------------------------------------------------------

def bucket_path(cache_dir: str, code_hash: str) -> str:
    return os.path.join(cache_dir, code_hash[:2], code_hash + ".ccache")


def load_bucket(cache_dir: str, code_hash: str) -> Dict[str, bytes]:
    """digest -> serialized-entry map for one code hash; {} when there is no
    such file or another format version wrote it.  A file that does not
    read raises :class:`PersistError` and nothing else: a bad artifact must
    never break the VM, and the caller says what it is worth."""
    try:
        with open(bucket_path(cache_dir, code_hash), "rb") as f:
            obj = pickle.loads(f.read())
        return dict(obj["entries"]) if obj["format"] == FORMAT_VERSION else {}
    except FileNotFoundError:
        return {}
    except Exception as e:
        # read from memory, so a corrupt length prefix is "truncated", not a
        # terabyte to fetch; past that a flipped byte reaches whatever an
        # opcode can raise, or loads as something that is not a bucket
        raise PersistError("bucket %s unreadable: %r" % (code_hash[:12], e))


def save_bucket(cache_dir: str, code_hash: str, entries: Dict[str, bytes]) -> None:
    """Merge ``entries`` into the bucket for ``code_hash`` (atomic replace);
    a file that does not read is replaced."""
    try:
        merged = load_bucket(cache_dir, code_hash)
    except PersistError:
        merged = {}
    merged.update(entries)
    path = bucket_path(cache_dir, code_hash)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            pickle.dump({"format": FORMAT_VERSION, "entries": merged}, f, protocol=4)
        os.replace(tmp, path)
    except OSError as e:  # pragma: no cover - disk-full etc.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise PersistError("save failed: %s" % e)


class DirectoryStore:
    """The artifact directory as a store of :class:`~repro.jit.codecache.CodeCache`:
    a bucket file is read whole the first time the VM touches its code hash,
    takes ``put``s in memory, and :meth:`flush` rewrites it."""

    hit_counter = "codecache_disk_hits"

    def __init__(self, cache_dir: str):
        self.dir = cache_dir
        self._buckets: Dict[str, Dict[str, bytes]] = {}
        self._dirty: set = set()

    def _bucket(self, code_hash: str) -> Dict[str, bytes]:
        if code_hash not in self._buckets:
            # filed before the read: an unreadable file raises once, then is empty
            self._buckets[code_hash] = {}
            self._buckets[code_hash].update(load_bucket(self.dir, code_hash))
        return self._buckets[code_hash]

    def get(self, digest: str, bucket: str, tenant: Optional[str]) -> Optional[bytes]:
        return self._bucket(bucket).get(digest)

    def put(self, digest: str, bucket: str, data: bytes, size: int,
            tenant: Optional[str]) -> None:
        self._bucket(bucket)[digest] = data
        self._dirty.add(bucket)

    def flush(self) -> int:
        """Write (merge into) every bucket file that took a ``put`` since
        the last flush; returns how many."""
        dirty, self._dirty = sorted(self._dirty), set()
        for bucket in dirty:
            save_bucket(self.dir, bucket, self._buckets[bucket])
        return len(dirty)
