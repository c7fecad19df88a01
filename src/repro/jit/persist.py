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

A cache key takes the same road to its stable digest: :class:`KeyPickler`
writes it in C with identities replaced by the same stable names
(``codecache.stable_digest`` hashes the bytes).

The codegen tier's output rides along as the unit's CPython code object
(``marshal``), so a unit that comes back as bytes is bound by an ``exec``,
not a ``compile()``.  Marshal bytes belong to one interpreter version, and
``marshal.loads`` of damaged bytes may crash the process rather than raise,
so every entry carries a CRC-32 of its payload that is checked before
anything is unpickled or unmarshalled.

When bytes are made is :class:`~repro.jit.codecache.CodeCache`'s rule.  One
of its two stores is here, :class:`DirectoryStore`: one file per code hash
(``<dir>/<hh>/<hash>.ccache``) holding a digest→bytes map, merged on flush
and stamped with the format and the interpreter's bytecode magic number; a
file another format or interpreter wrote is empty, and a file that does not
read is a miss, never an error in the program.
"""

from __future__ import annotations

import importlib.util
import io
import marshal
import os
import pickle
import tempfile
import zlib
from typing import Any, Dict, Optional

from ..bytecode.compiler import CodeObject
from ..deoptless.context import CallContext, ContinuationContext, DeoptContext
from ..native import pycodegen
from ..native.lower import NativeCode
from ..runtime.env import REnvironment
from ..runtime.rtypes import RType
from ..runtime.values import NULL, RBuiltin, RClosure, RNull
from .codecache import Ident, Unstable, WorldResolver

#: bumped when a pickled shape changes or generated sources pass their
#: helpers other arguments (4: ``_DS``/``_fail``/``_fallback`` stopped taking
#: registers; 5: ``DeoptDescr`` lost ``promises``/``escape``, ``OsrEntry.env``
#: became ``env_reg``; 6: one ``KERNEL`` opcode replaced the nine ``V*``
#: ones, and ``KernelDescr`` lost its compare-select fields; 7: an entry is a
#: checksummed payload holding the marshalled code object, not the source;
#: 8: builtins declare their result types, so one key names typed code where
#: it named generic code; 9: two key shapes, a continuation's carrying the
#: formals, and one ``ctx`` field on the unit; 10: ``OsrEntry`` carries the
#: header's constant-folded variables, ``const_slots``; 11: the config
#: component of a key lost ``enable_speculation``; 12: the vectorizer plans
#: no generic boxed reduce or computed subscript, so a key names scalar code
#: where it named such a kernel, and ``KernelDescr`` lost the boxed
#: accumulator's guard type; 13: a generated ``CALLG`` calls ``_callf``, the
#: generic call path, where it named a per-site inline-cache helper; 14:
#: ``VLOAD`` and ``VSTORE`` carry whether the index is an int and the
#: vector's guard-proven kind, which their generated code trusts).
#: Another version is a miss and a fresh compile.
FORMAT_VERSION = 14

#: the interpreter a bucket file was written by: marshalled code objects
#: load only under the bytecode version that made them
PYTHON_MAGIC = importlib.util.MAGIC_NUMBER


class PersistError(Exception):
    """Artifact could not be written or read back (corrupt, wrong version,
    reference unresolvable in this world, ...)."""


#: NativeCode fields that constitute the replayable lowering output, the
#: context it was compiled under and its OSR entry map (registers, kinds,
#: RTypes — no world references beyond the already-pathed bc_code).  The
#: per-install fields (closure, invalidated, guard_sites, pyfunc) are
#: deliberately excluded and reset on load.
_NC_FIELDS = (
    "name", "ops", "n_regs", "reg_init", "deopts", "kernels", "param_regs",
    "param_unbox", "env_reg", "env_elided", "cont_var_names", "cont_stack_size",
    "entry_pc", "is_continuation", "ctx", "bc_code", "osr_entries",
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


class KeyPickler(pickle.Pickler):
    """Renders a cache key as bytes in C.  A key is ~600 nodes, nearly all
    tuples, strings, ints, bools and None, which the C pickler writes
    without calling back; only the few other objects reach
    :meth:`reducer_override`, which replaces identities with stable names.
    ``fast`` turns the memo off, so the bytes depend on the values alone,
    never on which equal objects happen to be shared."""

    def __init__(self, file, resolver: WorldResolver):
        super().__init__(file, protocol=4)
        self.fast = True
        self.resolver = resolver

    def reducer_override(self, obj):
        # each as a call of `tuple` on a tagged tuple: no literal key part
        # pickles that way
        if isinstance(obj, Ident):
            parts = ("ref", self.resolver.stable_ref(obj.obj))
        elif isinstance(obj, DeoptContext):
            parts = ("ctx", obj.stable_parts(self.resolver.stable_ref))
        elif isinstance(obj, ContinuationContext):
            parts = ("cont", obj.stable_parts())
        elif isinstance(obj, CallContext):
            parts = ("callctx", obj.stable_parts())
        elif isinstance(obj, RType):
            parts = ("T", obj.kind.name, int(obj.scalar), int(obj.maybe_na))
        elif obj is tuple:
            return NotImplemented  # the callable below, pickled by name
        else:  # no key holds one: a form nobody renders is no stable form
            raise Unstable("no stable form for %s" % type(obj).__name__)
        return tuple, (parts,)


def serialize(ncode: NativeCode, root_code: CodeObject, resolver: WorldResolver) -> bytes:
    """World-independent bytes for ``ncode`` (compiled from ``root_code``).

    Raises :class:`Unstable` when the unit pins an object with no stable
    name, :class:`PersistError` on any other pickling failure.
    """
    state = {f: getattr(ncode, f) for f in _NC_FIELDS}
    # codegen-tier artifact (native/pycodegen.py): the compiled code object
    # and its constant pool, False when codegen declined the unit, None
    # when it was never compiled.  The consts are pickled in the same
    # stream as the ops, so shared runtime objects (identity-guard pins,
    # builtins, CodeObjects) keep their identity on load.  A store takes
    # the bytes at insert time, before the
    # unit first runs, so the unit is bound here — under ``bind``, which
    # only execs a code object that came in bytes.  What a run adds
    # (a kernel's ``pyfn``) stays out: a unit serialized after it
    # ran is byte-identical to one serialized before.
    if resolver.vm.config.threaded_dispatch:
        pycodegen.bind(ncode, resolver.vm)
    state["pycode"], state["pyconsts"] = (
        (False, None) if ncode.pysrc is False
        else (None, None) if ncode.pycode is None
        else (marshal.dumps(ncode.pycode), ncode.pyconsts))
    buf = io.BytesIO()
    try:
        _Pickler(buf, root_code, resolver).dump((FORMAT_VERSION, state))
    except Unstable:
        raise
    except Exception as e:
        raise PersistError("serialize failed: %s" % e)
    payload = buf.getvalue()
    return zlib.crc32(payload).to_bytes(4, "big") + payload


def deserialize(data: bytes, root_code: CodeObject, resolver: WorldResolver) -> NativeCode:
    """Rebuild a template ``NativeCode`` against the current world.

    Raises :class:`Unstable` when a reference does not resolve (global
    rebound, hash mismatch) and :class:`PersistError` on corrupt input: a
    payload whose checksum does not match is never unpickled.
    """
    nc = NativeCode.__new__(NativeCode)
    try:
        payload = memoryview(data)[4:]
        if len(data) < 4 or zlib.crc32(payload) != int.from_bytes(data[:4], "big"):
            raise PersistError("entry checksum mismatch")
        version, state = _Unpickler(io.BytesIO(payload), root_code, resolver).load()
        if version != FORMAT_VERSION:
            raise PersistError("artifact format %r unsupported" % (version,))
        for f in _NC_FIELDS:
            setattr(nc, f, state[f])
        code = state["pycode"]
        nc.pycode = marshal.loads(code) if code else None
        nc.pyconsts = state["pyconsts"]
    except (Unstable, PersistError):
        raise
    except Exception as e:
        raise PersistError("deserialize failed: %r" % (e,))
    nc.closure = None
    nc.invalidated = False
    nc.guard_sites = ()
    nc.cache_template = None
    # the codegen artifact: with a code object, the first bind is an exec;
    # the source is not carried, and a declined unit stays declined
    nc.pysrc = False if code is False else None
    nc.pyfunc = None
    if nc.pycode is not None:
        resolver.vm.state.pycodegen_src_reuses += 1
    return nc


# ---------------------------------------------------------------------------
# on-disk artifact store (one bucket file per code hash)
# ---------------------------------------------------------------------------

def bucket_path(cache_dir: str, code_hash: str) -> str:
    return os.path.join(cache_dir, code_hash[:2], code_hash + ".ccache")


def load_bucket(cache_dir: str, code_hash: str) -> Dict[str, bytes]:
    """digest -> serialized-entry map for one code hash; {} when there is no
    such file or another format version or interpreter wrote it.  A file
    that does not read raises :class:`PersistError` and nothing else: a bad
    artifact must never break the VM, and the caller says what it is
    worth."""
    try:
        with open(bucket_path(cache_dir, code_hash), "rb") as f:
            obj = pickle.loads(f.read())
        if obj["format"] != FORMAT_VERSION or obj["python"] != PYTHON_MAGIC:
            return {}
        return dict(obj["entries"])
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
            pickle.dump({"format": FORMAT_VERSION, "python": PYTHON_MAGIC,
                         "entries": merged}, f, protocol=4)
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
