"""Context dispatch tables: deoptless continuations and entry versions.

One :class:`DispatchTable` per function (paper: "we keep all deoptless
continuations of a function in a common dispatch table"), holding up to
``deoptless_max_continuations`` (5 by default) compiled continuations keyed
by their :class:`DeoptContext`.  The same machinery, generalized as
:class:`ContextTable`, also backs the :class:`VersionTable` of the entry
contextual-dispatch layer: per-closure compiled versions keyed by
:class:`CallContext`, scanned most-specific-first with the closure's
generic version as the fall-through.

A table stores entries sorted most-specific first — a linearization of the
contexts' partial order.  ``dispatch`` scans for the first entry whose
context is ≥ the current one, exactly the scan described in section 4.3.
As in the paper, the linearization "does not favor a particular context,
should multiple optimal ones exist".

Entries are bucketed by a comparability key — ``(target pc, reason kind)``
for deopt contexts, the argument count for call contexts.  Two contexts are
only comparable when the key agrees, so the scan can be restricted to one
bucket without changing which entry it finds.  Inserts are ``bisect``-style
into the affected bucket only (the previous implementation re-sorted the
whole entry list and rebuilt every bucket per insert); within-bucket order
is descending specificity with ties kept in insertion order, which is what
the global stable sort produced.

A full table refuses inserts, as the paper's and upstream's do: callers ask
:attr:`ContextTable.full` *before* compiling for a new context and fall
back — deoptless to real deoptimization, entry dispatch to the generic
version — counting the refusal (``Telemetry.dispatch_refusals``).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from .context import CallContext, DeoptContext


class TableEntry:
    """One (context, compiled code) pair plus its dispatch bookkeeping."""

    __slots__ = ("ctx", "code", "hits", "spec", "seq")

    def __init__(self, ctx, code, seq: int):
        self.ctx = ctx
        self.code = code
        self.hits = 0
        self.spec = ctx.specificity()
        #: insertion sequence number: keeps equal-specificity entries in
        #: first-inserted-first-scanned order
        self.seq = seq

    def __lt__(self, other: "TableEntry") -> bool:
        # descending specificity under bisect.insort; insort_right places
        # equal keys after existing ones (insertion order, like the stable
        # global sort this replaced)
        return self.spec > other.spec

    def __repr__(self) -> str:  # pragma: no cover
        return "<entry spec=%d hits=%d %r>" % (self.spec, self.hits, self.ctx)


class ContextTable:
    """Bucketed most-specific-first dispatch over a context partial order."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        #: comparability key -> entries, descending specificity
        self._buckets: Dict[tuple, List[TableEntry]] = {}
        self._count = 0
        self._seq = 0
        #: inserts refused because the table was full (telemetry)
        self.refused_inserts = 0

    def _bucket_key(self, ctx) -> tuple:
        raise NotImplementedError

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count >= self.max_entries

    @property
    def entries(self) -> List[Tuple[object, object]]:
        """All (context, code) pairs, most-specific first (the old flat-list
        view, kept for tests and the inspector)."""
        return [(e.ctx, e.code) for e in self.iter_entries()]

    def iter_entries(self) -> List[TableEntry]:
        flat = [e for bucket in self._buckets.values() for e in bucket]
        flat.sort(key=lambda e: (-e.spec, e.seq))
        return flat

    def dispatch(self, ctx) -> Optional[object]:
        """First compiled code whose compile-time context covers ``ctx``."""
        for e in self._buckets.get(self._bucket_key(ctx), ()):
            if ctx <= e.ctx:
                e.hits += 1
                return e.code
        return None

    def lookup_exact(self, ctx) -> Optional[object]:
        for e in self._buckets.get(self._bucket_key(ctx), ()):
            if e.ctx == ctx:
                return e.code
        return None

    def insert(self, ctx, code) -> bool:
        """Add an entry, or replace the code of an equal context; False when
        the table is :attr:`full`."""
        key = self._bucket_key(ctx)
        bucket = self._buckets.get(key)
        if bucket is not None:
            for i, e in enumerate(bucket):
                if e.ctx == ctx:
                    bucket[i] = TableEntry(ctx, code, e.seq)
                    return True
        if self.full:
            self.refused_inserts += 1
            return False
        if bucket is None:
            bucket = self._buckets[key] = []
        entry = TableEntry(ctx, code, self._seq)
        self._seq += 1
        bisect.insort(bucket, entry)
        self._count += 1
        return True

    def remove(self, code) -> None:
        for key in list(self._buckets):
            bucket = self._buckets[key]
            kept = [e for e in bucket if e.code is not code]
            if len(kept) != len(bucket):
                self._count -= len(bucket) - len(kept)
                if kept:
                    self._buckets[key] = kept
                else:
                    del self._buckets[key]

    def clear(self) -> None:
        self._buckets = {}
        self._count = 0

    def total_code_size(self) -> int:
        return sum(e.code.size for b in self._buckets.values() for e in b)

    def __repr__(self) -> str:  # pragma: no cover
        return "<%s %d/%d>" % (type(self).__name__, self._count, self.max_entries)


class DispatchTable(ContextTable):
    """Deoptless continuations keyed by :class:`DeoptContext`.

    The bucket key matters for mid-kernel exits: a bulk vector kernel that
    repeatedly trips at different guards materializes contexts at several
    loop-body pcs of the same function, keyed on the target pc plus the
    observed element type — bucketing keeps each of those dispatch points a
    one-or-two entry scan instead of a walk over every continuation of the
    function.
    """

    def _bucket_key(self, ctx: DeoptContext) -> tuple:
        return (ctx.pc, ctx.reason.kind)


class VersionTable(ContextTable):
    """Entry-specialized compiled versions keyed by :class:`CallContext`.

    The generic version (``ClosureJitState.version``) is deliberately NOT an
    entry: it is the fall-through the caller executes on a dispatch miss, so
    the table only ever holds strictly-assuming versions and a deopt in one
    of them can retire exactly that entry, leaving the siblings and the
    generic fall-through installed.
    """

    def _bucket_key(self, ctx: CallContext) -> tuple:
        return (len(ctx.arg_types),)
