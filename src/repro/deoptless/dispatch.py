"""Context dispatch tables: deoptless continuations and entry versions.

One :class:`ContextTable` per function holds its deoptless continuations
(paper: "we keep all deoptless continuations of a function in a common
dispatch table"), up to ``deoptless_max_continuations`` (5 by default)
compiled continuations keyed by their :class:`DeoptContext`.  A second one,
allocated when a closure's entry proves polymorphic, holds its
entry-specialized versions keyed by :class:`CallContext`, up to
``dispatch_versions``; the closure's generic version is not an entry but the
fall-through the caller runs on a miss, so a deopt in one version retires
exactly that entry and leaves its siblings and the generic installed.

A table is one list of ``(context, code)`` pairs sorted most-specific first
(descending :meth:`specificity`, ties in insertion order) — a linearization
of the contexts' partial order.  ``dispatch`` scans for the first entry whose
context is ≥ the current one, exactly the scan described in section 4.3, and
remembers the answer until ``insert`` or ``remove`` changes the entries.
As in the paper, the linearization "does not favor a particular context,
should multiple optimal ones exist".  Contexts of different shapes never
compare (``comparable``: the same target pc, depth and reason kind for deopt
contexts, the same arity for call contexts), so entries of another shape are
passed over without being chosen.

A full table refuses inserts, as the paper's and upstream's do: callers ask
:attr:`ContextTable.full` *before* compiling for a new context and fall
back — deoptless to real deoptimization, entry dispatch to the generic
version — counting the refusal (``Telemetry.dispatch_refusals``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: answers a table remembers before it starts over (a full table meets new contexts without end)
MAX_ANSWERS = 64
_UNKNOWN = object()


class ContextTable:
    """Bounded most-specific-first dispatch over a context partial order."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        #: (context, code) pairs, descending specificity, ties in insertion order
        self.entries: List[Tuple[object, object]] = []
        #: context -> what :meth:`dispatch` answered for it, None included;
        #: forgotten whenever the entries change
        self.answers: Dict[object, Optional[object]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.max_entries

    def dispatch(self, ctx) -> Optional[object]:
        """First compiled code whose compile-time context covers ``ctx``,
        remembered until :meth:`insert` or :meth:`remove` changes the entries."""
        answers = self.answers  # before the scan: a racing insert replaces it
        code = answers.get(ctx, _UNKNOWN)
        if code is _UNKNOWN:
            code = next((code for c, code in self.entries if ctx <= c), None)
            if len(answers) >= MAX_ANSWERS:
                answers.clear()
            answers[ctx] = code
        return code

    def lookup_exact(self, ctx) -> Optional[object]:
        for c, code in self.entries:
            if c == ctx:
                return code
        return None

    def insert(self, ctx, code) -> bool:
        """Add an entry, or replace the code of an equal context; False when
        the table is :attr:`full`."""
        spec = ctx.specificity()
        at = len(self.entries)
        for i, (c, _) in enumerate(self.entries):
            if c == ctx:
                self.entries[i] = (ctx, code)
                self.answers = {}
                return True
            if at > i and c.specificity() < spec:
                at = i
        if self.full:
            return False
        self.entries.insert(at, (ctx, code))
        self.answers = {}
        return True

    def remove(self, code) -> None:
        self.entries = [e for e in self.entries if e[1] is not code]
        self.answers = {}

    def __repr__(self) -> str:  # pragma: no cover
        return "<ContextTable %d/%d>" % (len(self.entries), self.max_entries)
