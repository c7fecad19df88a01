"""Fleet-wide background tier-up: one worker pool for every tenant.

In a server running hundreds of sessions, per-VM compile threads don't
scale: N tenants warming the same library would burn N cores compiling the
same units.  The fleet queue centralizes ``tierup_mode="bg"``'s worker into
one pool shared by the whole :class:`~repro.serve.server.Server`, and —
the point of centralizing — **coalesces identical in-flight builds across
tenants**, keyed on the same stable digest the shared code cache uses.

Protocol per request group:

* the *origin* (first submitter) has its :class:`~repro.jit.compile_queue.
  CompileQueue`'s ``build_off_thread`` run on a fleet worker, over the feedback
  snapshot taken on the session thread at enqueue time; the built unit is
  staged into the origin's ``ready`` deque — installed (and its stable form
  published to the shared cache) on the origin's own thread at its next
  closure call, exactly like ``bg`` mode;
* every *coalesced* submitter gets the :data:`~repro.jit.compile_queue.
  COALESCED` sentinel staged instead: at install time it claims the
  published form from the shared cache (an O(lookup) rebind counted in
  ``batched_compiles``), or harmlessly drops and re-requests if it lost the
  race with the origin's install.

Installs therefore never cross session boundaries: a fleet worker only ever
runs the *pipeline* (build/optimize/lower, guarded by the owning queue's
``build_lock``); all version-table writes, cache inserts and telemetry
happen on the session thread that owns them.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, List, Optional, Tuple

from ..jit.compile_queue import COALESCED, CompileQueue, CompileRequest


class _Group:
    """All pending requests that would build the same unit."""

    __slots__ = ("key", "waiters")

    def __init__(self, key, queue, req):
        self.key = key
        #: [(CompileQueue, CompileRequest)] — index 0 is the origin
        self.waiters: List[Tuple[CompileQueue, CompileRequest]] = [(queue, req)]


class FleetCompileQueue:
    """Shared worker pool draining tier-up requests from many sessions."""

    def __init__(self, workers: int = 2):
        #: 0 = manual mode: no threads; callers step the queue with
        #: :meth:`drain` (deterministic — what the unit tests use)
        self.workers_wanted = max(0, workers)
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)
        self.idle = threading.Condition(self.lock)
        self.queue: "deque[_Group]" = deque()
        #: dedup index: group key -> group still awaiting a worker
        self.groups: dict = {}
        self.inflight = 0
        self.stopping = False
        self.threads: List[threading.Thread] = []
        #: the fleet's SharedCodeCache (Server wires it): workers skip
        #: builds whose stable form is already published there
        self.shared = None
        # -- stats (snapshot-only observability) --
        self.builds = 0       # pipeline runs actually executed
        self.coalesced = 0    # requests absorbed into an in-flight build
        self.published_skips = 0  # groups satisfied by an already-published form

    def __len__(self) -> int:
        with self.lock:
            return len(self.queue)

    # ------------------------------------------------------------- enqueue

    def submit(self, queue: CompileQueue, req: CompileRequest,
               digest: Optional[str]) -> bool:
        """Enqueue a session's tier-up request.  ``digest`` is the stable
        digest of the unit it would build (computed on the session thread);
        requests sharing a digest are built once for the whole fleet.  A
        None digest (world-local key) degrades to per-VM dedup — already
        guaranteed by the owning queue's ``queued_ids``, so such requests
        always start their own group.  Returns True when a new build was
        scheduled, False when coalesced."""
        key = digest if digest is not None else (id(queue.vm), req.key())
        with self.lock:
            if self.stopping:
                return False
            # the group stays in the dedup index until its results are
            # staged (not merely until a worker picks it up) — late joiners
            # attach to an in-flight build rather than scheduling their own
            group = self.groups.get(key) if digest is not None else None
            if group is not None:
                group.waiters.append((queue, req))
                self.coalesced += 1
                return False
            group = _Group(key, queue, req)
            self.groups[key] = group
            self.queue.append(group)
            self._ensure_workers()
            self.wake.notify()
        return True

    # ------------------------------------------------------------- workers

    def drain(self) -> int:
        """Manual stepping (``workers=0``): run every queued group on the
        caller's thread; returns the number of groups processed.  Results
        are staged exactly as a worker would stage them — installs still
        happen on each owning session's thread at its next call."""
        n = 0
        while True:
            with self.lock:
                if not self.queue:
                    break
                group = self.queue.popleft()
                self.inflight += 1
            try:
                self._run_group(group)
            finally:
                with self.lock:
                    self.inflight -= 1
                    self.idle.notify_all()
            n += 1
        return n

    def _ensure_workers(self) -> None:  # caller holds self.lock
        if self.workers_wanted == 0:
            return
        self.threads = [t for t in self.threads if t.is_alive()]
        while len(self.threads) < self.workers_wanted:
            t = threading.Thread(target=self._worker_loop,
                                 name="repro-fleet-%d" % len(self.threads),
                                 daemon=True)
            self.threads.append(t)
            t.start()

    def _worker_loop(self) -> None:  # pragma: no cover - timing dependent
        while True:
            with self.lock:
                while not self.queue and not self.stopping:
                    self.idle.notify_all()
                    self.wake.wait(timeout=0.5)
                if self.stopping:
                    return
                group = self.queue.popleft()
                self.inflight += 1
            try:
                self._run_group(group)
            finally:
                with self.lock:
                    self.inflight -= 1
                    self.idle.notify_all()

    def _run_group(self, group: _Group) -> None:
        origin_queue, origin_req = group.waiters[0]
        # a sibling group with this digest already built and published (the
        # origin tenant installed between our submit and now): every waiter
        # — origin included — claims the published form instead of building
        if (self.shared is not None and isinstance(group.key, str)
                and self.shared.contains(group.key)):
            with self.lock:
                self.groups.pop(group.key, None)
                waiters = list(group.waiters)
                self.published_skips += 1
            for queue, req in waiters:
                self._stage(queue, req, COALESCED)
            return
        ncode = origin_queue.build_off_thread(origin_req)
        self.builds += 1
        # retire the dedup entry *before* reading the waiter list: a submit
        # that raced past this point starts a fresh group instead of
        # attaching to one whose results are already staged
        with self.lock:
            self.groups.pop(group.key, None)
            waiters = list(group.waiters)
        self._stage(origin_queue, origin_req, ncode)
        for queue, req in waiters[1:]:
            self._stage(queue, req, COALESCED)

    @staticmethod
    def _stage(queue: CompileQueue, req: CompileRequest, result: Any) -> None:
        """Hand a result to the owning session (same staging protocol as
        bg mode: install happens on that session's thread)."""
        with queue.lock:
            queue.ready.append((req, result))
            queue.queued_ids.discard(req.key())
        queue.vm.queue_ready = True

    # ------------------------------------------------------------ lifecycle

    def join(self, timeout: float = 5.0) -> bool:
        """Wait until no group is queued or being built (tests/quiesce).
        Staged-but-uninstalled results may remain in per-session ``ready``
        deques; callers drain those via ``CompileQueue.install_ready``."""
        if self.workers_wanted == 0:
            self.drain()
            return True
        with self.lock:
            while self.queue or self.inflight:
                if not self.idle.wait(timeout=timeout):  # pragma: no cover
                    return False
        return True

    def close(self) -> None:
        with self.lock:
            self.stopping = True
            self.wake.notify_all()
        for t in self.threads:
            t.join(timeout=1.0)
        self.threads = []

    def stats(self) -> dict:
        with self.lock:
            return {
                "queued": len(self.queue),
                "inflight": self.inflight,
                "workers": len([t for t in self.threads if t.is_alive()]),
                "builds": self.builds,
                "coalesced": self.coalesced,
                "published_skips": self.published_skips,
            }
