"""Tests for the background tier-up queue (jit/compile_queue.py).

Modes: ``sync`` (compile inline at the call site — the default), ``step``
(enqueue; the embedder drains with a budget), ``bg`` (a worker thread
compiles from a feedback snapshot; the main thread installs at the next call
boundary).
"""

from __future__ import annotations

import pytest

from conftest import make_vm
from repro import from_r

LOOP_SRC = """
f <- function(n) {
  s <- 0
  for (i in 1:n) s <- s + i
  s
}
"""


def queue_vm(mode, **kw):
    cfg = dict(compile_threshold=2, tierup_mode=mode)
    cfg.update(kw)
    vm = make_vm(**cfg)
    vm.eval(LOOP_SRC)
    return vm


# ---------------------------------------------------------------------------
# sync (default)
# ---------------------------------------------------------------------------

def test_sync_mode_compiles_inline():
    vm = queue_vm("sync")
    for _ in range(5):
        vm.eval("f(10L)")
    assert vm.state.compiles == 1
    assert vm.state.tierup_enqueues == 0
    assert vm.global_env.get("f").jit.version is not None


def test_default_mode_is_sync():
    vm = make_vm()
    assert vm.config.tierup_mode == "sync"


# ---------------------------------------------------------------------------
# step: deterministic synchronous drain
# ---------------------------------------------------------------------------

def test_step_mode_enqueues_without_compiling():
    vm = queue_vm("step")
    for _ in range(6):
        vm.eval("f(10L)")
    assert vm.state.tierup_enqueues == 1
    assert vm.state.compiles == 0
    assert vm.global_env.get("f").jit.version is None


def test_step_mode_keeps_profiling_until_drain():
    vm = queue_vm("step")
    for _ in range(6):
        vm.eval("f(10L)")
    interp_before = vm.state.interp_ops
    vm.eval("f(10L)")
    assert vm.state.interp_ops > interp_before, "still interpreting pre-drain"
    n = vm.drain_compile_queue()
    assert n == 1
    assert vm.state.compiles == 1
    assert vm.state.tierup_installs == 1
    native_before = vm.state.native_ops
    assert from_r(vm.eval("f(10L)")) == 55
    assert vm.state.native_ops > native_before, "native after drain"


def test_step_mode_dedups_requests():
    vm = queue_vm("step")
    for _ in range(20):
        vm.eval("f(10L)")
    assert vm.state.tierup_enqueues == 1, "one request per closure"


def test_drain_budget_bounds_work():
    vm = queue_vm("step")
    vm.eval(LOOP_SRC.replace("f <-", "g <-"))
    vm.eval("g <- function(n) n * 2")  # distinct body: separate request
    for _ in range(6):
        vm.eval("f(10L)")
        vm.eval("g(10L)")
    assert vm.state.tierup_enqueues == 2
    # a budget too small for even one unit still makes progress (min 1)
    n = vm.drain_compile_queue(budget=1)
    assert n == 1
    assert len(vm.compile_queue.pending) == 1
    n = vm.drain_compile_queue()
    assert n == 1
    assert vm.state.tierup_installs == 2


def test_step_drain_results_match_sync():
    calls = ["f(%dL)" % n for n in (5, 10, 15, 20, 25, 30)]
    vm_s = queue_vm("sync")
    sync_results = [repr(vm_s.eval(c)) for c in calls]
    vm_q = queue_vm("step")
    step_results = []
    for c in calls:
        step_results.append(repr(vm_q.eval(c)))
        vm_q.drain_compile_queue()
    assert step_results == sync_results


def test_stale_request_dropped_after_install():
    """If a version was installed by another path before the drain, the
    queued request is dropped, not double-installed."""
    vm = queue_vm("step")
    for _ in range(6):
        vm.eval("f(10L)")
    clo = vm.global_env.get("f")
    st = vm.jit_state(clo)
    vm.compile_closure(clo)  # e.g. an embedder-forced compile
    assert st.version is not None
    installed = st.version
    vm.drain_compile_queue()
    assert st.version is installed
    assert vm.state.tierup_drops == 1


# ---------------------------------------------------------------------------
# bg: worker thread
# ---------------------------------------------------------------------------

def test_bg_mode_compiles_and_installs():
    vm = queue_vm("bg")
    for _ in range(6):
        vm.eval("f(10L)")
    assert vm.compile_queue.join(5.0), "worker must finish"
    assert from_r(vm.eval("f(10L)")) == 55  # install happens at call boundary
    assert vm.state.compiles == 1
    assert vm.state.tierup_installs == 1
    assert vm.global_env.get("f").jit.version is not None


def test_bg_mode_interpreter_keeps_running_while_queued():
    vm = queue_vm("bg")
    results = [from_r(vm.eval("f(10L)")) for _ in range(10)]
    assert results == [55] * 10
    vm.compile_queue.join(5.0)
    assert from_r(vm.eval("f(10L)")) == 55


def test_bg_results_match_sync():
    calls = ["f(%dL)" % n for n in (5, 10, 15, 20, 25, 30, 35, 40)]
    vm_s = queue_vm("sync")
    sync_results = [repr(vm_s.eval(c)) for c in calls]
    vm_b = queue_vm("bg")
    bg_results = [repr(vm_b.eval(c)) for c in calls]
    vm_b.compile_queue.join(5.0)
    assert bg_results == sync_results


# ---------------------------------------------------------------------------
# interaction with the code cache
# ---------------------------------------------------------------------------

def test_queued_tierup_consults_cache_first():
    """A sibling closure whose unit is already cached installs immediately
    at the call site — no queue round-trip."""
    vm = queue_vm("step", codecache=True)
    for _ in range(6):
        vm.eval("f(10L)")
    vm.drain_compile_queue()
    assert vm.state.compiles == 1
    vm.eval(LOOP_SRC.replace("f <-", "g <-"))
    for _ in range(6):
        vm.eval("g(10L)")
    assert vm.state.tierup_enqueues == 1, "cache hit bypasses the queue"
    assert vm.state.compiles == 1
    assert vm.global_env.get("g").jit.version is not None
