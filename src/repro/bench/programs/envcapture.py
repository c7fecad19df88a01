"""Closure-heavy programs — functions whose local frame is captured.

Each hot function creates a closure or a lazy argument, so it compiles in
env mode: every local goes through a materialized ``REnvironment``.  They
are correctness inputs (``tests/test_workloads.py``, the differential
fuzzer's shapes) for the capture paths of the builder, both executors and
deopt re-materialization; no benchmark times them.

* ``envcap_counter`` — a counter/accumulator closure: the loop body bumps
  a captured total through ``<<-``.
* ``envcap_memo`` — a memoizing closure: two captured cache slots are read
  and written through the environment.
* ``envcap_lazy`` — a lazy-argument chain: the argument expression calls a
  user closure, so the compiler cannot evaluate it eagerly and emits a
  promise.
"""

from __future__ import annotations

from ..workload import REGISTRY, Workload

REGISTRY.add(Workload(
    name="envcap_counter",
    source="""
counter_run <- function(n) {
  total <- 0
  bump <- function(k) total <<- total + k
  i <- 0
  while (i < n) {
    bump(1)
    i <- i + 1
  }
  total
}
""",
    setup="invisible(NULL)",
    call="counter_run({n})",
    n=30000,
    n_test=3000,
    notes="captured accumulator via <<-",
))

REGISTRY.add(Workload(
    name="envcap_memo",
    source="""
memo_run <- function(n) {
  last <- -1
  lastv <- 0
  sq <- function(x) {
    if (x == last) lastv
    else {
      last <<- x
      lastv <<- x * x
      lastv
    }
  }
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + sq(i %% 8)
    i <- i + 1
  }
  s
}
""",
    setup="invisible(NULL)",
    call="memo_run({n})",
    n=25000,
    n_test=2500,
    notes="memoizing closure over two captured cache slots",
))

REGISTRY.add(Workload(
    name="envcap_lazy",
    source="""
lz_add1 <- function(x) x + 1
lz_use <- function(v) v * 2
lazysum_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + lz_use(lz_add1(i))
    i <- i + 1
  }
  s
}
""",
    setup="invisible(NULL)",
    call="lazysum_run({n})",
    n=30000,
    n_test=3000,
    notes="lazy-argument chain: one promise per iteration",
))
