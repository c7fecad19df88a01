"""Call-heavy microbenchmarks — small closures invoked from hot loops.

These are the speculative-inlining workloads: every call site is
monomorphic (except ``call_poly``), the callees are tiny and loop-free, and
the loop bodies do nothing *but* call, so the guarded-call overhead
(argument boxing, environment allocation, the call/return protocol)
dominates.  ``call_poly`` drives one genuinely megamorphic site through a
dispatcher closure — it is not inlinable by design and exercises the
generic call path (``CALLG``) instead.
"""

from __future__ import annotations

from ..workload import REGISTRY, Workload

REGISTRY.add(Workload(
    name="call_scalar",
    source="""
madd <- function(a, b) a + b
call_scalar_run <- function(n, x) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- madd(s, x)
    i <- i + 1
  }
  s
}
""",
    setup="invisible(NULL)",
    call="call_scalar_run({n}, 1)",
    n=60000,
    n_test=6000,
    notes="one monomorphic scalar call per iteration",
))

REGISTRY.add(Workload(
    name="call_chain",
    source="""
cc_inc <- function(x) x + 1
cc_dbl <- function(x) x * 2
cc_mix <- function(a, b) a - b
call_chain_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    a <- cc_inc(s)
    b <- cc_dbl(i)
    s <- cc_mix(a, b) + s - s + i
    i <- i + 1
  }
  s
}
""",
    setup="invisible(NULL)",
    call="call_chain_run({n})",
    n=40000,
    n_test=4000,
    notes="three distinct monomorphic callees per iteration",
))

REGISTRY.add(Workload(
    name="call_nested",
    source="""
cn_inc <- function(x) x + 1
cn_twice <- function(x) {
  a <- cn_inc(x)
  cn_inc(a)
}
call_nested_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + cn_twice(i)
    i <- i + 1
  }
  s
}
""",
    setup="invisible(NULL)",
    call="call_nested_run({n})",
    n=50000,
    n_test=5000,
    notes="depth-2 inlining: cn_twice and both cn_inc calls splice",
))

REGISTRY.add(Workload(
    name="call_default",
    source="""
cd_step <- function(x, d = 2) x + d
call_default_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- cd_step(s)
    i <- i + 1
  }
  s
}
""",
    setup="invisible(NULL)",
    call="call_default_run({n})",
    n=60000,
    n_test=6000,
    notes="constant default argument substituted at the inline site",
))

REGISTRY.add(Workload(
    name="call_poly",
    source="""
cp_a1 <- function(x) x + 1
cp_a2 <- function(x) x + 2
cp_a3 <- function(x) x + 3
cp_a4 <- function(x) x * 2
cp_apply <- function(g, x) g(x)
call_poly_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- cp_apply(cp_a1, s)
    s <- cp_apply(cp_a2, s) - s + i
    s <- cp_apply(cp_a3, s) - s
    s <- cp_apply(cp_a4, s) - s
    i <- i + 1
  }
  s
}
""",
    setup="invisible(NULL)",
    call="call_poly_run({n})",
    n=12000,
    n_test=1500,
    notes="megamorphic site inside cp_apply: generic call path, not inlinable",
))
