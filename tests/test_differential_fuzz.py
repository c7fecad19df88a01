"""Differential fuzzing across tiers.

Generates structured random mini-R programs — loops, conditionals, vector
reads/writes, helper calls, and *type phase changes* — and checks that the
pure interpreter, the JIT, and the JIT+deoptless configurations compute
identical results.  This is the strongest single correctness property the
reproduction has: speculation, deoptimization and dispatched continuations
must all be semantics-preserving.
"""

from hypothesis import given, settings, strategies as st

from conftest import TIER_CONFIGS, engine_signature, make_vm
from repro import from_r

#: the two execution engines as Config overrides: reference if/elif loops
#: and the per-unit Python-codegen tier.  Engine-looping tests below must
#: leave identical dispatch signatures on both.
ENGINE_LEGS = (
    dict(threaded_dispatch=False),
    dict(threaded_dispatch=True),
)


@st.composite
def loop_program(draw):
    """A function with a loop, a conditional, and vector access."""
    acc_init = draw(st.sampled_from(["0", "0L", "1.5"]))
    cmp_op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    arith1 = draw(st.sampled_from(["+", "-", "*"]))
    arith2 = draw(st.sampled_from(["+", "-"]))
    threshold = draw(st.integers(-5, 5))
    use_break = draw(st.booleans())
    body_extra = "if (i == 4L) break\n" if use_break else ""
    src = """
kernel <- function(v, n) {
  acc <- %s
  for (i in 1:n) {
    x <- v[[i]]
    %sif (x %s %d) acc <- acc %s x
    else acc <- acc %s 1L
  }
  acc
}
""" % (acc_init, body_extra, cmp_op, threshold, arith1, arith2)
    return src


vectors = st.lists(st.integers(-8, 8), min_size=1, max_size=7)


@given(loop_program(), vectors, st.booleans())
@settings(max_examples=35, deadline=None)
def test_loop_kernels_agree_across_tiers(src, xs, as_double):
    if as_double:
        vec = "c(%s)" % ", ".join("%d.0" % x for x in xs)
    else:
        vec = "c(%s)" % ", ".join("%dL" % x for x in xs)
    call = "kernel(%s, %dL)" % (vec, len(xs))
    results = {}
    for tier, cfg in TIER_CONFIGS.items():
        vm = make_vm(**cfg)
        vm.eval(src)
        r = None
        for _ in range(3):
            r = from_r(vm.eval(call))
        results[tier] = r
    assert len(set(results.values())) == 1, (src, call, results)


@given(loop_program(), vectors, vectors)
@settings(max_examples=25, deadline=None)
def test_phase_changes_agree_across_tiers(src, ints, dbls):
    """Warm up on integers, then switch to doubles, then back: the deopt and
    deoptless machinery must be invisible in the results."""
    ivec = "c(%s)" % ", ".join("%dL" % x for x in ints)
    dvec = "c(%s)" % ", ".join("%d.5" % x for x in dbls)
    calls = (
        ["kernel(%s, %dL)" % (ivec, len(ints))] * 4
        + ["kernel(%s, %dL)" % (dvec, len(dbls))] * 3
        + ["kernel(%s, %dL)" % (ivec, len(ints))] * 2
    )
    per_tier = {}
    for tier, cfg in TIER_CONFIGS.items():
        vm = make_vm(**cfg)
        vm.eval(src)
        per_tier[tier] = [from_r(vm.eval(c)) for c in calls]
    assert per_tier["interp"] == per_tier["jit"] == per_tier["deoptless"], src


@given(loop_program(), vectors, st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_chaos_mode_is_semantics_preserving(src, xs, seed):
    """Random assumption failures never change results."""
    vec = "c(%s)" % ", ".join("%dL" % x for x in xs)
    call = "kernel(%s, %dL)" % (vec, len(xs))
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = from_r(vm_ref.eval(call))
    for deoptless in (False, True):
        vm = make_vm(chaos_rate=0.02, chaos_seed=seed,
                     enable_deoptless=deoptless, compile_threshold=1)
        vm.eval(src)
        for _ in range(5):
            assert from_r(vm.eval(call)) == expected


@st.composite
def call_chain_program(draw):
    """Two helpers and a driver; the callee identities vary."""
    op1 = draw(st.sampled_from(["+", "*", "-"]))
    op2 = draw(st.sampled_from(["+", "*", "-"]))
    k1 = draw(st.integers(1, 4))
    k2 = draw(st.integers(1, 4))
    return """
h1 <- function(x) x %s %dL
h2 <- function(x) x %s %dL
drive <- function(g, n) {
  s <- 0L
  for (i in 1:n) s <- s + g(i)
  s
}
""" % (op1, k1, op2, k2)


@given(call_chain_program(), st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_call_target_changes_agree_across_tiers(src, n):
    calls = (["drive(h1, %dL)" % n] * 4 + ["drive(h2, %dL)" % n] * 3
             + ["drive(h1, %dL)" % n])
    per_tier = {}
    for tier, cfg in TIER_CONFIGS.items():
        vm = make_vm(**cfg)
        vm.eval(src)
        per_tier[tier] = [from_r(vm.eval(c)) for c in calls]
    assert per_tier["interp"] == per_tier["jit"] == per_tier["deoptless"], src


@st.composite
def inline_program(draw):
    """Small closures called from a hot loop — speculative-inlining fodder.

    ``inc`` has a constant default argument and ``combine`` calls it, so a
    compiled ``drive`` exercises nested inlining (depth 2), default-argument
    substitution, and guards *inside* the inlined bodies.
    """
    op1 = draw(st.sampled_from(["+", "*", "-"]))
    op2 = draw(st.sampled_from(["+", "-"]))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    return """
inc <- function(x, d = %dL) x + d
combine <- function(a, b) inc(a) %s b
drive <- function(n) {
  s <- %s
  for (i in 1:n) s <- combine(s, i %s %dL)
  s
}
""" % (d, op1, draw(st.sampled_from(["0L", "0", "1.5"])), op2, k)


@given(inline_program(), st.integers(1, 12))
@settings(max_examples=20, deadline=None)
def test_inlined_calls_agree_across_tiers_and_engines(src, n):
    """With ``Config.inline`` on, inlined code must match the interpreter
    exactly, and the dispatch signature (op/guard counts + deopt stream)
    must be identical across the reference and codegen engines."""
    call = "drive(%dL)" % n
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = [from_r(vm_ref.eval(call)) for _ in range(4)]
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(compile_threshold=1, osr_threshold=50,
                     inline=True, **eng)
        vm.eval(src)
        got = [from_r(vm.eval(call)) for _ in range(4)]
        assert got == expected, (src, got, expected)
        assert vm.state.inlined_frames > 0
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), src


@st.composite
def polymorphic_entry_program(draw):
    """One closure called with alternating argument contexts — contextual-
    dispatch fodder.  The callee loops (so it keeps its call boundary) and
    mixes the vector elements with a scalar, so each entry context gets a
    genuinely different specialized body.
    """
    op = draw(st.sampled_from(["+", "-", "*"]))
    acc_init = draw(st.sampled_from(["0", "0L"]))
    k = draw(st.integers(1, 3))
    return """
pksum <- function(v, n, k) {
  t <- %s
  i <- 1
  while (i <= n) {
    t <- t + v[[i]] %s k
    i <- i + 1
  }
  t
}
""" % (acc_init, op)


@given(polymorphic_entry_program(), vectors, st.integers(1, 9))
@settings(max_examples=20, deadline=None)
def test_entry_contexts_agree_across_tiers_and_engines(src, xs, rounds):
    """The same call site alternates int, real, and logical vector
    arguments: with contextual dispatch each context gets its own entry
    version, and the results and the dispatch signature must be identical
    across the reference and codegen engines (and match the pure
    interpreter's results)."""
    n = len(xs)
    ivec = "c(%s)" % ", ".join("%dL" % x for x in xs)
    dvec = "c(%s)" % ", ".join("%d.5" % x for x in xs)
    lvec = "c(%s)" % ", ".join("TRUE" if x > 0 else "FALSE" for x in xs)
    calls = []
    for _ in range(rounds):
        for vec in (ivec, dvec, lvec):
            calls.append("pksum(%s, %dL, 2L)" % (vec, n))
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = [from_r(vm_ref.eval(c)) for c in calls]
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(compile_threshold=1, osr_threshold=50,
                     ctxdispatch=True, **eng)
        vm.eval(src)
        got = [from_r(vm.eval(c)) for c in calls]
        assert got == expected, (src, got, expected)
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), src


@st.composite
def megamorphic_entry_program(draw):
    """A call site past ``MAX_CALL_TARGETS`` callees — a generic ``CALLG``
    once ``ap`` compiles — whose hot callee has entry versions: the site
    reaches them through the one call path."""
    op = draw(st.sampled_from(["+", "-", "*"]))
    k = draw(st.integers(1, 3))
    decoys = draw(st.lists(st.sampled_from(["n", "v[[1]]", "n * 2L", "v[[n]] - 1L"]),
                           min_size=3, max_size=4))
    src = """
pk <- function(v, n) {
  t <- 0
  i <- 1
  while (i <= n) {
    t <- t + v[[i]] %s %dL
    i <- i + 1
  }
  t
}
ap <- function(g, v, n) g(v, n)
""" % (op, k)
    for j, body in enumerate(decoys):
        src += "d%d <- function(v, n) %s\n" % (j, body)
    return src, ["d%d" % j for j in range(len(decoys))]


@given(megamorphic_entry_program(), vectors, st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_megamorphic_site_into_entry_versions_agrees(prog, xs, rounds):
    """``ap``'s site sees every decoy and ``pk`` before it compiles, then
    calls ``pk`` with int, real and logical vectors in turn: results equal
    the interpreter's and the signature is engine-identical."""
    src, decoys = prog
    n = len(xs)
    ivec = "c(%s)" % ", ".join("%dL" % x for x in xs)
    dvec = "c(%s)" % ", ".join("%d.5" % x for x in xs)
    lvec = "c(%s)" % ", ".join("TRUE" if x > 0 else "FALSE" for x in xs)
    calls = ["ap(%s, %s, %dL)" % (g, ivec, n) for g in decoys + ["pk"]]
    for _ in range(rounds):
        for vec in (ivec, dvec, lvec):
            calls.append("ap(pk, %s, %dL)" % (vec, n))
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = [from_r(vm_ref.eval(c)) for c in calls]
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(compile_threshold=1, osr_threshold=50, **eng)
        vm.eval(src)
        got = [from_r(vm.eval(c)) for c in calls]
        assert got == expected, (src, got, expected)
        assert vm.state.ctx_dispatches > 0, "no call reached an entry version"
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), src


@st.composite
def nested_loop_program(draw):
    """A counted inner loop under a scalar outer driver — loop-nest
    vectorizer fodder.  The inner reduction fuses a map→reduce chain that
    may run through an inlined helper call or read the outer loop's
    variable as an invariant."""
    acc_init = draw(st.sampled_from(["0", "0L", "1.5"]))
    inner_init = draw(st.sampled_from(["0", "0L"]))
    red_op = draw(st.sampled_from(["+", "*"]))
    map_op = draw(st.sampled_from(["+", "-", "*"]))
    k = draw(st.integers(1, 4))
    body = draw(st.sampled_from([
        "s <- s %(red)s g(v[[i]])",       # fused inlined call
        "s <- s %(red)s v[[i]] %(map)s o",  # outer variable as invariant
        "s <- s %(red)s v[[i]] %(map)s %(k)dL",
    ])) % {"red": red_op, "map": map_op, "k": k}
    return """
g <- function(x) x %s %dL
nest <- function(v, m, n) {
  total <- %s
  for (o in 1:m) {
    s <- %s
    for (i in 1:n) %s
    total <- total + s
  }
  total
}
""" % (map_op, k, acc_init, inner_init, body)


@given(nested_loop_program(), vectors, st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_nested_loops_agree_across_tiers_and_engines(src, xs, m):
    """Loop nests (vectorized inner kernel, scalar outer driver) compute
    interpreter-identical results on every engine, with identical dispatch
    signatures — vectorization must be invisible in the signature."""
    n = len(xs)
    vec = "c(%s)" % ", ".join("%dL" % x for x in xs)
    call = "nest(%s, %dL, %dL)" % (vec, m, n)
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = [from_r(vm_ref.eval(call)) for _ in range(3)]
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(compile_threshold=1, osr_threshold=50, **eng)
        vm.eval(src)
        got = [from_r(vm.eval(call)) for _ in range(3)]
        assert got == expected, (src, got, expected)
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), src


@st.composite
def gather_program(draw):
    """A reduction whose subscript is itself a vector element — gather
    addressing (``v[[idx[[i]]]]``)."""
    acc_init = draw(st.sampled_from(["0", "0L"]))
    map_tail = draw(st.sampled_from(["", " * 2L", " + 1L"]))
    return """
gsum <- function(v, idx, n) {
  s <- %s
  for (i in 1:n) s <- s + v[[idx[[i]]]]%s
  s
}
""" % (acc_init, map_tail)


@given(
    gather_program(),
    vectors,
    st.lists(st.integers(1, 12), min_size=1, max_size=9),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_gather_subscripts_agree_across_tiers_and_engines(src, xs, raw_idx, oob):
    """Gather kernels match the interpreter element-for-element on every
    engine — including the out-of-bounds case, where the kernel must end
    coverage at the failing element and let the scalar tier raise the
    exact subscript error."""
    n_v = len(xs)
    idx = [1 + (j - 1) % n_v for j in raw_idx]
    if oob:
        idx[len(idx) // 2] = n_v + 3  # guaranteed out-of-range subscript
    vec = "c(%s)" % ", ".join("%dL" % x for x in xs)
    ivec = "c(%s)" % ", ".join("%dL" % j for j in idx)
    call = "gsum(%s, %s, %dL)" % (vec, ivec, len(idx))

    def observe(vm):
        try:
            return from_r(vm.eval(call))
        except Exception as e:  # noqa: BLE001 — error identity is the point
            return ("error", str(e))

    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = [observe(vm_ref) for _ in range(3)]
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(compile_threshold=1, osr_threshold=50, **eng)
        vm.eval(src)
        got = [observe(vm) for _ in range(3)]
        assert got == expected, (src, call, got, expected)
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), src


@st.composite
def envcapture_program(draw):
    """A hot loop mutating captured state: ``acc`` escapes into the
    ``step`` closure and is mutated through ``<<-``, so the driver compiles
    in env mode.  The ``lazy`` variant routes the argument through a global
    helper call, so the compiler emits a promise per iteration.
    """
    op1 = draw(st.sampled_from(["+", "-", "*"]))
    op2 = draw(st.sampled_from(["+", "-"]))
    k = draw(st.integers(1, 4))
    acc_init = draw(st.sampled_from(["0", "0L", "1.5"]))
    lazy = draw(st.booleans())
    arg = "ec_help(i %s %dL)" % (op2, k) if lazy else "i %s %dL" % (op2, k)
    return """
ec_help <- function(x) x %s 2L
ecap <- function(m, n) {
  acc <- %s
  step <- function(k) acc <<- acc %s k
  i <- 0L
  while (i < n) {
    step(%s)
    i <- i + 1L
  }
  acc + m
}
""" % (op1, acc_init, op1, arg)


@given(envcapture_program(), st.integers(1, 12))
@settings(max_examples=20, deadline=None)
def test_envcapture_agrees_across_tiers_and_engines(src, n):
    """Closure- and promise-creating hot loops match the interpreter
    exactly on every executor, with one dispatch signature across the
    reference and codegen engines."""
    call = "ecap(2L, %dL)" % n
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = [from_r(vm_ref.eval(call)) for _ in range(4)]
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(compile_threshold=1, osr_threshold=50, **eng)
        vm.eval(src)
        got = [from_r(vm.eval(call)) for _ in range(4)]
        assert got == expected, (src, got, expected)
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), src


@given(envcapture_program(), st.integers(2, 10), st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_chaos_deopts_inside_elided_env_regions(src, n, seed):
    """Chaos-mode assumption failures inside frames that create closures
    and promises (live environment in a register, promises on the stack)
    resume with interpreter-identical state on every executor, and the two
    engines leave identical dispatch signatures."""
    call = "ecap(2L, %dL)" % n
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = from_r(vm_ref.eval(call))
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(chaos_rate=0.05, chaos_seed=seed, compile_threshold=1,
                     osr_threshold=50, enable_deoptless=True, **eng)
        vm.eval(src)
        for _ in range(5):
            assert from_r(vm.eval(call)) == expected, (src, seed)
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), src


@st.composite
def phaseflip_program(draw):
    """A hot loop whose vector flips type mid-iteration — version-hop
    fodder (dispatched OSR).  The element is routed through a global helper
    so the speculative inline keeps per-iteration guards alive for chaos to
    fail inside deoptless continuations; the recovery path then hops back
    into a surviving compiled version at the loop header."""
    op1 = draw(st.sampled_from(["+", "-", "*"]))
    op2 = draw(st.sampled_from(["+", "-"]))
    k = draw(st.integers(1, 4))
    acc_init = draw(st.sampled_from(["0", "0L"]))
    return """
vh_step <- function(v, k) v %s k
vh_flip <- function(a, b, n) {
  s <- %s
  x <- a
  h <- n %%/%% 2L
  i <- 1L
  while (i <= n) {
    if (i == h) x <- b
    s <- s %s vh_step(x[[i]], %dL)
    i <- i + 1L
  }
  s
}
""" % (op1, acc_init, op2, k)


@given(phaseflip_program(), vectors, st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_version_hops_agree_across_tiers_and_engines(src, xs, seed):
    """Mid-loop version hops (dispatched OSR + armed re-entry + continuation
    tier-up) are invisible in results and leave one dispatch signature
    across the reference and codegen engines.  The int/real
    phases alternate call to call, and chaos mode fires assumptions inside
    the deoptless continuations, exercising hop-out, hop-in, and the
    decline/fallback paths under one fixed seed."""
    tiled = (xs * 6)[:48]  # enough iterations for armed OSR-in to re-enter
    n = len(tiled)
    ivec = "c(%s)" % ", ".join("%dL" % x for x in tiled)
    dvec = "c(%s)" % ", ".join("%d.5" % x for x in tiled)
    warm = "vh_flip(%s, %s, %dL)" % (ivec, ivec, n)
    flip = "vh_flip(%s, %s, %dL)" % (ivec, dvec, n)
    calls = [warm] * 3 + [flip] * 6
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = [from_r(vm_ref.eval(c)) for c in calls]
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(chaos_rate=0.05, chaos_seed=seed, compile_threshold=1,
                     osr_threshold=25, enable_deoptless=True,
                     ctxdispatch=False, osr_hop=True, **eng)
        vm.eval(src)
        got = [from_r(vm.eval(c)) for c in calls]
        assert got == expected, (src, seed, got, expected)
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), (src, seed)
    # and the escape hatch must be semantics-identical too
    vm = make_vm(chaos_rate=0.05, chaos_seed=seed, compile_threshold=1,
                 osr_threshold=25, enable_deoptless=True,
                 ctxdispatch=False, osr_hop=False)
    vm.eval(src)
    assert [from_r(vm.eval(c)) for c in calls] == expected, (src, seed)
    assert vm.state.osr_hops == 0


@given(inline_program(), st.integers(2, 10), st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_chaos_deopts_inside_inlined_bodies(src, n, seed):
    """Chaos-mode assumption failures inside inlined bodies (nested frame
    chains, multi-frame materialization, deoptless dispatch on inlinee
    states) never change results, on any executor, and leave identical
    dispatch signatures.  The codegen leg proves chaos deopts raised from
    generated code — mid-unit, mid-kernel, and inside inlined bodies —
    materialize the exact same frames as the reference loop."""
    call = "drive(%dL)" % n
    vm_ref = make_vm(enable_jit=False)
    vm_ref.eval(src)
    expected = from_r(vm_ref.eval(call))
    sigs = []
    for eng in ENGINE_LEGS:
        vm = make_vm(chaos_rate=0.05, chaos_seed=seed, compile_threshold=1,
                     osr_threshold=50, enable_deoptless=True,
                     inline=True, **eng)
        vm.eval(src)
        for _ in range(5):
            assert from_r(vm.eval(call)) == expected, (src, seed)
        sigs.append(engine_signature(vm))
    assert all(s == sigs[0] for s in sigs), src
