"""Tests for the Python-codegen execution tier (native/pycodegen.py).

The codegen tier emits one specialized exec'd function per NativeCode unit.
Cross-engine equivalence (results + bit-identical dispatch signatures) is
proven exhaustively in test_threaded_equivalence.py and the fuzz suite; this
module covers the tier's own machinery: source/function caching on the
unit and its cache template, the reference-loop fallback for units codegen
cannot run, the shape of the emitted control flow (superblocks, dispatch
arms, nesting cap), the register-free deopt sites, and warm-start
persistence of the compiled code (a disk hit skips the emitter and
``compile()`` entirely).
"""

from __future__ import annotations

import glob
import pickle
import re

import pytest

from conftest import FireAt, engine_signature, make_vm
from repro import from_r
from repro.bench.programs import REGISTRY
from repro.bytecode.interpreter import match_arguments
from repro.jit import persist
from repro.native import executor, ops as N, pycodegen
from repro.runtime.env import REnvironment
from repro.runtime.values import RClosure, RPromise, RVector

SUM_SRC = """
s <- function(v, n) {
  acc <- 0
  i <- 1
  while (i <= n) { acc <- acc + v[[i]]; i <- i + 1 }
  acc
}
"""


def hot_vm(**kw):
    # threaded_dispatch pinned explicitly: these tests exercise the codegen
    # tier even on the RERPO_REF_EXEC=1 CI leg (only the *defaults* come
    # from the env)
    cfg = dict(compile_threshold=1, osr_threshold=100000,
               threaded_dispatch=True)
    cfg.update(kw)
    vm = make_vm(**cfg)
    vm.eval(SUM_SRC)
    vm.eval("v <- 1.5 * (1:64)")
    return vm


def drive(vm, n=6):
    return [from_r(vm.eval("s(v, 64L)")) for _ in range(n)]


def compiled_unit(vm, name="s"):
    closure = vm.get_global(name)
    assert closure.jit is not None and closure.jit.version is not None
    return closure.jit.version


# ---------------------------------------------------------------------------
# the tier itself
# ---------------------------------------------------------------------------

def test_codegen_tier_binds_one_function_per_unit():
    vm = hot_vm()
    results = drive(vm)
    assert len(set(results)) == 1
    nc = compiled_unit(vm)
    src = pycodegen.source(nc)
    assert isinstance(src, str) and src, "no source emitted"
    assert callable(nc.pyfunc), "source never bound"
    assert vm.state.pycodegen_units >= 1
    assert vm.state.pycodegen_failures == 0


def test_reference_engine_emits_nothing():
    vm = hot_vm(threaded_dispatch=False)
    drive(vm)
    nc = compiled_unit(vm)
    assert nc.pyfunc is None and nc.pysrc is None
    assert vm.state.pycodegen_units == 0


def test_generated_source_backpropagates_to_template():
    """Install clones share the template's emitted source, code object and
    bound function."""
    vm = hot_vm()
    drive(vm)
    nc = compiled_unit(vm)
    tmpl = nc.cache_template
    if tmpl is None:  # cache disabled in this configuration — nothing shared
        return
    assert tmpl.pysrc == nc.pysrc and tmpl.pycode is nc.pycode
    assert tmpl.pyfunc is nc.pyfunc, "clone must reuse the template binding"


def compiled_pair(**kw):
    """The same program, ``s`` compiled, on a codegen VM and on an
    all-reference VM."""
    vm = hot_vm(**kw)
    ref = hot_vm(threaded_dispatch=False, **kw)
    assert drive(vm, 2) == drive(ref, 2)
    return vm, ref


def forge_opcode(unit):
    """Make the emitter decline the unit and the cached template it was
    cloned from: an unknown opcode in a block that is a branch target (so
    the emitter walks it) of a jump no execution reaches (so the reference
    loop can still run the unit)."""
    ops = list(unit.ops) + [(999999,), (N.JMP, len(unit.ops))]
    for u in (unit, unit.cache_template or unit):
        u.ops = ops
        u.pysrc = u.pyconsts = u.pycode = u.pyfunc = None


def test_untranslatable_unit_runs_on_reference_loop():
    """An unknown opcode makes the emitter decline; the unit runs on
    ``execute_ref`` — results and dispatch signature equal an all-reference
    VM's, including a chaos deopt taken from the fallen-back unit — and is
    marked with the False sentinel so codegen is not retried on every call."""
    kw = dict(chaos_rate=0.02, chaos_seed=7, enable_deoptless=True)
    vm, ref = compiled_pair(**kw)
    nc = compiled_unit(vm)
    forge_opcode(nc)
    assert drive(vm, 1) == drive(ref, 1)
    assert nc.pysrc is False and nc.pyfunc is None
    assert vm.state.pycodegen_failures == 1
    assert drive(vm, 8) == drive(ref, 8)
    assert vm.state.deopts > 0, "chaos never fired"
    assert engine_signature(vm) == engine_signature(ref)


def test_decline_is_paid_once_per_template():
    """Install clones of one cached template whose emission (or, second
    half, ``compile()``) fails: the sentinel reaches the template, so only
    the first clone runs the emitter and counts a failure."""
    vm = hot_vm()
    drive(vm)
    tmpl = compiled_unit(vm)
    args = [vm.get_global("v"), vm.eval("64L")]

    def install_and_run():
        return from_r(executor.execute(tmpl.clone_for_install(), args, vm))

    forge_opcode(tmpl)
    assert [install_and_run(), install_and_run()] == [3120.0, 3120.0]
    assert tmpl.pysrc is False
    assert vm.state.pycodegen_failures == 1

    tmpl.pysrc, tmpl.pyconsts, tmpl.pycode = "def _unit(:\n", (), None
    assert [install_and_run(), install_and_run()] == [3120.0, 3120.0]
    assert tmpl.pysrc is False
    assert vm.state.pycodegen_failures == 2


def test_argument_count_mismatch_runs_on_reference_loop():
    """A generated function entered with an argument count it was not
    emitted for hands the activation to ``execute_ref`` (counted as a
    codegen failure) and behaves exactly like the reference engine."""
    vm, ref = compiled_pair()
    outs = []
    for m in (vm, ref):
        nc = compiled_unit(m)
        args = [m.get_global("v"), m.eval("64L"), m.eval("0L")]
        outs.append(from_r(executor.execute(nc, args, m)))
    assert outs == [3120.0, 3120.0]
    assert vm.state.pycodegen_failures == 1
    assert engine_signature(vm) == engine_signature(ref)


def test_chaos_deopt_from_generated_code_recovers():
    """A chaos-forced deopt raised inside an exec'd function must land on
    the standard recovery path and keep producing correct results."""
    vm = hot_vm(chaos_rate=0.05, chaos_seed=7, enable_deoptless=True)
    results = drive(vm, n=10)
    assert len(set(results)) == 1
    assert vm.state.deopts > 0, "chaos never fired"
    assert compiled_unit(vm).pyfunc is not None


# ---------------------------------------------------------------------------
# structured control flow: superblocks, dispatch arms, the nesting cap
# ---------------------------------------------------------------------------

JIT = dict(compile_threshold=1, osr_threshold=50)


def registry_vm(name, calls=2, **kw):
    """A codegen VM (pinned, like ``hot_vm``) that has run registry program
    ``name`` ``calls`` times at its test size."""
    w = REGISTRY.get(name)
    vm = make_vm(threaded_dispatch=True, **kw)
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    results = [from_r(vm.eval(w.call_code(w.n_test))) for _ in range(calls)]
    return vm, results


def arms(src):
    """Op indices of the dispatch arms of one emitted unit."""
    return [int(m) for m in re.findall(r"^ +(?:if|elif) _b == (\d+):$", src, re.M)]


def test_loop_free_branching_unit_has_no_dispatch_loop():
    """``bt_check`` branches (leaf or inner node) but has no loop and no OSR
    entry: op 0 is its only arm, so there is nothing to dispatch on."""
    vm, _ = registry_vm("binarytrees", **JIT)
    src = pycodegen.source(compiled_unit(vm, "bt_check"))
    assert any(op[0] == N.BRT for op in compiled_unit(vm, "bt_check").ops)
    assert "while" not in src and "_b" not in src
    assert "    if r" in src, "the branch must still be there, inline"


def test_mandel_keeps_only_joins_as_arms():
    """15 leaders at the time superblocks landed; only op 0, the OSR
    entries and the join points (three loop headers) stay dispatch arms."""
    vm, _ = registry_vm("mandelbrot", calls=4, **JIT)  # the re-profiled unit
    nc = compiled_unit(vm, "mandel")
    src = pycodegen.source(nc)
    assert 2 <= len(arms(src)) <= 7
    assert len(arms(src)) < len(pycodegen.branch_targets(nc.ops))


@pytest.mark.parametrize("name", ["phaseflip_sum", "phaseflip_dot", "phaseflip_twice"])
def test_every_osr_entry_is_an_arm_and_a_hop_lands(name, monkeypatch):
    """Loop headers stay the only mid-unit entry points: every
    ``OsrEntry.index`` is a dispatch arm however many edges reach it, and a
    dispatched-OSR hop entering there finishes the call correctly."""
    hopped = []
    real = executor.execute_at

    def spy(ncode, entry, regs, vm, closure_env=None):
        hopped.append((ncode, entry))
        return real(ncode, entry, regs, vm, closure_env)

    monkeypatch.setattr(executor, "execute_at", spy)
    cfg = dict(enable_deoptless=True, chaos_rate=0.05, chaos_seed=1234, **JIT)
    vm, results = registry_vm(name, **cfg)
    assert hopped and vm.state.osr_hops == len(hopped)
    for ncode, entry in hopped:
        assert ncode.osr_entries and ncode.pyfunc is not None
        src = pycodegen.source(ncode)
        assert "] = _regs\n" in src, "no hop prologue"
        assert entry in arms(src)
        assert {e.index for e in ncode.osr_entries.values()} <= set(arms(src))
    monkeypatch.undo()
    w = REGISTRY.get(name)
    ref = make_vm(threaded_dispatch=False, **cfg)
    ref.eval(w.source)
    ref.eval(w.setup_code(w.n_test))
    assert results == [from_r(ref.eval(w.call_code(w.n_test))) for _ in range(2)]
    assert engine_signature(vm) == engine_signature(ref)
    assert vm.state.pycodegen_failures == 0


def test_unit_without_osr_entries_refuses_a_register_image():
    """Only units with OSR entries carry the hop prologue; handing any other
    a register image must fail loudly, not bind ``args`` and run from op 0."""
    vm, _ = registry_vm("binarytrees", **JIT)
    nc = compiled_unit(vm, "bt_check")
    assert not nc.osr_entries and "= _regs" not in pycodegen.source(nc)
    with pytest.raises(RuntimeError, match="no OSR entry"):
        executor.execute_at(nc, 0, list(nc.reg_init), vm)


def nested_if_program(depth):
    """``deep(x)``: ``depth`` nested ``if``, each level adding to the sum."""
    body = "s <- s + %dL" % depth
    for level in range(depth - 1, 0, -1):
        body = "s <- s + %dL\nif (x > %dL) {\n%s\n}" % (level, level, body)
    return "deep <- function(x) {\ns <- 0L\nif (x > 0L) {\n%s\n}\ns\n}" % body


def test_if_chain_deeper_than_the_nesting_cap():
    """Past ``_MAX_NEST`` levels a taken-branch target becomes a dispatch
    arm instead of one more indentation level: the text still compiles
    (CPython refuses 100 indents) and runs like the reference loop."""
    depth = pycodegen._MAX_NEST + 70
    outs = []
    for threaded in (True, False):
        vm = make_vm(threaded_dispatch=threaded, compile_threshold=1)
        vm.eval(nested_if_program(depth))
        calls = [from_r(vm.eval("deep(%dL)" % x)) for x in (depth, depth, 3, depth + 5, 0)]
        outs.append((calls, engine_signature(vm)))
        if threaded:
            nc = compiled_unit(vm, "deep")
            assert nc.pyfunc is not None and vm.state.pycodegen_failures == 0
            src = pycodegen.source(nc)
            widest = max(len(ln) - len(ln.lstrip(" ")) for ln in src.split("\n"))
            assert 4 * pycodegen._MAX_NEST <= widest < 4 * 100
            assert len(arms(src)) > 1, "nothing was demoted to an arm"
    assert outs[0][0][0] == depth * (depth + 1) // 2
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# register-free deopt sites
# ---------------------------------------------------------------------------

class _Deopted(Exception):
    """What a guard handed to (the stubbed) ``vm.deopt``."""


def _plain(v):
    """Frame values by structure: an activation allocates its own vectors,
    promises, closures and environments."""
    if isinstance(v, RVector):
        return (v.kind, list(v.data))
    if isinstance(v, RPromise):
        return ("promise", _plain(v.value))
    if isinstance(v, RClosure):
        return ("closure", v.code)
    if isinstance(v, REnvironment):
        return ("env", {k: _plain(x) for k, x in v.bindings.items()})
    return v  # builtins, None


def _frames(fs):
    out = []
    while fs is not None:
        env = fs.env_values
        out.append((fs.code, fs.pc, [_plain(v) for v in fs.stack],
                    env and {k: _plain(v) for k, v in env.items()},
                    _plain(fs.env), fs.fun))
        fs = fs.parent
    return out


def chaos_deopt(vm, nc, n, codegen, args=(), env=None, entry=None, regs=None):
    """Run one activation of ``nc`` on the chosen engine with chaos draw
    ``n`` firing, and return what reached ``vm.deopt``: the deopting unit,
    the reason's kind and pc, the frame chain (pc, stack, env per frame) and
    the native/generic/guard counts flushed by then.  None when the
    activation finished before draw ``n``."""
    def deopt(fs, reason, origin=None):
        raise _Deopted(fs, reason, origin)

    st = vm.state
    before = (st.native_ops, st.native_generic_ops, st.guards_executed)
    vm.deopt = deopt
    vm.chaos_rng = FireAt(n)
    vm.config.chaos_rate = 0.5
    vm.config.threaded_dispatch = codegen  # callees' activations too
    try:
        executor.execute(nc, list(args), vm, env, entry,
                         None if regs is None else list(regs))
    except _Deopted as d:
        fs, reason, origin = d.args
        after = (st.native_ops, st.native_generic_ops, st.guards_executed)
        return (origin, reason.kind, reason.pc, _frames(fs),
                tuple(b - a for a, b in zip(before, after)))
    finally:
        del vm.deopt
    return None


def descriptor_only_regs(nc, bound):
    """did -> registers the descriptor chain reads that the generated code
    never binds (``bound``: the register numbers it does)."""
    only = {}
    for did, descr in enumerate(nc.deopts):
        regs = pycodegen._descr_ref_regs(descr) - bound
        if regs:
            only[did] = regs
    return only


def site_depth(nc, fs_pc, reason_pc):
    """``if`` levels between the arm body and the deepest chaos raise of the
    descriptors resuming at ``fs_pc`` for a guard at ``reason_pc``."""
    dids = [i for i, d in enumerate(nc.deopts)
            if d.pc == fs_pc and d.reason_pc == reason_pc]
    src = pycodegen.source(nc)
    body = 4 if "while True:" in src else 2
    found = [len(m.group(1)) // 4 - body - 1 for m in re.finditer(
        r"^( +)raise _DS\((\d+), .*_CHAOS\)$", src, re.M)
        if int(m.group(2)) in dids]
    return max(found)


DEEP_SRC = """
deep_step <- function(v, k) v + k
deep_sum <- function(v, n) {
  s <- 0
  i <- 1L
  while (i <= n) {
    x <- v[[i]]
    if (x > 0L) { if (x > 1L) { if (x > 2L) { s <- s + deep_step(x, i) } } }
    i <- i + 1L
  }
  s
}
"""


def test_chaos_deopt_deep_inside_a_superblock_matches_reference():
    """A guard three ``if`` levels into a superblock raises no registers and
    the counts pending along its path: the frame ``_fail`` builds from
    ``locals()`` and the counters flushed equal the reference loop's."""
    vm = make_vm(threaded_dispatch=True, compile_threshold=1, osr_threshold=100000)
    vm.eval(DEEP_SRC)
    vm.eval("dv <- c(5L, 1L, 7L, 3L, 2L, 9L)")
    for _ in range(3):
        assert from_r(vm.eval("deep_sum(dv, 6L)")) == 38.0
    nc = compiled_unit(vm, "deep_sum")
    args = [vm.get_global("dv"), vm.eval("6L")]
    deepest, n = 0, 0
    while True:
        got = chaos_deopt(vm, nc, n, True, args)
        assert got == chaos_deopt(vm, nc, n, False, args), "draw %d" % n
        if got is None:
            break
        origin, kind, reason_pc, frames, flushed = got
        assert origin is nc and flushed[0] > 0 and flushed[2] > 0
        deepest = max(deepest, site_depth(nc, frames[0][1], reason_pc))
        n += 1
    assert n > 10, "the sweep must cover several iterations"
    assert deepest >= 3, "no guard fired three levels into a superblock"


def test_hop_entered_deopt_reads_unbound_registers_from_the_seeded_image(monkeypatch):
    """``pf_twice``'s parameter ``b`` is read by no op after the loop header,
    only by deopt descriptors, so a hop-entered activation never binds it:
    the base image under ``locals()`` must be the hop's ``_regs`` (it was
    ``None`` in the rebuilt frame when the base was ``reg_init``)."""
    hops = []
    real = executor.execute_at

    def spy(ncode, entry, regs, vm, closure_env=None):
        hops.append((ncode, entry, list(regs), closure_env))
        return real(ncode, entry, regs, vm, closure_env)

    monkeypatch.setattr(executor, "execute_at", spy)
    vm, _ = registry_vm("phaseflip_twice", enable_deoptless=True,
                        chaos_rate=0.05, chaos_seed=1234, **JIT)
    monkeypatch.undo()
    nc, entry, regs, env = hops[0]
    prologue = re.search(r"^ +\[(.*)\] = _regs$", pycodegen.source(nc), re.M).group(1)
    seeded = {int(r) for r in re.findall(r"\br(\d+)\b", prologue)}
    only = descriptor_only_regs(nc, seeded)
    params = set(nc.param_regs)
    assert any(rs & params for rs in only.values()), "scenario gone: no " \
        "descriptor reads a parameter the hop prologue does not bind"
    hit = set()
    for n in range(9):  # three loop iterations' worth of guards
        got = chaos_deopt(vm, nc, n, True, (), env, entry, regs)
        assert got == chaos_deopt(vm, nc, n, False, (), env, entry, regs)
        assert got is not None and got[0] is nc
        frame = got[3][0]
        assert None not in frame[3].values(), "unbound register lost: %r" % (frame[3],)
        hit.update(i for i, d in enumerate(nc.deopts)
                   if d.pc == frame[1] and d.reason_pc == got[2])
    assert hit & set(only), "no site with a descriptor-only register fired"


def test_deopt_reads_descriptor_only_constants_from_reg_init():
    """``binarytrees_run`` keeps constants in registers only deopt
    descriptors read (operand-stack slots of the resumed frame): no prologue
    line binds them, so ``_fail`` must find them in ``reg_init``."""
    vm, _ = registry_vm("binarytrees", **JIT)
    nc = compiled_unit(vm, "binarytrees_run")
    named = {int(r) for r in re.findall(r"\br(\d+)\b", pycodegen.source(nc))}
    only = descriptor_only_regs(nc, named)
    assert any(nc.reg_init[r] is not None for rs in only.values() for r in rs), \
        "scenario gone: no constant register only descriptors read"
    assert not nc.env_elided  # it creates promises: the unit takes [env]
    closure = vm.get_global("binarytrees_run")

    def args():  # a fresh matched environment per activation
        return [match_arguments(closure, [vm.eval("4L")], None, vm)]

    hit = set()
    for n in range(5):  # the guards ahead of the first callee activation
        got = chaos_deopt(vm, nc, n, True, args())
        assert got == chaos_deopt(vm, nc, n, False, args()), "draw %d" % n
        assert got is not None and got[0] is nc
        frame = got[3][0]
        assert None not in frame[2], "constant stack slot lost: %r" % (frame[2],)
        hit.update(i for i, d in enumerate(nc.deopts)
                   if d.pc == frame[1] and d.reason_pc == got[2])
    assert hit & set(only), "no site with a descriptor-only constant fired"


# ---------------------------------------------------------------------------
# warm-start persistence
# ---------------------------------------------------------------------------

def test_warm_start_reuses_generated_source(tmp_path):
    """The unit's code object rides in its bytes: the warm VM binds it by
    an exec, with no emitter walk and no compile()."""
    d = str(tmp_path / "cc")
    vm1 = hot_vm(codecache=True, codecache_dir=d)
    cold = drive(vm1)
    assert vm1.state.pycodegen_units >= 1
    vm1.save_code_cache()

    vm2 = hot_vm(codecache=True, codecache_dir=d)
    warm = drive(vm2)
    assert warm == cold
    assert vm2.state.codecache_disk_hits >= 1, "unit not served from disk"
    assert vm2.state.pycodegen_src_reuses >= 1, \
        "the code object did not ride in on the artifact"
    assert vm2.state.pycodegen_units == 0, \
        "warm start must skip the emitter entirely"
    nc = compiled_unit(vm2)
    assert callable(nc.pyfunc), "persisted code never bound"
    assert nc.pysrc is None, "the source is not carried"


def test_persisted_artifact_warm_starts_reference_engine(tmp_path):
    """An artifact written by a codegen VM still warm-starts a reference
    engine VM — the code object is an optional extension and the reference
    loop simply ignores it."""
    d = str(tmp_path / "cc")
    vm1 = hot_vm(codecache=True, codecache_dir=d)
    cold = drive(vm1)
    vm1.save_code_cache()

    vm2 = hot_vm(codecache=True, codecache_dir=d, threaded_dispatch=False)
    warm = drive(vm2)
    assert warm == cold
    assert vm2.state.codecache_disk_hits >= 1
    nc = compiled_unit(vm2)
    assert nc.pyfunc is None


def test_artifacts_of_another_format_version_are_skipped(tmp_path, monkeypatch):
    """What emitted code passes to ``_DS``/``_fail`` is part of the format:
    a bucket file, and a blob inside a current bucket file, written under
    another FORMAT_VERSION are a miss and a fresh compile — never an
    exception, never old code re-bound."""
    d = str(tmp_path / "cc")
    current = persist.FORMAT_VERSION
    monkeypatch.setattr(persist, "FORMAT_VERSION", current - 1)
    vm1 = hot_vm(codecache=True, codecache_dir=d)
    cold = drive(vm1)
    vm1.save_code_cache()
    monkeypatch.undo()
    files = glob.glob(d + "/*/*.ccache")
    assert files, "nothing was persisted"

    def fresh_start():
        vm = hot_vm(codecache=True, codecache_dir=d)
        assert drive(vm) == cold
        assert vm.state.codecache_disk_hits == 0
        assert vm.state.pycodegen_src_reuses == 0
        assert vm.state.pycodegen_units >= 1, "no fresh compile"
        assert vm.state.pycodegen_failures == 0
        return vm

    assert fresh_start().state.codecache_persist_failures == 0  # file refused
    for path in files:  # same blobs, file header claiming the current format
        with open(path, "rb") as f:
            obj = pickle.load(f)
        assert obj["format"] == current - 1
        obj["format"] = current
        with open(path, "wb") as f:
            pickle.dump(obj, f, protocol=4)
    assert fresh_start().state.codecache_persist_failures >= 1  # blobs refused
