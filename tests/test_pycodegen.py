"""Tests for the Python-codegen execution tier (native/pycodegen.py).

The codegen tier emits one specialized exec'd function per NativeCode unit.
Cross-engine equivalence (results + bit-identical dispatch signatures) is
proven exhaustively in test_threaded_equivalence.py and the fuzz suite; this
module covers the tier's own machinery: source/function caching on the
unit and its cache template, the reference-loop fallback for units codegen
cannot run, and warm-start persistence of the generated source (a disk hit
must skip the emitter entirely).
"""

from __future__ import annotations

from conftest import make_vm
from repro import from_r
from repro.native import executor, ops as N, pycodegen

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
    assert isinstance(nc.pysrc, str) and nc.pysrc, "no source emitted"
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
    """Install clones share the template's emitted source and bound
    function."""
    vm = hot_vm()
    drive(vm)
    nc = compiled_unit(vm)
    tmpl = nc.cache_template
    if tmpl is None:  # cache disabled in this configuration — nothing shared
        return
    assert tmpl.pysrc == nc.pysrc
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
        u.pysrc = u.pyconsts = u.pyfunc = None


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
    assert vm.state.dispatch_signature() == ref.state.dispatch_signature()


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

    tmpl.pysrc, tmpl.pyconsts = "def _unit(:\n", ()
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
    assert vm.state.dispatch_signature() == ref.state.dispatch_signature()


def test_chaos_deopt_from_generated_code_recovers():
    """A chaos-forced deopt raised inside an exec'd function must land on
    the standard recovery path and keep producing correct results."""
    vm = hot_vm(chaos_rate=0.05, chaos_seed=7, enable_deoptless=True)
    results = drive(vm, n=10)
    assert len(set(results)) == 1
    assert vm.state.deopts > 0, "chaos never fired"
    assert compiled_unit(vm).pyfunc is not None


# ---------------------------------------------------------------------------
# warm-start persistence
# ---------------------------------------------------------------------------

def test_warm_start_reuses_generated_source(tmp_path):
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
        "generated source did not ride in on the artifact"
    assert vm2.state.pycodegen_units == 0, \
        "warm start must skip the emitter entirely"
    nc = compiled_unit(vm2)
    assert callable(nc.pyfunc), "persisted source never bound"


def test_persisted_artifact_warm_starts_reference_engine(tmp_path):
    """An artifact written by a codegen VM still warm-starts a reference
    engine VM — the source keys are optional extensions and the reference
    loop simply ignores them."""
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
