"""What a compiled unit keeps alive once it is bound (DESIGN.md, "What a
unit keeps"): no source text, one object per equal deopt slot map in a unit,
one object per equal feedback signature in a code cache, one object per
equal live set in a code object, and nothing that outlives the VM."""

import collections
import gc
import tracemalloc

import pytest

from conftest import make_vm
from repro.bench.programs import REGISTRY

#: a chaos-heavy registry program: deopts, deoptless continuations and OSR
CHAOS_CFG = dict(enable_deoptless=True, chaos_rate=1e-2, chaos_seed=3)


@pytest.fixture(scope="module")
def chaos_vm():
    w = REGISTRY.get("nbody")
    vm = make_vm(threaded_dispatch=True, **CHAOS_CFG)  # units bind source text
    vm.eval(w.source)
    vm.eval(w.setup_code(w.n_test))
    for _ in range(3):
        vm.eval(w.call_code(w.n_test))
    assert vm.state.deoptless_compiles > 0, "scenario gone: no continuation"
    return vm


def templates(vm):
    return [e.ncode for e in vm.code_cache.entries.values()]


def test_a_bound_template_holds_no_source_text(chaos_vm):
    units = templates(chaos_vm)
    assert units and all(nc.pyfunc is not None for nc in units)
    assert all(nc.pysrc is None for nc in units)


def _frames(nc):
    for d in nc.deopts:
        while d is not None:  # inlined frames chain through parent
            yield d
            d = d.parent


def test_equal_slot_maps_of_a_unit_are_one_object(chaos_vm):
    shared = 0
    for nc in templates(chaos_vm):
        ids = collections.defaultdict(set)
        for d in _frames(nc):
            ids[d.env_slots].add(id(d.env_slots))
            ids[d.stack].add(id(d.stack))
            for slot in d.env_slots:
                ids[slot].add(id(slot))
        assert all(len(v) == 1 for v in ids.values()), nc.name
        frames = sum(1 for _ in _frames(nc))
        shared += frames - len({id(d.env_slots) for d in _frames(nc)})
    assert shared > 0, "scenario gone: no two sites with one slot map"


def test_equal_feedback_signatures_of_a_cache_are_one_object(chaos_vm):
    ids = collections.defaultdict(set)
    keys = collections.Counter()
    for key in chaos_vm.code_cache.entries:
        sig = key[4]
        keys[sig] += 1
        ids[sig].add(id(sig))
        for pair in sig[0]:
            ids[pair].add(id(pair))
    assert all(len(v) == 1 for v in ids.values())
    assert max(keys.values()) > 1, "scenario gone: no two entries with one signature"


def test_equal_live_sets_are_one_object(chaos_vm):
    for c in {id(nc.bc_code): nc.bc_code for nc in templates(chaos_vm)}.values():
        live = [c.live_at(pc) for pc in range(len(c.code))]
        ids = collections.defaultdict(set)
        for s in live:
            ids[s].add(id(s))
        assert all(len(v) == 1 for v in ids.values()), c.name
        assert len(ids) < len(live)


#: three small functions, every unit compiled on its first call, one chaos
#: deopt and a deoptless continuation per VM
SMALL = """
f <- function(n) { s <- 0; for (i in 1:n) s <- s + i * 0.5; s }
g <- function(v) { t <- 0L; for (x in v) t <- t + x; t }
h <- function(n) f(n) + g(seq_len(n))
"""

#: bytes a fresh VM may leave behind.  Measured: about 2 KB over 20 VMs with
#: the cache's own intern table; a process-wide one kept about 2 MB (each
#: key's ``Ident`` pins the closures, and through them the VM's world)
DRIFT = 64 * 1024


def test_twenty_fresh_vms_leave_nothing_behind():
    def run():
        vm = make_vm(compile_threshold=1, **dict(CHAOS_CFG, chaos_rate=2e-2))
        vm.eval(SMALL)
        for _ in range(6):
            vm.eval("h(20L)")
        assert vm.state.deoptless_compiles > 0 and len(vm.code_cache.entries) > 1

    run()  # module-level caches are filled on first use
    tracemalloc.start()
    try:
        for _ in range(3):
            run()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            run()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < DRIFT, "%d bytes outlived 20 VMs" % (after - before)


#: what one VM may gain over 80 re-evaluations of ``SMALL``.  Measured: the
#: table's sawtooth peaks about 1.4 MB above the start; a table that is never
#: rebuilt keeps each evaluation's closures and their compiled code, about
#: 65 KB a time, 5.2 MB in all
REEVAL_DRIFT = 2 * 1024 * 1024


def test_a_reevaluated_program_keeps_a_flat_signature_table():
    """Each evaluation makes fresh closures, so fresh feedback signatures (a
    call target is an ``Ident`` of its closure), and its units supersede the
    last evaluation's entries.  The cache's intern table is rebuilt from the
    live keys once it doubles, so it keeps no dropped entry's closures."""
    vm = make_vm(compile_threshold=1, **dict(CHAOS_CFG, chaos_rate=2e-2))
    tracemalloc.start()
    try:
        traced = []
        for _ in range(100):
            vm.eval(SMALL)
            for _ in range(3):
                vm.eval("h(20L)")
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert 0 < len(vm.code_cache.entries) < 20  # the rest were superseded
    grew = max(traced[20:]) - traced[19]
    assert grew < REEVAL_DRIFT, "%d bytes kept over 80 evaluations" % grew
