"""Shared test helpers.

``ev`` / ``ev_all`` run mini-R source on a fresh VM and return plain Python
values; ``TIER_CONFIGS`` parametrizes correctness tests across the three
execution modes (pure interpreter, JIT, JIT+deoptless), which must always
agree on results.
"""

from __future__ import annotations

import pytest

from repro import Config, RVM, from_r, to_r


def make_vm(**overrides) -> RVM:
    return RVM(Config(**overrides))


def ev(source: str, vm: RVM = None, **cfg):
    """Evaluate source, return the result converted to Python."""
    if vm is None:
        vm = make_vm(**cfg)
    return from_r(vm.eval(source))


#: how the code that ran was obtained: snapshot()-only counters, which two
#: runs that share no code store must agree on as well
COMPILE_COUNTERS = ("compiles", "compiled_instrs", "deoptless_compiles", "inlined_frames")


def engine_signature(vm: RVM) -> dict:
    """``dispatch_signature()`` beside the four compile counters: what two
    engines, or two settings that change how code runs but not which code
    is compiled, must agree on."""
    snap = vm.state.snapshot()
    return dict(vm.state.dispatch_signature(), **{k: snap[k] for k in COMPILE_COUNTERS})


class FireAt:
    """Chaos RNG stand-in (``vm.chaos_rng``, with ``chaos_rate`` > 0): the
    draws numbered ``ns`` (from 0) fire, no other does.  ``left`` < 0
    afterwards says the last of them was reached; with ``FireAt(-1)`` it
    counts the draws made, as ``-1 - left``."""

    def __init__(self, *ns):
        self.last = max(ns)
        self.fire = frozenset(ns)
        self.left = self.last

    def random(self):
        self.left -= 1
        return 0.0 if self.last - 1 - self.left in self.fire else 1.0


def on_engines(src, calls, times=4, fire=None, **config):
    """Run ``calls`` (each ``times`` times) on the interpreter and on both
    native engines, with the chaos draws ``fire`` firing when given; check
    every result against the interpreter's and the two engines'
    ``engine_signature`` against each other.  Returns the two native VMs,
    the generated-code engine first."""
    want = None
    vms = []
    for cfg in (dict(enable_jit=False), dict(threaded_dispatch=True),
                dict(threaded_dispatch=False)):
        vm = make_vm(compile_threshold=1, **cfg, **config)
        if fire:
            vm.chaos_rng = FireAt(*fire)
        vm.eval(src)
        got = [[repr(from_r(vm.eval(c))) for c in calls] for _ in range(times)]
        if want is None:
            want = got[0]
            continue
        assert all(g == want for g in got), (cfg, got, want)
        vms.append(vm)
    assert engine_signature(vms[0]) == engine_signature(vms[1])
    return vms


#: configurations every program must agree under
TIER_CONFIGS = {
    "interp": dict(enable_jit=False),
    "jit": dict(compile_threshold=1, osr_threshold=50),
    "deoptless": dict(compile_threshold=1, osr_threshold=50, enable_deoptless=True),
}


@pytest.fixture(params=sorted(TIER_CONFIGS))
def tier_vm(request):
    return make_vm(**TIER_CONFIGS[request.param])


@pytest.fixture
def vm():
    return make_vm()


@pytest.fixture
def interp_vm():
    return make_vm(enable_jit=False)


def assert_all_tiers(source: str, expected, repeat: int = 1):
    """Run ``source`` under all tiers (optionally repeatedly to trigger
    compilation) and assert every tier produces ``expected``."""
    for name, cfg in TIER_CONFIGS.items():
        vm = make_vm(**cfg)
        result = None
        for _ in range(repeat):
            result = from_r(vm.eval(source))
        assert result == expected, "tier %s: %r != %r" % (name, result, expected)
