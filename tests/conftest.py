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


class FireAt:
    """Chaos RNG stand-in (``vm.chaos_rng``, with ``chaos_rate`` > 0): draw
    number ``n`` (from 0) fires, no other does.  ``left`` < 0 afterwards
    says the draw was reached."""

    def __init__(self, n):
        self.left = n

    def random(self):
        self.left -= 1
        return 0.0 if self.left == -1 else 1.0


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
