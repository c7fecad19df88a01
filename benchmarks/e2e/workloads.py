"""The pinned inputs of the seven workloads.

Everything a workload feeds the VM is built here from the frozen program
files under ``programs/`` and the tables below — nothing is imported from
``repro``, so an edit under ``src/`` cannot change the load.  A workload's
input is a list of :class:`Script`; ``--seed`` picks the order the scripts
run in and which serve client leads the tenant schedule, never the
programs' own data, so ``expected.json`` holds for every seed.

Counts are sized on the seed commit (2 cores, CPython 3.11) so that each
workload's timed section takes about ``REFERENCE_SECONDS``; ``--seconds``
scales the counts linearly.  Work is fixed for a given ``--seconds`` so
that chaos and compile counts repeat exactly from run to run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAMS_DIR = os.path.join(HERE, "programs")

#: the ``--seconds`` the counts below were sized for
REFERENCE_SECONDS = 10

WORKLOADS = (
    "suite-steady", "suite-chaos", "suite-tierdown", "phase-change",
    "compile-cold", "interp-only", "serve-fleet",
)

#: the ten programs of the paper's Fig. 6
SUITE = (
    "binarytrees", "bounce", "fannkuchredux", "flexclust", "mandelbrot",
    "nbody", "pidigits", "primes", "spectralnorm", "storage",
)


@dataclass(frozen=True)
class Program:
    source: str
    setup: str    # format template over {n}
    call: str     # format template over {n}
    n: int
    n_test: int


@dataclass(frozen=True)
class Step:
    """``calls`` evaluations of ``call``, each timed and checked against the
    expected value named ``key``; ``setup`` (a phase change) runs once
    before them."""
    key: str
    setup: str
    call: str
    calls: int


@dataclass(frozen=True)
class Script:
    """One program on one fresh VM: eval ``source``, eval ``setup``, then
    the steps in order."""
    program: str
    n: int
    source: str
    setup: str
    steps: Tuple[Step, ...]


@dataclass
class Plan:
    workload: str
    #: switches on top of ``Config()`` defaults
    config: Dict[str, object]
    scripts: List[Script]
    #: leading calls of each script that count as cold, not steady
    warmup: int = 0
    #: suites: how often the warm-up is run, each time on fresh VMs; a
    #: program's cold time is the median over the passes
    cold_passes: int = 1
    #: compile-cold: timed rounds per half (cold, then warm)
    rounds: int = 0
    #: serve-fleet: requests a client sends between two tenant joins, and
    #: leading requests of a tenant that make its cold start
    join_every: int = 0
    cold_requests: int = 0
    clients: int = 0


def load_programs() -> Dict[str, Program]:
    with open(os.path.join(PROGRAMS_DIR, "index.json")) as fh:
        index = json.load(fh)
    out = {}
    for name, row in index.items():
        with open(os.path.join(PROGRAMS_DIR, name + ".R")) as fh:
            source = fh.read()
        out[name] = Program(source, row["setup"], row["call"], row["n"], row["n_test"])
    return out


def _key(program: str, n: int, label: str) -> str:
    return "%s/n=%d/%s" % (program, n, label)


def _simple(programs: Dict[str, Program], name: str, n: int, calls: int) -> Script:
    """The program's own set-up and call at size ``n``."""
    p = programs[name]
    call = p.call.format(n=n)
    return Script(name, n, p.source, p.setup.format(n=n),
                  (Step(_key(name, n, call), "", call, calls),))


def _scaled(count: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(count * scale)))


# ---------------------------------------------------------------------------
# suite-steady / suite-chaos / suite-tierdown / interp-only
# ---------------------------------------------------------------------------

#: timed calls per program, sized so each program's timed section is about a
#: tenth of the run (the suite's call times span 1.5 ms to 1.8 s)
_TIMED_CALLS = {
    "suite-steady": {
        "binarytrees": 4, "bounce": 200, "fannkuchredux": 4, "flexclust": 17,
        "mandelbrot": 22, "nbody": 40, "pidigits": 350, "primes": 19,
        "spectralnorm": 36, "storage": 5,
    },
    "suite-chaos": {
        "binarytrees": 4, "bounce": 40, "fannkuchredux": 2, "flexclust": 12,
        "mandelbrot": 20, "nbody": 5, "pidigits": 400, "primes": 60,
        "spectralnorm": 5, "storage": 3,
    },
    "suite-tierdown": {
        "binarytrees": 3, "bounce": 12, "fannkuchredux": 2, "flexclust": 2,
        "mandelbrot": 16, "nbody": 2, "pidigits": 100, "primes": 14,
        "spectralnorm": 2, "storage": 2,
    },
    "interp-only": {name: 7 for name in SUITE},
}

#: The chaos seed is pinned, not drawn from ``--seed``: which guard fails
#: when decides how soon a function exhausts ``max_deopts_per_function`` and
#: stays interpreted, and that moved suite-tierdown's run time by 40% from
#: one chaos seed to the next (15 s to 23 s over 24 seeds at the seed
#: commit) — wider than any bound.  On 7 of those 24 seeds suite-chaos also
#: raised a VerificationError out of ``primes`` (a continuation compiled
#: after a chaos deopt fails IR verification), and a benchmark needs inputs
#: on which no operation fails.  Each program has its own VM and chaos
#: generator, so the failure stream does not depend on the order either.
_CHAOS = {"chaos_rate": 1e-4, "chaos_seed": 42}

_SUITE_CONFIG = {
    "suite-steady": {"enable_deoptless": True},
    "suite-chaos": {"enable_deoptless": True, **_CHAOS},
    "suite-tierdown": {"enable_deoptless": False, **_CHAOS},
    "interp-only": {"enable_jit": False},
}

_SUITE_WARMUP = {"suite-steady": 4, "suite-chaos": 3, "suite-tierdown": 3,
                 "interp-only": 1}


def _suite_plan(workload, programs, rng, scale, smoke) -> Plan:
    warmup = _SUITE_WARMUP[workload]
    full_size = workload != "interp-only" and not smoke
    scripts = []
    for name in SUITE:
        n = programs[name].n if full_size else programs[name].n_test
        timed = 2 if smoke else _scaled(_TIMED_CALLS[workload][name], scale)
        scripts.append(_simple(programs, name, n, warmup + timed))
    rng.shuffle(scripts)
    # Interpreted, a program's one warm-up call is a single sample of 10 to
    # 270 ms and two programs make half the sum; VMs are cheap without the
    # JIT, so the warm-up runs on three sets of them.
    passes = 3 if workload == "interp-only" and not smoke else 1
    return Plan(workload, dict(_SUITE_CONFIG[workload]), scripts, warmup=warmup,
                cold_passes=passes)


# ---------------------------------------------------------------------------
# phase-change
# ---------------------------------------------------------------------------

_SUM_DATA = {
    "int": "data <- integer({n}L)\nfor (i in 1:{n}L) data[[i]] <- i",
    "float": "data <- numeric({n}L)\nfor (i in 1:{n}L) data[[i]] <- i * 1.5",
    "complex": "data <- complex({n}L)\nfor (i in 1:{n}L) data[[i]] <- complex(i * 1.0, 1.0)",
}

#: two equal columns in place of the program's own 50: ``f`` is what flips
_COLSUM_SETUP = """\
rows <- {n}L
int_col <- integer(rows); for (ri in 1:rows) int_col[[ri]] <- ri
dbl_col <- numeric(rows); for (ri in 1:rows) dbl_col[[ri]] <- ri * 0.5
tbl <- list(int_col, dbl_col)
cols <- 2L
"""

_VOLCANO_FRAMES = (
    ("bilinear-dbl", "volcano_frame(hm_dbl, vw, vh, 1.0, 0.6, interp_bilinear)"),
    ("nearest-dbl", "volcano_frame(hm_dbl, vw, vh, 1.0, 0.6, interp_nearest)"),
    ("bilinear-int", "volcano_frame(hm_int, vw, vh, 1.0, 0.6, interp_bilinear)"),
)

_RSA_KEYS = (
    ("int-key", "rsa_run(rsa_msgs, rsa_n, rsa_key_int, rsa_mod, 1L)"),
    ("dbl-key", "rsa_run(rsa_msgs, rsa_n, rsa_key_dbl, rsa_mod, 1L)"),
)

#: full / smoke sizes
_PHASE_SIZES = {
    "sum_phases": (8000, 200), "colsum": (10000, 50), "volcano": (24, 6),
    "reopt_rsa": (250, 30), "phaseflip": (4000, 600),
}


def _phase_plan(programs, rng, scale, smoke) -> Plan:
    per_phase = 3 if smoke else _scaled(6, scale, floor=3)
    cycles = 1 if smoke else 3
    size = {k: v[1 if smoke else 0] for k, v in _PHASE_SIZES.items()}
    scripts = []

    n = size["sum_phases"]
    steps = [Step(_key("sum_phases", n, kind), _SUM_DATA[kind].format(n=n),
                  "sum()", per_phase)
             for kind in ("int", "float", "complex", "float") * cycles]
    scripts.append(Script("sum_phases", n, programs["sum_phases"].source,
                          "length <- %dL" % n, tuple(steps)))

    n = size["colsum"]
    steps = [Step(_key("colsum", n, call), "", call, per_phase)
             for call in ("f(1L, tbl)", "f(2L, tbl)") * (cycles + 1)]
    scripts.append(Script("colsum", n, programs["colsum"].source,
                          _COLSUM_SETUP.format(n=n), tuple(steps)))

    n = size["volcano"]
    steps = [Step(_key("volcano", n, label), "", call, per_phase)
             for label, call in _VOLCANO_FRAMES * cycles]
    scripts.append(Script("volcano", n, programs["volcano"].source,
                          programs["volcano"].setup.format(n=n), tuple(steps)))

    n = size["reopt_rsa"]
    steps = [Step(_key("reopt_rsa", n, label), "", call, per_phase)
             for label, call in _RSA_KEYS * cycles]
    scripts.append(Script("reopt_rsa", n, programs["reopt_rsa"].source,
                          programs["reopt_rsa"].setup.format(n=n), tuple(steps)))

    # the flip is inside every call; the program's set-up warms up on
    # integer vectors only, so the first timed call is the first to flip
    n = size["phaseflip"]
    for name in ("phaseflip_sum", "phaseflip_dot", "phaseflip_twice"):
        scripts.append(_simple(programs, name, n, 2 * per_phase))

    rng.shuffle(scripts)
    return Plan("phase-change", {"enable_deoptless": True}, scripts)


def is_flip(script: Script, step_index: int) -> bool:
    """Does ``step_index`` of a phase-change script start with a call that
    meets types or call targets the compiled code has not seen?  The first
    phase of a script is a cold start, not a flip — except for phaseflip,
    whose set-up already warmed up on the other type."""
    return step_index > 0 or script.program.startswith("phaseflip")


# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------

def _cold_size(n_test: int) -> int:
    """Small enough that execution is negligible, large enough that every
    loop still crosses the tier-up thresholds."""
    return min(n_test, 4 if n_test < 100 else 16)


def _compile_plan(programs, rng, scale, smoke) -> Plan:
    scripts = [_simple(programs, name, _cold_size(programs[name].n_test), 4)
               for name in sorted(programs)]
    rng.shuffle(scripts)
    rounds = 1 if smoke else _scaled(5, scale)
    return Plan("compile-cold", {}, scripts, rounds=rounds)


# ---------------------------------------------------------------------------
# serve-fleet
# ---------------------------------------------------------------------------

#: program kinds a tenant may run, with the request size
_TENANT_KINDS = (
    ("volcano", 8), ("phaseflip_sum", 2000), ("spectralnorm", 12),
    ("nbody", 20), ("flexclust", 60), ("primes", 800),
)

_VOLCANO_SWITCH = "volcano_frame(hm_dbl, vw, vh, 1.0, 0.6, interp_nearest)"


def _tenant_script(programs, name: str, n: int, calls: int) -> Script:
    script = _simple(programs, name, n, calls)
    if name != "volcano":
        return script
    # half-way the tenant switches the interpolation function
    first = script.steps[0]
    return Script(name, n, script.source, script.setup, (
        Step(first.key, "", first.call, calls // 2),
        Step(_key(name, n, _VOLCANO_SWITCH), "", _VOLCANO_SWITCH, calls - calls // 2),
    ))


def _tenant_size(n: int, smoke: bool) -> int:
    return max(4, n // 4) if smoke else n


def _serve_plan(programs, rng, scale, smoke) -> Plan:
    # Each client serves every kind ``per_kind`` times, one pass over the
    # kinds after another, and one client runs half a pass behind the other,
    # so the two never start the same kind together.  The seed only picks
    # which client leads.  The order the tenants join in decides whether a
    # kind's first two tenants meet (one build, coalesced) or not (a build,
    # then a shared-cache hit) and which kinds join while the fleet is still
    # empty: under a free shuffle ``cold_ms`` moved by 15% from seed to seed
    # and by 2% between runs of one seed, and merely starting the passes at
    # another kind moved it by 12%.
    clients = 2
    per_kind = 1 if smoke else 2
    calls = 8 if smoke else _scaled(44, scale, floor=12)
    start = rng.randrange(clients) * len(_TENANT_KINDS) // clients
    per_client = []
    for c in range(clients):
        shift = (start + c * len(_TENANT_KINDS) // clients) % len(_TENANT_KINDS)
        kinds = _TENANT_KINDS[shift:] + _TENANT_KINDS[:shift]
        per_client.append([_tenant_script(programs, name, _tenant_size(n, smoke), calls)
                           for _ in range(per_kind) for name, n in kinds])
    # tenant i is pinned to worker i % clients and owned by client i % clients
    scripts = [s for group in zip(*per_client) for s in group]
    return Plan("serve-fleet", {"enable_deoptless": True}, scripts,
                join_every=8, cold_requests=6, clients=clients)


# ---------------------------------------------------------------------------

def make_plan(workload: str, programs: Dict[str, Program], seed: int,
              seconds: float, smoke: bool = False) -> Plan:
    rng = random.Random(seed)
    scale = seconds / REFERENCE_SECONDS
    if workload in _SUITE_CONFIG:
        return _suite_plan(workload, programs, rng, scale, smoke)
    if workload == "phase-change":
        return _phase_plan(programs, rng, scale, smoke)
    if workload == "compile-cold":
        return _compile_plan(programs, rng, scale, smoke)
    if workload == "serve-fleet":
        return _serve_plan(programs, rng, scale, smoke)
    raise ValueError("unknown workload %r" % workload)


def expected_scripts(programs: Dict[str, Program]) -> List[Script]:
    """Every script any seed can draw, at full and at smoke size — what
    ``expected.json`` has to cover."""
    scripts: List[Script] = []
    for smoke in (False, True):
        for workload in WORKLOADS:
            if workload != "serve-fleet":
                scripts += make_plan(workload, programs, 0, REFERENCE_SECONDS, smoke).scripts
        scripts += [_tenant_script(programs, name, _tenant_size(n, smoke), 2)
                    for name, n in _TENANT_KINDS]
    return scripts
