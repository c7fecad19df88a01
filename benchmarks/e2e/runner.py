"""Runs a :class:`workloads.Plan` on the VM and takes the end-to-end
measurements: wall-clock per operation, checked against ``expected.json``.

End-to-end numbers come from ``time.perf_counter()`` around the public
entry points (``RVM.eval``, ``Server.submit`` + ``wait``) and nothing else,
each span divided by the host's slowdown around it (``hostspeed.py``); the
same aggregates of the undivided spans are kept under ``"wall"``.  VM
counters are read after the timed section, for the validity checks and the
per-layer table only, and read tolerantly — a counter a later change
removes turns into "unavailable", never into an error.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import RVM, Config, from_r
from repro.serve import Server

import workloads
from hostspeed import HostClock, Span
from workloads import Plan, Script

#: counters the snapshot does not carry at the seed commit, read straight
#: off the telemetry object when present
_EXTRA_COUNTERS = ("deoptless_misses", "deoptless_bailouts", "invalidations",
                   "codecache_disk_hits", "compile_failures")

Mark = Callable[[str, Optional[str], Optional[int]], None]


def no_mark(section, program=None, call=None) -> None:
    pass


geomean = statistics.geometric_mean

Length = Callable[[Span], float]


def wall(span: Span) -> float:
    """A span's length as measured."""
    return span[1] - span[0]


def _both(clock: HostClock, summarize: Callable[[Length], Dict[str, Any]]) -> Dict[str, Any]:
    """``summarize`` over the spans at reference host speed, and the same
    over their wall-clock lengths under ``"wall"``."""
    out = summarize(clock.seconds)
    as_measured = summarize(wall)
    out["wall"] = {k: as_measured[k] for k in ("run_s", "cold_ms", "steady_ms")}
    return out


def percentile(values: List[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def to_plain(value: Any) -> Any:
    """A mini-R value as JSON-storable Python (complex as {"re", "im"})."""
    return _plain(from_r(value))


def _plain(v: Any) -> Any:
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return repr(v)  # closures and environments are no benchmark results


def values_match(got: Any, want: Any, rel: float = 1e-9) -> bool:
    """Exact for logical/integer/string/NULL, relative ``rel`` for double
    and complex."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(values_match(g, w, rel) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict)
                and values_match(got.get("re"), want["re"], rel)
                and values_match(got.get("im"), want["im"], rel))
    if isinstance(want, float):
        if not isinstance(got, float):
            return False
        if math.isnan(want) or math.isinf(want):
            return repr(got) == repr(want)
        return abs(got - want) <= rel * max(abs(want), abs(got))
    return type(got) is type(want) and got == want


class Recorder:
    """Counts operations attempted and failed, naming the failures."""

    def __init__(self, expected: Dict[str, Any], planned: int, deadline: float):
        self.expected = expected
        self.planned = planned
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def expired(self) -> bool:
        return time.perf_counter() > self.deadline

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, key: str, value: Any) -> None:
        got = to_plain(value)
        with self._lock:
            self.attempted += 1
            if key not in self.expected:
                self._fail("%s: no expected value" % key)
            elif not values_match(got, self.expected[key]):
                self._fail("%s: got %.80r, expected %.80r"
                           % (key, got, self.expected[key]))

    def ran(self) -> None:
        """An operation with no value to check (source, set-up) completed."""
        with self._lock:
            self.attempted += 1

    def raised(self, name: str, error: BaseException) -> None:
        with self._lock:
            self.attempted += 1
            self._fail("%s: raised %r" % (name, error))

    def close(self) -> None:
        """Operations the deadline cut off count as failed."""
        missing = self.planned - self.attempted
        if missing > 0:
            self.attempted += missing
            self.failed += missing
            self.failures.append("%d operations not run before the timeout" % missing)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def read_counts(vm: RVM) -> Dict[str, float]:
    try:
        snap = dict(vm.state.snapshot())
    except Exception:
        snap = {}
    for key in _EXTRA_COUNTERS:
        if key not in snap:
            snap[key] = getattr(vm.state, key, None)
    try:
        snap["model_cycles"] = vm.cycles()
    except Exception:
        pass
    return {k: v for k, v in snap.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def add_counts(total: Dict[str, float], vm: RVM) -> None:
    for key, v in read_counts(vm).items():
        total[key] = total.get(key, 0) + v


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _fresh_vm(plan: Plan, script: Script, **more) -> RVM:
    vm = RVM(Config(**{"codecache_dir": None, **plan.config, **more}))
    vm.eval(script.source)
    vm.eval(script.setup)
    return vm


def planned_operations(plan: Plan) -> int:
    calls = sum(step.calls for s in plan.scripts for step in s.steps)
    calls += (plan.cold_passes - 1) * plan.warmup * len(plan.scripts)
    if plan.workload == "compile-cold":
        return calls * (2 * plan.rounds + 1)
    if plan.workload == "serve-fleet":
        return calls + 2 * len(plan.scripts)
    return calls


def prepare(plan: Plan):
    """Everything before the first timed operation, except the imports.
    Returns the state :func:`run` consumes and a function that releases it."""
    if plan.workload == "compile-cold":
        # constructing VMs and evaluating sources is this workload's load
        return None, lambda: None
    if plan.workload == "serve-fleet":
        config = dict(plan.config)
        server = Server(lambda: Config(**{"codecache_dir": None, **config}),
                        workers=plan.clients, compile_workers=1)
        # sessions are pinned to workers in creation order: tenant i runs
        # on worker i % clients, and client i % clients owns it
        for i in range(len(plan.scripts)):
            server.session("tenant%02d" % i)
        return server, server.close
    # built in one order whatever the seed, then handed over in the plan's:
    # the order of the allocations decides how the heap fragments, and the
    # peak resident size moved by 9% with it
    ordered = sorted(plan.scripts, key=lambda s: s.program)
    built = {id(s): _fresh_vm(plan, s) for s in ordered}
    return [(s, built[id(s)]) for s in plan.scripts], lambda: None


# ---------------------------------------------------------------------------
# the timed sections
# ---------------------------------------------------------------------------

def _checked_eval(vm: RVM, code: str, key: str, rec: Recorder) -> None:
    try:
        value = vm.eval(code)
    except Exception as e:
        rec.raised(key, e)
    else:
        rec.check(key, value)


def _timed_eval(vm: RVM, code: str, key: str, rec: Recorder, clock: HostClock) -> Span:
    clock.tick()
    t0 = time.perf_counter()
    try:
        value = vm.eval(code)
    except Exception as e:
        t1 = time.perf_counter()
        rec.raised(key, e)
        return t0, t1
    t1 = time.perf_counter()
    rec.check(key, value)
    return t0, t1


def _run_suite(plan: Plan, state, rec: Recorder, mark: Mark, clock: HostClock) -> Dict[str, Any]:
    #: per program, one list of warm-up spans per cold pass
    cold: Dict[str, List[List[Span]]] = {s.program: [] for s, _ in state}
    timed: Dict[str, List[Span]] = {}
    counts: Dict[str, float] = {}
    # Pass 0 warms up the prepared VMs, which then run the timed calls; each
    # later pass repeats the warm-up on VMs built here, outside the spans.
    for cold_pass in range(plan.cold_passes):
        for script, vm in state:
            if cold_pass:
                vm = _fresh_vm(plan, script)
            step = script.steps[0]
            gc.collect()
            spans = []
            for i in range(plan.warmup):
                if rec.expired():
                    break
                mark("warmup", script.program, i)
                spans.append(_timed_eval(vm, step.call, step.key, rec, clock))
            cold[script.program].append(spans)
            if cold_pass:
                add_counts(counts, vm)
    # The timed calls go round-robin over the programs, a share of each
    # program's calls per round, so that each program's calls are spread
    # over the whole run.
    rounds = min(s.steps[0].calls - plan.warmup for s, _ in state)
    for r in range(rounds):
        gc.collect()
        for script, vm in state:
            step = script.steps[0]
            calls = step.calls - plan.warmup
            series = timed.setdefault(script.program, [])
            for i in range(calls * r // rounds, calls * (r + 1) // rounds):
                if rec.expired():
                    break
                mark("timed", script.program, plan.warmup + i)
                series.append(_timed_eval(vm, step.call, step.key, rec, clock))
    clock.calibrate()
    for script, vm in state:
        add_counts(counts, vm)

    def summarize(length: Length) -> Dict[str, Any]:
        rows = []
        for script, vm in state:
            calls = [length(s) for s in timed.get(script.program, ())]
            if calls:
                rows.append({"program": script.program, "n": script.n,
                             "cold_s": statistics.median(
                                 sum(map(length, spans)) for spans in cold[script.program]),
                             "calls": len(calls),
                             "median_ms": statistics.median(calls) * 1e3,
                             "max_ms": max(calls) * 1e3, "timed_s": sum(calls)})
        return {
            "run_s": sum(r["cold_s"] + r["timed_s"] for r in rows),
            "cold_ms": sum(r["cold_s"] for r in rows) * 1e3,
            "steady_ms": geomean([r["median_ms"] for r in rows]),
            "rows": rows,
        }

    return {**_both(clock, summarize), "counts": {"all": counts}}


def _run_phases(plan: Plan, state, rec: Recorder, mark: Mark, clock: HostClock) -> Dict[str, Any]:
    #: (program, phase key, is a flip, the phase's calls)
    phases: List[Tuple[str, str, bool, List[Span]]] = []
    counts: Dict[str, float] = {}
    for script, vm in state:
        gc.collect()
        call_index = 0
        for si, step in enumerate(script.steps):
            if rec.expired():
                break
            if step.setup:
                mark("phase-setup", script.program, call_index)
                vm.eval(step.setup)
            spans = []
            for _ in range(step.calls):
                mark("timed", script.program, call_index)
                spans.append(_timed_eval(vm, step.call, step.key, rec, clock))
                call_index += 1
            phases.append((script.program, step.key, workloads.is_flip(script, si), spans))
        add_counts(counts, vm)
    clock.calibrate()

    def summarize(length: Length) -> Dict[str, Any]:
        rows = []
        for program, key, flip, spans in phases:
            times = [length(s) for s in spans]
            if flip and len(times) > 1:
                rows.append({"program": program, "phase": key,
                             "flip_ms": times[0] * 1e3,
                             "recovered_ms": statistics.median(times[1:]) * 1e3})
        return {
            "run_s": sum(length(s) for _p, _k, _f, spans in phases for s in spans),
            "cold_ms": geomean([r["flip_ms"] for r in rows]),
            "steady_ms": geomean([r["recovered_ms"] for r in rows]),
            "rows": rows,
        }

    out = _both(clock, summarize)
    return {**out, "info": [("flips", len(out["rows"]), "count")], "counts": {"all": counts}}


def _compile_round(plan: Plan, rec: Recorder, mark: Mark, section: str,
                   counts: Dict[str, float], cache_dir: Optional[str],
                   clock: HostClock, save: bool = False) -> List[Span]:
    """One fresh VM per program: eval source and set-up, run the calls.
    Returns one span per program, counter reads excluded."""
    gc.collect()
    spans = []
    for script in plan.scripts:
        if rec.expired():
            break
        mark(section, script.program, 0)
        step = script.steps[0]
        clock.tick()
        t0 = time.perf_counter()
        vm = _fresh_vm(plan, script, codecache_dir=cache_dir)
        for _ in range(step.calls):
            _checked_eval(vm, step.call, step.key, rec)
        spans.append((t0, time.perf_counter()))
        if save:
            vm.save_code_cache()
        add_counts(counts, vm)
    return spans


def _run_compile(plan: Plan, rec: Recorder, mark: Mark, scratch_dir: str,
                 clock: HostClock) -> Dict[str, Any]:
    counts: Dict[str, Dict[str, float]] = {"cold": {}, "save": {}, "warm": {}}
    os.makedirs(scratch_dir, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="codecache-", dir=scratch_dir)
    try:
        cold = [_compile_round(plan, rec, mark, "cold", counts["cold"], None, clock)
                for _ in range(plan.rounds)]
        _compile_round(plan, rec, mark, "save", counts["save"], cache_dir, clock, save=True)
        warm = [_compile_round(plan, rec, mark, "warm", counts["warm"], cache_dir, clock)
                for _ in range(plan.rounds)]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    clock.calibrate()

    def summarize(length: Length) -> Dict[str, Any]:
        cold_s = [sum(length(s) for s in spans) for spans in cold]
        warm_s = [sum(length(s) for s in spans) for spans in warm]
        return {
            "run_s": sum(cold_s) + sum(warm_s),
            "cold_ms": statistics.median(cold_s) * 1e3,
            "steady_ms": statistics.median(warm_s) * 1e3,
            "rows": [{"round": "cold", "seconds": cold_s}, {"round": "warm", "seconds": warm_s}],
        }

    return {**_both(clock, summarize),
            "info": [("rounds_per_half", plan.rounds, "count")], "counts": counts}


class _Tenant:
    def __init__(self, name: str, script: Script):
        self.name = name
        self.requests: List[Tuple[Optional[str], str]] = [(None, script.source),
                                                          (None, script.setup)]
        for step in script.steps:
            self.requests += [(step.key, step.call)] * step.calls
        self.sent = 0
        self.latencies: List[Span] = []


class _Rendezvous:
    """Where the clients meet every ``join_every`` requests: the last one to
    arrive runs ``action`` — a host-speed calibration, which must not share
    the interpreter lock with a request — and then all go on."""

    def __init__(self, parties: int, action: Callable[[], None]):
        self._cond = threading.Condition()
        self._parties = parties
        self._arrived = 0
        self._generation = 0
        self._action = action

    def _release(self) -> None:
        self._action()
        self._arrived = 0
        self._generation += 1
        self._cond.notify_all()

    def wait(self) -> None:
        with self._cond:
            self._arrived += 1
            if self._arrived == self._parties:
                self._release()
                return
            generation = self._generation
            while generation == self._generation:
                self._cond.wait()

    def leave(self) -> None:
        with self._cond:
            self._parties -= 1
            if self._parties and self._arrived == self._parties:
                self._release()


def _client_loop(server: Server, tenants: List[_Tenant], plan: Plan, join_at: int,
                 rec: Recorder, done: List[int], meet: _Rendezvous) -> None:
    """One closed-loop client: one request in flight, round-robin over its
    active tenants, a new tenant joining every ``join_every`` requests —
    at request ``join_at`` of each such round, which differs between the
    clients so that a cold start meets the other client's warm traffic."""
    waiting = list(tenants)
    active: List[_Tenant] = []
    sent = 0
    turn = 0
    try:
        while (waiting or active) and not rec.expired():
            if sent % plan.join_every == 0:
                meet.wait()
            if waiting and (not active or sent % plan.join_every == join_at):
                active.append(waiting.pop(0))
            tenant = active[turn % len(active)]
            key, source = tenant.requests[tenant.sent]
            name = key or "%s request %d" % (tenant.name, tenant.sent)
            t0 = time.perf_counter()
            try:
                value = server.submit(tenant.name, source).wait(
                    timeout=max(0.1, rec.deadline - t0))
            except Exception as e:
                tenant.latencies.append((t0, time.perf_counter()))
                rec.raised(name, e)
            else:
                tenant.latencies.append((t0, time.perf_counter()))
                if key is None:
                    rec.ran()
                else:
                    rec.check(key, value)
            tenant.sent += 1
            sent += 1
            if tenant.sent == len(tenant.requests):
                active.remove(tenant)
            else:
                turn += 1
    finally:
        meet.leave()
        done[0] += sent


def _run_serve(plan: Plan, server: Server, rec: Recorder, mark: Mark,
               clock: HostClock) -> Dict[str, Any]:
    tenants = [_Tenant("tenant%02d" % i, s) for i, s in enumerate(plan.scripts)]
    done = [[0] for _ in range(plan.clients)]
    meet = _Rendezvous(plan.clients, clock.calibrate)
    threads = [
        threading.Thread(target=_client_loop, name="client-%d" % c, args=(
            server, tenants[c::plan.clients], plan, c * plan.join_every // plan.clients,
            rec, done[c], meet))
        for c in range(plan.clients)
    ]
    mark("timed", None, None)
    gc.collect()
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loop = (t0, time.perf_counter())
    clock.calibrate()
    server.quiesce(timeout=5.0)

    k = plan.cold_requests
    served = [(t, s) for t, s in zip(tenants, plan.scripts) if len(t.latencies) > k]
    completed = sum(d[0] for d in done)
    counts: Dict[str, float] = {}
    for sess in server.sessions.values():
        add_counts(counts, sess.vm)
    stats = server.stats()
    for name, part, key in (("fleet_shared_hits", "shared_cache", "hits"),
                            ("fleet_shared_misses", "shared_cache", "misses"),
                            ("fleet_builds", "fleet_queue", "builds")):
        counts[name] = stats.get(part, {}).get(key)

    def summarize(length: Length) -> Dict[str, Any]:
        run_s = length(loop)
        warm = [length(lat) * 1e3 for t, _ in served for lat in t.latencies[k:]]
        info = [("req_per_s", completed / run_s, "1/s"),
                ("requests", completed, "count"),
                ("latency_samples", len(warm), "count"),
                ("req_p50_ms", percentile(warm, 50), "ms"),
                ("req_p90_ms", percentile(warm, 90), "ms")]
        if len(warm) >= 1000:
            info.append(("req_p99_ms", percentile(warm, 99), "ms"))
        rows = [{"tenant": t.name, "program": s.program, "n": s.n,
                 "cold_start_ms": sum(length(lat) for lat in t.latencies[:k]) * 1e3,
                 "mean_ms": statistics.mean(length(lat) for lat in t.latencies[k:]) * 1e3,
                 "median_ms": statistics.median(length(lat) for lat in t.latencies[k:]) * 1e3}
                for t, s in served]
        return {
            "run_s": run_s,
            # Geometric means over tenants, like the suites' over programs:
            # the six kinds differ 6x in cost, and a plain median over their
            # pooled requests jumps between kinds.  Per tenant the mean, not
            # the median: a request takes a few ms longer whenever the other
            # worker holds the interpreter lock, so a tenant's latencies
            # have two modes and its median flips between them from run to
            # run (spread over ten seeds 10.6% against 3.8%).
            "cold_ms": geomean([r["cold_start_ms"] for r in rows]),
            "steady_ms": geomean([r["mean_ms"] for r in rows]),
            "rows": rows,
            "info": info,
        }

    return {**_both(clock, summarize),
            "counts": {"all": {k: v for k, v in counts.items() if v is not None}}}


def run(plan: Plan, state, rec: Recorder, clock: HostClock, mark: Mark = no_mark,
        scratch_dir: str = ".") -> Dict[str, Any]:
    """The timed section of ``plan``; returns the measurements."""
    if plan.workload == "phase-change":
        out = _run_phases(plan, state, rec, mark, clock)
    elif plan.workload == "compile-cold":
        out = _run_compile(plan, rec, mark, scratch_dir, clock)
    elif plan.workload == "serve-fleet":
        out = _run_serve(plan, state, rec, mark, clock)
    else:
        out = _run_suite(plan, state, rec, mark, clock)
    if plan.workload != "serve-fleet":
        out["counts"].setdefault("all", {}).update(
            fleet_shared_hits=0, fleet_shared_misses=0, fleet_builds=0)
    rec.close()
    return out


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------

def reference_values(scripts: List[Script]) -> Dict[str, Any]:
    """Every step's value under the bytecode interpreter alone — never the
    JIT under test."""
    out: Dict[str, Any] = {}
    for script in scripts:
        vm = RVM(Config(enable_jit=False, codecache_dir=None))
        vm.eval(script.source)
        vm.eval(script.setup)
        for step in script.steps:
            if step.setup:
                vm.eval(step.setup)
            value = to_plain(vm.eval(step.call))
            if step.key in out and not values_match(value, out[step.key]):
                raise AssertionError("two values for %s" % step.key)
            out[step.key] = value
    return out
