"""Span tracing of the VM's layers, installed from outside.

The VM has no tracing of its own yet, so the benchmark wraps a fixed list
of public callables — one per layer boundary — with a timer.  Call sites
bind those callables with ``from x import f``, so :meth:`Tracer.install`
replaces every ``repro.*`` module global and class attribute that *is* the
original object, and :meth:`Tracer.uninstall` puts every one back.

A span is (id, parent id, name, start, end) plus the tag the runner set
last — (section, program, call index).  A span's **self time** is its
duration minus the part its child spans cover; it is computed as spans
close, so the self times of all spans add up to the durations of the root
spans.  Callables entered tens of thousands of times per workload (``hot``
below) are not stored one by one but summed per (section, name, parent
name).  Spans live in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path, hot)
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("rlang.parse", "repro.rlang.parser", "parse", False),
    ("bytecode.compile", "repro.bytecode.compiler", "Compiler.compile_program", False),
    ("bytecode.interp", "repro.bytecode.interpreter", "run", True),
    ("ir.build", "repro.ir.builder", "GraphBuilder.build", False),
    ("ir.verify", "repro.ir.verifier", "verify", False),
    ("opt.optimize", "repro.opt.pipeline", "optimize", False),
    ("opt.inline", "repro.opt.inline", "inline_calls", False),
    ("opt.simplify", "repro.opt.simplify", "simplify", False),
    ("opt.dse", "repro.opt.dse", "dse", False),
    ("opt.dce", "repro.opt.dce", "dce", False),
    ("opt.vectorize", "repro.opt.vectorize", "vectorize_loops", False),
    ("native.lower", "repro.native.lower", "lower", False),
    ("native.codegen_emit", "repro.native.pycodegen", "ensure_source", False),
    ("native.codegen_bind", "repro.native.pycodegen", "bind", False),
    ("native.exec", "repro.native.executor", "execute", True),
    ("native.exec_at", "repro.native.executor", "execute_at", True),
    ("jit.eval", "repro.jit.vm", "RVM.eval", False),
    ("jit.call_closure", "repro.jit.vm", "RVM.call_closure", True),
    ("jit.deopt", "repro.jit.vm", "RVM.deopt", False),
    ("jit.tierup", "repro.jit.vm", "RVM.compile_closure", False),
    ("jit.ctx_compile", "repro.jit.vm", "RVM._compile_context_version", False),
    ("jit.persist_save", "repro.jit.vm", "RVM.save_code_cache", False),
    ("jit.codecache_lookup", "repro.jit.codecache", "CodeCache.lookup", False),
    ("jit.codecache_insert", "repro.jit.codecache", "CodeCache.insert", False),
    ("deoptless.try", "repro.deoptless.engine", "try_deoptless", False),
    ("deoptless.compile", "repro.deoptless.engine", "deoptless_compile", False),
    ("deoptless.call_continuation", "repro.deoptless.engine", "call_continuation", False),
    ("osr.in", "repro.osr.osr_in", "try_osr_in", False),
    ("osr.out", "repro.osr.osr_out", "resume_in_interpreter", False),
    ("osr.hop_in", "repro.osr.osr_hop", "try_hop_in", False),
    ("osr.hop_out", "repro.osr.osr_hop", "try_hop_out", False),
    ("serve.submit", "repro.serve.server", "Server.submit", False),
    ("serve.run", "repro.serve.server", "Server._run", False),
    ("serve.fleet_build", "repro.serve.fleet_queue", "FleetCompileQueue._run_group", False),
)


def _graph_instrs(graph) -> int:
    return sum(len(bb.instrs) for bb in graph.blocks)


def _detail(name: str, args, result) -> Optional[Dict[str, Any]]:
    """What a span records beside its times: the sizes and identities the
    per-layer table needs and no counter gives."""
    if name == "rlang.parse":
        return {"source_bytes": len(args[0])}
    if name == "ir.build" and result is not None:
        return {"instrs": _graph_instrs(result)}
    if name == "opt.optimize" and result is not None:
        return {"instrs": _graph_instrs(result)}
    if name == "deoptless.try":
        from repro.deoptless.engine import MISS
        return {"miss": result is MISS}
    if name == "serve.submit":
        return {"tenant": args[1]}
    if name == "serve.run":
        return {"tenant": args[1].tenant}
    return None


class _Thread:
    """One thread's open-span stack and what it has recorded."""

    def __init__(self, ident: int):
        self.ident = ident
        #: open spans: [child_ns, name, id of the nearest stored span]
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.hot: Dict[tuple, list] = {}
        self.root_ns = 0


class Tracer:
    def __init__(self) -> None:
        #: (section, program, call index), set by the runner between operations
        self.tag: Tuple[Optional[str], Optional[str], Optional[int]] = (None, None, None)
        self._tls = threading.local()
        self._threads: List[_Thread] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any]] = []
        self.installed = False

    def mark(self, section, program=None, call=None) -> None:
        self.tag = (section, program, call)

    # ------------------------------------------------------------ recording

    def _thread(self) -> _Thread:
        th = _Thread(threading.get_ident())
        self._tls.th = th
        with self._lock:
            self._threads.append(th)
        return th

    def _wrap(self, name: str, fn: Callable, hot: bool) -> Callable:
        tls = self._tls
        clock = time.perf_counter_ns
        tracer = self
        ids = self._ids

        if hot:
            def traced(*args, **kwargs):
                try:
                    th = tls.th
                except AttributeError:
                    th = tracer._thread()
                stack = th.stack
                frame = [0, name, stack[-1][2] if stack else None]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        parent = stack[-1]
                        parent[0] += dur
                        key = (tracer.tag[0], name, parent[1])
                    else:
                        th.root_ns += dur
                        key = (tracer.tag[0], name, None)
                    row = th.hot.get(key)
                    if row is None:
                        th.hot[key] = [1, dur, dur - frame[0]]
                    else:
                        row[0] += 1
                        row[1] += dur
                        row[2] += dur - frame[0]
        else:
            def traced(*args, **kwargs):
                try:
                    th = tls.th
                except AttributeError:
                    th = tracer._thread()
                stack = th.stack
                sid = next(ids)
                parent_sid = stack[-1][2] if stack else None
                tag = tracer.tag
                frame = [0, name, sid]
                stack.append(frame)
                result = None
                error = None
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    error = type(e).__name__
                    raise
                finally:
                    t1 = clock()
                    dur = t1 - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    else:
                        th.root_ns += dur
                    detail = _detail(name, args, result)
                    if error is not None:
                        detail = dict(detail or (), error=error)
                    th.spans.append((sid, parent_sid, name, t0, t1,
                                     dur - frame[0], tag, detail))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ----------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every target; idempotent per tracer."""
        if self.installed:
            return
        import repro
        import repro.serve  # noqa: F401  (not imported by the package itself)
        # import every module now: one imported while tracing is on would
        # bind a wrapper with `from x import f` and keep it after uninstall
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.startswith("repro.bench"):
                importlib.import_module(info.name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        for name, module_name, path, hot in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            raw = owner.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                original = raw.__func__
                wrapped: Any = type(raw)(self._wrap(name, original, hot))
                self._set(owner, attr, raw, wrapped)
                continue
            original = raw
            wrapped = self._wrap(name, original, hot)
            if parents:
                self._set(owner, attr, raw, wrapped)
            for module in modules:
                for gname, gval in list(vars(module).items()):
                    if gval is original:
                        self._set(module, gname, original, wrapped)
        self.installed = True

    def _set(self, owner: Any, attr: str, old: Any, new: Any) -> None:
        self._patched.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched = []
        self.installed = False

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, original) of every replacement in force."""
        return list(self._patched)

    # ------------------------------------------------------------ reporting

    def spans(self) -> List[Dict[str, Any]]:
        """Stored spans, oldest first."""
        out = []
        for th in list(self._threads):
            for sid, parent, name, t0, t1, self_ns, tag, detail in th.spans:
                row = {"id": sid, "parent": parent, "name": name, "t0_ns": t0,
                       "t1_ns": t1, "self_ns": self_ns, "thread": th.ident,
                       "section": tag[0], "program": tag[1], "call": tag[2]}
                if detail:
                    row.update(detail)
                out.append(row)
        out.sort(key=lambda r: r["t0_ns"])
        return out

    def hot_rows(self) -> List[Dict[str, Any]]:
        merged: Dict[tuple, list] = {}
        for th in list(self._threads):
            for key, (count, total, self_ns) in th.hot.items():
                row = merged.setdefault(key, [0, 0, 0])
                row[0] += count
                row[1] += total
                row[2] += self_ns
        return [{"hot": True, "section": k[0], "name": k[1], "parent_name": k[2],
                 "count": v[0], "total_ns": v[1], "self_ns": v[2]}
                for k, v in sorted(merged.items(), key=lambda kv: repr(kv[0]))]

    def root_ns(self) -> int:
        return sum(th.root_ns for th in list(self._threads))

    def span_count(self) -> int:
        return sum(len(th.spans) + sum(row[0] for row in th.hot.values())
                   for th in list(self._threads))

    def totals(self) -> Dict[Tuple[Optional[str], str], Dict[str, int]]:
        """(section, span name) -> count, total_ns, self_ns over stored and
        hot spans alike."""
        out: Dict[Tuple[Optional[str], str], Dict[str, int]] = {}

        def add(section, name, count, total_ns, self_ns):
            t = out.setdefault((section, name), {"count": 0, "total_ns": 0, "self_ns": 0})
            t["count"] += count
            t["total_ns"] += total_ns
            t["self_ns"] += self_ns

        for th in list(self._threads):
            for _sid, _parent, name, t0, t1, self_ns, tag, _detail in th.spans:
                add(tag[0], name, 1, t1 - t0, self_ns)
            for (section, name, _pname), (count, total_ns, self_ns) in th.hot.items():
                add(section, name, count, total_ns, self_ns)
        return out

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """One JSON object per line: the header, every stored span, then
        the summed hot spans."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, root_ns=self.root_ns())) + "\n")
            for row in self.spans():
                fh.write(json.dumps(row) + "\n")
            for row in self.hot_rows():
                fh.write(json.dumps(row) + "\n")

    def calibrate(self, rounds: int = 20000) -> float:
        """Seconds one hot span adds to a call, measured on an empty
        function — the basis of the overhead estimate."""
        def empty():
            pass
        probe = Tracer()
        wrapped = probe._wrap("calibrate", empty, True)
        t0 = time.perf_counter()
        for _ in range(rounds):
            empty()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(rounds):
            wrapped()
        return max(0.0, (time.perf_counter() - t0 - bare) / rounds)
