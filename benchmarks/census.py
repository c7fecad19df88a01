"""Count calls and sizes inside one workload of the frozen benchmark.

    python3 benchmarks/census.py suite-chaos [name=module:path[:size] ...] [--seed N --seconds S]

Wraps each named function with a counter of its calls and of a size (an expression
over ``args`` and ``result``, default 0), runs ``benchmarks/e2e/run.py --workload W
--trace 0`` (other options passed through) in this process and prints the counters.
With no target: graphs, instructions and phis built and kept, rewrites and the holders
they visit, block orders, use indexes, key digests (the census of ISSUE 21).  The code
cache's census (ISSUE 23: bytes made, bytes read, keys digested; DESIGN.md has the table):

    python3 benchmarks/census.py W "ser=repro.jit.persist:serialize:len(result)" \
        "deser=repro.jit.persist:deserialize" "digest=repro.jit.codecache:stable_digest"
"""
import argparse, functools, importlib, os, runpy, sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_INSTRS = "sum(len(b.instrs) for b in result.blocks)"
_PHIS = "sum(type(i).__name__ == 'Phi' for b in result.blocks for i in b.instrs)"
DEFAULT = [
    "built=repro.ir.builder:GraphBuilder.build:" + _INSTRS, "built_phis=repro.ir.builder:GraphBuilder.build:" + _PHIS,
    "optimized=repro.opt.pipeline:optimize:" + _INSTRS, "optimized_phis=repro.opt.pipeline:optimize:" + _PHIS,
    "phis_removed=repro.opt.simplify:_simplify_phis:result", "rewrites=repro.ir.cfg:Graph.replace_all_uses",
    "holders_instr=repro.ir.instructions:Instr.replace_value", "holders_anchor=repro.ir.cfg:OsrAnchor.replace_value",
    "holders_frame=repro.osr.framestate:FrameStateDescr.replace_value", "rpo=repro.ir.cfg:Graph.rpo:len(result)",
    "use_indexes=repro.ir.cfg:Graph.compute_uses:sum(map(len, result.values()))",
    "digests=repro.jit.codecache:stable_digest",
]


def wrap(counts, name, spec):
    module, path, size = (spec.split(":", 2) + ["0"])[:3]
    mod, (*parents, attr) = importlib.import_module(module), path.split(".")
    owner = functools.reduce(getattr, parents, mod)
    fn, count = owner.__dict__[attr], counts.setdefault(name, [0, 0])

    def counted(*args, **kw):
        result = fn(*args, **kw)
        count[0] += 1
        count[1] += eval(size, {}, {"args": args, "result": result})
        return result

    setattr(owner, attr, counted)  # and, for a module-level function, every `from x import f`
    for m in [m for n, m in sys.modules.items() if n.startswith("repro") and m and owner is mod]:
        for g in [g for g, v in vars(m).items() if v is fn]:
            setattr(m, g, counted)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload")
    ap.add_argument("targets", nargs="*", metavar="name=module:path[:size]")
    a, passed_on = ap.parse_known_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.serve  # noqa: F401  (with repro: every module a copy may live in)
    counts, run_py = {}, os.path.join(ROOT, "benchmarks", "e2e", "run.py")
    for name, spec in (t.split("=", 1) for t in a.targets or DEFAULT):
        wrap(counts, name, spec)
    sys.argv = [run_py, "--workload", a.workload, "--trace", "0"] + passed_on
    try:
        runpy.run_path(run_py, run_name="__main__")
    finally:
        print("\n".join("%-16s calls %9d  size %11d" % (n, c, z) for n, (c, z) in counts.items()))
