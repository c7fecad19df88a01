"""Generated-code census: what one steady call of each suite program executes in the code
the native emitter printed.

    python3 benchmarks/gencensus.py [program ...] [--warmup 4] [--test-size]

For each of the ten Fig. 6 programs of ``benchmarks/e2e`` (at the full size ``suite-steady``
runs, or ``n_test`` with ``--test-size``) on a fresh VM with ``suite-steady``'s switches: run
the warm-up calls, then one call under ``sys.settrace``, counting every line event in a
generated unit (``native/pycodegen.py``).  It prints, per program, the executed generated
lines by category and the builtin calls those lines make per steady call.  A builtin is
counted once per occurrence in an executed line, so an ``and`` chain that stops early still
counts its later calls: an upper bound, exact for the one-call lines that carry the cost
(``int(_i)``, ``float(_w)``, ``len(_d)``).  DESIGN.md, "Python codegen backend", has the table
before and after typed subscripts and the primitive costs that price it.  About a minute.
"""
import argparse, collections, importlib, os, re, sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILTINS = ("int", "float", "len", "isinstance", "type", "RVector")
_CALL = {b: re.compile(r"(?<![\w.])%s\(" % b) for b in BUILTINS}
#: first matching pattern names a line's category
CATEGORIES = (
    ("subscript", re.compile(r"_d = _v\.data|_d\[|_v\.data\[|_i = |1 <= _i|_i < 1|_assign2")),
    ("guard", re.compile(r"^if not |^if _v is not |^if _ch is not None|^raise ")),
    ("kernel", re.compile(r"_rs\b|_kern\(|_r\[|^_s = |_s == |is not int or type\(")),
    ("call", re.compile(r"_callf\(|call_closure\(|\.fn\(|^state\.native_ops \+= _n|^_n = 0")),
    ("dispatch", re.compile(r"^_b = |^continue$|^(el)?if _b == |^while True|^_[ngu] \+= ")),
    ("box", re.compile(r"RVector\(|\.data\[0\]|^if type\(_v\) is |^_v = (int|float|complex)\(_v\)")),
    ("move", re.compile(r"^(r\d+|_[vwi]) = (r\d+|_[vwi])$")),
    ("branch", re.compile(r"^if r\d+:$")),
)


def category(text):
    return next((name for name, pat in CATEGORIES if pat.search(text)), "other")


def census(prog, n, warmup):
    from repro import Config, RVM
    pycodegen = importlib.import_module("repro.native.pycodegen")
    sources = {}  # the generated function's code object -> its source lines
    compile_unit = pycodegen._compile

    def recording(ncode):
        code = compile_unit(ncode)
        for c in code.co_consts:
            if getattr(c, "co_name", None) == "_unit":
                sources[c] = ncode.pysrc.splitlines()
        return code

    pycodegen._compile = recording
    try:
        vm = RVM(Config(enable_deoptless=True))
        vm.eval(prog.source)
        vm.eval(prog.setup.format(n=n))
        call = prog.call.format(n=n)
        for _ in range(warmup):
            vm.eval(call)
        hits = collections.Counter()

        def trace(frame, event, arg):
            if frame.f_code in sources:
                if event == "line":
                    hits[frame.f_code, frame.f_lineno] += 1
                return trace
            return None

        sys.settrace(trace)
        try:
            vm.eval(call)
        finally:
            sys.settrace(None)
    finally:
        pycodegen._compile = compile_unit
    lines, calls = collections.Counter(), collections.Counter()
    for (code, lineno), k in hits.items():
        text = sources[code][lineno - 1].strip()
        lines[category(text)] += k
        for b, pat in _CALL.items():
            calls[b] += k * len(pat.findall(text))
    return lines, calls


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("programs", nargs="*")
    ap.add_argument("--warmup", type=int, default=4)
    ap.add_argument("--test-size", action="store_true")
    a = ap.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks", "e2e")]
    from workloads import SUITE, load_programs
    programs = load_programs()
    cats = [name for name, _ in CATEGORIES] + ["other"]
    print("%-14s %9s " % ("program", "lines") + " ".join("%9s" % c for c in cats)
          + "  | " + " ".join("%9s" % b for b in BUILTINS))
    for name in a.programs or SUITE:
        p = programs[name]
        lines, calls = census(p, p.n_test if a.test_size else p.n, a.warmup)
        print("%-14s %9d " % (name, sum(lines.values())) + " ".join("%9d" % lines[c] for c in cats)
              + "  | " + " ".join("%9d" % calls[b] for b in BUILTINS), flush=True)
