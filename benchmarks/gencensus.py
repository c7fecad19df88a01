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
(``int(_i)``, ``float(_w)``, ``len(_d)``).  ``counter`` lines flush the pending op counts
(``_n``/``_g``/``_u +=``); ``arm`` lines set or test the label variable ``_b`` (``_b =``,
``if _b ==``, and the routing tests of a hop's label: ``if not _b:``, ``if _b or rC:``, ``if not
_b or _b == k:``, ``if _b:``); ``loop`` lines are ``while True``, ``continue`` and ``break`` (one
``dispatch`` column held both until every reducible loop nest became Python loops).  ``if not
rN:`` is a ``guard`` (an ``Assume``) when a raise follows it and a ``branch`` otherwise.  Three
more columns count, per steady call, what runs outside generated code: the bytecode ops the
interpreter retires (``interp_ops``), the promises forced (``promises``: runs of a thunk or a default argument's code) and the closure entries that
ask contextual dispatch for a version (``entry_disp``: ``RVM._dispatch_context_version``).
The ``moves`` column counts every executed ``name = name`` line, whatever its category (a
staging ``_i = r112`` is a ``subscript`` line and a move): the executed moves, read one way.
DESIGN.md, "Python codegen backend", has the tables before and after typed subscripts,
innermost Python loops, one local per value and nested loops with joins, and the primitive costs
that price them; "Eager arguments for base builtins" has the last three columns before and
after.  About a minute.
"""
import argparse, collections, importlib, os, re, sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILTINS = ("int", "float", "len", "isinstance", "type", "RVector")
#: what a steady call runs outside generated code
OUTSIDE = ("interp_ops", "promises", "entry_disp")
_CALL = {b: re.compile(r"(?<![\w.])%s\(" % b) for b in BUILTINS}
#: a register move or an operand staged into a scratch name
MOVE = re.compile(r"^[A-Za-z_]\w* = [A-Za-z_]\w*$")
BRANCH_NOT = re.compile(r"^if not r\d+:$")
#: first matching pattern names a line's category
CATEGORIES = (
    ("subscript", re.compile(r"_d = \w+\.data$|_d\[|\.data\[\w+ - 1\]|^_i = |1 <= \w+ <= len"
                             r"|^if \w+ < 1 or|_assign2")),
    ("arm", re.compile(r"^_b = |^(el)?if (not )?_b\b")),
    ("loop", re.compile(r"^continue$|^break$|^while True")),
    ("guard", re.compile(r"^if not |^if \w+ is not _K|^if _ch is not None|^raise ")),
    ("kernel", re.compile(r"_rs\b|_kern\(|_r\[|^_s = |_s == |is not int or type\(")),
    ("call", re.compile(r"_callf\(|call_closure\(|\.fn\(|^state\.native_ops \+= _n|^_n = 0")),
    ("counter", re.compile(r"^_[ngu] \+= ")),
    ("box", re.compile(r"RVector\(|\.data\[0\]|^if type\(_v\) is |^_v = (int|float|complex)\(_v\)")),
    ("move", re.compile(r"^(r\d+|_[vwi]) = (r\d+|_[vwi])$")),
    ("branch", re.compile(r"^if r\d+:$")),
)


def category(text, following=""):
    """A line's category; ``following`` is the next source line (see ``if not rN:`` above)."""
    if BRANCH_NOT.match(text) and not following.strip().startswith("raise "):
        return "branch"
    return next((name for name, pat in CATEGORIES if pat.search(text)), "other")


def census(prog, n, warmup):
    from repro import Config, RVM
    pycodegen = importlib.import_module("repro.native.pycodegen")
    interpreter = importlib.import_module("repro.bytecode.interpreter")
    sources = {}  # the generated function's code object -> its source lines
    compile_unit, run, dispatch = pycodegen._compile, interpreter.run, RVM._dispatch_context_version
    lines, calls = collections.Counter(), collections.Counter()

    def running(code, *args, **kw):  # `force` runs a promise's code through this global
        if code.name.startswith(("<promise>", "<default ")):
            calls["promises"] += 1
        return run(code, *args, **kw)

    def dispatching(*args, **kw):
        calls["entry_disp"] += 1
        return dispatch(*args, **kw)

    def recording(ncode):
        code = compile_unit(ncode)
        for c in code.co_consts:
            if getattr(c, "co_name", None) == "_unit":
                sources[c] = ncode.pysrc.splitlines()
        return code

    pycodegen._compile, interpreter.run, RVM._dispatch_context_version = recording, running, dispatching
    try:
        vm = RVM(Config(enable_deoptless=True))
        vm.eval(prog.source)
        vm.eval(prog.setup.format(n=n))
        call = prog.call.format(n=n)
        for _ in range(warmup):
            vm.eval(call)
        hits = collections.Counter()
        calls.clear()  # the warm-up's
        ops = vm.state.interp_ops

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
        calls["interp_ops"] = vm.state.interp_ops - ops
    finally:
        pycodegen._compile, interpreter.run, RVM._dispatch_context_version = compile_unit, run, dispatch
    for (code, lineno), k in hits.items():
        text = sources[code][lineno - 1].strip()
        lines[category(text, sources[code][lineno] if lineno < len(sources[code]) else "")] += k
        if MOVE.match(text):
            lines["moves"] += k
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
    print("%-14s %9s " % ("program", "lines") + " ".join("%9s" % c for c in cats + ["moves"])
          + "  | " + " ".join("%9s" % b for b in BUILTINS + OUTSIDE))
    for name in a.programs or SUITE:
        p = programs[name]
        lines, calls = census(p, p.n_test if a.test_size else p.n, a.warmup)
        print("%-14s %9d " % (name, sum(lines[c] for c in cats))
              + " ".join("%9d" % lines[c] for c in cats + ["moves"])
              + "  | " + " ".join("%9d" % calls[b] for b in BUILTINS + OUTSIDE), flush=True)
