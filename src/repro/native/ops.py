"""Register-machine opcode numbers.

Numbered roughly by expected dynamic frequency: the executor dispatches with
an if/elif chain in this order, so hot loop ops come first.
"""

# hot arithmetic / control
PADD = 0
PLT = 1
VLOAD = 2
MOVE = 3
JMP = 4
BRT = 5
PSUB = 6
PMUL = 7
PLE = 8
PGT = 9
PGE = 10
PEQ = 11
PNE = 12
PDIV = 13
GTYPE = 14
VLEN = 15
VSTORE = 16
BOX = 17
UNBOX = 18
RET = 19
PPOW = 20
PNEG = 21
PNOT = 22
PMODI = 23
PIDIVI = 24
PMODF = 25
PIDIVF = 26
GIDENT = 27
ISTYPE = 28
ISIDENT = 29
ASSUME = 30
FORCE = 31
AS_LGL = 32
# generic (boxed) fallbacks
GEN_ARITH = 33
GEN_COMPARE = 34
GEN_LOGIC = 35
GEN_UNARY = 36
GEN_COLON = 37
GEN_EX2 = 38
GEN_EX1 = 39
GEN_SET2 = 40
GEN_SET1 = 41
GEN_SEQLEN = 42
CHECKFUN = 43
# environment / functions
LDVAR_ENV = 44
LDVAR_FREE = 45
STVAR_ENV = 46
STSUPER = 47
LDFUN = 48
MKCLOSURE = 49
MKPROMISE = 50
# calls
CALLB = 51
CALLS = 52
CALLG = 53
# inline boundary: bump NAMED on a vector argument (copy-on-write parity
# with the interpreter's argument binding)
SHARE = 54

# bulk vector kernel (opt/vectorize.py): one dispatch covers a whole counted
# loop over the raw unboxed buffer; the single operand indexes the
# KernelDescr on the NativeCode, whose ``kind`` (sum, fsum, fill, copy)
# names the kernel.  The op itself is *not* accounted as an executed op (it
# does not exist in scalar executions); instead the kernel charges the
# per-iteration op/guard/generic counts of the scalar loop it replaces, per
# covered element, so telemetry is engine-independent.
KERNEL = 55        # (op, kernel_idx)

NAMES = {v: k for k, v in list(globals().items()) if isinstance(v, int) and not k.startswith("_")}


def disassemble(ncode) -> str:
    """Human-readable op stream; a kernel op is rendered with its kind and
    ``kernel=<index into NativeCode.kernels>``."""
    ops = getattr(ncode, "ops", ncode)
    kernels = getattr(ncode, "kernels", None)
    lines = []
    for i, op in enumerate(ops):
        code = op[0]
        if code == KERNEL:
            kind = kernels[op[1]].kind if kernels else "?"
            body = "%s kernel=%r" % (kind, op[1])
        else:
            body = " ".join(repr(x) for x in op[1:])
        lines.append("%4d  %-12s %s" % (i, NAMES.get(code, "?"), body))
    return "\n".join(lines)
