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

# bulk vector kernels (opt/vectorize.py); numbered from 65 because persisted
# artifacts store opcode numbers (55-64 are unused).  One dispatch covers a whole
# counted loop over the raw unboxed buffer; the single operand indexes the
# KernelDescr on the NativeCode.  The kernel op itself is *not* accounted as
# an executed op (it does not exist in scalar executions); instead the kernel
# charges the per-iteration op/guard/generic counts of the scalar loop it
# replaces, per covered element, so telemetry is engine-independent.
VSUM = 65          # (op, kernel_idx)  reduction: + or * over an unboxed buffer
VMAP_ARITH = 66    # (op, kernel_idx)  elementwise map: out[i] = x[i] <op> const
VCMP_REDUCE = 67   # (op, kernel_idx)  compare-select reduction (min/max)
VFILL = 68         # (op, kernel_idx)  out[i] = const
VCOPYN = 69        # (op, kernel_idx)  out[i] = src[i]
# fused map→reduce kernels (loop-nest vectorization): the reduced value is a
# whole expression tree per element — acc = acc ⊕ f(x[i], ...) — evaluated
# without materializing the mapped temporary.  The opcode records the
# recognized addressing/fusion shape; all four execute the same KernelDescr.
VMAP_REDUCE = 70      # (op, kernel_idx)  acc = acc ⊕ f(x[i], invariants...)
VDOT = 71             # (op, kernel_idx)  acc = acc + x[i] * y[i]
VGATHER_REDUCE = 72   # (op, kernel_idx)  gather addressing: x[idx[i]]
VSUM_STRIDED = 73     # (op, kernel_idx)  strided/affine addressing: x[a + s*i]

KERNEL_OPS = frozenset((
    VSUM, VMAP_ARITH, VCMP_REDUCE, VFILL, VCOPYN,
    VMAP_REDUCE, VDOT, VGATHER_REDUCE, VSUM_STRIDED,
))

NAMES = {v: k for k, v in list(globals().items()) if isinstance(v, int) and not k.startswith("_")}


def disassemble(ncode) -> str:
    """Human-readable op stream; a kernel op's single operand is rendered
    ``kernel=<index into NativeCode.kernels>``."""
    ops = getattr(ncode, "ops", ncode)
    lines = []
    for i, op in enumerate(ops):
        code = op[0]
        if code in KERNEL_OPS:
            body = "kernel=%r" % (op[1],)
        else:
            body = " ".join(repr(x) for x in op[1:])
        lines.append("%4d  %-12s %s" % (i, NAMES.get(code, "?"), body))
    return "\n".join(lines)
