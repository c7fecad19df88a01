"""On-stack replacement: frame states, OSR-out (deoptimization) and OSR-in."""

from .framestate import (
    DeoptReason,
    DeoptReasonKind,
    FrameState,
    FrameStateDescr,
)
from .osr_in import try_osr_in
from .osr_out import resume_in_interpreter

__all__ = [
    "DeoptReason", "DeoptReasonKind", "FrameState", "FrameStateDescr",
    "resume_in_interpreter", "try_osr_in",
]
