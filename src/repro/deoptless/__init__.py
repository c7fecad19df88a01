"""Deoptless: dispatched on-stack replacement with specialized continuations
(the paper's contribution)."""

from .context import DeoptContext, ReasonPayload, compute_context
from .dispatch import ContextTable
from .engine import MISS, deoptless_compile, try_deoptless
from .feedback_repair import repair_feedback

__all__ = [
    "ContextTable", "DeoptContext", "MISS", "ReasonPayload",
    "compute_context", "deoptless_compile", "repair_feedback", "try_deoptless",
]
