"""First-class environments.

R's local variable scope is a first-class object (the *environment*); the
paper leans on this: Ř elides environment creation in optimized code and
re-materializes it from FrameState metadata on deoptimization.  Our
:class:`REnvironment` is the interpreter-tier representation; the optimized
tier keeps locals in registers and only builds one of these when a deopt or
an escaping closure forces it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from .values import RBuiltin, RClosure, RError


class REnvironment:
    """A mutable binding frame with a parent pointer (lexical scope chain)."""

    __slots__ = ("bindings", "parent", "materialized_from_deopt")

    def __init__(self, parent: Optional["REnvironment"] = None):
        self.bindings: Dict[str, Any] = {}
        self.parent = parent
        #: set by the deopt machinery; lets tests observe re-materialization.
        self.materialized_from_deopt = False

    # -- lookup -----------------------------------------------------------------

    def get(self, name: str) -> Any:
        env: Optional[REnvironment] = self
        while env is not None:
            v = env.bindings.get(name)
            if v is not None or name in env.bindings:
                return v
            env = env.parent
        raise RError("object '%s' not found" % name)

    def get_local(self, name: str) -> Any:
        if name in self.bindings:
            return self.bindings[name]
        raise RError("object '%s' not found" % name)

    def has(self, name: str) -> bool:
        env: Optional[REnvironment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def get_function(self, name: str) -> Any:
        """Function lookup: like :meth:`get` but skips non-function bindings,
        matching R's rule that ``c <- 1; c(1, 2)`` still finds the builtin."""
        env: Optional[REnvironment] = self
        while env is not None:
            if name in env.bindings:
                v = env.bindings[name]
                if isinstance(v, (RClosure, RBuiltin)):
                    return v
            env = env.parent
        raise RError("could not find function \"%s\"" % name)

    # -- definition ---------------------------------------------------------------

    def set(self, name: str, value: Any) -> None:
        self.bindings[name] = value

    def set_super(self, name: str, value: Any) -> None:
        """``<<-``: assign in the nearest enclosing env that binds ``name``,
        or the outermost env if none does (R semantics)."""
        env = self.parent
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            if env.parent is None:
                env.bindings[name] = value
                return
            env = env.parent
        # no parent: degenerate to local assignment
        self.bindings[name] = value

    def remove(self, name: str) -> None:
        self.bindings.pop(name, None)

    # -- introspection --------------------------------------------------------------

    def items(self) -> Iterator[Tuple[str, Any]]:
        return iter(self.bindings.items())

    def names(self):
        return list(self.bindings.keys())

    def depth(self) -> int:
        d, env = 0, self.parent
        while env is not None:
            d += 1
            env = env.parent
        return d

    def __repr__(self) -> str:  # pragma: no cover
        return "<env %d bindings, depth %d>" % (len(self.bindings), self.depth())
