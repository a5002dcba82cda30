"""Shared exception types.

ResourceLimitError and its subclasses signal that a computation was cut off
by an explicit budget or size cap, as opposed to an invalid input (ValueError).
The CLI maps ResourceLimitError to exit code 2 and input errors to exit code 1.
"""

from __future__ import annotations


class ModuleAxiomError(ValueError):
    """Action matrices that are not a kE-module; `problems` lists each violation."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("not a kE-module: " + "; ".join(problems))
        self.problems = problems


class ResourceLimitError(RuntimeError):
    """A configured budget or size cap was exceeded."""


class GroebnerBudgetError(ResourceLimitError):
    """Buchberger pair-reduction budget exceeded."""


class MinorLimitError(ResourceLimitError):
    """More minors than rankvariety.MAX_MINORS, counted on the independent rows and columns."""


class SubspaceLimitError(ResourceLimitError):
    """Subspace enumeration cap exceeded (too many rational subspaces)."""


class SyzygyLimitError(ResourceLimitError):
    """Syzygy dimension cap exceeded while building a resolution."""
