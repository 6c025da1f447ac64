"""Exception types shared across the library.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto process exit codes.
"""

from __future__ import annotations

__all__ = [
    "EllvarError", "DomainError", "DimensionError", "NotPositiveDefiniteError", "NumericalError",
    "QuadratureError", "BracketError", "DivergentTailError", "UnsupportedGeneratorError",
]


class EllvarError(Exception):
    """Base class for all library errors."""


class DomainError(EllvarError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DimensionError(EllvarError, ValueError):
    """Vector/matrix dimensions do not line up."""


class NotPositiveDefiniteError(EllvarError, ValueError):
    """A matrix required to be positive definite is not.

    ``minor_index`` is the 1-based order of the first leading principal
    minor whose Cholesky pivot failed.
    """

    def __init__(self, message: str, minor_index: int):
        super().__init__(message)
        self.minor_index = minor_index


class NumericalError(EllvarError, RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    ``diagnostics`` carries whatever partial state the routine had
    (partial sums, achieved error estimates, iteration counts).
    """

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge within its subdivision budget."""


class BracketError(NumericalError):
    """A root bracket could not be established (e.g. degenerate tail)."""


class DivergentTailError(NumericalError):
    """A tail integral appears divergent; the risk measure is infinite."""


class UnsupportedGeneratorError(EllvarError, TypeError):
    """Monte Carlo sampling is only available for known generator families."""
