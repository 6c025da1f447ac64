"""Exception types shared across the library, and the input checks that raise them.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto process exit codes.  Every integer, real
number and array argument the library takes goes through one of three
checks, one per kind of input: ``_check_int``, ``_check_real`` and
``_check_array``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

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
    """Monte Carlo sampling is only available for generators with a ``mixing`` draw."""


# float() takes "0.01", b"1" and True; a number is none of these
_NOT_REAL = (bool, np.bool_, str, bytes)
# the array dtype kinds of the same inputs (bool, bytes, str), and complex,
# which a float64 conversion would silently truncate to its real part
_NOT_REAL_KINDS = "bSUc"


def _check_int(value, name: str, minimum: int) -> int:
    """value as a plain int >= minimum, else DomainError naming it.

    Anything ``operator.index`` takes passes, numpy integers included; a
    bool does not, and neither does a float, even 50.0.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return n


def _check_real(value, name: str, above: float = -math.inf, below: float = math.inf) -> float:
    """value as a float strictly between above and below, else DomainError naming it.

    The default bounds ask for a finite number, and nan lies in no range.
    A bool, a string or bytes is refused by its type (``float()`` takes
    "0.01" and True), None and anything else ``float()`` refuses by
    ``float()``.  A plain float goes straight to the range test: this
    check runs on every tail evaluation of a mixture root.
    """
    if type(value) is not float:
        try:
            if isinstance(value, _NOT_REAL):
                raise TypeError
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not above < value < below:
        bounded = above > -math.inf or below < math.inf
        rule = f"lie in ({above:g}, {below:g})" if bounded else "be finite"
        raise DomainError(f"{name} must {rule}, got {value!r}")
    return value


def _check_array(value, name: str, ndim: int = 1, length: int | None = None) -> np.ndarray:
    """value as a float64 array with ndim axes, each entry finite.

    A wrong number of axes, or a vector whose length is not ``length``,
    raises DimensionError.  Entries that are not real numbers raise
    DomainError: an array of bools, strings, bytes or complex numbers is
    refused by its dtype (numpy converts "1.0" and True to floats), a
    list or an object array by the types of its entries, each distinct
    type tested once, since numpy gives [True, 2.0] a float dtype and
    keeps ["1.0", 2.0] as objects; entries numpy cannot convert (an
    object, a ragged row) or that are not finite (None converts to nan)
    fail the conversion or the finite test.  A float64 ndarray is used
    as it is, without a copy.
    """
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in _NOT_REAL_KINDS:
            raise TypeError(f"got {arr.dtype} entries")
        if arr.dtype.kind == "O" or not isinstance(value, np.ndarray):
            entries = np.asarray(value, dtype=object).ravel().tolist()
            if any(issubclass(kind, _NOT_REAL) for kind in set(map(type, entries))):
                bad = next(entry for entry in entries if isinstance(entry, _NOT_REAL))
                raise TypeError(f"got an entry {bad!r}")
        arr = np.asarray(arr, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise DomainError(f"{name} entries must be numbers: {err}") from None
    if arr.ndim != ndim or (length is not None and arr.shape[0] != length):
        kind = "a vector" if ndim == 1 else "a matrix"
        size = "" if length is None else f" of length {length}"
        raise DimensionError(f"{name} must be {kind}{size}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} entries must be finite")
    return arr
