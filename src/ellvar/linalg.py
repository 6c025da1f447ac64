"""Dense symmetric-positive-definite helpers for covariance matrices.

The Cholesky factor comes from ``numpy.linalg.cholesky``, so every
factor, Gram product and quadratic form runs on numpy's one LAPACK and
its one BLAS thread pool.  A factor passes only if every pivot clears a
floor relative to its diagonal; numpy does not say where a factorisation
failed, so on its error path the first failing leading minor is found by
bisection.  The public functions check their matrix argument; a model
checks its dispersion once, at construction, and later code factors it
through ``_cholesky_lower``, which holds that rule, with no second check.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, NotPositiveDefiniteError
from .errors import _check_array, _check_real

__all__ = [
    "validate_symmetric",
    "cholesky",
    "quadratic_form",
    "estimate_moments",
]


# on the largest |asymmetry| relative to the largest |entry| (or 1)
_SYMMETRY_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


def validate_symmetric(matrix) -> np.ndarray:
    """Return matrix as a float array after checking shape and symmetry."""
    m = _check_array(matrix, "matrix", ndim=2)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    scale = max(float(m.max()), -float(m.min()), 1.0)
    diff = np.subtract(m, m.T)
    asym = float(np.abs(diff, out=diff).max())
    if asym > _SYMMETRY_TOL * scale:
        raise DomainError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds "
            f"{_SYMMETRY_TOL:.1e} * scale"
        )
    return m


def cholesky(matrix) -> np.ndarray:
    """Lower-triangular L with L @ L.T equal to the given SPD matrix.

    Raises NotPositiveDefiniteError naming the first leading principal
    minor (1-based) that is not positive definite: the first that does not
    factor, or an earlier one whose pivot has L_jj^2 <= n eps a_jj (n the
    order), the mark of a singular minor that rounding lets through.
    """
    return _cholesky_lower(validate_symmetric(matrix))


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """cholesky() for a matrix validate_symmetric has already accepted."""
    n = a.shape[0]
    try:
        low, bad = np.linalg.cholesky(a), None
    except np.linalg.LinAlgError:
        # a leading minor fails only if every larger one fails too: bisect for
        # the first, keeping the factor of the largest block that factors
        low, good, bad = a[:0, :0], 0, n
        while bad - good > 1:
            k = (good + bad) // 2
            try:
                low, good = np.linalg.cholesky(a[:k, :k]), k
            except np.linalg.LinAlgError:
                bad = k
    # a singular minor that rounding lets through (a collinear column) leaves
    # a pivot of order eps: the first with L_jj^2 <= n eps a_jj names it
    pivots = low.diagonal()
    small = pivots * pivots <= n * _EPS * a.diagonal()[: low.shape[0]]
    if small.any():
        bad = int(small.argmax()) + 1
    if bad is None:
        return low
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite: leading minor {bad} is not positive definite",
        minor_index=bad,
    )


def quadratic_form(delta, sigma) -> float:
    """delta @ sigma @ delta for a sensitivity vector and SPD matrix."""
    s = validate_symmetric(sigma)
    d = _check_array(delta, "delta", length=s.shape[0])
    value = float(d @ s @ d)
    # an SPD sigma can only produce a negative value through rounding
    return max(value, 0.0)


def estimate_moments(returns, ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance (Bessel 1/(T-1)) of a T x n return panel.

    ``ridge`` adds ridge * I to the covariance before the definiteness
    check; it is the only supported repair for degenerate panels and is
    off by default.  The covariance is checked finite and factored once,
    with the pivot floor that refuses a collinear panel as it refuses any
    model's dispersion (and a ridge at or below n eps of the diagonal,
    which regularises nothing).  Without a ridge a panel of T <= n
    observations always raises NotPositiveDefiniteError, at leading minor
    T at the latest.
    """
    x = _check_array(returns, "returns", ndim=2)
    t, n = x.shape
    if t < 2:
        raise DomainError(f"need at least 2 observations to estimate moments, got {t}")
    ridge = _check_real(ridge, "ridge")
    if ridge < 0.0:
        raise DomainError(f"ridge must be non-negative, got {ridge!r}")
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = centered.T @ centered / (t - 1)
    sigma = 0.5 * (sigma + sigma.T)
    if ridge > 0.0:
        sigma = sigma + ridge * np.eye(n)
    # T centred rows span at most T - 1 dimensions, so without a ridge leading
    # minor T of a panel with T <= n is singular however far rounding lets a
    # factorisation go: only the smaller ones are factored
    short = ridge == 0.0 and t <= n
    index = t if short else None
    # 0.5 (S + S^T) is symmetric to the bit, so of cholesky's checks only the
    # finite one is left to make
    block = _check_array(sigma[: t - 1, : t - 1] if short else sigma, "matrix", ndim=2)
    try:
        _cholesky_lower(block)
    except NotPositiveDefiniteError as err:
        index = err.minor_index
    if index is None:
        return mu, sigma
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite: leading minor {index} is not positive definite; "
        f"the panel of {t} observations of {n} factors is degenerate (fewer independent "
        f"observations than factors, or collinear columns) -- pass ridge=<eps> to regularize",
        minor_index=index,
    )
