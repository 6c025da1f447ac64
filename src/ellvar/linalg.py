"""Dense symmetric-positive-definite helpers for covariance matrices.

The Cholesky factor comes from LAPACK ``dpotrf``, whose ``info`` names
the first leading minor that breaks positive definiteness, as the error
contract asks.  The public functions check their matrix argument; a
model checks its dispersion once, at construction, and later code
factors it through ``_cholesky_lower`` without checking it again.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import DimensionError, DomainError, NotPositiveDefiniteError

__all__ = [
    "validate_symmetric",
    "cholesky",
    "quadratic_form",
    "estimate_moments",
]


def validate_symmetric(matrix, rel_tol: float = 1e-12) -> np.ndarray:
    """Return matrix as a float array after checking shape and symmetry."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    scale = max(float(np.max(np.abs(m))), 1.0)
    asym = float(np.max(np.abs(m - m.T)))
    if asym > rel_tol * scale:
        raise DomainError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds {rel_tol:.1e} * scale"
        )
    return m


def cholesky(matrix) -> np.ndarray:
    """Lower-triangular L with L @ L.T equal to the given SPD matrix.

    Raises NotPositiveDefiniteError naming the first leading principal
    minor (1-based) that is not positive definite.
    """
    return _cholesky_lower(validate_symmetric(matrix))


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """cholesky() for a matrix validate_symmetric has already accepted."""
    low, info = dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: leading minor {info} is not positive definite",
            minor_index=info,
        )
    return low


def quadratic_form(delta, sigma) -> float:
    """delta @ sigma @ delta for a sensitivity vector and SPD matrix."""
    d = np.asarray(delta, dtype=np.float64)
    s = validate_symmetric(sigma)
    if d.ndim != 1:
        raise DimensionError(f"delta must be a vector, got shape {d.shape}")
    if d.shape[0] != s.shape[0]:
        raise DimensionError(
            f"delta has length {d.shape[0]} but sigma is {s.shape[0]}x{s.shape[1]}"
        )
    if not np.all(np.isfinite(d)):
        raise DomainError("delta entries must be finite")
    value = float(d @ s @ d)
    # an SPD sigma can only produce a negative value through rounding
    return max(value, 0.0)


def estimate_moments(returns, ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance (Bessel 1/(T-1)) of a T x n return panel.

    ``ridge`` adds ridge * I to the covariance before the definiteness
    check; it is the only supported repair for degenerate panels and is
    off by default.
    """
    x = np.asarray(returns, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"returns must be a T x n matrix, got shape {x.shape}")
    t, n = x.shape
    if t < 2:
        raise DomainError(f"need at least 2 observations to estimate moments, got {t}")
    if not np.all(np.isfinite(x)):
        raise DomainError("returns entries must be finite")
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise DomainError(f"ridge must be non-negative, got {ridge!r}")
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = centered.T @ centered / (t - 1)
    sigma = 0.5 * (sigma + sigma.T)
    if ridge > 0.0:
        sigma = sigma + ridge * np.eye(n)
    try:
        cholesky(sigma)
    except NotPositiveDefiniteError as err:
        raise NotPositiveDefiniteError(
            f"{err}; the panel is degenerate (fewer independent observations than "
            f"factors, or collinear columns) -- pass ridge=<eps> to regularize",
            minor_index=err.minor_index,
        ) from err
    return mu, sigma
