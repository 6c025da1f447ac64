"""Generic elliptic risk engine: marginal tails, quantiles, VaR and ES.

A linear portfolio pnl under an elliptically distributed factor vector is
a location/scale transform of one coordinate of the spherical law, so
every risk number reduces to two scalar functions of the radial density
generator g:

* ``big_g(s)``   -- survival function of the first spherical coordinate,
* ``marginal_tail_expectation(t)`` -- E[Z1 * 1{Z1 >= t}] for that coordinate.

Both are computed by adaptive quadrature for arbitrary generators; known
families attach closed forms on the generator object and the dispatch
helpers use them when present.  ``big_g`` carries two independent
quadrature formulations (a nested double integral and a single-integral
kernel form built on the hypergeometric function); they are cross-checked
in the test suite and the double integral is the reference route.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, optimize

from .errors import (
    BracketError,
    DimensionError,
    DivergentTailError,
    DomainError,
    NumericalError,
    QuadratureError,
)
from .linalg import cholesky
from .linalg import quadratic_form, validate_symmetric  # noqa: F401  wrapped by bench/tracing.py
from .specfun import QuadratureSpec, integrate_semi_infinite, hyp2f1, log_gamma

__all__ = [
    "DensityGenerator",
    "EllipticModel",
    "big_g",
    "solve_quantile",
    "quantile_multiplier",
    "marginal_tail",
    "marginal_tail_expectation",
    "var",
    "expected_shortfall",
    "clear_quantile_cache",
]

# inner integrals must be resolved tighter than the outer ones consuming them
_OUTER_QUAD = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13, max_subdivisions=200)
_INNER_QUAD = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=200)

_NORMALIZATION_TOL = 1e-8
_QUANTILE_RESIDUAL_TOL = 1e-10
_MAX_BRACKET_DOUBLINGS = 64


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.exp(log_gamma(n / 2.0))


@dataclass(eq=False)
class DensityGenerator:
    """Radial density generator of an n-dimensional elliptic law.

    ``density`` is g in f(x) = |Sigma|^(-1/2) g((x-mu) Sigma^(-1) (x-mu)^t).
    Unless an explicit ``normalizer`` is supplied (then it is trusted and
    multiplies ``density``), the constructor verifies by quadrature that g
    integrates to unit mass over R^n; ``auto_rescale`` instead folds the
    measured mass into the scale.

    ``tail`` and ``tail_expectation``, when set by a factory, are closed
    forms for the marginal survival function and partial expectation; the
    dispatch helpers prefer them over quadrature.  ``family`` tags
    generators that Monte Carlo knows how to sample ("gaussian",
    "student").
    """

    dimension: int
    density: Callable[[float], float]
    name: str = "custom"
    normalizer: float | None = None
    auto_rescale: bool = False
    tail: Callable[[float], float] | None = None
    tail_expectation: Callable[[float], float] | None = None
    family: str | None = None
    family_params: tuple = ()
    _scale: float = field(init=False, default=1.0, repr=False)

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise DomainError(f"dimension must be an integer >= 1, got {self.dimension!r}")
        if self.normalizer is not None:
            if not (math.isfinite(self.normalizer) and self.normalizer > 0.0):
                raise DomainError(f"normalizer must be positive, got {self.normalizer!r}")
            self._scale = float(self.normalizer)
            return
        n = self.dimension
        area = _sphere_area(n)
        mass = area * integrate_semi_infinite(
            lambda r: r ** (n - 1) * self.density(r * r), 0.0, _INNER_QUAD
        )
        if abs(mass - 1.0) <= _NORMALIZATION_TOL:
            self._scale = 1.0
        elif self.auto_rescale:
            if not (math.isfinite(mass) and mass > 0.0):
                raise DomainError(f"generator mass {mass!r} cannot be rescaled")
            self._scale = 1.0 / mass
        else:
            raise DomainError(
                f"generator '{self.name}' integrates to {mass!r}, not 1; supply a "
                f"normalizer, fix the density, or pass auto_rescale=True"
            )

    def g(self, u: float) -> float:
        """Normalized radial density at u = |z|^2."""
        return self._scale * self.density(u)


@dataclass(eq=False)
class EllipticModel:
    """Elliptic factor model: location mu, SPD dispersion sigma, generator.

    Construction is the only place mu and sigma are checked; the model
    keeps references to the arrays it was given, which must not be
    mutated afterwards.
    """

    mu: np.ndarray
    sigma: np.ndarray
    generator: DensityGenerator

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        if self.mu.ndim != 1:
            raise DimensionError(f"mu must be a vector, got shape {self.mu.shape}")
        if not np.all(np.isfinite(self.mu)):
            raise DomainError("mu entries must be finite")
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        cholesky(self.sigma)  # checks shape and symmetry, rejects non-PD dispersions
        n = self.generator.dimension
        if self.mu.shape[0] != n or self.sigma.shape[0] != n:
            raise DimensionError(
                f"generator dimension {n} does not match mu ({self.mu.shape[0]}) "
                f"or sigma ({self.sigma.shape[0]})"
            )

    @property
    def dimension(self) -> int:
        return self.generator.dimension


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    return alpha


def linear_stats(components, delta) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """delta as a checked vector, and (mean, vol) of delta . X per component.

    ``components`` are (weight, EllipticModel) pairs on a common space.
    delta's shape and finiteness are checked here, once per call; the
    models were checked when they were built.
    """
    d = np.asarray(delta, dtype=np.float64)
    n = components[0][1].dimension
    if d.ndim != 1 or d.shape[0] != n:
        raise DimensionError(f"delta must be a vector of length {n}, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise DomainError("delta entries must be finite")
    # an SPD sigma can only give a negative form through rounding
    return d, [
        (float(d @ m.mu), math.sqrt(max(float(d @ m.sigma @ d), 0.0))) for _, m in components
    ]


def _big_g_double(s: float, gen: DensityGenerator) -> float:
    n = gen.dimension
    if n == 1:
        return integrate_semi_infinite(lambda z: gen.g(z * z), s, _OUTER_QUAD)
    ring = _sphere_area(n - 1)

    def marginal_density(z: float) -> float:
        # Substituting r = max(1,|z|) w keeps the inner integrand's mass
        # near w ~ 1 however far out the outer quadrature probes.
        zz = z * z
        scale = max(1.0, abs(z))
        inner = integrate_semi_infinite(
            lambda w: w ** (n - 2) * gen.g(zz + (scale * w) ** 2), 0.0, _INNER_QUAD
        )
        return ring * scale ** (n - 1) * inner

    return integrate_semi_infinite(marginal_density, s, _OUTER_QUAD)


def _kernel_slice(s: float, u: float, n: int) -> float:
    """Integral of (u - z^2)^((n-3)/2) over z in [s, sqrt(u)], for u >= s^2.

    Evaluated through the hypergeometric form where its series converges
    within budget; otherwise through the substitution z = sqrt(u) sin(t),
    which turns the slice into a smooth finite-interval integral.
    """
    if u <= s * s:
        return 0.0
    if s > 0.0:
        try:
            h = hyp2f1(0.5, 1.0, (n + 1) / 2.0, -(u - s * s) / (s * s))
            return (u - s * s) ** ((n - 1) / 2.0) * h / (s * (n - 1))
        except NumericalError:
            pass
    lo = math.asin(min(s / math.sqrt(u), 1.0))
    val, _ = integrate.quad(
        lambda t: math.cos(t) ** (n - 2), lo, math.pi / 2.0, epsabs=1e-15, epsrel=1e-13
    )
    return u ** ((n - 2) / 2.0) * val


def _big_g_kernel(s: float, gen: DensityGenerator) -> float:
    n = gen.dimension
    if n == 1:
        return 0.5 * integrate_semi_infinite(
            lambda u: gen.g(u) / math.sqrt(u) if u > 0.0 else 0.0, s * s, _OUTER_QUAD
        )
    const = math.pi ** ((n - 1) / 2.0) / math.exp(log_gamma((n - 1) / 2.0))
    return const * integrate_semi_infinite(
        lambda u: gen.g(u) * _kernel_slice(s, u, n), s * s, _OUTER_QUAD
    )


def big_g(s: float, gen: DensityGenerator, route: str = "double") -> float:
    """Survival function P(Z1 >= s) of one coordinate of the spherical law.

    ``route="double"`` integrates the marginal density (reference);
    ``route="kernel"`` integrates the generator against a closed-form
    slice kernel.  Negative s is folded back by symmetry.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if route not in ("double", "kernel"):
        raise DomainError(f"unknown route {route!r}; expected 'double' or 'kernel'")
    if s < 0.0:
        return 1.0 - big_g(-s, gen, route)
    if route == "double":
        return _big_g_double(s, gen)
    return _big_g_kernel(s, gen)


def marginal_tail(gen: DensityGenerator, s: float) -> float:
    """P(Z1 >= s), using the generator's closed form when it has one."""
    if gen.tail is not None:
        return gen.tail(float(s))
    return big_g(float(s), gen)


def marginal_tail_expectation(gen: DensityGenerator, t: float) -> float:
    """E[Z1 * 1{Z1 >= t}] for one spherical coordinate.

    By symmetry the value at t equals the value at |t|, which is where
    the quadrature form is valid.  Divergence (an overly heavy tail)
    surfaces as DivergentTailError.
    """
    t = float(t)
    if gen.tail_expectation is not None:
        return gen.tail_expectation(t)
    t = abs(t)
    n = gen.dimension
    const = math.pi ** ((n - 1) / 2.0) / math.exp(log_gamma((n + 1) / 2.0))
    tt = t * t
    try:
        value = const * integrate_semi_infinite(
            lambda v: v**n * gen.g(tt + v * v), 0.0, _OUTER_QUAD
        )
    except QuadratureError as err:
        raise DivergentTailError(
            "tail expectation quadrature failed to converge; the generator's tail "
            "may be too heavy for a finite expected shortfall",
            **err.diagnostics,
        ) from err
    if not math.isfinite(value):
        raise DivergentTailError("tail expectation is not finite", value=value)
    return value


_quantile_cache: dict[tuple, float] = {}
_quantile_lock = threading.Lock()


def clear_quantile_cache() -> None:
    with _quantile_lock:
        _quantile_cache.clear()


def _solve_decreasing(f: Callable[[float], float], alpha: float) -> float:
    """Root of f(q) = alpha for decreasing f on [0, inf), f(0) ~ 0.5."""
    lo = 0.0
    hi = 1.0
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if f(hi) < alpha:
            break
        lo = hi
        hi *= 2.0
    else:
        raise BracketError(
            "tail probability never fell below alpha while expanding the bracket",
            alpha=alpha,
            upper=hi,
        )
    return float(
        optimize.brentq(lambda q: f(q) - alpha, lo, hi, xtol=1e-12, rtol=8.9e-16)
    )


def solve_quantile(alpha: float, gen: DensityGenerator) -> float:
    """q with big_g(q) = alpha, alpha in (0, 0.5), by bracketed root-finding.

    This is the pure quadrature route: it never consults the generator's
    closed-form tail, so it exercises the full double-integral machinery.
    Results are cached per (generator, alpha).
    """
    alpha = _check_alpha(alpha)
    key = (gen, alpha, "quadrature")
    with _quantile_lock:
        if key in _quantile_cache:
            return _quantile_cache[key]
    q = _solve_decreasing(lambda t: big_g(t, gen), alpha)
    residual = abs(big_g(q, gen) - alpha)
    if residual > _QUANTILE_RESIDUAL_TOL:
        raise NumericalError(
            "quantile solve left a residual above tolerance",
            quantile=q,
            residual=residual,
            alpha=alpha,
        )
    with _quantile_lock:
        _quantile_cache[key] = q
    return q


def quantile_multiplier(gen: DensityGenerator, alpha: float) -> float:
    """Quantile of the spherical marginal, preferring closed-form tails.

    Identical to solve_quantile for generators without a ``tail`` hook.
    """
    alpha = _check_alpha(alpha)
    if gen.tail is None:
        return solve_quantile(alpha, gen)
    key = (gen, alpha, "tail")
    with _quantile_lock:
        if key in _quantile_cache:
            return _quantile_cache[key]
    q = _solve_decreasing(gen.tail, alpha)
    with _quantile_lock:
        _quantile_cache[key] = q
    return q


def var(model: EllipticModel, delta, alpha: float) -> float:
    """Value-at-Risk of pnl = delta . X at level alpha.

    VaR = -delta.mu + q * sqrt(delta Sigma delta^t) with q the alpha-tail
    quantile of the spherical marginal; the loss convention is
    P(pnl < -VaR) = alpha.
    """
    alpha = _check_alpha(alpha)
    _, [(mean, vol)] = linear_stats([(1.0, model)], delta)
    q = quantile_multiplier(model.generator, alpha)
    return -mean + q * vol


def expected_shortfall(model: EllipticModel, delta, alpha: float) -> float:
    """Expected shortfall -E[pnl | pnl <= -VaR] under the elliptic model.

    Computed as -delta.mu + vol * E[Z1 1{Z1 >= q}] / alpha; the partial
    expectation comes from the generator's closed form when available and
    from quadrature otherwise.
    """
    alpha = _check_alpha(alpha)
    _, [(mean, vol)] = linear_stats([(1.0, model)], delta)
    q = quantile_multiplier(model.generator, alpha)
    te = marginal_tail_expectation(model.generator, q)
    return -mean + vol * te / alpha
