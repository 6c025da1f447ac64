"""Student-t and Gaussian closed forms for the elliptic engine.

The Student generator admits explicit expressions for everything the
generic engine otherwise gets from quadrature: the marginal tail (two
independent evaluation paths, one through the regularized incomplete
beta, one through the Gauss hypergeometric form), the quantile, and the
expected-shortfall multiplier.  All gamma-ratio constants are composed in
log space; the ES constant in particular overflows double precision near
nu ~ 150 if assembled naively.

The Gaussian generator lives here as the nu -> infinity limit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .elliptic import (
    DensityGenerator,
    EllipticModel,
    _check_alpha,
    _solve_decreasing,
    linear_stats,
)
from .elliptic import var as _elliptic_var
from .errors import DomainError
from .linalg import quadratic_form  # noqa: F401  wrapped by bench/tracing.py
from .linalg import validate_symmetric
from .specfun import hyp2f1_log, log_gamma, reg_inc_beta

__all__ = [
    "StudentParams",
    "student_generator",
    "gaussian_generator",
    "student_big_g",
    "student_quantile",
    "student_var",
    "student_es_multiplier",
    "student_expected_shortfall",
    "student_tail_expectation",
    "dispersion_from_covariance",
]


def _check_nu(nu: float, minimum: float = 1.0) -> float:
    nu = float(nu)
    if not (math.isfinite(nu) and nu > minimum):
        raise DomainError(f"degrees of freedom must exceed {minimum}, got {nu!r}")
    return nu


def _student_log_pdf(s: float, nu: float) -> float:
    """log density of the univariate standard Student-t."""
    return (
        log_gamma((nu + 1.0) / 2.0)
        - log_gamma(nu / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - (nu + 1.0) / 2.0 * math.log1p(s * s / nu)
    )


def student_big_g(s: float, nu: float, method: str = "beta") -> float:
    """Marginal tail P(Z1 >= s) for the Student generator, any dimension.

    ``method="beta"`` evaluates one half of the regularized incomplete
    beta at nu/(nu + s^2) -- the numerically preferred path.
    ``method="hyp2f1"`` evaluates the hypergeometric tail representation
    in log space; it exists as an independent cross-check and the two
    must agree to ~1e-11 relative.
    """
    nu = _check_nu(nu)
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if s < 0.0:
        return 1.0 - student_big_g(-s, nu, method)
    if s == 0.0:
        return 0.5
    if method == "beta":
        return 0.5 * reg_inc_beta(nu / (nu + s * s), nu / 2.0, 0.5)
    if method == "hyp2f1":
        log_tail = (
            -math.log(nu)
            - 0.5 * math.log(math.pi)
            + (nu / 2.0) * (math.log(nu) - 2.0 * math.log(s))
            + log_gamma((nu + 1.0) / 2.0)
            - log_gamma(nu / 2.0)
            + hyp2f1_log((1.0 + nu) / 2.0, nu / 2.0, 1.0 + nu / 2.0, -nu / (s * s))
        )
        return math.exp(log_tail)
    raise DomainError(f"unknown method {method!r}; expected 'beta' or 'hyp2f1'")


def student_quantile(alpha: float, nu: float) -> float:
    """q > 0 with student_big_g(q, nu) = alpha, for alpha in (0, 0.5).

    Bracketed root-finding on the incomplete-beta tail; the result does
    not depend on the portfolio dimension.
    """
    alpha = _check_alpha(alpha)
    nu = _check_nu(nu)
    return _solve_decreasing(lambda q: student_big_g(q, nu), alpha)


def student_tail_expectation(t: float, nu: float) -> float:
    """E[Z1 * 1{Z1 >= t}] for the Student marginal; valid for any real t."""
    nu = _check_nu(nu)
    t = float(t)
    return math.exp(_student_log_pdf(t, nu)) * (nu + t * t) / (nu - 1.0)


def student_es_multiplier(alpha: float, nu: float, quantile: float | None = None) -> float:
    """Expected-shortfall multiplier m with ES = -delta.mu + m * vol.

    m = Gamma((nu-1)/2) / (2 alpha sqrt(pi) Gamma(nu/2))
        * nu^(nu/2) * (q^2 + nu)^(-(nu-1)/2),

    with q the alpha-quantile.  Assembled entirely in log space.
    """
    alpha = _check_alpha(alpha)
    nu = _check_nu(nu)
    q = student_quantile(alpha, nu) if quantile is None else float(quantile)
    log_m = (
        log_gamma((nu - 1.0) / 2.0)
        - log_gamma(nu / 2.0)
        - math.log(2.0)
        - math.log(alpha)
        - 0.5 * math.log(math.pi)
        + (nu / 2.0) * math.log(nu)
        - (nu - 1.0) / 2.0 * math.log(q * q + nu)
    )
    return math.exp(log_m)


@lru_cache(maxsize=128)
def student_generator(dimension: int, nu: float) -> DensityGenerator:
    """Student-t density generator in the given dimension.

    The closed-form normalizer stays in log space, folded into
    ``density``, so it cannot overflow or underflow on its own at large
    dimension, and construction does not re-derive it by quadrature.  Factory results
    are memoized, which lets quantile caching work across models sharing
    (dimension, nu).
    """
    nu = _check_nu(nu)
    if not isinstance(dimension, int) or dimension < 1:
        raise DomainError(f"dimension must be an integer >= 1, got {dimension!r}")
    log_norm = (
        log_gamma((nu + dimension) / 2.0)
        - log_gamma(nu / 2.0)
        - dimension / 2.0 * math.log(nu * math.pi)
    )
    power = -(dimension + nu) / 2.0
    return DensityGenerator(
        dimension=dimension,
        density=lambda u: math.exp(log_norm + power * math.log1p(u / nu)),
        name=f"student(nu={nu:g})",
        normalizer=1.0,
        tail=lambda s: student_big_g(s, nu),
        tail_expectation=lambda t: student_tail_expectation(t, nu),
        family="student",
        family_params=(nu,),
    )


def _normal_tail(s: float) -> float:
    return 0.5 * math.erfc(s / math.sqrt(2.0))


def _normal_density(s: float) -> float:
    return math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=32)
def gaussian_generator(dimension: int) -> DensityGenerator:
    """Gaussian density generator: the nu -> infinity Student limit."""
    if not isinstance(dimension, int) or dimension < 1:
        raise DomainError(f"dimension must be an integer >= 1, got {dimension!r}")
    log_norm = -dimension / 2.0 * math.log(2.0 * math.pi)
    return DensityGenerator(
        dimension=dimension,
        density=lambda u: math.exp(log_norm - 0.5 * u),
        name="gaussian",
        normalizer=1.0,
        tail=_normal_tail,
        # E[Z 1{Z >= t}] = phi(t) for the standard normal, any real t
        tail_expectation=_normal_density,
        family="gaussian",
    )


class StudentParams(EllipticModel):
    """Multivariate Student-t model: nu > 2, location mu, dispersion sigma.

    ``sigma`` is the dispersion matrix of the density, not the covariance;
    the covariance is nu/(nu - 2) * sigma.  Use dispersion_from_covariance
    to convert an estimated covariance before constructing the model.
    It is the EllipticModel with the Student generator of its dimension,
    checked once, when it is built.
    """

    def __init__(self, nu: float, mu, sigma):
        self.nu = _check_nu(nu, minimum=2.0)
        dimension = len(np.atleast_1d(mu))
        super().__init__(mu=mu, sigma=sigma, generator=student_generator(dimension, self.nu))

    def __repr__(self) -> str:
        return f"StudentParams(nu={self.nu!r}, mu={self.mu!r}, sigma={self.sigma!r})"

    def to_model(self) -> EllipticModel:
        """The model as an EllipticModel, which it already is."""
        return self

    @property
    def covariance(self) -> np.ndarray:
        return self.nu / (self.nu - 2.0) * self.sigma


def dispersion_from_covariance(covariance, nu: float) -> np.ndarray:
    """Dispersion matrix matching a target covariance under a t model."""
    nu = _check_nu(nu, minimum=2.0)
    cov = validate_symmetric(covariance)
    return (nu - 2.0) / nu * cov


def student_var(params: StudentParams, delta, alpha: float) -> float:
    """Closed-form Student VaR: -delta.mu + q_(alpha,nu) * vol."""
    return _elliptic_var(params, delta, alpha)


def student_expected_shortfall(params: StudentParams, delta, alpha: float) -> float:
    """Closed-form Student ES: -delta.mu + m(alpha, nu) * vol."""
    alpha = _check_alpha(alpha)
    _, [(mean, vol)] = linear_stats([(1.0, params)], delta)
    return -mean + student_es_multiplier(alpha, params.nu) * vol
