"""Student-t and Gaussian closed forms for the elliptic engine.

The Student generator admits explicit expressions for everything the
generic engine otherwise gets from quadrature: the marginal tail, the
quantile, and the expected-shortfall multiplier.  The tail and the
quantile are single scalar calls of ``scipy.special.cython_special``
(``stdtr``, ``stdtrit``; ``ndtri`` for the Gaussian quantile): the C
kernels of the ``scipy.special`` ufuncs, bit for bit, without the ufunc
dispatch.  The tail has a second, independent evaluation path through
the Gauss hypergeometric form, summed in ``specfun``, that cross-checks
it.  A closed-form quantile is returned only once its relative tail
residual passes the same check as a root solve.  All gamma-ratio
constants are composed in log space; the ES constant in particular
overflows double precision near nu ~ 150 if assembled naively.  The
univariate t normaliser, which every Student density and tail
expectation reads, is computed once per nu.

``StudentGenerator`` and ``GaussianGenerator`` (built by
``student_generator`` and ``gaussian_generator``) override
``DensityGenerator``'s quadratures and draw with closed forms, so
``student_var``, the engine's ``var``, takes them.  The Student t's draw
is a Gaussian draw times sqrt(nu / chi2_nu); the Gaussian, the
nu -> infinity limit, draws nothing more.  Their densities are module
functions, so every model built on them pickles.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np
from scipy.special.cython_special import ndtri, stdtr, stdtrit

from .elliptic import (
    DensityGenerator,
    EllipticModel,
    _check_alpha,
    _checked_quantile,
    _component_rows,
)
from .elliptic import var as student_var
from .errors import DomainError, _check_array, _check_int, _check_real
from .linalg import quadratic_form  # noqa: F401  wrapped by bench/tracing.py
from .linalg import validate_symmetric
from .specfun import hyp2f1_log, log_gamma
from .specfun import reg_inc_beta  # noqa: F401  wrapped by bench/tracing.py

__all__ = [
    "StudentParams",
    "StudentGenerator",
    "GaussianGenerator",
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
    return _check_real(nu, "nu", minimum)


# From x = 1e3 on, lgamma(x + 1/2) - lgamma(x) comes from its asymptotic
# series: a difference of two log_gamma values of size x log x keeps only
# about 1e-16 x log x of it, 5.5e-10 of a t density's constant at nu = 1e6.
_LARGE_X = 1e3


def _log_gamma_ratio(x: float) -> float:
    """lgamma(x + 1/2) - lgamma(x); past _LARGE_X the series (1/2) log x - 1/(8x) + 1/(192 x^3)."""
    if x < _LARGE_X:
        return log_gamma(x + 0.5) - log_gamma(x)
    # the next term, -1/(640 x^5), is below 2e-18
    return 0.5 * math.log(x) + (1.0 / (192.0 * x * x) - 0.125) / x


def _t_log_norm(nu: float, n: int) -> float:
    """log Gamma((nu + n)/2) / (Gamma(nu/2) (nu pi)^(n/2)), the n-variate t density at 0.

    A plain difference of log_gamma values of size x log x, x = nu/2,
    keeps only about 1e-16 x log x of it, so by Gamma(y + 1) = y Gamma(y)
    it is summed, at every x, from terms of size one: with h = 1/2 at odd
    n and 0 at even n, and x / (nu pi) = 1 / (2 pi),

        lgamma(x + n/2) - lgamma(x) - n/2 log(nu pi)
            = [odd n] (_log_gamma_ratio(x) - 1/2 log(nu pi))
              + sum_{j < n // 2} (log1p((h + j) / x) - log(2 pi)).
    """
    x = nu / 2.0
    odd = _log_gamma_ratio(x) - 0.5 * math.log(nu * math.pi) if n % 2 else 0.0
    steps = [math.log1p((n % 2 / 2.0 + j) / x) for j in range(n // 2)]
    return math.fsum([odd, *steps, -(n // 2) * math.log(2.0 * math.pi)])


@functools.lru_cache(maxsize=1024)
def _t_log_norm_1(nu: float) -> float:
    """_t_log_norm(nu, 1), the univariate t normaliser, memoised for the last 1024 nu."""
    return _t_log_norm(nu, 1)


def _student_log_pdf(s: float, nu: float) -> float:
    """log density of the univariate standard Student-t."""
    return _t_log_norm_1(nu) - (nu + 1.0) / 2.0 * math.log1p(s * s / nu)


def student_big_g(s: float, nu: float, method: str = "beta") -> float:
    """Marginal tail P(Z1 >= s) for the Student generator, any dimension.

    ``method="beta"`` is ``scipy.special.stdtr(nu, -s)``, one half of the
    regularized incomplete beta at nu/(nu + s^2), within about 1e-13 of
    the exact tail in relative terms, small s included, wherever the
    tail does not underflow -- the numerically preferred path.
    ``method="hyp2f1"`` evaluates the hypergeometric tail representation
    in log space; it exists as an independent cross-check and the two
    must agree to ~1e-11 relative.
    """
    nu = _check_nu(nu)
    s = _check_real(s, "s")
    if s < 0.0:
        return 1.0 - student_big_g(-s, nu, method)
    if s == 0.0:
        return 0.5
    if method == "beta":
        return stdtr(nu, -s)
    if method == "hyp2f1":
        log_tail = (
            _t_log_norm_1(nu)
            - 0.5 * math.log(nu)
            + (nu / 2.0) * (math.log(nu) - 2.0 * math.log(s))
            + hyp2f1_log((1.0 + nu) / 2.0, nu / 2.0, 1.0 + nu / 2.0, -nu / (s * s))
        )
        return math.exp(log_tail)
    raise DomainError(f"unknown method {method!r}; expected 'beta' or 'hyp2f1'")


def student_quantile(alpha: float, nu: float) -> float:
    """q > 0 with student_big_g(q, nu) = alpha, for alpha in (0, 0.5).

    ``-scipy.special.stdtrit(nu, alpha)``, checked against the tail: a q
    that is not finite, or whose tail misses alpha by more than the
    quantile residual tolerance (as far out as alpha ~ 1e-136 at
    nu = 2.5), raises NumericalError.  The result does not depend on the
    portfolio dimension.
    """
    alpha = _check_alpha(alpha)
    nu = _check_nu(nu)
    return _checked_quantile(lambda q: student_big_g(q, nu), alpha, -stdtrit(nu, alpha))


def student_tail_expectation(t: float, nu: float) -> float:
    """E[Z1 * 1{Z1 >= t}] = f(t) (nu + t^2) / (nu - 1) for the Student marginal, any real t.

    Where f(t) underflows past the normal doubles (|t| beyond about 1e100
    at nu = 2) the product is formed in log space, so that 0 * inf never
    makes a nan; elsewhere it is the plain product.
    """
    nu = _check_nu(nu)
    t = _check_real(t, "t")
    pdf = math.exp(_student_log_pdf(t, nu))
    if pdf >= sys.float_info.min:
        return pdf * (nu + t * t) / (nu - 1.0)
    # f(t) left the normal doubles, and nu + t^2 may overflow: the same product
    # in log space, with log(nu + t^2) = 2 log|t| + log1p(nu / t^2)
    log_spread = 2.0 * math.log(abs(t)) + math.log1p(nu / t / t)
    log_pdf = _student_log_pdf(0.0, nu) - (nu + 1.0) / 2.0 * (log_spread - math.log(nu))
    return math.exp(log_pdf + log_spread - math.log(nu - 1.0))


def student_es_multiplier(alpha: float, nu: float, quantile: float | None = None) -> float:
    """Expected-shortfall multiplier m with ES = -delta.mu + m * vol.

    m = Gamma((nu-1)/2) / (2 alpha sqrt(pi) Gamma(nu/2))
        * nu^(nu/2) * (q^2 + nu)^(-(nu-1)/2),

    with q the alpha-quantile.  Assembled in log space, with the power
    terms (nu/2) log nu - x log(q^2 + nu), x = (nu-1)/2, taken as
    1/2 log nu - x log1p(q^2/nu): x log nu off both sides, exact at every
    nu, and no cancellation between terms of size x log x.
    """
    alpha = _check_alpha(alpha)
    nu = _check_nu(nu)
    q = student_quantile(alpha, nu) if quantile is None else _check_real(quantile, "quantile")
    x = (nu - 1.0) / 2.0
    log_m = (
        -_log_gamma_ratio(x)
        - math.log(2.0)
        - math.log(alpha)
        - 0.5 * math.log(math.pi)
        + 0.5 * math.log(nu)
        - x * math.log1p(q * q / nu)
    )
    return math.exp(log_m)


def _t_density(log_norm: float, power: float, nu: float, u: float) -> float:
    """The t generator at u, exp(log_norm) (1 + u / nu)^power."""
    return math.exp(log_norm + power * math.log1p(u / nu))


class StudentGenerator(DensityGenerator):
    """Student-t density generator in the given dimension, with its closed forms.

    The closed-form normalizer stays in log space, folded into
    ``density``, so it cannot overflow or underflow on its own at large
    dimension, and construction does not re-derive it by quadrature.
    Each method calls its module function by name, at call time.
    """

    family = property(lambda self: "student")
    family_params = property(lambda self: (self.nu,))

    def __init__(self, dimension: int, nu: float):
        self.nu = nu = _check_nu(nu)
        dimension = _check_int(dimension, "dimension", 1)
        log_norm, power = _t_log_norm(nu, dimension), -(dimension + nu) / 2.0
        density = functools.partial(_t_density, log_norm, power, nu)
        super().__init__(dimension, density, name=f"student(nu={nu:g})", normalizer=1.0)

    def tail(self, s: float) -> float:
        return student_big_g(s, self.nu)

    def tail_expectation(self, t: float) -> float:
        return student_tail_expectation(t, self.nu)

    def quantile(self, alpha: float) -> float:
        return student_quantile(alpha, self.nu)

    def marginal_density(self, z: float) -> float:
        return math.exp(_student_log_pdf(_check_real(z, "z"), self.nu))

    def mixing(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """sqrt(nu / chi2_nu), drawn as sqrt((nu/2) / g) in the buffer of g ~ Gamma(nu/2).

        numpy's chisquare(nu) is 2 standard_gamma(nu/2) on the same stream,
        and halving nu and doubling g are exact, so these are the factors
        of rng.chisquare, bit for bit, and the stream ends where it would.
        """
        half = self.nu / 2.0
        factor = rng.standard_gamma(half, size=size)
        np.divide(half, factor, out=factor)
        return np.sqrt(factor, out=factor)


def student_generator(dimension: int, nu: float) -> StudentGenerator:
    """Student-t density generator in the given dimension: a ``StudentGenerator``."""
    return StudentGenerator(dimension, nu)


def _normal_tail(s: float) -> float:
    return 0.5 * math.erfc(_check_real(s, "s") / math.sqrt(2.0))


def _gaussian_density(log_norm: float, u: float) -> float:
    """The Gaussian generator at u, exp(log_norm - u / 2)."""
    return math.exp(log_norm - 0.5 * u)


class GaussianGenerator(DensityGenerator):
    """Gaussian density generator: the nu -> infinity Student limit, with its closed forms."""

    family = property(lambda self: "gaussian")
    tail = staticmethod(_normal_tail)

    def __init__(self, dimension: int):
        dimension = _check_int(dimension, "dimension", 1)
        density = functools.partial(_gaussian_density, -dimension / 2.0 * math.log(2.0 * math.pi))
        super().__init__(dimension, density, name="gaussian", normalizer=1.0)

    def tail_expectation(self, t: float) -> float:
        # E[Z 1{Z >= t}] = phi(t) for the standard normal, any real t
        return self.marginal_density(_check_real(t, "t"))

    def quantile(self, alpha: float) -> float:
        alpha = _check_alpha(alpha)
        return _checked_quantile(_normal_tail, alpha, -ndtri(alpha))

    def marginal_density(self, z: float) -> float:
        z = _check_real(z, "z")
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def mixing(self, rng: np.random.Generator, size: int) -> None:
        return None  # the Gaussian draw is the law itself


def gaussian_generator(dimension: int) -> GaussianGenerator:
    """Gaussian density generator in the given dimension: a ``GaussianGenerator``."""
    return GaussianGenerator(dimension)


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
        mu = _check_array(mu, "mu")
        super().__init__(mu=mu, sigma=sigma, generator=student_generator(len(mu), self.nu))

    def __repr__(self) -> str:
        return f"StudentParams(nu={self.nu!r}, mu={self.mu!r}, sigma={self.sigma!r})"

    @property
    def covariance(self) -> np.ndarray:
        return self.nu / (self.nu - 2.0) * self.sigma


def dispersion_from_covariance(covariance, nu: float) -> np.ndarray:
    """Dispersion matrix matching a target covariance under a t model."""
    nu = _check_nu(nu, minimum=2.0)
    cov = validate_symmetric(covariance)
    return (nu - 2.0) / nu * cov


def student_expected_shortfall(model, delta, alpha: float) -> float:
    """Closed-form Student ES: -delta.mu + m(alpha, nu) * vol.

    ``model`` is any model of one component with a Student generator (a
    StudentParams, an EllipticModel built on ``student_generator`` or a
    one-component mixture of either); nu is read from the generator.
    Any other model raises DomainError: ``expected_shortfall`` serves them.
    """
    alpha = _check_alpha(alpha)
    _, [(_, gen, mean, vol), *rest] = _component_rows(model, delta)
    if rest or not isinstance(gen, StudentGenerator):
        raise DomainError(
            f"closed-form Student ES needs one Student component, got {1 + len(rest)} "
            f"component(s), the first with generator {gen.name!r}"
        )
    return -mean + student_es_multiplier(alpha, gen.nu) * vol
