"""Generic elliptic risk engine: marginal tails, quantiles, VaR and ES.

A linear portfolio pnl under an elliptically distributed factor vector is
a location/scale transform of one coordinate of the spherical law, so
every risk number reduces to two scalar functions of the radial density
generator g:

* ``big_g(s)``   -- survival function of the first spherical coordinate,
* ``marginal_tail_expectation(t)`` -- E[Z1 * 1{Z1 >= t}] for that coordinate.

Every generator answers the law of that coordinate through four methods,
``tail``, ``tail_expectation``, ``quantile`` and ``marginal_density`` (the
last for the Euler allocation): ``DensityGenerator``'s own are the
quadratures below, and its Student and Gaussian subclasses override them
with closed forms.  Each method checks its own argument (alpha in (0,
0.5); s, t and z finite) for every generator, and the engine calls them
directly; ``marginal_tail``, ``marginal_tail_expectation`` and
``quantile_multiplier`` check the generator and call its law.  Every
quadrature of g (the mass check, both routes of ``big_g``, the tail
expectation, the marginal density) is one radial integral,
``_radial_integral``: one frame per point, a density value read by the
rule of ``DensityGenerator.g``, and a weight formed in log space, so
large dimensions give a number or a typed error, never an OverflowError.
It integrates adaptively, to one relative tolerance, or sums the same
integrand over a fixed exp-sinh node rule (Takahasi & Mori 1974) in one
numpy pass.  Either mode reads the point x (s, t, z, or 0 for the mass)
and takes one change of variable from it, v = max(1, |x|) t.  The
"kernel" route of ``big_g`` integrates g against the closed-form share
of a sphere beyond s, a regularized incomplete beta (the marginal form
of a spherical law, Fang, Kotz & Ng 1990); quantile solves and
``DensityGenerator.tail`` use it.  The "double" route integrates the
marginal density, itself a radial integral, and is the independent
reference.  A quantile is a generator's closed form or a two-stage
solve: the root of the log tail on the kernel route's fixed rule,
polished by Newton steps on the adaptive kernel route, with the
bracketed root of the adaptive log tail, ``_solve_decreasing``, as its
fallback; every bracketed root, a mixture's VaR too, is Chandrupatla's,
``_root``.  Every quantile ends in the same relative residual check on
the adaptive route or the closed form.

Every model is its ``components``, (weight, EllipticModel) pairs: an
EllipticModel (a StudentParams among them) is one pair of weight one,
a MixtureModel its own pairs.  Every VaR and ES, here and in the
mixture, portfolio, Student and Monte Carlo modules, takes one private
path: ``_component_rows`` reads a model as (weight, generator, mean,
vol) rows and rejects anything that is not a model, ``_rows_var`` takes
the generator's quantile for one row and, for several, the mixture root
bracketed by their VaRs, and ``_rows_es`` builds ES at the same
thresholds.  ``var`` and ``expected_shortfall`` therefore serve every
model type.  VaR and ES are positively homogeneous in delta, so a book's
scale is one power of two 2^e, which ``_component_rows`` alone reads: every
formula runs on its rows at unit scale, and each public number leaves it by
``_scaled``, exactly, or past the double range as NumericalError.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import betainc
# the scalar betainc of cython_special gives scipy.special.betainc's values
# without the ufunc's dispatch, a quarter of its cost
from scipy.special.cython_special import betainc as betainc_point

from .errors import (
    BracketError,
    DimensionError,
    DivergentTailError,
    DomainError,
    NumericalError,
    QuadratureError,
    UnsupportedGeneratorError,
    _check_array,
    _check_int,
    _check_real,
)
from .linalg import cholesky
from .linalg import quadratic_form, validate_symmetric  # noqa: F401  wrapped by bench/tracing.py
from .specfun import QuadratureSpec, integrate_semi_infinite, log_gamma
from .specfun import hyp2f1  # noqa: F401  wrapped by bench/tracing.py

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

_SMALLEST_DOUBLE = math.ulp(0.0)  # 5e-324, the smallest positive double
# One relative tolerance for every integral: the mass check, the kernel
# tail, the tail expectation, the marginal density and both integrals of
# the double route.  The answers' absolute floor is the smallest positive
# double, no larger than any alpha > 0 or any generator's mass can ask for,
# so at a solved quantile the absolute tolerance is 1e-11 * alpha and deep
# tails keep their digits.
_TAIL_QUAD = QuadratureSpec(rel_tol=1e-11, abs_tol=_SMALLEST_DOUBLE, max_subdivisions=200)
# The double route's inner integral, the marginal density at each outer
# point, has the smallest normal double as its floor: below it that density
# is subnormal and has too few digits for the relative tolerance.
_INNER_QUAD = replace(_TAIL_QUAD, abs_tol=sys.float_info.min)

# The exp-sinh rule of Takahasi & Mori (1974) on (0, inf): t = exp(pi/2 sinh x)
# at x = -4, -4 + h, ..., 3.1875 with h = 1/16, 116 nodes.  Over v = max(1, s) t,
# the change of variable every radial integral reads from its point s, it
# gives the kernel route's G(s) to about 1e-10 relative for the smooth
# generators of dimension up to 5 (1e-15 for the Student); it finds a
# quantile's neighbourhood, and the adaptive route certifies the quantile.
_EXP_SINH_X = -4.0 + np.arange(116) / 16.0
_EXP_SINH_NODES = np.exp(math.pi / 2.0 * np.sinh(_EXP_SINH_X))
_EXP_SINH_RULE = (_EXP_SINH_NODES, math.pi / 32.0 * np.cosh(_EXP_SINH_X) * _EXP_SINH_NODES)

_NORMALIZATION_TOL = 1e-8
# on |G(q) / alpha - 1|
_QUANTILE_RESIDUAL_TOL = 1e-10
_MAX_BRACKET_DOUBLINGS = 64
# a Newton step on the log tail below _NEWTON_XTOL + _NEWTON_RTOL * x is
# rounding: the floor of _solve_decreasing's xtol, and a few ulps of x
_NEWTON_XTOL = 1e-15
_NEWTON_RTOL = 4e-15
# steps before a root solve gives up: past every solve that converges
_ROOT_MAX_STEPS = 150
# solved quantiles are cached per (generator, alpha) and each entry
# keeps its generator alive, so the oldest entries give way past this size
_QUANTILE_CACHE_SIZE = 4096


def _log_sphere_area(n: int) -> float:
    """ln of the surface area of the unit sphere in R^n."""
    return math.log(2.0) + n / 2.0 * math.log(math.pi) - log_gamma(n / 2.0)


@dataclass(eq=False)
class DensityGenerator:
    """Radial density generator of an n-dimensional elliptic law.

    ``density`` is g in f(x) = |Sigma|^(-1/2) g((x-mu) Sigma^(-1) (x-mu)^t);
    it is always called with one float u >= 0, never with an array.
    Unless an explicit ``normalizer`` is supplied (then it is trusted and
    multiplies ``density``), the constructor verifies by quadrature that g
    integrates to unit mass over R^n; ``auto_rescale=True`` instead folds
    the measured mass into the scale (not both: that raises DomainError).

    ``tail``, ``tail_expectation``, ``quantile`` and ``marginal_density``
    are the law of one spherical coordinate: its survival function, its
    partial expectation, its alpha-tail quantile (alpha in (0, 0.5)) and
    its density, and each checks its argument.  Here they are quadratures
    of g; the subclasses ``StudentGenerator`` and ``GaussianGenerator``
    override them, and ``mixing``, with closed forms.  ``family`` and
    ``family_params`` name the law ("gaussian", or "student" with (nu,))
    for readers outside the package.  A generator pickles if and only if
    its ``density`` does.
    """

    dimension: int
    density: Callable[[float], float]
    name: str = "custom"
    normalizer: float | None = None
    auto_rescale: bool = False
    _scale: float = field(init=False, default=1.0, repr=False)
    family = property(lambda self: None)
    family_params = property(lambda self: ())

    def __post_init__(self):
        self.dimension = _check_int(self.dimension, "dimension", 1)
        if not isinstance(self.auto_rescale, bool):
            raise DomainError(f"auto_rescale must be a bool, got {self.auto_rescale!r}")
        if self.normalizer is not None:
            if self.auto_rescale:
                raise DomainError("give a normalizer or auto_rescale=True, not both")
            self._scale = _check_real(self.normalizer, "normalizer", 0.0)
            return
        # the mass over R^n, int_0^inf g(r^2) |S^(n-1)| r^(n-1) dr, read at x = 0
        n = self.dimension
        mass = _radial_integral(self, 0.0, _log_sphere_area(n), n - 1)
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
        """Normalized radial density at u = |z|^2, or a typed error naming u for a bad value."""
        try:
            value = self.density(u)
            if 0.0 <= value < math.inf:
                return self._scale * value
        except (OverflowError, TypeError) as err:
            value = err
        where = f"generator '{self.name}' density at u={u!r}"
        if isinstance(value, TypeError):
            raise DomainError(f"{where} is not a real number: {value}") from value
        overflow = isinstance(value, OverflowError)
        if not overflow and -math.inf < value < 0.0:
            raise DomainError(f"{where} is negative: {value!r}")
        error = NumericalError(f"{where} is not finite: {value!r}", u=u, dimension=self.dimension)
        raise error from value if overflow else None

    def tail(self, s: float) -> float:
        """P(Z1 >= s) on the kernel route of ``big_g``."""
        return big_g(s, self, route="kernel")

    def tail_expectation(self, t: float) -> float:
        """E[Z1 * 1{Z1 >= t}], one radial integral at |t|; a divergent one raises DivergentTailError."""
        t = _check_real(t, "t")
        # int_0^inf g(t^2 + v^2) pi^((n-1)/2) / Gamma((n+1)/2) v^n dv
        n = self.dimension
        log_const = (n - 1) / 2.0 * math.log(math.pi) - log_gamma((n + 1) / 2.0)
        try:
            # a value that is not finite raises QuadratureError as well
            return _radial_integral(self, t, log_const, n)
        except QuadratureError as err:
            raise DivergentTailError(
                "tail expectation quadrature failed to converge; the generator's tail "
                "may be too heavy for a finite expected shortfall",
                **err.diagnostics,
            ) from err

    def quantile(self, alpha: float) -> float:
        """The alpha-tail quantile of Z1, by ``solve_quantile``."""
        return solve_quantile(alpha, self)

    def marginal_density(self, z: float) -> float:
        """Density of Z1 at z, by quadrature held to relative accuracy however small it is."""
        return _marginal_density(_check_real(z, "z"), self, _TAIL_QUAD)

    def mixing(self, rng: np.random.Generator, size: int) -> np.ndarray | None:
        """``size`` per-path factors on a Gaussian draw: the law's Monte Carlo draw.

        X = mu + R A^t U (Cambanis, Huang & Simons 1981).  The factors are
        drawn from ``rng`` into a new array the caller may scale in place,
        or are None for the Gaussian, which draws nothing.  A generator
        known by its density alone cannot be sampled.
        """
        raise UnsupportedGeneratorError(
            f"cannot sample generator {self.name!r}: only the gaussian "
            "and student generators have exact sampling routines"
        )


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
        _check_generator(self.generator)
        self.mu = _check_array(self.mu, "mu")
        cholesky(self.sigma)  # checks shape, entries and symmetry, rejects non-PD dispersions
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        n = self.generator.dimension
        if self.mu.shape[0] != n or self.sigma.shape[0] != n:
            raise DimensionError(
                f"generator dimension {n} does not match mu ({self.mu.shape[0]}) "
                f"or sigma ({self.sigma.shape[0]})"
            )

    @property
    def dimension(self) -> int:
        return self.generator.dimension

    @property
    def components(self) -> tuple[tuple[float, "EllipticModel"], ...]:
        """The model as (weight, model) pairs: itself, with weight one."""
        return ((1.0, self),)


def _check_alpha(alpha: float) -> float:
    return _check_real(alpha, "alpha", 0.0, 0.5)


def _check_generator(gen) -> DensityGenerator:
    if not isinstance(gen, DensityGenerator):
        raise DomainError(f"generator must be a DensityGenerator, got {type(gen).__name__}")
    return gen


def _binary_exponent(x) -> int:
    """e with max |x| in [2^(e-1), 2^e), 0 if x is all zeros.

    ``np.ldexp(x, -e)`` is x at unit scale, exactly: its largest entry
    lies in [1/2, 1), so a sum of squares or a quadratic form of it stays
    in double range however large or small x is.
    """
    return math.frexp(float(np.abs(x).max()))[1]


def _component_rows(model, delta) -> tuple[np.ndarray, int, list[tuple]]:
    """The checked delta, the book's exponent e, and a (weight, generator, mean, vol) row each.

    ``model`` is read through its ``components``, (weight, EllipticModel)
    pairs on a common space; anything without them is not a model.  delta's
    shape and finiteness are checked here, once per call, the models' when
    they were built.  The one scale rule: each row holds its mean and vol
    divided by 2^e, e the exponent of delta plus that of the largest vol,
    which so lies in [1/2, 1), or, where a mean is over 2^1000 times that
    vol, that of the mean less 1000, so no mean passes 2^1000.  A delta
    with zero vol has no risk and raises.
    """
    try:
        components = model.components
    except AttributeError:
        raise DomainError(f"unsupported model type {type(model).__name__}") from None
    d = _check_array(delta, "delta", length=model.dimension)
    e = _binary_exponent(d)
    unit = np.ldexp(d, -e)
    # an SPD sigma can only give a negative form through rounding
    vols = [math.sqrt(max(float(unit @ m.sigma @ unit), 0.0)) for _, m in components]
    if min(vols) == 0.0:
        raise DomainError("delta has zero volatility; there is no risk to measure")
    means = [float(unit @ m.mu) for _, m in components]
    shift = max(math.frexp(max(vols))[1], math.frexp(max(map(abs, means)))[1] - 1000)
    rows = [
        (w, m.generator, math.ldexp(mean, -shift), math.ldexp(vol, -shift))
        for (w, m), mean, vol in zip(components, means, vols)
    ]
    return d, e + shift, rows


def _scaled(x, e: int):
    """x * 2^e for a float or an array x: the one way a result leaves unit scale.

    Exact where the result is a normal double and rounded once where it is
    subnormal; past the largest double, NumericalError with x and e.
    """
    try:
        if isinstance(x, np.ndarray):
            with np.errstate(over="raise"):
                return np.ldexp(x, e)
        return math.ldexp(x, e)
    except (OverflowError, FloatingPointError):
        raise NumericalError("result is past the double range", unit_value=x, exponent=e) from None


def _radial_integral(
    gen: DensityGenerator,
    x: float,
    log_front: float,
    power: float,
    *,
    kernel: bool = False,
    quad: QuadratureSpec | tuple[np.ndarray, np.ndarray] = _TAIL_QUAD,
) -> float:
    """int_0^inf g(u) w(v) dv over u = x^2 + v^2: the one integrand that reads g.

    w(v) = exp(log_front) v^power, formed in log space with g (0^0 = 1).
    ``kernel`` puts the power on u instead and brings in v, the Jacobian
    of u = x^2 + v^2, and for n > 1 weighs each u by the incomplete-beta
    share of its sphere beyond |x|, I_{v^2/u}((n-1)/2, 1/2).  The integrand
    branches only on these constants of the call.  It runs over t with
    v = max(1, |x|) t, which keeps its mass near t ~ 1 however far out x
    lies, so the adaptive mode multiplies its integral, and the fixed rule
    its weights, by max(1, |x|).

    It has two evaluation modes.  A ``QuadratureSpec`` integrates it
    adaptively, one point at a time.  A fixed rule, a (nodes, weights)
    pair in t, evaluates it at every node at once and returns the
    weighted sum: the density is still called once per node, with one
    float, and the weight, the share and the sum are formed in numpy, by
    the same operations as a point of the adaptive mode.  The adaptive
    mode reads each density value through ``DensityGenerator.g``; the
    fixed rule checks its values by the same rule in one numpy pass,
    with ``g`` as its slow path, and a sum that is not finite raises
    NumericalError.
    """
    density, g, log, exp, inf = gen.density, gen.g, math.log, math.exp, math.inf
    c, scale = x * x, max(1.0, abs(x))
    # the log of the weight v^power at v = 0, where 0^0 = 1
    log_at_zero = log_front if power == 0 else -math.inf
    a = (gen.dimension - 1) / 2.0
    share = kernel and gen.dimension > 1
    if not isinstance(quad, QuadratureSpec):
        t, weights = quad
        v = scale * t
        vv = v * v
        u = c + vv
        points = u.tolist()
        try:
            gu = np.array([density(point) for point in points])
            good = gu.dtype == np.float64 and 0.0 <= gu.min() and gu.max() < inf
        except (OverflowError, TypeError):
            good = False
        # else read again through g, which raises the first bad value's
        # error and converts a number of any other type
        gu = gen._scale * gu if good else np.array([g(p) for p in points], dtype=np.float64)
        with np.errstate(all="ignore"):
            if not kernel:
                log_w = np.where(v > 0.0, log_front + power * np.log(v), log_at_zero)
                values = np.where(gu == 0.0, 0.0, np.exp(np.log(gu) + log_w))
            else:
                weighted = np.exp(np.log(gu) + (log_front + power * np.log(u)))
                if share:
                    values = v * betainc(a, 0.5, vv / u) * weighted
                else:
                    values = v * weighted
                values = np.where((gu == 0.0) | (vv == 0.0), 0.0, values)
            total = float(np.dot(scale * weights, values))
        if not math.isfinite(total):
            raise NumericalError("fixed-rule radial integral is not finite", value=total)
        return total

    def integrand(t: float) -> float:
        v = scale * t
        vv = v * v
        u = c + vv
        gu = g(u)
        if gu == 0.0:
            return 0.0
        if not kernel:
            return exp(log(gu) + (log_front + power * log(v) if v > 0.0 else log_at_zero))
        # vv = 0 (v = 0, or so small that its square underflows) leaves u = c,
        # possibly 0, and contributes nothing
        if vv == 0.0:
            return 0.0
        weighted = exp(log(gu) + (log_front + power * log(u)))
        if share and weighted != 0.0:
            return v * betainc_point(a, 0.5, vv / u) * weighted
        return v * weighted

    return scale * integrate_semi_infinite(integrand, 0.0, quad)


def _marginal_density(z: float, gen: DensityGenerator, quad: QuadratureSpec | tuple) -> float:
    """Density of one spherical coordinate at z: g over the others, one radial integral at z."""
    n = gen.dimension
    if n == 1:
        return gen.g(z * z)
    # int_0^inf g(z^2 + v^2) |S^(n-2)| v^(n-2) dv
    return _radial_integral(gen, z, _log_sphere_area(n - 1), n - 2, quad=quad)


def big_g(s: float, gen: DensityGenerator, route: str = "double") -> float:
    """Survival function P(Z1 >= s) of one coordinate of the spherical law.

    ``route="double"`` integrates the marginal density, itself an
    integral over the other coordinates; it is the reference route, both
    of its integrals held to the one relative tolerance.
    ``route="kernel"`` is one integral of the generator against the
    closed-form incomplete-beta share of the sphere beyond s, held to
    relative accuracy however small G(s) is; quantile solves and
    ``DensityGenerator.tail`` use it.  Negative s is folded back by
    symmetry.
    """
    s = _check_real(s, "s")
    _check_generator(gen)
    if route not in ("double", "kernel"):
        raise DomainError(f"unknown route {route!r}; expected 'double' or 'kernel'")
    if s < 0.0:
        return 1.0 - big_g(-s, gen, route)
    if route == "double":
        return integrate_semi_infinite(
            lambda z: _marginal_density(z, gen, _INNER_QUAD), s, _TAIL_QUAD
        )
    return _kernel_tail(s, gen)


def _kernel_tail(
    s: float, gen: DensityGenerator, quad: QuadratureSpec | tuple = _TAIL_QUAD
) -> float:
    """G(s) for s >= 0 on the kernel route: one radial integral at s, adaptive or on a rule."""
    # G(s) = pi^(n/2) / (2 Gamma(n/2))
    #        * int_{s^2}^inf g(u) u^((n-2)/2) I_{1-s^2/u}((n-1)/2, 1/2) du,
    # where I/2 is the share of the sphere of radius sqrt(u) beyond z1 = s
    # (I = 1 for n = 1, whose sphere is the two points +-sqrt(u));
    # u = s^2 + v^2 removes the endpoint root at n = 2 and brings in 2v.
    n = gen.dimension
    log_const = n / 2.0 * math.log(math.pi) - log_gamma(n / 2.0)
    return _radial_integral(gen, s, log_const, (n - 2) / 2.0, kernel=True, quad=quad)


def marginal_tail(gen: DensityGenerator, s: float) -> float:
    """P(Z1 >= s) by the generator's ``tail``; s must be finite."""
    return _check_generator(gen).tail(s)


def marginal_tail_expectation(gen: DensityGenerator, t: float) -> float:
    """E[Z1 * 1{Z1 >= t}] by the generator's ``tail_expectation``; t must be finite.

    By symmetry the value at t equals the value at |t|.  Divergence (an
    overly heavy tail) surfaces as DivergentTailError.
    """
    return _check_generator(gen).tail_expectation(t)


_quantile_cache: dict[tuple, float] = {}
_quantile_lock = threading.Lock()


def clear_quantile_cache() -> None:
    with _quantile_lock:
        _quantile_cache.clear()


def _checked_quantile(f: Callable[[float], float], alpha: float, q: float) -> float:
    """q, once the decreasing tail f meets |f(q) / alpha - 1| <= _QUANTILE_RESIDUAL_TOL.

    A q that is not finite fails the check without f being called.
    """
    residual = abs(f(q) / alpha - 1.0) if math.isfinite(q) else math.inf
    if not residual <= _QUANTILE_RESIDUAL_TOL:
        raise NumericalError(
            "quantile left a relative tail residual above tolerance",
            alpha=alpha,
            quantile=q,
            residual=residual,
        )
    return q


def _log_tail(f: Callable[[float], float], x: float) -> float:
    """log f(x); a tail of 0 (or below) reads as the smallest positive double.

    So a tail that underflows stays a finite point below any log alpha.
    """
    return math.log(max(f(x), _SMALLEST_DOUBLE))


def _solve_decreasing(
    f: Callable[[float], float], alpha: float, lo: float = 0.0, hi: float | None = None
) -> float:
    """Root of f(x) = alpha for decreasing f, bracketed by lo <= hi.

    lo = 0 is taken to lie below the root, as it does for a symmetric
    tail at alpha < 1/2.  Without ``hi`` the upper end doubles from 1
    until f falls below alpha.  ``_root`` finds the root of log f(x) -
    log alpha, which is nearly linear in x where f itself is not, to
    within 2 (1e-15 + 8.9e-16 |x|), and the relative residual of f is
    checked.  An end that rounding puts on the wrong side of alpha is
    itself the root, if it passes that check.  f is evaluated once per
    point, the bracket's ends and the root ``_root`` returns included.
    """
    tail = functools.cache(f)
    if hi is None:
        hi = 1.0
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            if tail(hi) < alpha:
                break
            # the old hi, where f is at least alpha, is the new lo
            lo, hi = hi, 2.0 * hi
        else:
            raise BracketError(
                "tail probability never fell below alpha while expanding the bracket",
                alpha=alpha,
                lower=lo,
                upper=hi,
            )
    if not tail(lo) > alpha:
        return _checked_quantile(tail, alpha, lo)
    if not tail(hi) < alpha:
        return _checked_quantile(tail, alpha, hi)
    log_alpha = math.log(alpha)
    # xtol lies below the rounding of any root of unit scale, so the solve
    # stops on rtol and the root is good to a few ulps
    root = _root(lambda x: _log_tail(tail, x) - log_alpha, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return _checked_quantile(tail, alpha, root)


def _root(f: Callable[[float], float], lo: float, hi: float, xtol: float, rtol: float) -> float:
    """A root of f in [lo, hi] by Chandrupatla's method (Adv. Eng. Software 28, 1997).

    Each step reads f once and keeps the sign change in [x1, x2]; the
    solve stops once |x2 - x1| < 2 (xtol + rtol |x|), x the end with the
    smaller |f|, and returns x.  An end or a point where f is 0 is the
    root.  Ends of one sign raise BracketError; a nan value, or no stop
    within _ROOT_MAX_STEPS steps, NumericalError with the point and the
    step count.
    """
    steps = 0

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError("root solve met a nan function value", x=x, iterations=steps)
        return fx

    x1, x2 = float(lo), float(hi)
    f1, f2 = value(x1), value(x2)
    if f1 == 0.0:
        return x1
    if f2 == 0.0:
        return x2
    if (f1 < 0.0) == (f2 < 0.0):
        raise BracketError("root bracket ends have one sign", lower=lo, upper=hi)
    t = 0.5
    for steps in range(1, _ROOT_MAX_STEPS + 1):
        x = x1 + t * (x2 - x1)
        fx = value(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f1 < 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        x = x1 if abs(f1) < abs(f2) else x2
        tol = xtol + rtol * abs(x)
        width = abs(x2 - x1)
        if width < 2.0 * tol:
            return x
        # inverse quadratic where x1, x2 and x3 lie as a smooth f places them,
        # else bisection; products, not powers: a float power that overflows raises
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            ratio = (x3 - x1) / (x2 - x1)
            t = f1 / (f2 - f1) * f3 / (f2 - f3) + ratio * f1 / (f3 - f1) * f2 / (f3 - f2)
        else:
            t = 0.5
        # at least tol inside the bracket
        t = min(max(t, tol / width), 1.0 - tol / width)
    raise NumericalError("root solve did not converge", x=x, iterations=steps)


def _rule_quantile(gen: DensityGenerator, alpha: float) -> tuple[float, float]:
    """The root of G(q) = alpha on the fixed rule, and the rule's d log G / ds there.

    G(s) is the kernel route on the exp-sinh rule, read at the point s;
    the slope is -f(q) / alpha, f the marginal density on the same rule,
    read at q.  Both integrate over v = max(1, |x|) t at their point x.
    """
    q = _solve_decreasing(lambda s: _kernel_tail(s, gen, _EXP_SINH_RULE), alpha)
    return q, -_marginal_density(q, gen, _EXP_SINH_RULE) / alpha


def _newton_polish(f: Callable[[float], float], alpha: float, x: float, slope: float) -> float:
    """The root of log f(x) = log alpha by up to two Newton steps from x at a fixed slope.

    A step's end is returned once the step it would take next is below
    _NEWTON_XTOL + _NEWTON_RTOL * x and it passes ``_checked_quantile``
    on f; otherwise NumericalError.  From an accurate start one step
    settles, so f is read at the start and at the point returned.
    """
    if not -math.inf < slope < 0.0:
        raise NumericalError("Newton slope is not negative and finite", slope=slope)
    log_alpha = math.log(alpha)
    step = (_log_tail(f, x) - log_alpha) / slope
    for _ in range(2):
        x -= step
        if not (math.isfinite(x) and x > 0.0):
            break
        step = (_log_tail(f, x) - log_alpha) / slope
        if abs(step) <= _NEWTON_XTOL + _NEWTON_RTOL * x:
            return _checked_quantile(f, alpha, x)
    raise NumericalError("Newton steps did not settle on the quantile", alpha=alpha, quantile=x)


def solve_quantile(alpha: float, gen: DensityGenerator) -> float:
    """q with big_g(q) = alpha, alpha in (0, 0.5), by a two-stage root solve.

    This is the pure quadrature route: it never consults the generator's
    closed forms.  Stage 1 solves log G(q) = log alpha with
    ``_solve_decreasing`` on the kernel integrand's fixed exp-sinh rule,
    one density call per node and one numpy pass per tail.  Stage 2 takes
    up to two Newton steps in log space on the adaptive kernel route of
    ``big_g``, at the rule's slope, and returns the point only if the
    next step is below rounding and it passes the relative residual check
    |G(q) / alpha - 1| on that adaptive route: the rule finds the root,
    it never certifies it.  If a stage raises or the steps do not settle,
    ``_solve_decreasing`` solves on the adaptive route with the same memo,
    so no point is evaluated twice.  Results are cached per (generator,
    alpha); past ``_QUANTILE_CACHE_SIZE`` entries the oldest is evicted
    first.
    """
    alpha = _check_alpha(alpha)
    key = (_check_generator(gen), alpha)
    with _quantile_lock:
        if key in _quantile_cache:
            return _quantile_cache[key]
    tail = functools.cache(lambda t: big_g(t, gen, route="kernel"))
    try:
        q = _newton_polish(tail, alpha, *_rule_quantile(gen, alpha))
    except (DomainError, NumericalError):
        q = _solve_decreasing(tail, alpha)
    with _quantile_lock:
        if len(_quantile_cache) >= _QUANTILE_CACHE_SIZE:
            del _quantile_cache[next(iter(_quantile_cache))]
        _quantile_cache[key] = q
    return q


def quantile_multiplier(gen: DensityGenerator, alpha: float) -> float:
    """The alpha-tail quantile of the spherical marginal, by the generator's ``quantile``."""
    return _check_generator(gen).quantile(alpha)


def _rows_var(rows: list[tuple], alpha: float) -> tuple[float, list[float]]:
    """VaR over component rows at unit scale, and each row's threshold at it.

    One row is the closed form -mean + q * vol, its threshold q.  Several
    rows solve sum_k w_k G_k((mean_k + V) / vol_k) = alpha for V in units
    of the largest vol, so its iterates are those of the book at any scale;
    the root's tail is within 1e-10 of alpha in relative terms.  Where V is
    below every component's VaR each G_k is at least alpha, and where it is
    above every one each is at most alpha, so the smallest and the largest
    component VaR bracket the root at any alpha.
    """
    qs = [gen.quantile(alpha) for _, gen, _, _ in rows]
    if len(rows) == 1:
        _, _, mean, vol = rows[0]
        return -mean + qs[0] * vol, qs
    scale = max(vol for _, _, _, vol in rows)

    def tail_prob(t: float) -> float:
        v = t * scale
        return math.fsum(w * gen.tail((mean + v) / vol) for w, gen, mean, vol in rows)

    ends = [(-mean + q * vol) / scale for (_, _, mean, vol), q in zip(rows, qs)]
    v = _solve_decreasing(tail_prob, alpha, min(ends), max(ends)) * scale
    return v, [(mean + v) / vol for _, _, mean, vol in rows]


def _rows_es(rows: list[tuple], alpha: float, thresholds: list[float]) -> float:
    """ES over component rows at unit scale, at their VaR thresholds z_k.

    (1/alpha) sum_k w_k (vol_k E_k(z_k) - mean_k G_k(z_k)), E_k the partial
    expectation; one row has G(q) = alpha and gives -mean + vol E(q) / alpha.
    On the rows' unit scale, largest vol in [1/2, 1), vol E(q) of a small
    book does not underflow in a deep tail before the division by alpha.
    """
    if len(rows) == 1:
        _, gen, mean, vol = rows[0]
        return -mean + vol * gen.tail_expectation(thresholds[0]) / alpha
    acc = 0.0
    for (w, gen, mean, vol), z in zip(rows, thresholds):
        acc += w * (vol * gen.tail_expectation(z) - mean * gen.tail(z))
    return acc / alpha


def var(model, delta, alpha: float) -> float:
    """Value-at-Risk of pnl = delta . X at level alpha, for every model type.

    One component gives -delta.mu + q * sqrt(delta Sigma delta^t), q the
    alpha-tail quantile of the spherical marginal; a mixture gives the
    root of its tail equation, held to a relative tail residual of 1e-10.
    The loss convention is P(pnl < -VaR) = alpha.
    """
    alpha = _check_alpha(alpha)
    _, e, rows = _component_rows(model, delta)
    return _scaled(_rows_var(rows, alpha)[0], e)


def expected_shortfall(model, delta, alpha: float) -> float:
    """Expected shortfall -E[pnl | pnl <= -VaR], for every model type.

    One component gives -delta.mu + vol * E[Z1 1{Z1 >= q}] / alpha; a
    mixture sums its components' partial expectations at the common VaR
    threshold.  Partial expectations come from the generator's closed
    form when available and from quadrature otherwise.
    """
    alpha = _check_alpha(alpha)
    _, e, rows = _component_rows(model, delta)
    return _scaled(_rows_es(rows, alpha, _rows_var(rows, alpha)[1]), e)
