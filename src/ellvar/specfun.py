"""Scalar special functions and semi-infinite quadrature.

The quantile and tail machinery upstream calls three things from here:
log-gamma, the Gauss hypergeometric function on the negative real axis
(in log form) and the semi-infinite quadrature.  The beta function and
the regularized incomplete beta are exported for callers and called
nowhere inside the package: the kernel route of the generic engine
takes its incomplete beta from ``scipy.special`` directly.  Everything
here is scalar float-in/float-out.  The incomplete beta is
``scipy.special.betainc`` behind this module's argument checks.  The
hypergeometric function is summed here: it is the route the Student tail
is checked by, independent of ``stdtr``, and ``scipy.special.hyp2f1``
gives nan near argument 1, where that route's Pfaff argument lies.

``hyp2f1`` only supports z <= 0, the branch the tail formulas evaluate,
reached by one Pfaff transformation into the unit disk.  Arguments far
out on the negative axis map close to the disk boundary, so the series is
summed in vectorized blocks with a geometric tail estimate.  Where the
boundary is so close that it would need millions of terms, the 1 - x
connection formula turns it into two short series, each gated and summed
from one array of term ratios, unless a - b is an integer or so near one
that the two terms cancel; those are left to the direct series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betainc

from .errors import DomainError, NumericalError, QuadratureError, _check_int, _check_real

__all__ = [
    "log_gamma",
    "beta",
    "reg_inc_beta",
    "hyp2f1",
    "hyp2f1_log",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate_semi_infinite",
]

_SERIES_TOL = 1e-13
# blocks grow geometrically from the first size up to the largest, so a
# short series sums a few dozen terms and a slow one still runs in big blocks
_FIRST_SERIES_BLOCK = 64
_SERIES_BLOCK = 65536
_MAX_SERIES_TERMS = 8_000_000
# the connection formula near the Pfaff argument 1 is tried where 1 minus
# that argument is at most _CONNECTION_MAX_W (beyond it the direct series
# is short anyway), and used only where every term ratio of its two series
# is at most _FAST_RATIO in size and its two terms' sum keeps at least
# that fraction of the larger term
_CONNECTION_MAX_W = 1.0 / 64.0
_FAST_RATIO = 0.25
# a connection series' term ratios are checked one by one up to this k,
# and bounded past it
_RATIO_PREFIX = 4096


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    return math.lgamma(_check_real(x, "log_gamma x", 0.0))


def beta(a: float, b: float) -> float:
    """Euler beta function B(a, b) for a, b > 0, evaluated in log space."""
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1].

    The arguments are checked here and the value is ``scipy.special.betainc``.
    """
    a, b = _check_real(a, "reg_inc_beta a", 0.0), _check_real(b, "reg_inc_beta b", 0.0)
    x = _check_real(x, "reg_inc_beta x")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got {x!r}")
    return float(betainc(a, b, x))


def _series_2f1(a: float, b: float, c: float, z: float) -> float:
    """Sum the Gauss series at 0 <= z < 1 in vectorized blocks.

    Stops when a geometric bound on the remaining tail drops below the
    relative tolerance.  The callers always land here with z in [0, 1);
    z very close to 1 (slow decay) is where the block structure pays off.
    Each block doubles the last, up to ``_SERIES_BLOCK`` terms.  Where the
    same estimate, at the smaller of the last ratio and z (the ratios'
    limit), needs more terms than the budget has left, it raises at once.
    """
    total = 1.0
    term = 1.0
    k = 0
    block = _FIRST_SERIES_BLOCK
    while k < _MAX_SERIES_TERMS:
        n = min(block, _MAX_SERIES_TERMS - k)
        block = min(2 * block, _SERIES_BLOCK)
        kk = k + np.arange(n, dtype=np.float64)
        ratios = (a + kk) * (b + kk) / ((c + kk) * (kk + 1.0)) * z
        terms = term * np.cumprod(ratios)
        total += float(terms.sum())
        last = float(terms[-1])
        k += n
        if last == 0.0:
            return total
        # geometric tail estimate from the last observed ratio
        r = abs(float(ratios[-1]))
        if r < 1.0:
            tail_bound = abs(last) * r / (1.0 - r)
            if tail_bound <= _SERIES_TOL * abs(total):
                return total
            if total != 0.0:
                needed = math.log(_SERIES_TOL * abs(total) / tail_bound) / math.log(min(r, z))
                if k + needed > _MAX_SERIES_TERMS:
                    break
        term = last
    raise NumericalError(
        "hypergeometric series would not converge within the term budget",
        a=a,
        b=b,
        c=c,
        z=z,
        terms=k,
        budget=_MAX_SERIES_TERMS,
        partial_sum=total,
    )


def _fast_series(a: float, b: float, c: float, w: float) -> float | None:
    """The Gauss series 2F1(a, b; c; w) if each term ratio is at most 1/4 in size, else None.

    The ratio at k is w (a + k) / (c + k) * (b + k) / (k + 1).  Up to
    k_max = 4 (|a| + |b| + |c| + 1), or _RATIO_PREFIX if that is smaller,
    each ratio is checked.  Past the checked prefix, from k = p with
    c + p > 0, neither factor has a pole, so each moves monotonically
    towards 1 and is at most max(1, its size at p): w times the two is a
    bound on every later ratio.  Past k_max that bound is below 2.1 w,
    which the caller's w <= _CONNECTION_MAX_W = 1/64 keeps below 1/4.
    The sum takes at least 28 ratios: the terms shrink at least 4x each,
    so what is left after term 28 is at most 4^-28 / 3 of the first,
    below double precision.
    """
    k_max = 4.0 * (abs(a) + abs(b) + abs(c) + 1.0)
    p = max(min(math.ceil(k_max), _RATIO_PREFIX) + 1, 28)
    k = np.arange(p, dtype=np.float64)
    ratios = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * w
    if np.abs(ratios).max() > _FAST_RATIO or c + p <= 0.0:
        return None
    later = w * max(1.0, abs((a + p) / (c + p))) * max(1.0, abs((b + p) / (p + 1.0)))
    if later > _FAST_RATIO:
        return None
    return 1.0 + float(np.cumprod(ratios).sum())


def _log_gamma_quotient(num: tuple, den: tuple) -> tuple[float, float]:
    """(sign, ln |prod Gamma(num) / prod Gamma(den)|); sign 0 when a denominator is at a pole."""
    sign, log = 1.0, 0.0
    for x, power in [(x, 1.0) for x in num] + [(x, -1.0) for x in den]:
        if x <= 0.0 and x == math.floor(x):
            return 0.0, -math.inf  # only denominators reach here: 1/Gamma vanishes
        if x < 0.0 and math.floor(x) % 2:
            sign = -sign
        log += power * math.lgamma(x)
    return sign, log


def _connection(a: float, b: float, c: float, w: float) -> tuple[float, float] | None:
    """(log_scale, series) with 2F1(a, b; c; 1 - w) = exp(log_scale) * series.

    The 1 - x connection formula (Abramowitz & Stegun 15.3.6) for small w,
    where the direct series needs about 1/w terms.  It takes two series
    in w that converge fast and two gamma ratios.  Returns None where it
    does not apply: c - a - b an integer (the formula's gamma poles),
    either series slow, or the two terms cancelling.
    """
    d = c - a - b
    if w > _CONNECTION_MAX_W or d == math.floor(d):
        return None
    f1 = _fast_series(a, b, 1.0 - d, w)
    f2 = _fast_series(c - a, c - b, 1.0 + d, w)
    if f1 is None or f2 is None:
        return None
    s1, l1 = _log_gamma_quotient((c, d), (c - a, c - b))
    s2, l2 = _log_gamma_quotient((c, -d), (a, b))
    if s1 == 0.0 and s2 == 0.0:
        return None
    l2 += d * math.log(w)
    scale = max(l1, l2)
    t1 = s1 * math.exp(l1 - scale) * f1 if s1 else 0.0
    t2 = s2 * math.exp(l2 - scale) * f2 if s2 else 0.0
    series = t1 + t2
    if abs(series) < _FAST_RATIO * max(abs(t1), abs(t2)):
        return None
    return scale, series


def _hyp2f1_parts(a: float, b: float, c: float, z: float) -> tuple[float, float, float]:
    """Return (exponent, log_scale, series) with
    2F1(a,b;c;z) = (1-z)^exponent * exp(log_scale) * series.

    Valid for z <= 0 only.  The Pfaff transformation maps the argument to
    z/(z-1) in [0, 1); of its two variants we keep the one whose series
    terms decay like k^(-|a-b|-1), i.e. we transform away the larger of
    a and b.  Far out on the negative axis that argument nears 1 and the
    series needs about 1 - z terms; there the 1 - x connection formula
    takes over where it is well conditioned, and log_scale carries its
    gamma ratios.  Elsewhere log_scale is 0.
    """
    if z > 0.0:
        raise DomainError(f"hyp2f1 is only implemented for z <= 0, got z={z!r}")
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"hyp2f1 undefined for non-positive integer c={c!r}")
    if z == 0.0:
        return 0.0, 0.0, 1.0
    if a <= b:
        exponent, a, b = -a, a, c - b
    else:
        exponent, a, b = -b, c - a, b
    # 1 - z/(z-1) = 1/(1-z), formed without cancellation
    connected = _connection(a, b, c, 1.0 / (1.0 - z))
    if connected is not None:
        return (exponent, *connected)
    return exponent, 0.0, _series_2f1(a, b, c, z / (z - 1.0))


_HYP2F1_PARAMETERS = tuple(f"hyp2f1 parameter {k}" for k in "abcz")


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0."""
    a, b, c, z = map(_check_real, (a, b, c, z), _HYP2F1_PARAMETERS)
    exponent, log_scale, series = _hyp2f1_parts(a, b, c, z)
    return math.exp(exponent * math.log1p(-z) + log_scale) * series


def hyp2f1_log(a: float, b: float, c: float, z: float) -> float:
    """ln 2F1(a, b; c; z) for z <= 0 when the value is positive.

    Needed where the hypergeometric factor pairs with a prefactor that
    overflows on its own; composing in log space keeps the product finite.
    """
    a, b, c, z = map(_check_real, (a, b, c, z), _HYP2F1_PARAMETERS)
    exponent, log_scale, series = _hyp2f1_parts(a, b, c, z)
    if series <= 0.0:
        raise DomainError(
            f"hyp2f1({a}, {b}; {c}; {z}) is not positive; no real logarithm"
        )
    return exponent * math.log1p(-z) + log_scale + math.log(series)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget settings for adaptive quadrature."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        _check_real(self.rel_tol, "rel_tol", 0.0)
        _check_real(self.abs_tol, "abs_tol", 0.0)
        # QUADPACK takes a plain int, which a numpy integer becomes here
        subdivisions = _check_int(self.max_subdivisions, "max_subdivisions", 10)
        object.__setattr__(self, "max_subdivisions", subdivisions)


DEFAULT_QUADRATURE = QuadratureSpec()


def _import_integrate():
    """Bind ``scipy.integrate`` as this module's ``integrate`` and return it.

    It is imported on the first integral, not with the package: with the
    scipy.optimize it loads it adds about 0.2 s to a cold start, which
    runs that need only closed forms, mixtures of them included, do
    without (the package's root solver is its own ``elliptic._brent``).
    Once bound it is an ordinary module attribute, so a wrapper set in
    its place (as bench/tracing.py sets one) sees every integral.
    """
    global integrate
    from scipy import integrate

    return integrate


def __getattr__(name: str):
    # ``specfun.integrate`` resolves before the first integral too
    if name == "integrate":
        return _import_integrate()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Integrate f over [lower, infinity) to the requested tolerance.

    QUADPACK's QAGI routine does the work: it compactifies the interval
    with a rational change of variables and refines panels adaptively.
    Non-convergence within the subdivision budget raises QuadratureError
    carrying the achieved error estimate.
    """
    if spec is None:
        spec = DEFAULT_QUADRATURE
    elif not isinstance(spec, QuadratureSpec):
        raise DomainError(f"spec must be a QuadratureSpec, got {type(spec).__name__}")
    lower = _check_real(lower, "lower limit")
    if "integrate" not in globals():
        _import_integrate()
    out = integrate.quad(
        f,
        lower,
        np.inf,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=True,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 or not math.isfinite(value):
        raise QuadratureError(
            "semi-infinite quadrature did not converge: " + str(out[3] if len(out) > 3 else value),
            value=value,
            achieved_abs_error=abserr,
            lower=lower,
            rel_tol=spec.rel_tol,
            abs_tol=spec.abs_tol,
        )
    return value
