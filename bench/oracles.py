"""Independent oracles for the benchmark's correctness gates.

Everything here is computed with scipy and numpy only, never with
``ellvar``, so a gate compares the package against a second
implementation.  Tolerances are the acceptance suite's bounds for
comparisons of the same kind, scaled with alpha where the suite states
them as absolute numbers at 1% tails.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# criteria 2 and 4 allow 1e-10 on a 1% tail probability (and 1e-8 on the
# quantile); as a relative bound that is 1e-8 at every alpha
REL_TOL = 1e-8
# tests/test_elliptic.py: the kernel and double big_g routes agree to 1e-9
ROUTE_TOL = 1e-9
# criterion 8: Euler contributions of an elliptic model sum to VaR to 1e-10
EULER_TOL = 1e-10
# tests/test_portfolio.py: finite-difference mixture Euler sums to 1e-6
MIXTURE_EULER_TOL = 1e-6
# the CLI and the library share one code path, so only JSON rounding is allowed
CLI_TOL = 1e-12
# `ellvar table` prints six significant digits
TABLE_TOL = 1e-5
# Monte Carlo: an analytic number further than this many standard errors
# from its estimate is wrong; 3 SE misses are only counted
MC_FAIL_SE = 5.0
# An answer outside its gate is a failed operation.  One outside a hundred
# times its gate, or one that breaks a structural invariant (ES >= VaR, exit
# code 0, identical pnl), is a gross error and makes the run incorrect.
GROSS = 100.0


def rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def gap_ratio(value: float, reference: float, tol: float) -> float:
    """How many times its tolerance an answer misses by (inf if not finite)."""
    return rel_gap(value, reference) / tol if math.isfinite(value) else math.inf


def tail(family: str, nu: float, s: float) -> float:
    """P(Z >= s) for the standard normal or Student-t marginal."""
    return float(special.ndtr(-s) if family == "gaussian" else special.stdtr(nu, -s))


def quantile(family: str, nu: float, alpha: float) -> float:
    """q with P(Z >= q) = alpha."""
    return -float(special.ndtri(alpha) if family == "gaussian" else special.stdtrit(nu, alpha))


def tail_expectation(family: str, nu: float, t: float) -> float:
    """E[Z 1{Z >= t}] for the standard normal or Student-t marginal."""
    if family == "gaussian":
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    log_pdf = (
        math.lgamma((nu + 1.0) / 2.0)
        - math.lgamma(nu / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - (nu + 1.0) / 2.0 * math.log1p(t * t / nu)
    )
    return math.exp(log_pdf) * (nu + t * t) / (nu - 1.0)


def linear_stats(delta, mu, sigma) -> tuple[float, float]:
    d = np.asarray(delta, dtype=np.float64)
    return float(d @ mu), math.sqrt(float(d @ (sigma @ d)))


def elliptic_var_es(family: str, nu: float, mean: float, vol: float, alpha: float):
    q = quantile(family, nu, alpha)
    return -mean + q * vol, -mean + vol * tail_expectation(family, nu, q) / alpha


def mixture_tail(rows, v: float) -> float:
    """rows: (weight, family, nu, mean, vol); P(pnl <= -v) under the mixture."""
    return math.fsum(w * tail(f, nu, (m + v) / s) for w, f, nu, m, s in rows)


def mixture_es(rows, v: float, alpha: float) -> float:
    acc = 0.0
    for w, f, nu, m, s in rows:
        thr = (m + v) / s
        acc += w * (s * tail_expectation(f, nu, thr) - m * tail(f, nu, thr))
    return acc / alpha


def powexp_tail_1d(beta: float, s: float) -> float:
    """P(Z >= s), s >= 0, for the 1-D density proportional to exp(-|z|^(2 beta) / 2)."""
    return 0.5 * float(special.gammaincc(0.5 / beta, s ** (2.0 * beta) / 2.0))


def powexp_tail_expectation_1d(beta: float, t: float) -> float:
    """E[Z 1{Z >= t}], t >= 0, for the same 1-D power-exponential law."""
    a = 0.5 / beta
    return (
        2.0 ** (a - 1.0)
        * math.exp(special.gammaln(2.0 * a) - special.gammaln(a))
        * float(special.gammaincc(2.0 * a, t ** (2.0 * beta) / 2.0))
    )
