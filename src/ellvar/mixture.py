"""Finite mixtures of elliptic models.

VaR no longer has a closed form under a mixture: it is the root of

    sum_j beta_j * G_j((delta.mu_j + V) / vol_j) = alpha,

which is strictly decreasing in V, so a bracketed solve is exact enough.
ES assembles componentwise from the same thresholds:

    ES = (1/alpha) * sum_j beta_j * (vol_j * E_j(thr_j) - delta.mu_j * G_j(thr_j)),

where E_j is the component's marginal partial expectation.  A
single-component mixture must reproduce the plain elliptic numbers, and
the whole construction is validated against Monte Carlo in the tests.

``weighted_components`` reads any model as such a list of weighted
components; a plain elliptic model is one component of weight one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from .elliptic import (
    EllipticModel,
    _check_alpha,
    linear_stats,
    marginal_tail,
    marginal_tail_expectation,
)
from .errors import BracketError, DimensionError, DomainError, NumericalError
from .linalg import quadratic_form  # noqa: F401  wrapped by bench/tracing.py

__all__ = ["MixtureModel", "mixture_var", "mixture_expected_shortfall"]

_WEIGHT_TOL = 1e-12
_RESIDUAL_TOL = 1e-10
_MAX_EXPANSIONS = 64


@dataclass(eq=False)
class MixtureModel:
    """Convex combination of elliptic component models on a common space."""

    components: Sequence[tuple[float, EllipticModel]]

    def __post_init__(self):
        comps = [(float(w), m) for w, m in self.components]
        if not comps:
            raise DomainError("mixture needs at least one component")
        for w, _ in comps:
            if not (math.isfinite(w) and w > 0.0):
                raise DomainError(f"mixture weights must be positive, got {w!r}")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"mixture weights sum to {total!r}, not 1")
        dims = {m.dimension for _, m in comps}
        if len(dims) != 1:
            raise DimensionError(f"components disagree on dimension: {sorted(dims)}")
        self.components = tuple(comps)

    @property
    def dimension(self) -> int:
        return self.components[0][1].dimension


def weighted_components(model) -> tuple[tuple[float, EllipticModel], ...]:
    """Any accepted model as (weight, EllipticModel) pairs.

    This is the one place a model's type is examined: a mixture is its
    components, and an EllipticModel (a StudentParams among them) is a
    single component of weight one.
    """
    if isinstance(model, MixtureModel):
        return model.components
    if isinstance(model, EllipticModel):
        return ((1.0, model),)
    raise DomainError(f"unsupported model type {type(model).__name__}")


def _component_stats(mixture: MixtureModel, delta) -> list[tuple[float, EllipticModel, float, float]]:
    _, stats = linear_stats(mixture.components, delta)
    rows = []
    for (w, m), (mean, vol) in zip(mixture.components, stats):
        if vol == 0.0:
            raise DomainError("component volatility is zero; delta must be non-zero")
        rows.append((w, m, mean, vol))
    return rows


def mixture_var(mixture: MixtureModel, delta, alpha: float) -> float:
    """VaR of delta . X when X is drawn from a mixture of elliptic laws.

    Root-finds the mixture tail equation; the residual of the returned
    value is checked against 1e-10.
    """
    alpha = _check_alpha(alpha)
    rows = _component_stats(mixture, delta)

    def tail_prob(v: float) -> float:
        return math.fsum(
            w * marginal_tail(m.generator, (mean + v) / vol) for w, m, mean, vol in rows
        )

    lo, hi = -1.0, 1.0
    for _ in range(_MAX_EXPANSIONS):
        if tail_prob(lo) > alpha:
            break
        lo *= 2.0
    else:
        raise BracketError("could not bracket mixture VaR from below", alpha=alpha)
    for _ in range(_MAX_EXPANSIONS):
        if tail_prob(hi) < alpha:
            break
        hi *= 2.0
    else:
        raise BracketError("could not bracket mixture VaR from above", alpha=alpha)

    v = float(optimize.brentq(lambda t: tail_prob(t) - alpha, lo, hi, xtol=1e-12, rtol=8.9e-16))
    residual = abs(tail_prob(v) - alpha)
    if residual > _RESIDUAL_TOL:
        raise NumericalError(
            "mixture VaR solve left a residual above tolerance",
            var=v,
            residual=residual,
            alpha=alpha,
        )
    return v


def mixture_expected_shortfall(
    mixture: MixtureModel, delta, alpha: float, var: float | None = None
) -> float:
    """ES of delta . X under the mixture, at the mixture-wide VaR threshold.

    Pass ``var`` to reuse an already-solved VaR; otherwise it is solved
    here.  Each component contributes its partial tail expectation and a
    location correction, evaluated at the common threshold.
    """
    alpha = _check_alpha(alpha)
    v = mixture_var(mixture, delta, alpha) if var is None else float(var)
    rows = _component_stats(mixture, delta)
    acc = 0.0
    for w, m, mean, vol in rows:
        thr = (mean + v) / vol
        te = marginal_tail_expectation(m.generator, thr)
        tail = marginal_tail(m.generator, thr)
        acc += w * (vol * te - mean * tail)
    return acc / alpha
