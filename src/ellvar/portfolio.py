"""Portfolio-level quantities: delta equivalents, risk reports, VaR decomposition.

The engine consumes one vector: the delta-equivalent exposure of the
portfolio to each risk factor.  The helpers here build that vector for
the common cases (option books via spot times sensitivity, cash equity
books, aggregation across businesses).  ``risk_report`` and
``incremental_var`` accept every model type: each model is read as its
weighted elliptic components, one component takes the closed forms and
several take the mixture root.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import elliptic, mixture as mixture_mod
from .errors import DimensionError, DomainError
from .linalg import quadratic_form  # noqa: F401  wrapped by bench/tracing.py

__all__ = [
    "Position",
    "delta_equivalents",
    "equity_deltas",
    "business_unit_deltas",
    "IncrementalVar",
    "incremental_var",
    "RiskReport",
    "risk_report",
]


@dataclass(frozen=True)
class Position:
    """One underlying: spot level and portfolio dV/dX at that spot."""

    spot: float
    sensitivity: float
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.spot) and self.spot > 0.0):
            raise DomainError(f"spot must be positive, got {self.spot!r}")
        if not math.isfinite(self.sensitivity):
            raise DomainError(f"sensitivity must be finite, got {self.sensitivity!r}")


def delta_equivalents(positions: Sequence[Position]) -> np.ndarray:
    """delta_i = spot_i * dV/dX_i, the exposure to each factor's return."""
    if not positions:
        raise DomainError("need at least one position")
    return np.array([p.spot * p.sensitivity for p in positions], dtype=np.float64)


def equity_deltas(shares, prices) -> np.ndarray:
    """Cash equity book: delta_i = shares_i * price_i."""
    w = np.asarray(shares, dtype=np.float64)
    s = np.asarray(prices, dtype=np.float64)
    if w.ndim != 1 or s.ndim != 1 or w.shape != s.shape:
        raise DimensionError(
            f"shares and prices must be equal-length vectors, got {w.shape} and {s.shape}"
        )
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(s))):
        raise DomainError("shares and prices must be finite")
    if np.any(s <= 0.0):
        raise DomainError("prices must be positive")
    return w * s


def business_unit_deltas(count: int) -> np.ndarray:
    """Aggregation vector over business-unit pnls: all ones."""
    if not isinstance(count, int) or count < 1:
        raise DomainError(f"count must be an integer >= 1, got {count!r}")
    return np.ones(count, dtype=np.float64)


@dataclass(frozen=True)
class IncrementalVar:
    """Euler decomposition of VaR: contributions[i] = delta[i] * gamma[i]."""

    gamma: np.ndarray
    contributions: np.ndarray
    total: float


def _require_centered(mu: np.ndarray) -> None:
    if float(np.max(np.abs(mu))) != 0.0:
        raise DomainError(
            "incremental VaR requires mu = 0: the closed-form gradient and the "
            "Euler identity rely on VaR being homogeneous in the exposures"
        )


def incremental_var(model, delta, alpha: float) -> IncrementalVar:
    """Per-factor VaR gradient gamma and Euler contributions, mu = 0 only.

    For a single elliptic component the gradient is closed-form,
    gamma = q * Sigma delta / sqrt(delta Sigma delta^t), and the
    contributions sum to VaR exactly.  For a mixture the gradient comes
    from central finite differences on the mixture VaR (step scaled by
    the exposure norm); homogeneity still makes the contributions sum to
    VaR, up to differencing error.
    """
    alpha = elliptic._check_alpha(alpha)
    components = mixture_mod.weighted_components(model)
    for _, comp in components:
        _require_centered(comp.mu)
    d, stats = elliptic.linear_stats(components, delta)

    if len(components) == 1:
        comp = components[0][1]
        vol = stats[0][1]
        if vol == 0.0:
            raise DomainError("delta has zero volatility; no VaR to decompose")
        q = elliptic.quantile_multiplier(comp.generator, alpha)
        gamma = q * (comp.sigma @ d) / vol
        return IncrementalVar(gamma=gamma, contributions=d * gamma, total=q * vol)

    total = mixture_mod.mixture_var(model, d, alpha)
    step = 1e-6 * float(np.linalg.norm(d))
    if step == 0.0:
        raise DomainError("delta is zero; no VaR to decompose")
    gamma = np.empty_like(d)
    for i in range(d.shape[0]):
        bump = np.zeros_like(d)
        bump[i] = step
        up = mixture_mod.mixture_var(model, d + bump, alpha)
        down = mixture_mod.mixture_var(model, d - bump, alpha)
        gamma[i] = (up - down) / (2.0 * step)
    return IncrementalVar(gamma=gamma, contributions=d * gamma, total=total)


@dataclass(frozen=True)
class RiskReport:
    """One (model, alpha) row of risk numbers for a fixed exposure vector.

    ``mean`` is E[pnl], ``volatility`` the dispersion scale of pnl (for a
    mixture: the weight-averaged component scale), ``quantile`` the
    implied multiplier (var + mean) / volatility.
    """

    model: str
    alpha: float
    mean: float
    volatility: float
    quantile: float
    var: float
    es: float

    def __post_init__(self):
        if not (math.isfinite(self.volatility) and self.volatility > 0.0):
            raise DomainError(f"volatility must be positive, got {self.volatility!r}")
        slack = 1e-9 * max(1.0, abs(self.var))
        if not self.es >= self.var - slack:
            raise DomainError(
                f"expected shortfall {self.es!r} is below VaR {self.var!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RiskReport":
        return cls(**data)


def risk_report(model, delta, alpha: float) -> RiskReport:
    """Compute VaR and ES for any supported model and wrap them in a report."""
    alpha = elliptic._check_alpha(alpha)
    components = mixture_mod.weighted_components(model)
    d, stats = elliptic.linear_stats(components, delta)

    if len(components) == 1:
        gen = components[0][1].generator
        mean, vol = stats[0]
        if vol == 0.0:
            raise DomainError("delta has zero volatility")
        q = elliptic.quantile_multiplier(gen, alpha)
        te = elliptic.marginal_tail_expectation(gen, q)
        return RiskReport(
            model=gen.name,
            alpha=alpha,
            mean=mean,
            volatility=vol,
            quantile=q,
            var=-mean + q * vol,
            es=-mean + vol * te / alpha,
        )

    v = mixture_mod.mixture_var(model, d, alpha)
    es = mixture_mod.mixture_expected_shortfall(model, d, alpha, var=v)
    mean = 0.0
    pooled = 0.0
    for (w, _), (m, scale) in zip(components, stats):
        mean += w * m
        pooled += w * scale * scale
    vol = math.sqrt(pooled)
    label = "mixture(" + ", ".join(f"{w:g}*{comp.generator.name}" for w, comp in components) + ")"
    return RiskReport(
        model=label,
        alpha=alpha,
        mean=mean,
        volatility=vol,
        quantile=(v + mean) / vol,
        var=v,
        es=es,
    )
