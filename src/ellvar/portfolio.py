"""Portfolio-level quantities: delta equivalents, risk reports, VaR decomposition.

The engine consumes one vector: the delta-equivalent exposure of the
portfolio to each risk factor.  The helpers here build that vector for
the common cases (option books via spot times sensitivity, cash equity
books, aggregation across businesses).  ``risk_report`` and
``incremental_var`` accept every model type and location: each model is
read once as rows of its ``components``, its weighted elliptic models,
and handed to the engine's one VaR/ES path, where one row takes the
closed forms and several take the mixture root.  The Euler allocation
takes its gradient from that one solve's thresholds, by the
implicit-function theorem, weighing the components by their generators'
``marginal_density`` there: a closed form, or quadrature held to
relative accuracy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import elliptic
from .errors import DomainError, _check_array, _check_int, _check_real
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
        _check_real(self.spot, "spot", 0.0)
        _check_real(self.sensitivity, "sensitivity")


def delta_equivalents(positions: Sequence[Position]) -> np.ndarray:
    """delta_i = spot_i * dV/dX_i, the exposure to each factor's return."""
    if not positions:
        raise DomainError("need at least one position")
    if not all(isinstance(p, Position) for p in positions):
        raise DomainError("positions must be Position objects")
    return np.array([p.spot * p.sensitivity for p in positions], dtype=np.float64)


def equity_deltas(shares, prices) -> np.ndarray:
    """Cash equity book: delta_i = shares_i * price_i."""
    w = _check_array(shares, "shares")
    s = _check_array(prices, "prices", length=w.shape[0])
    if np.any(s <= 0.0):
        raise DomainError("prices must be positive")
    return w * s


def business_unit_deltas(count: int) -> np.ndarray:
    """Aggregation vector over business-unit pnls: all ones."""
    return np.ones(_check_int(count, "count", 1), dtype=np.float64)


@dataclass(frozen=True)
class IncrementalVar:
    """Euler decomposition of VaR: contributions[i] = delta[i] * gamma[i]."""

    gamma: np.ndarray
    contributions: np.ndarray
    total: float


def incremental_var(model, delta, alpha: float) -> IncrementalVar:
    """Per-factor VaR gradient gamma and Euler contributions, for any model and mu.

    VaR solves sum_k w_k G_k(z_k) = alpha, z_k = (delta.mu_k + VaR) / vol_k, and
    the implicit-function theorem (Tasche 1999) gives its gradient from that one
    solve: gamma = sum_k c_k (z_k Sigma_k delta / vol_k - mu_k) / sum_k c_k, with
    c_k = w_k f_k(z_k) / vol_k and f_k the marginal density.  As vol_k z_k -
    delta.mu_k = VaR for every k, the contributions sum to VaR to rounding.  One
    component needs no density: gamma = q Sigma delta / vol - mu.
    """
    alpha = elliptic._check_alpha(alpha)
    d, rows = elliptic._component_rows(model, delta)
    total, thresholds = elliptic._rows_var(rows, alpha)
    shares = np.ones(1)
    if len(rows) > 1:
        c = [w * g.marginal_density(z) / vol for (w, g, _, vol), z in zip(rows, thresholds)]
        shares = np.array(c) / math.fsum(c)
    pairs = zip(model.components, rows, thresholds)
    gamma = shares @ np.array([z * (m.sigma @ d) / row[3] - m.mu for (_, m), row, z in pairs])
    return IncrementalVar(gamma=gamma, contributions=d * gamma, total=total)


@dataclass(frozen=True)
class RiskReport:
    """One (model, alpha) row of risk numbers for a fixed exposure vector.

    ``mean`` is E[pnl], ``volatility`` the dispersion scale of pnl (for a
    mixture: sqrt(sum_k w_k vol_k^2), the root of the weight-averaged
    squared component scales), ``quantile`` the implied multiplier
    (var + mean) / volatility.
    """

    model: str
    alpha: float
    mean: float
    volatility: float
    quantile: float
    var: float
    es: float

    def __post_init__(self):
        _check_real(self.volatility, "volatility", 0.0)
        slack = 1e-9 * max(1.0, abs(self.var))
        if not self.es >= self.var - slack:
            raise DomainError(
                f"expected shortfall {self.es!r} is below VaR {self.var!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RiskReport":
        """The report whose ``to_dict`` is data; a missing or unknown key raises DomainError."""
        if not isinstance(data, dict):
            raise DomainError(f"a risk report is read from a dict, got {type(data).__name__}")
        names = {f.name for f in fields(cls)}
        missing, unknown = names - data.keys(), data.keys() - names
        if missing or unknown:
            raise DomainError(
                f"risk report keys: missing {sorted(missing)}, unknown {sorted(unknown, key=repr)}"
            )
        return cls(**data)


def risk_report(model, delta, alpha: float) -> RiskReport:
    """Compute VaR and ES for any supported model and wrap them in a report."""
    alpha = elliptic._check_alpha(alpha)
    _, rows = elliptic._component_rows(model, delta)
    v, thresholds = elliptic._rows_var(rows, alpha)
    es = elliptic._rows_es(rows, alpha, thresholds)

    if len(rows) == 1:
        _, gen, mean, vol = rows[0]
        label, quantile = gen.name, thresholds[0]
    else:
        mean = 0.0
        pooled = 0.0
        for w, _, m, scale in rows:
            mean += w * m
            pooled += w * scale * scale
        vol = math.sqrt(pooled)
        label = "mixture(" + ", ".join(f"{w:g}*{gen.name}" for w, gen, _, _ in rows) + ")"
        quantile = (v + mean) / vol
    return RiskReport(
        model=label,
        alpha=alpha,
        mean=mean,
        volatility=vol,
        quantile=quantile,
        var=v,
        es=es,
    )
