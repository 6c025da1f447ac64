"""Monte Carlo validation of the analytic VaR and ES numbers.

Every model is sampled as its weighted elliptic components, a plain
model being one component.  Sampling is exact per family (Gaussian,
Student t via the normal over chi-square representation), driven by a
counter-based Philox stream so that every batch owns an independent
substream addressed by its index.  Results are therefore reproducible
for a fixed seed no matter how many worker threads run the batches or
in which order they finish.  The analytic side is ``risk_report``.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import EllipticModel, _check_alpha, linear_stats
from .errors import DimensionError, DomainError, UnsupportedGeneratorError
from .linalg import _cholesky_lower
from .linalg import cholesky  # noqa: F401  wrapped by bench/tracing.py
from .mixture import mixture_expected_shortfall  # noqa: F401  wrapped by bench/tracing.py
from .mixture import mixture_var  # noqa: F401  wrapped by bench/tracing.py
from .mixture import weighted_components
from .portfolio import risk_report

__all__ = [
    "SimulationSpec",
    "simulate_pnl",
    "EmpiricalEstimate",
    "empirical_var_es",
    "ValidationRow",
    "validate_model",
]

_MIN_PATHS_FOR_ESTIMATE = 10_000


@dataclass(frozen=True)
class SimulationSpec:
    """How to run a simulation: size, seeding, batching, variance reduction.

    ``antithetic`` mirrors the underlying normals within consecutive
    pairs of paths; the chi-square mixing variable (and the mixture
    component) is shared inside each pair, so the pair stays exchangeable
    under the model law.
    """

    paths: int = 1_000_000
    seed: int = 0
    batch_size: int = 262_144
    antithetic: bool = False
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.paths, int) or self.paths < 1:
            raise DomainError(f"paths must be a positive integer, got {self.paths!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**128:
            raise DomainError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 2:
            raise DomainError(f"batch_size must be an integer >= 2, got {self.batch_size!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise DomainError(f"workers must be a positive integer, got {self.workers!r}")


@dataclass(frozen=True)
class _ComponentPlan:
    """Precomputed per-component sampling data for one pnl simulation."""

    mean: float
    projection: np.ndarray
    family: str
    nu: float


def _component_plan(model: EllipticModel, delta: np.ndarray, mean: float) -> _ComponentPlan:
    family = model.generator.family
    if family not in ("gaussian", "student"):
        raise UnsupportedGeneratorError(
            f"cannot sample generator {model.generator.name!r}: only the gaussian "
            "and student families have exact sampling routines"
        )
    nu = model.generator.family_params[0] if family == "student" else 0.0
    lower = _cholesky_lower(model.sigma)
    return _ComponentPlan(mean=mean, projection=lower.T @ delta, family=family, nu=float(nu))


def _draw_pnl(rng: np.random.Generator, count: int, weights, plans, antithetic: bool) -> np.ndarray:
    """One pnl draw per path: z @ projection scaled by the mixing variable.

    Antithetic draws come in pairs (m + t, m - t): mirrored normals with
    a shared mixing variable and component, so half as many rows are
    drawn.
    """
    rows = (count + 1) // 2 if antithetic else count
    dim = plans[0].projection.shape[0]
    if len(plans) == 1:
        component = None
    else:
        component = rng.choice(len(plans), size=rows, p=weights)
    z = rng.standard_normal((rows, dim))
    out = np.empty(2 * rows if antithetic else rows)
    for j, plan in enumerate(plans):
        idx = slice(None) if component is None else np.flatnonzero(component == j)
        n_j = rows if component is None else idx.shape[0]
        if n_j == 0:
            continue
        core = z[idx] @ plan.projection
        if plan.family == "student":
            chi = rng.chisquare(plan.nu, size=n_j)
            core = core * np.sqrt(plan.nu / chi)
        if antithetic:
            out[0::2][idx] = plan.mean + core
            out[1::2][idx] = plan.mean - core
        else:
            out[idx] = plan.mean + core
    return out[:count]


def simulate_pnl(model, delta, spec: SimulationSpec = SimulationSpec()) -> np.ndarray:
    """Simulate portfolio pnl under the model; returns spec.paths draws.

    Batch b consumes the substream ``Philox(key=seed).jumped(b)``, and
    batches land in the output at their own offsets, so the result is a
    pure function of (model, delta, spec).
    """
    components = weighted_components(model)
    d, stats = linear_stats(components, delta)
    weights = np.array([w for w, _ in components])
    plans = [_component_plan(m, d, mean) for (_, m), (mean, _) in zip(components, stats)]

    n_batches = -(-spec.paths // spec.batch_size)

    def run_batch(b: int):
        start = b * spec.batch_size
        count = min(spec.batch_size, spec.paths - start)
        rng = np.random.Generator(np.random.Philox(key=spec.seed).jumped(b))
        return start, _draw_pnl(rng, count, weights, plans, spec.antithetic)

    out = np.empty(spec.paths)
    if spec.workers == 1 or n_batches == 1:
        for b in range(n_batches):
            start, chunk = run_batch(b)
            out[start : start + chunk.shape[0]] = chunk
    else:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            for start, chunk in pool.map(run_batch, range(n_batches)):
                out[start : start + chunk.shape[0]] = chunk
    return out


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Order-statistic VaR and tail-mean ES with standard errors."""

    var: float
    es: float
    var_se: float
    es_se: float
    paths: int
    tail_count: int


def empirical_var_es(pnl: np.ndarray, alpha: float) -> EmpiricalEstimate:
    """Estimate VaR and ES from simulated pnl.

    VaR is minus the ceil(alpha N)-th order statistic, ES minus the mean
    of the draws at or below it.  The VaR standard error uses the
    asymptotic quantile variance alpha (1 - alpha) / (N f^2) with the
    density estimated by a central difference of the empirical quantile
    function; the ES standard error is the tail standard deviation over
    sqrt(tail size).
    """
    x = np.asarray(pnl, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"pnl must be a vector, got shape {x.shape}")
    n = x.shape[0]
    if n < _MIN_PATHS_FOR_ESTIMATE:
        raise DomainError(
            f"need at least {_MIN_PATHS_FOR_ESTIMATE} paths for a tail estimate, got {n}"
        )
    alpha = _check_alpha(alpha)

    k = math.ceil(alpha * n)
    if k < 50:
        warnings.warn(
            f"only {k} paths in the {alpha:g} tail; estimates will be noisy",
            RuntimeWarning,
            stacklevel=2,
        )
    part = np.partition(x, k - 1)
    tail = part[:k]
    var_hat = -float(part[k - 1])
    es_hat = -float(np.mean(tail))

    h = alpha / 2.0
    width = float(np.quantile(x, alpha + h) - np.quantile(x, alpha - h))
    if width <= 0.0:
        var_se = float("nan")
    else:
        density = 2.0 * h / width
        var_se = math.sqrt(alpha * (1.0 - alpha) / n) / density
    es_se = float(np.std(tail, ddof=1)) / math.sqrt(k) if k > 1 else float("nan")
    return EmpiricalEstimate(
        var=var_hat, es=es_hat, var_se=var_se, es_se=es_se, paths=n, tail_count=k
    )


@dataclass(frozen=True)
class ValidationRow:
    """Analytic vs simulated numbers at one level, with 3-sigma verdicts."""

    alpha: float
    analytic_var: float
    mc_var: float
    var_se: float
    var_ok: bool
    analytic_es: float
    mc_es: float
    es_se: float
    es_ok: bool


def _analytic_var_es(model, delta, alpha: float) -> tuple[float, float]:
    report = risk_report(model, delta, alpha)
    return report.var, report.es


def validate_model(
    model,
    delta,
    alphas: Sequence[float] = (0.01, 0.025, 0.05),
    spec: SimulationSpec = SimulationSpec(),
) -> list[ValidationRow]:
    """Compare analytic VaR and ES against one simulation at each level.

    A single pnl sample is drawn once and reused for every alpha.  A row
    passes when both analytic numbers fall within three standard errors
    of their empirical estimates.
    """
    d = np.asarray(delta, dtype=np.float64)
    pnl = simulate_pnl(model, d, spec)
    rows = []
    for alpha in alphas:
        a_var, a_es = _analytic_var_es(model, d, alpha)
        est = empirical_var_es(pnl, alpha)
        rows.append(
            ValidationRow(
                alpha=float(alpha),
                analytic_var=a_var,
                mc_var=est.var,
                var_se=est.var_se,
                var_ok=bool(abs(a_var - est.var) <= 3.0 * est.var_se),
                analytic_es=a_es,
                mc_es=est.es,
                es_se=est.es_se,
                es_ok=bool(abs(a_es - est.es) <= 3.0 * est.es_se),
            )
        )
    return rows
