"""Monte Carlo validation of the analytic VaR and ES numbers.

A linear book under an elliptic law is delta mu + sqrt(delta Sigma
delta') Z_1, with Z_1 one coordinate of the spherical law.  Every model
is sampled as its weighted elliptic components, a plain model being one
component, and a path is its component's pnl mean plus its pnl scale
||L' delta|| times one standard normal times the per-path factor its
generator's ``mixing`` draw gives, if it draws one.  Sampling is exact
for every generator that has a mixing draw, and memory is O(batch_size)
whatever the number of risk factors.  Every batch draws from its own
Philox substream, addressed by its index, so results are reproducible
for a fixed seed however many worker threads run the batches.  The
analytic side is ``risk_report``; the estimator selects the order
statistics of a sample once, for every alpha of a validation.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import _binary_exponent, _check_alpha, _component_rows
from .errors import DomainError, UnsupportedGeneratorError, _check_array, _check_int
from .linalg import _cholesky_lower
from .linalg import cholesky  # noqa: F401  wrapped by bench/tracing.py
from .mixture import mixture_expected_shortfall  # noqa: F401  wrapped by bench/tracing.py
from .mixture import mixture_var  # noqa: F401  wrapped by bench/tracing.py
from .portfolio import risk_report

__all__ = [
    "SimulationSpec",
    "simulate_pnl",
    "EmpiricalEstimate",
    "empirical_var_es",
    "ValidationRow",
    "validate_model",
]

# the tail levels validate_model and the CLI report when none are given
DEFAULT_ALPHAS = (0.01, 0.025, 0.05)

_MIN_PATHS_FOR_ESTIMATE = 10_000


@dataclass(frozen=True)
class SimulationSpec:
    """How to run a simulation: size, seeding, batching, variance reduction.

    ``antithetic`` mirrors the underlying normals within consecutive
    pairs of paths; the mixing factor (and the mixture component) is
    shared inside each pair, so the pair stays exchangeable under the
    model law.
    """

    paths: int = 1_000_000
    seed: int = 0
    batch_size: int = 262_144
    antithetic: bool = False
    workers: int = 1

    def __post_init__(self):
        for name, minimum in (("paths", 1), ("seed", 0), ("batch_size", 2), ("workers", 1)):
            # stored as the plain int the check returns, a numpy integer included
            object.__setattr__(self, name, _check_int(getattr(self, name), name, minimum))
        if self.seed >= 2**128:
            raise DomainError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")
        if not isinstance(self.antithetic, bool):
            raise DomainError(f"antithetic must be a bool, got {self.antithetic!r}")


def _draw_pnl(
    rng: np.random.Generator, count: int, weights, scales, means, draws, antithetic: bool
) -> np.ndarray:
    """One pnl draw per path: mean + scale * z * factor, with one normal z per row.

    ``scales`` are the K components' pnl scales ||L_k' delta||,
    ``means`` their pnl means and ``draws`` their generators' ``mixing``
    draws, each giving its rows' factors or None for none.  The stream
    is consumed in a fixed order: the component of every row, then one
    standard normal per row, then one mixing block per component, in
    component order, for the components that draw one.

    Antithetic draws come in pairs (m + t, m - t): mirrored normals with
    a shared mixing variable and component, so half as many rows are
    drawn.
    """
    rows = (count + 1) // 2 if antithetic else count
    k = len(draws)
    component = None if k == 1 else rng.choice(k, size=rows, p=weights)
    pick = 0 if component is None else component
    core = rng.standard_normal(rows) * scales[pick]
    # rows per component first, so a component that draws nothing costs no index
    counts = [rows] if component is None else np.bincount(component, minlength=k).tolist()
    for j, (draw, n_j) in enumerate(zip(draws, counts)):
        factor = draw(rng, n_j) if n_j else None
        if factor is not None:
            core[slice(None) if component is None else component == j] *= factor
    mean = means[pick]
    if not antithetic:
        return mean + core
    out = np.empty(2 * rows)
    np.add(mean, core, out=out[0::2])
    np.subtract(mean, core, out=out[1::2])
    return out[:count]


def simulate_pnl(model, delta, spec: SimulationSpec = SimulationSpec()) -> np.ndarray:
    """Simulate portfolio pnl under the model; returns spec.paths draws.

    Batch b consumes the substream ``Philox(key=seed).jumped(b)``, and
    batches land in the output at their own offsets, so the result is a
    pure function of (model, delta, spec).
    """
    if not isinstance(spec, SimulationSpec):
        raise DomainError(f"spec must be a SimulationSpec, got {type(spec).__name__}")
    d, rows = _component_rows(model, delta)
    draws = []
    for _, gen, _, _ in rows:
        if gen.mixing is None:
            raise UnsupportedGeneratorError(
                f"cannot sample generator {gen.name!r}: only the gaussian "
                "and student generators have exact sampling routines"
            )
        draws.append(gen.mixing)
    weights = np.array([w for w, _, _, _ in rows])
    means = np.array([mean for _, _, mean, _ in rows])
    # from the Cholesky factor, not the rows' vol, so the check has its own
    # route to it; read on delta at unit scale, like the rows, and scaled back
    e = _binary_exponent(d)
    unit = np.ldexp(d, -e)
    scales = np.ldexp(
        [np.linalg.norm(_cholesky_lower(m.sigma).T @ unit) for _, m in model.components], e
    )

    n_batches = -(-spec.paths // spec.batch_size)

    def run_batch(b: int):
        start = b * spec.batch_size
        count = min(spec.batch_size, spec.paths - start)
        rng = np.random.Generator(np.random.Philox(key=spec.seed).jumped(b))
        return start, _draw_pnl(rng, count, weights, scales, means, draws, spec.antithetic)

    out = np.empty(spec.paths)
    with ThreadPoolExecutor(max_workers=min(spec.workers, n_batches)) as pool:
        for start, chunk in pool.map(run_batch, range(n_batches)):
            out[start : start + chunk.shape[0]] = chunk
    return out


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Order-statistic VaR and tail-mean ES with the standard errors of ``empirical_var_es``."""

    var: float
    es: float
    var_se: float
    es_se: float
    paths: int
    tail_count: int


def _linear_quantile(head: np.ndarray, n: int, q: float) -> float:
    """``np.quantile(x, q)`` by its linear method, read from the sorted head of x (len n)."""
    virtual = (n - 1) * q
    below = math.floor(virtual)
    gamma = virtual - below
    a, b = float(head[below]), float(head[below + 1])
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def _estimates(pnl, alphas: Sequence[float]) -> list[EmpiricalEstimate]:
    """Order-statistic estimates at every alpha from one selection of the sample.

    The sample is partitioned once, at the highest order statistic any
    alpha reads, and only the part below it is sorted; each alpha then
    reads its VaR, its tail and the two quantiles behind its VaR standard
    error from that sorted head.
    """
    x = _check_array(pnl, "pnl")
    n = x.shape[0]
    if n < _MIN_PATHS_FOR_ESTIMATE:
        raise DomainError(
            f"need at least {_MIN_PATHS_FOR_ESTIMATE} paths for a tail estimate, got {n}"
        )
    levels = [(alpha, math.ceil(alpha * n)) for alpha in map(_check_alpha, alphas)]

    # an alpha reads order statistics up to the upper neighbour of its
    # 3 alpha / 2 quantile, which lies past its VaR at k - 1
    top = max(
        (max(k - 1, math.floor((n - 1) * (alpha + alpha / 2.0)) + 1) for alpha, k in levels),
        default=0,
    )
    head = np.partition(x, top)[: top + 1]
    head.sort()

    out = []
    for alpha, k in levels:
        if k < 50:
            warnings.warn(
                f"only {k} paths in the {alpha:g} tail; estimates will be noisy",
                RuntimeWarning,
                stacklevel=3,
            )
        tail = head[:k]
        h = alpha / 2.0
        width = _linear_quantile(head, n, alpha + h) - _linear_quantile(head, n, alpha - h)
        if width <= 0.0:
            var_se = float("nan")
        else:
            density = 2.0 * h / width
            var_se = math.sqrt(alpha * (1.0 - alpha) / n) / density
        var_k, es_k = -float(head[k - 1]), -float(np.mean(tail))
        # ES's influence function adds a threshold term to the tail's own
        # spread, both formed on the tail at unit scale and scaled back
        e = _binary_exponent(tail)
        spread = float(np.var(np.ldexp(tail, -e), ddof=1)) if k > 1 else math.nan
        excess = math.ldexp(es_k - var_k, -e)
        es_se = math.ldexp(math.sqrt((spread + (1.0 - alpha) * excess**2) / k), e)
        out.append(
            EmpiricalEstimate(
                var=var_k,
                es=es_k,
                var_se=var_se,
                es_se=es_se,
                paths=n,
                tail_count=k,
            )
        )
    return out


def empirical_var_es(pnl: np.ndarray, alpha: float) -> EmpiricalEstimate:
    """Estimate VaR and ES from simulated pnl.

    VaR is minus the ceil(alpha N)-th order statistic, ES minus the mean
    of the draws at or below it.  The VaR standard error uses the
    asymptotic quantile variance alpha (1 - alpha) / (N f^2) with the
    density estimated by a central difference of the empirical quantile
    function (``np.quantile``'s linear method at alpha / 2 and
    3 alpha / 2).  The ES standard error is sqrt((s^2 + (1 - alpha)
    (ES - VaR)^2) / k) over the k tail draws with sample variance s^2,
    the variance of ES's influence function, whose threshold term the
    tail spread alone leaves out (Chen 2008, "Nonparametric estimation
    of expected shortfall").  A pnl with a non-finite entry is rejected.
    """
    return _estimates(pnl, (alpha,))[0]


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
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    spec: SimulationSpec = SimulationSpec(),
) -> list[ValidationRow]:
    """Compare analytic VaR and ES against one simulation at each level.

    The alphas and the spec are checked before anything is drawn; a
    single pnl sample is then drawn once, and its order statistics are
    selected once, for every alpha.  A row passes when both analytic
    numbers fall within three standard errors of their empirical
    estimates.
    """
    alphas = tuple(map(_check_alpha, alphas))
    estimates = _estimates(simulate_pnl(model, delta, spec), alphas)
    rows = []
    for alpha, est in zip(alphas, estimates):
        a_var, a_es = _analytic_var_es(model, delta, alpha)
        rows.append(
            ValidationRow(
                alpha=alpha,
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
