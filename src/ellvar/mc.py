"""Monte Carlo validation of the analytic VaR and ES numbers.

A linear book under an elliptic law is delta mu + sqrt(delta Sigma
delta') Z_1, with Z_1 one coordinate of the spherical law.  Every model
is sampled as its weighted elliptic components, a plain model being one
component, and a path is its component's pnl mean plus its pnl scale
||L' delta|| times one standard normal times the per-path factor its
generator's ``mixing`` draw gives, if it draws one.  Sampling is exact
for every generator that has a mixing draw, and memory is O(batch_size)
whatever the number of risk factors.  The heaviest component scales
and shifts a whole batch in place; each other component finds its rows
once by index, and every path gets the same arithmetic whichever
component is the heaviest, so that choice never changes a byte of the
output.  Every batch draws from its own SFC64 stream, addressed by the
seed and its index, and fills its own slice of the output in place, so
results are reproducible for a fixed seed however many worker threads
run the batches.  The analytic side is ``risk_report``; the estimator
selects the order statistics of a sample once, for every alpha of a
validation.  ``validate_model`` selects them in place on the one
sample it drew, so a request holds no second sample-sized array;
``empirical_var_es`` selects them on a copy, so a caller's array is
never reordered.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import _binary_exponent, _check_alpha, _component_rows
from .errors import DomainError, _check_array, _check_int
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
    rng: np.random.Generator, out: np.ndarray, cdf, scales, means, draws, base, antithetic: bool
) -> None:
    """Fill ``out`` with one pnl draw per path: mean + scale * z * factor, one normal z per row.

    ``cdf`` holds the K components' cumulative weights, normalised to
    end at 1, ``scales`` their pnl scales ||L_k' delta||, ``means``
    their pnl means and ``draws`` their generators' ``mixing`` draws,
    each giving its rows' factors or None for none.  The stream is
    consumed in a fixed order: the label of every row, then one standard
    normal per row, then one mixing block per component, in component
    order, for the components that have rows and draw one.  A row's
    label is the number of cumulative weights at or below one uniform,
    the component ``rng.choice(K, p=weights)`` picks from the same
    stream, without its per-call checks.

    The normals are drawn into ``out``.  Component ``base`` (the
    heaviest) scales, multiplies and shifts the whole batch in place;
    every other component finds its rows once by index, takes their
    normals before that, and writes its own rows back after it.  Every
    row gets ((z * s_k) * f_k) + m_k, or m_k - z * s_k * f_k for its
    mirror, whichever component is the base, so the choice of base
    never changes a byte.  Antithetic draws come in pairs (m + t, m - t):
    mirrored normals with a shared mixing variable and component, so
    half as many rows are drawn, into one half-size buffer.
    """
    count = out.shape[0]
    rows = (count + 1) // 2 if antithetic else count
    k = len(draws)
    if k > 1:
        # cdf[-1] is 1, which no uniform reaches; the smallest unsigned type
        # that holds K - 1, since a mixture may have more than 255 components
        uniform = rng.random(rows)
        label = (uniform >= cdf[0]).astype(np.min_scalar_type(k - 1))
        for edge in cdf[1:-1]:
            label += uniform >= edge
        # freed before the normals, so a batch holds one row-sized temporary less
        del uniform
    core = rng.standard_normal(out=np.empty(rows) if antithetic else out)
    # every other component finds its rows once and takes their normals
    # before the base scales the whole batch; the base has the rest
    taken = {}
    for j in range(k):
        if j != base:
            index = np.flatnonzero(label == j)
            taken[j] = (index, core[index])
    core *= scales[base]
    # one mixing block per component in component order, each applied as it
    # is drawn, so no two are held at once; a component with no rows draws nothing
    for j, draw in enumerate(draws):
        if j == base:
            n = rows - sum(index.size for index, _ in taken.values())
        else:
            index, t = taken[j]
            t *= scales[j]
            n = index.size
        factor = draw(rng, n) if n else None
        if factor is not None:
            if j != base:
                t *= factor
            elif n == rows:
                # every row is the base's, as in a one-component model
                core *= factor
            else:
                # in place on the base's rows, with no gathered copy of them
                np.multiply.at(core, np.flatnonzero(label == base), factor)
        del factor
    half = count // 2
    if antithetic:
        np.add(means[base], core, out=out[0::2])
        # the mirrored half is one row short at an odd count
        np.subtract(means[base], core[:half], out=out[1::2])
    else:
        core += means[base]
    for j, (index, t) in taken.items():
        if antithetic:
            # index is sorted: its rows below half have a mirror
            paired = np.searchsorted(index, half)
            out[1::2][index[:paired]] = np.subtract(means[j], t[:paired])
            t += means[j]
            out[0::2][index] = t
        else:
            t += means[j]
            core[index] = t


def simulate_pnl(model, delta, spec: SimulationSpec = SimulationSpec()) -> np.ndarray:
    """Simulate portfolio pnl under the model; returns spec.paths draws.

    Batch b consumes the stream ``SFC64(SeedSequence(seed,
    spawn_key=(b,)))`` and fills its own slice of the output in place,
    so the result is a pure function of (model, delta, spec).
    """
    if not isinstance(spec, SimulationSpec):
        raise DomainError(f"spec must be a SimulationSpec, got {type(spec).__name__}")
    d, rows = _component_rows(model, delta)
    draws = [gen.mixing for _, gen, _, _ in rows]
    # a draw of no paths: a law that cannot be sampled raises here, whatever its weight
    probe = np.random.Generator(np.random.SFC64(0))
    for draw in draws:
        draw(probe, 0)
    # normalised as rng.choice normalises its p
    weights = [w for w, _, _, _ in rows]
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    # the heaviest component acts on the whole batch, so the fewest rows move by index
    base = int(np.argmax(weights))
    means = np.array([mean for _, _, mean, _ in rows])
    # from the Cholesky factor, not the rows' vol, so the check has its own
    # route to it; read on delta at unit scale, like the rows, and scaled back
    e = _binary_exponent(d)
    unit = np.ldexp(d, -e)
    scales = np.ldexp(
        [np.linalg.norm(_cholesky_lower(m.sigma).T @ unit) for _, m in model.components], e
    )

    n_batches = -(-spec.paths // spec.batch_size)
    out = np.empty(spec.paths)

    def run_batch(b: int) -> None:
        start = b * spec.batch_size
        stream = np.random.SeedSequence(spec.seed, spawn_key=(b,))
        rng = np.random.Generator(np.random.SFC64(stream))
        batch = out[start : start + spec.batch_size]
        _draw_pnl(rng, batch, cdf, scales, means, draws, base, spec.antithetic)

    with ThreadPoolExecutor(max_workers=min(spec.workers, n_batches)) as pool:
        # consumed, so a batch's error is raised here
        list(pool.map(run_batch, range(n_batches)))
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


def _estimates(x: np.ndarray, alphas: Sequence[float]) -> list[EmpiricalEstimate]:
    """Order-statistic estimates at every alpha from one selection of the checked sample x.

    x, a float64 array that ``_check_array`` has passed, is reordered in
    place: partitioned once, at the highest order statistic any alpha
    reads, and only the part below it sorted; each alpha then reads its
    VaR, its tail and the two quantiles behind its VaR standard error
    from that sorted head.
    """
    n = x.shape[0]
    if n < _MIN_PATHS_FOR_ESTIMATE:
        raise DomainError(
            f"need at least {_MIN_PATHS_FOR_ESTIMATE} paths for a tail estimate, got {n}"
        )
    levels = [(alpha, math.ceil(alpha * n)) for alpha in map(_check_alpha, alphas)]

    # an alpha reads order statistics up to the upper neighbour of its
    # 3 alpha / 2 quantile, which lies past its VaR at k - 1
    top = max(max(k - 1, math.floor((n - 1) * (alpha + alpha / 2.0)) + 1) for alpha, k in levels)
    x.partition(top)
    head = x[: top + 1]
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
    The order statistics are selected on a copy of the checked pnl, so
    the caller's array is never reordered.
    """
    return _estimates(_check_array(pnl, "pnl").copy(), (alpha,))[0]


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

    The alphas and the spec are checked before anything is drawn, and
    an empty sequence of alphas raises DomainError; a single pnl sample
    is then drawn once, and its order statistics are selected once, for
    every alpha, in place on that sample, which no caller sees.  A row
    passes when both analytic numbers fall within three standard errors
    of their empirical estimates.
    """
    alphas = tuple(map(_check_alpha, alphas))
    if not alphas:
        raise DomainError("alphas must hold at least one level, got none")
    estimates = _estimates(_check_array(simulate_pnl(model, delta, spec), "pnl"), alphas)
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
