"""Property tests: invariants every risk report keeps, on all three model types.

Each property is checked through ``risk_report`` on a plain
``EllipticModel``, a ``StudentParams`` and a two-component
``MixtureModel``, with nonzero locations; the Euler decomposition
``incremental_var`` is checked on the same cases.  A hook-less
power-exponential generator, alone and as a mixture component, takes the
risk properties through the generic engine's quadratures, and its
two-stage quantile solve is checked against the adaptive root.  The
risk-measure axioms are checked per kind, to a rounding slack: ES is
subadditive for every kind, VaR for one elliptic component, and a
mixture's VaR lies between its components' VaRs.  The sampler
``simulate_pnl`` knows only the Gaussian and Student families and is
checked on those.  The examples are derandomized so that the suite is
reproducible, and bounded so that it stays a few seconds long.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellvar import (
    DensityGenerator,
    EllipticModel,
    MixtureModel,
    SimulationSpec,
    StudentParams,
    expected_shortfall,
    gaussian_generator,
    incremental_var,
    mixture_expected_shortfall,
    mixture_var,
    big_g,
    risk_report,
    simulate_pnl,
    solve_quantile,
    student_generator,
    var,
)
from ellvar import elliptic

SAMPLED_KINDS = ("elliptic", "student", "mixture")
KINDS = SAMPLED_KINDS + ("generic", "generic mixture")
# power-exponential shapes: heavier and lighter tails than the Gaussian's beta = 1
BETAS = st.sampled_from((0.7, 1.0, 1.5))

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

# the mixture root is solved to xtol 1e-12, the closed forms to rounding
REL = 1e-9


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T / n + np.diag(rng.uniform(0.2, 1.0, n))


@functools.lru_cache(maxsize=None)
def _power_exponential(n: int, beta: float) -> DensityGenerator:
    """Hook-less g(u) proportional to exp(-u^beta / 2), scaled to unit mass by quadrature."""
    return DensityGenerator(
        dimension=n,
        density=lambda u: math.exp(-(u**beta) / 2.0),
        name=f"power-exponential(beta={beta})",
        auto_rescale=True,
    )


@st.composite
def cases(draw, kinds=KINDS):
    """(build, mu, delta): build(mu) makes the model with location mu."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nu = draw(st.floats(2.5, 40.0))
    sigma = _spd(rng, n)
    mu = rng.normal(scale=0.1, size=n)
    delta = rng.normal(size=n)
    if kind in ("elliptic", "generic"):
        if kind == "generic":
            gen = _power_exponential(n, draw(BETAS))
        elif draw(st.booleans()):
            gen = gaussian_generator(n)
        else:
            gen = student_generator(n, nu)

        def build(m):
            return EllipticModel(mu=m, sigma=sigma, generator=gen)

    elif kind == "student":

        def build(m):
            return StudentParams(nu=nu, mu=m, sigma=sigma)

    else:
        w = draw(st.floats(0.05, 0.95))
        wide = 2.0 * _spd(rng, n)
        offset = rng.normal(scale=0.1, size=n)
        if kind == "generic mixture":
            other = _power_exponential(n, draw(BETAS))
        else:
            other = student_generator(n, nu)

        def build(m):
            return MixtureModel(
                components=[
                    (w, EllipticModel(mu=m, sigma=sigma, generator=gaussian_generator(n))),
                    (1.0 - w, EllipticModel(mu=m + offset, sigma=wide, generator=other)),
                ]
            )

    return build, mu, delta


alphas = st.floats(0.001, 0.2)


@PROPERTY
@given(case=cases(), alpha=alphas, seed=st.integers(0, 2**32 - 1))
def test_translation_equivariance_in_mu(case, alpha, seed):
    build, mu, delta = case
    shift = np.random.default_rng(seed).normal(size=mu.shape[0])
    base = risk_report(build(mu), delta, alpha)
    moved = risk_report(build(mu + shift), delta, alpha)
    step = float(delta @ shift)
    scale = abs(base.var) + abs(step) + base.volatility
    assert moved.var == pytest.approx(base.var - step, rel=REL, abs=REL * scale)
    assert moved.es == pytest.approx(base.es - step, rel=REL, abs=REL * scale)
    assert moved.mean == pytest.approx(base.mean + step, rel=REL, abs=REL * scale)
    assert moved.volatility == base.volatility


@PROPERTY
@given(case=cases(), alpha=alphas, factor=st.floats(0.01, 100.0))
def test_positive_scale_equivariance_in_delta(case, alpha, factor):
    build, mu, delta = case
    model = build(mu)
    base = risk_report(model, delta, alpha)
    scaled = risk_report(model, factor * delta, alpha)
    scale = factor * (abs(base.var) + base.volatility)
    assert scaled.var == pytest.approx(factor * base.var, rel=REL, abs=REL * scale)
    assert scaled.es == pytest.approx(factor * base.es, rel=REL, abs=REL * scale)
    assert scaled.volatility == pytest.approx(factor * base.volatility, rel=1e-12)


@PROPERTY
@given(case=cases(), alpha=alphas)
def test_es_dominates_var(case, alpha):
    build, mu, delta = case
    report = risk_report(build(mu), delta, alpha)
    assert report.es >= report.var


@PROPERTY
@given(case=cases(), low=alphas, ratio=st.floats(1.05, 2.4))
def test_var_and_es_decrease_as_alpha_rises(case, low, ratio):
    build, mu, delta = case
    model = build(mu)
    tight = risk_report(model, delta, low)
    loose = risk_report(model, delta, low * ratio)
    assert tight.var > loose.var
    assert tight.es > loose.es


@PROPERTY
@given(case=cases(), alpha=alphas)
def test_single_component_mixture_matches_component(case, alpha):
    build, mu, delta = case
    model = build(mu)
    parts = model.components if isinstance(model, MixtureModel) else [(1.0, model)]
    for _, comp in parts:
        wrapped = MixtureModel(components=[(1.0, comp)])
        assert risk_report(wrapped, delta, alpha) == risk_report(comp, delta, alpha)
        assert mixture_var(wrapped, delta, alpha) == var(comp, delta, alpha)
        assert mixture_expected_shortfall(wrapped, delta, alpha) == expected_shortfall(
            comp, delta, alpha
        )


@PROPERTY
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    nu=st.floats(2.5, 40.0),
    alpha=alphas,
)
def test_student_params_report_equals_its_model(n, seed, nu, alpha):
    rng = np.random.default_rng(seed)
    params = StudentParams(nu=nu, mu=rng.normal(scale=0.1, size=n), sigma=_spd(rng, n))
    delta = rng.normal(size=n)
    assert risk_report(params, delta, alpha) == risk_report(params.to_model(), delta, alpha)


def _assert_incremental_var_sums_to_var(case, alpha):
    build, mu, delta = case
    model = build(mu)
    inc = incremental_var(model, delta, alpha)
    report = risk_report(model, delta, alpha)
    assert inc.total == report.var
    assert float(np.sum(inc.contributions)) == pytest.approx(report.var, rel=1e-12, abs=0.0)


@PROPERTY
@given(case=cases(kinds=("elliptic", "student", "generic")), alpha=alphas)
def test_incremental_var_single_component_sums_to_var(case, alpha):
    _assert_incremental_var_sums_to_var(case, alpha)


@PROPERTY
@given(case=cases(kinds=("mixture", "generic mixture")), alpha=alphas)
def test_incremental_var_mixture_sums_to_var(case, alpha):
    _assert_incremental_var_sums_to_var(case, alpha)


@PROPERTY
@given(case=cases(), alpha=alphas, factor=st.floats(0.01, 100.0))
def test_incremental_var_gamma_is_scale_invariant(case, alpha, factor):
    build, mu, delta = case
    model = build(mu)
    base = incremental_var(model, delta, alpha).gamma
    scaled = incremental_var(model, factor * delta, alpha).gamma
    assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12 * float(np.max(np.abs(base))))


def _small_spec(seed, antithetic, workers=1):
    # several batches, the last one short
    return SimulationSpec(
        paths=3_001, seed=seed, batch_size=1_024, antithetic=antithetic, workers=workers
    )


@PROPERTY
@given(case=cases(SAMPLED_KINDS), seed=st.integers(0, 2**32 - 1), antithetic=st.booleans())
def test_simulated_pnl_translates_with_mu(case, seed, antithetic):
    build, mu, delta = case
    shift = np.random.default_rng(seed).normal(size=mu.shape[0])
    spec = _small_spec(seed, antithetic)
    base = simulate_pnl(build(mu), delta, spec)
    moved = simulate_pnl(build(mu + shift), delta, spec)
    step = float(delta @ shift)
    tol = 1e-12 * (float(np.max(np.abs(base))) + abs(step))
    assert np.max(np.abs(moved - (base + step))) <= tol


@PROPERTY
@given(
    case=cases(SAMPLED_KINDS),
    seed=st.integers(0, 2**32 - 1),
    antithetic=st.booleans(),
    power=st.integers(-20, 20),
)
def test_simulated_pnl_scales_exactly_with_delta_by_powers_of_two(case, seed, antithetic, power):
    build, mu, delta = case
    model = build(mu)
    factor = 2.0**power
    spec = _small_spec(seed, antithetic)
    base = simulate_pnl(model, delta, spec)
    assert np.array_equal(simulate_pnl(model, factor * delta, spec), factor * base)


@PROPERTY
@given(case=cases(SAMPLED_KINDS), seed=st.integers(0, 2**32 - 1), antithetic=st.booleans())
def test_simulated_pnl_is_bit_identical_for_any_worker_count(case, seed, antithetic):
    build, mu, delta = case
    model = build(mu)
    draws = [simulate_pnl(model, delta, _small_spec(seed, antithetic, w)) for w in (1, 2, 3)]
    assert draws[0].tobytes() == draws[1].tobytes() == draws[2].tobytes()


@PROPERTY
@given(
    n=st.sampled_from((1, 2, 3, 5)),
    beta=st.floats(0.4, 1.0),
    log_alpha=st.floats(-8.0, math.log10(0.49)),
)
def test_two_stage_quantile_matches_the_adaptive_root(n, beta, log_alpha):
    # the fixed rule's root, polished on the adaptive route, against the
    # bracketed root found on the adaptive route alone
    gen = _power_exponential(n, beta)
    alpha = 10.0**log_alpha
    reference = elliptic._solve_decreasing(lambda t: big_g(t, gen, route="kernel"), alpha)
    assert solve_quantile(alpha, gen) == pytest.approx(reference, rel=1e-13, abs=0.0)


def _slack(kind: str) -> float:
    """Relative rounding slack of a law: the closed forms to rounding, the quadrature kinds to REL."""
    return REL if kind.startswith("generic") else 1e-12


@pytest.mark.parametrize("kind", ("mixture", "generic mixture"))
@PROPERTY
@given(data=st.data(), alpha=alphas)
def test_mixture_var_lies_between_its_component_vars(kind, data, alpha):
    build, mu, delta = data.draw(cases(kinds=(kind,)))
    model = build(mu)
    parts = [var(comp, delta, alpha) for _, comp in model.components]
    slack = _slack(kind) * max(abs(p) for p in parts)
    assert min(parts) - slack <= var(model, delta, alpha) <= max(parts) + slack


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data(), alpha=alphas, seed=st.integers(0, 2**32 - 1))
def test_es_is_subadditive(kind, data, alpha, seed):
    # ES is coherent for every law, mixtures included (Acerbi & Tasche 2002)
    build, mu, delta = data.draw(cases(kinds=(kind,)))
    model = build(mu)
    other = np.random.default_rng(seed).normal(size=mu.shape[0])
    parts = [expected_shortfall(model, d, alpha) for d in (delta, other)]
    slack = _slack(kind) * sum(abs(p) for p in parts)
    assert expected_shortfall(model, delta + other, alpha) <= sum(parts) + slack


@pytest.mark.parametrize("kind", ("elliptic", "student", "generic"))
@PROPERTY
@given(data=st.data(), alpha=alphas, seed=st.integers(0, 2**32 - 1))
def test_var_is_subadditive_for_one_elliptic_component(kind, data, alpha, seed):
    # VaR is -delta.mu + q sqrt(delta Sigma delta^t) with one q > 0 at alpha < 1/2,
    # a norm plus a linear term (Embrechts, McNeil & Straumann 2002); a mixture
    # need not be subadditive, and no test claims it
    build, mu, delta = data.draw(cases(kinds=(kind,)))
    model = build(mu)
    other = np.random.default_rng(seed).normal(size=mu.shape[0])
    parts = [var(model, d, alpha) for d in (delta, other)]
    slack = _slack(kind) * sum(abs(p) for p in parts)
    assert var(model, delta + other, alpha) <= sum(parts) + slack
