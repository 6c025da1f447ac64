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
mixture's VaR lies between its components' VaRs.  Every number scales
exactly with a book scaled by 2^+-600, and a book on the first k
coordinates of an n-dimensional normal scale mixture reads the
k-dimensional model's numbers.  The sampler ``simulate_pnl`` knows only
the Gaussian and Student families and is checked on those, as is a
pickled copy of each model, which must give the same numbers and draws.  The
examples are derandomized so that the suite is reproducible, and
bounded so that it stays a few seconds long.
"""

from __future__ import annotations

import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellvar import (
    DensityGenerator,
    EllipticModel,
    EllvarError,
    MixtureModel,
    SimulationSpec,
    StudentParams,
    empirical_var_es,
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
    model = EllipticModel(mu=params.mu, sigma=params.sigma, generator=student_generator(n, nu))
    assert risk_report(params, delta, alpha) == risk_report(model, delta, alpha)


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
    case=cases(SAMPLED_KINDS),
    alpha=alphas,
    seed=st.integers(0, 2**32 - 1),
    antithetic=st.booleans(),
)
def test_every_sampled_kind_pickles_to_the_same_numbers(case, alpha, seed, antithetic):
    build, mu, delta = case
    model = build(mu)
    copy = pickle.loads(pickle.dumps(model))
    assert copy is not model
    assert risk_report(copy, delta, alpha) == risk_report(model, delta, alpha)
    inc, inc_copy = incremental_var(model, delta, alpha), incremental_var(copy, delta, alpha)
    assert inc_copy.total == inc.total
    assert inc_copy.gamma.tobytes() == inc.gamma.tobytes()
    assert inc_copy.contributions.tobytes() == inc.contributions.tobytes()
    spec = _small_spec(seed, antithetic)
    assert simulate_pnl(copy, delta, spec).tobytes() == simulate_pnl(model, delta, spec).tobytes()


def _plane_normal_density(u: float) -> float:
    return math.exp(-0.5 * u)


def test_a_hook_less_model_pickles_if_its_density_does():
    gen = DensityGenerator(2, _plane_normal_density, name="plane", normalizer=1.0 / (2.0 * math.pi))
    model = EllipticModel(mu=np.array([0.01, -0.02]), sigma=np.diag([1.0, 2.0]), generator=gen)
    copy = pickle.loads(pickle.dumps(model))
    delta = np.array([1.0, 0.5])
    assert risk_report(copy, delta, 0.05) == risk_report(model, delta, 0.05)
    # a generator pickles if and only if its density does
    local = DensityGenerator(2, lambda u: math.exp(-0.5 * u), normalizer=1.0 / (2.0 * math.pi))
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(local)


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


# powers of two past which delta Sigma delta^t, formed directly, overflows or
# loses bits to subnormals
EXTREME_POWERS = st.sampled_from((-600, -520, 520, 600))


@PROPERTY
@given(case=cases(SAMPLED_KINDS), alpha=alphas, power=EXTREME_POWERS)
def test_risk_numbers_scale_exactly_with_delta_at_extreme_powers_of_two(case, alpha, power):
    build, mu, delta = case
    model = build(mu)
    scaled = np.ldexp(delta, power)
    base, report = risk_report(model, delta, alpha), risk_report(model, scaled, alpha)
    for name in ("var", "es", "mean", "volatility"):
        assert getattr(report, name) == math.ldexp(getattr(base, name), power)
    assert report.quantile == base.quantile
    base_inc, inc = incremental_var(model, delta, alpha), incremental_var(model, scaled, alpha)
    assert np.array_equal(inc.gamma, base_inc.gamma)
    assert np.array_equal(inc.contributions, np.ldexp(base_inc.contributions, power))


@PROPERTY
@given(
    case=cases(SAMPLED_KINDS),
    seed=st.integers(0, 2**32 - 1),
    antithetic=st.booleans(),
    power=EXTREME_POWERS,
)
def test_simulated_pnl_and_its_estimates_scale_exactly_at_extreme_powers_of_two(
    case, seed, antithetic, power
):
    build, mu, delta = case
    model = build(mu)
    spec = SimulationSpec(paths=10_000, seed=seed, batch_size=4_096, antithetic=antithetic)
    base = simulate_pnl(model, delta, spec)
    scaled = simulate_pnl(model, np.ldexp(delta, power), spec)
    assert np.array_equal(scaled, np.ldexp(base, power))
    base_est, est = empirical_var_es(base, 0.01), empirical_var_es(scaled, 0.01)
    for name in ("var", "es", "var_se", "es_se"):
        assert getattr(est, name) == math.ldexp(getattr(base_est, name), power)


# normal scale mixtures, whose k-dimensional marginals are the same law in k
# dimensions (Kano 1994); the power-exponential family is not consistent in
# this sense and is left out
CONSISTENT_KINDS = ("gaussian", "student", "mixture", "hook-less student")


@functools.lru_cache(maxsize=None)
def _hook_less_student(n: int, nu: float) -> DensityGenerator:
    """student_generator(n, nu)'s density alone: its laws are quadratures in n dimensions."""
    return DensityGenerator(
        dimension=n,
        density=student_generator(n, nu).density,
        name=f"hook-less student(nu={nu})",
        normalizer=1.0,
    )


def _consistent_model(kind: str, mu: np.ndarray, sigma: np.ndarray, nu: float):
    n = mu.shape[0]
    if kind == "mixture":
        return MixtureModel(
            components=[
                (0.6, EllipticModel(mu=mu, sigma=sigma, generator=gaussian_generator(n))),
                (0.4, EllipticModel(mu=2.0 * mu, sigma=2.0 * sigma, generator=student_generator(n, nu))),
            ]
        )
    if kind == "gaussian":
        gen = gaussian_generator(n)
    elif kind == "student":
        gen = student_generator(n, nu)
    else:
        gen = _hook_less_student(n, nu)
    return EllipticModel(mu=mu, sigma=sigma, generator=gen)


def _assert_book_reads_the_marginal_model(kind, n, k, seed, nu, alpha):
    """A book on the first k of n coordinates against the k-dimensional model."""
    rng = np.random.default_rng(seed)
    sigma = _spd(rng, n)
    mu = rng.normal(scale=0.1, size=n)
    book = rng.normal(size=k)
    delta = np.concatenate([book, np.zeros(n - k)])
    big = _consistent_model(kind, mu, sigma, nu)
    small = _consistent_model(kind, mu[:k], sigma[:k, :k], nu)
    wide, narrow = risk_report(big, delta, alpha), risk_report(small, book, alpha)
    # the closed forms agree to the bit here; numpy may sum the zero entries
    # of the book in another order on other machines, hence a rounding slack
    slack = 1e-12 * (abs(narrow.mean) + narrow.volatility)
    for name in ("var", "es", "mean", "volatility", "quantile"):
        assert getattr(wide, name) == pytest.approx(getattr(narrow, name), rel=1e-12, abs=slack)
    wide_inc, narrow_inc = incremental_var(big, delta, alpha), incremental_var(small, book, alpha)
    assert wide_inc.contributions[:k] == pytest.approx(
        narrow_inc.contributions, rel=1e-12, abs=slack
    )
    assert not wide_inc.contributions[k:].any()


@pytest.mark.parametrize("kind", CONSISTENT_KINDS)
@PROPERTY
@given(
    data=st.data(),
    k=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    nu=st.floats(2.5, 40.0),
    alpha=alphas,
)
def test_a_book_on_k_coordinates_reads_the_k_dimensional_model(kind, data, k, seed, nu, alpha):
    # the hook-less generator checks its n-dimensional radial integrals
    # against the k-dimensional ones, at the dimensions where they resolve
    sizes = (3, 5) if kind == "hook-less student" else (3, 50, 200)
    n = data.draw(st.sampled_from(sizes))
    _assert_book_reads_the_marginal_model(kind, n, k, seed, nu, alpha)


@pytest.mark.xfail(
    strict=True,
    raises=(EllvarError, AssertionError),
    reason="ROADMAP.md item 2: at n = 1000 the hook-less density leaves double "
    "range where its mass lies, and its radial integrals raise",
)
def test_hook_less_book_reads_the_marginal_model_at_n_1000():
    _assert_book_reads_the_marginal_model("hook-less student", 1000, 1, 7, 4.0, 0.01)
