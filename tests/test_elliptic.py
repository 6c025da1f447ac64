"""Generic elliptic engine: generators, marginal tails, quantiles, VaR/ES."""

from __future__ import annotations

import ast
import inspect
import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special, stats

from ellvar import (
    DensityGenerator,
    EllipticModel,
    MixtureModel,
    QuadratureSpec,
    big_g,
    clear_quantile_cache,
    expected_shortfall,
    gaussian_generator,
    incremental_var,
    marginal_tail,
    marginal_tail_expectation,
    mixture_var,
    quantile_multiplier,
    risk_report,
    solve_quantile,
    student_generator,
    var,
)
from ellvar import elliptic
from ellvar.errors import (
    BracketError,
    DimensionError,
    DivergentTailError,
    DomainError,
    EllvarError,
    NotPositiveDefiniteError,
    NumericalError,
    QuadratureError,
    UnsupportedGeneratorError,
)
from ellvar.student import student_tail_expectation


def _pearson_vii_generator(n=2):
    """Unnormalized (1 + u)^-3 radial shape in dimension 2, exact scale 2/pi."""
    return DensityGenerator(
        dimension=n,
        density=lambda u: (1.0 + u) ** -3.0,
        name="pearson-vii",
        normalizer=2.0 / math.pi,
    )


def test_generator_rejects_wrong_normalization():
    # e^{-u} in dimension 2 integrates to pi, not 1
    with pytest.raises(DomainError):
        DensityGenerator(dimension=2, density=lambda u: math.exp(-u))


def test_generator_rejects_negative_density():
    gen = DensityGenerator(dimension=2, density=lambda u: -math.exp(-u), normalizer=1.0)
    with pytest.raises(DomainError):
        big_g(1.0, gen, route="kernel")


def _negative_past_4(u):
    return math.exp(-0.5 * u) * (-1.0 if u > 4.0 else 1.0)


def _overflowing_past_4(u):
    return math.exp(-0.5 * u) if u <= 4.0 else math.exp(1e3 * u)


def _returning_past_4(value):
    return lambda u: math.exp(-0.5 * u) if u <= 4.0 else value


def _bare_density(density):
    return DensityGenerator(dimension=2, density=density, normalizer=1.0 / (2.0 * math.pi))


# g and every integrand, on the adaptive route and on the fixed rule, whose
# nodes reach past u = 4, read a density value by one rule: not a real
# number or negative is a DomainError, nan, inf or an overflow NumericalError
_DENSITY_PATHS = {
    "mass check": lambda density: DensityGenerator(dimension=2, density=density),
    "kernel": lambda density: big_g(1.0, _bare_density(density), route="kernel"),
    "fixed rule": lambda density: elliptic._kernel_tail(
        1.0, _bare_density(density), elliptic._EXP_SINH_RULE
    ),
    "double": lambda density: big_g(1.0, _bare_density(density), route="double"),
    "g": lambda density: _bare_density(density).g(5.0),
    "tail expectation": lambda density: marginal_tail_expectation(_bare_density(density), 1.0),
    "solve_quantile": lambda density: solve_quantile(0.01, _bare_density(density)),
}


@pytest.mark.parametrize("path", sorted(_DENSITY_PATHS))
@pytest.mark.parametrize(
    "density, error",
    [
        (_negative_past_4, DomainError),
        (_overflowing_past_4, NumericalError),
        pytest.param(_returning_past_4(math.nan), NumericalError, id="nan_past_4-NumericalError"),
        pytest.param(_returning_past_4(math.inf), NumericalError, id="inf_past_4-NumericalError"),
        pytest.param(_returning_past_4(-math.inf), NumericalError, id="-inf_past_4-NumericalError"),
        pytest.param(_returning_past_4("0.1"), DomainError, id="str_past_4-DomainError"),
        pytest.param(_returning_past_4(None), DomainError, id="None_past_4-DomainError"),
    ],
)
def test_density_checks_hold_in_every_integrand(path, density, error):
    with pytest.raises(error, match="density"):
        _DENSITY_PATHS[path](density)


def test_generator_auto_rescale():
    gen = DensityGenerator(
        dimension=2, density=lambda u: math.exp(-u), auto_rescale=True
    )
    # rescaled shape is the bivariate normal with variance 1/2 per axis
    assert gen.g(0.0) == pytest.approx(1.0 / math.pi, rel=1e-9, abs=0.0)


def test_normalizer_and_auto_rescale_are_not_both():
    # two scales for one density: taking the normalizer alone gave G(0) = 1.2533
    with pytest.raises(DomainError, match="normalizer.*auto_rescale"):
        DensityGenerator(
            dimension=1, density=lambda u: math.exp(-u / 2), normalizer=1.0, auto_rescale=True
        )


def test_unit_mass_density_needs_no_normalizer():
    density = gaussian_generator(1).density
    measured = DensityGenerator(dimension=1, density=density)
    trusted = DensityGenerator(dimension=1, density=density, normalizer=1.0)
    for s in (0.0, 0.5, 2.0, 6.0):
        assert big_g(s, measured, "kernel") == big_g(s, trusted, "kernel")


def test_auto_rescale_refuses_a_density_of_no_mass():
    with pytest.raises(DomainError, match="cannot be rescaled"):
        DensityGenerator(dimension=2, density=lambda u: 0.0, auto_rescale=True)


@pytest.mark.parametrize("k", [1e-14, 1e-18, 1e-25, 1e20])
def test_auto_rescale_keeps_its_digits_at_any_mass(k):
    # k exp(-u/2) at n = 3 has mass k (2 pi)^1.5; the mass check is held to
    # its relative tolerance alone, so a small mass is measured as well as
    # a large one (an absolute floor of 1e-15 left k = 1e-18 1.2e-6 off)
    gen = DensityGenerator(dimension=3, density=lambda u: k * math.exp(-u / 2.0), auto_rescale=True)
    exact = 1.0 / (k * (2.0 * math.pi) ** 1.5)
    assert gen._scale == pytest.approx(exact, rel=1e-13, abs=0.0)
    assert solve_quantile(0.01, gen) == pytest.approx(-special.ndtri(0.01), rel=0.0, abs=1e-13)


def test_auto_rescale_of_power_exponential_shapes_is_their_exact_mass():
    # exp(-u^beta / 2) in R^n has mass |S^(n-1)| 2^(a - 1) Gamma(a) / beta, a = n / (2 beta)
    for n in (1, 2, 3, 5):
        for beta in np.linspace(0.4, 1.0, 13):
            gen = DensityGenerator(
                dimension=n, density=lambda u, b=beta: math.exp(-(u**b) / 2.0), auto_rescale=True
            )
            a = n / (2.0 * beta)
            log_mass = (
                elliptic._log_sphere_area(n)
                + (a - 1.0) * math.log(2.0)
                + math.lgamma(a)
                - math.log(beta)
            )
            assert gen._scale * math.exp(log_mass) == pytest.approx(1.0, rel=1e-13, abs=0.0)


def test_generator_rejects_bad_dimension():
    with pytest.raises(DomainError):
        DensityGenerator(dimension=0, density=lambda u: math.exp(-u))


def _sub_unit_mass_generator(**options):
    # exp(-u^0.7 / 2) in dimension 2 has mass 1 / 0.0934: only auto_rescale=True builds it
    return DensityGenerator(dimension=2, density=lambda u: math.exp(-(u**0.7) / 2.0), **options)


@pytest.mark.parametrize("flag", ["no", 1, 0, None, np.True_])
def test_auto_rescale_must_be_a_bool(flag):
    with pytest.raises(DomainError, match="auto_rescale"):
        _sub_unit_mass_generator(auto_rescale=flag)


@pytest.mark.parametrize("bad", ["1", True, np.True_, 1j, math.nan, math.inf, 0.0, -1.0])
def test_normalizer_must_be_a_positive_real(bad):
    with pytest.raises(DomainError, match="normalizer"):
        DensityGenerator(dimension=1, density=gaussian_generator(1).density, normalizer=bad)


@pytest.mark.parametrize("good", [np.float64(0.5), np.float32(0.5), np.int64(2), 2])
def test_normalizer_accepts_numpy_reals(good):
    gen = DensityGenerator(dimension=1, density=lambda u: 1.0, normalizer=good)
    assert gen.g(3.0) == float(good)


# a density function is not a generator
@pytest.mark.parametrize("bad", ["x", None, lambda u: math.exp(-u / 2.0) / (2.0 * math.pi)])
def test_model_generator_must_be_a_density_generator(bad):
    with pytest.raises(DomainError, match="generator must be a DensityGenerator"):
        EllipticModel(mu=np.zeros(2), sigma=np.eye(2), generator=bad)


# every constructor of a generator takes its dimension through one check
_DIMENSION_MAKERS = {
    "DensityGenerator": lambda n: DensityGenerator(
        dimension=n, density=gaussian_generator(1).density, normalizer=1.0
    ),
    "student_generator": lambda n: student_generator(n, 5.0),
    "gaussian_generator": gaussian_generator,
}


@pytest.mark.parametrize("kind", sorted(_DIMENSION_MAKERS))
def test_dimension_rejects_bools_and_non_integers(kind):
    make = _DIMENSION_MAKERS[kind]
    make(1)  # a memoized 1-D generator must not answer for True
    for bad in (True, False, np.True_, 2.0, "2", 0, np.int64(-1)):
        with pytest.raises(DomainError, match="dimension"):
            make(bad)


@pytest.mark.parametrize("kind", sorted(_DIMENSION_MAKERS))
def test_dimension_accepts_numpy_integers_as_a_plain_int(kind):
    for n in (np.int64(2), np.uint8(2), np.int32(2)):
        gen = _DIMENSION_MAKERS[kind](n)
        assert gen.dimension == 2
        assert type(gen.dimension) is int


@pytest.mark.parametrize("n", [1, 2, 5])
def test_gaussian_big_g_both_routes(n):
    gen = gaussian_generator(n)
    for s in (0.0, 0.3, 1.0, 2.5, -1.7):
        ref = stats.norm.sf(s)
        assert big_g(s, gen, route="double") == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert big_g(s, gen, route="kernel") == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("nu", [2.5, 5.0, 12.0])
def test_student_big_g_both_routes(n, nu):
    gen = student_generator(n, nu)
    for s in (0.0, 0.5, 2.0, 6.0, -1.2):
        ref = stats.t.sf(s, nu)
        assert big_g(s, gen, route="double") == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert big_g(s, gen, route="kernel") == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_kernel_route_small_and_large_s(n):
    # relative accuracy holds both next to s = 0 and deep in the tail
    for s in (1e-3, 1e-2, 8.0):
        gauss = big_g(s, gaussian_generator(n), route="kernel")
        assert gauss == pytest.approx(stats.norm.sf(s), rel=1e-9, abs=0.0)
        student = big_g(s, student_generator(n, 5.0), route="kernel")
        assert student == pytest.approx(stats.t.sf(s, 5.0), rel=1e-9, abs=0.0)


def _bare(gen):
    """The generator's density without its closed forms."""
    return DensityGenerator(dimension=gen.dimension, density=gen.density, normalizer=1.0)


def test_double_route_is_relative_in_the_deep_tail():
    # both integrals are held to one relative tolerance; absolute floors left
    # the reference 4.3e-8 off at n = 3, s = 10 and 1.6e-3 at n = 5, s = 30
    for n in (1, 2, 3, 5):
        gauss = _bare(gaussian_generator(n))
        for s in (0.0, 0.3, 1.0, 2.5, 5.0, 7.0, 10.0, 20.0, 30.0):
            double = big_g(s, gauss, route="double")
            assert double == pytest.approx(stats.norm.sf(s), rel=1e-12, abs=0.0), (n, s)
        for nu in (2.5, 4.0, 30.0):
            student = _bare(student_generator(n, nu))
            for s in (0.0, 0.5, 2.0, 6.0, 10.0, 50.0):
                double = big_g(s, student, route="double")
                assert double == pytest.approx(stats.t.sf(s, nu), rel=1e-12, abs=0.0), (n, nu, s)


def test_every_quadrature_has_one_relative_tolerance():
    # no integral keeps an absolute floor above the smallest normal double
    specs = [v for v in vars(elliptic).values() if isinstance(v, QuadratureSpec)]
    assert len(specs) >= 2
    assert {spec.rel_tol for spec in specs} == {elliptic._TAIL_QUAD.rel_tol}
    assert all(spec.abs_tol <= sys.float_info.min for spec in specs)


def test_inner_integral_keeps_its_normal_floor():
    # a powexp law of the generic benchmark (seed 2, alpha 0.05) whose marginal
    # density turns subnormal far out: with a floor of 5e-324 in place of the
    # smallest normal double the inner integral meets roundoff and the double
    # route raises QuadratureError
    gen = DensityGenerator(
        dimension=5, density=lambda u: math.exp(-(u**0.5635656537547452) / 2.0), auto_rescale=True
    )
    s = 5.460764770189723
    kernel = big_g(s, gen, route="kernel")
    assert big_g(s, gen, route="double") == pytest.approx(kernel, rel=1e-13, abs=0.0)


def test_hook_less_student_solves_in_the_deep_tail():
    # every radial integral runs over v = max(1, |x|) t from its point x, so
    # the adaptive kernel tail and tail expectation keep their mass near
    # t ~ 1 at any quantile; at a scale of 1 half of these solves raised
    # QuadratureError, and one a DivergentTailError for a finite ES
    for nu, n, alpha in itertools.product((2.1, 2.5, 3.0), (1, 2, 3, 5, 8, 20), (1e-7, 1e-10, 1e-13)):
        gen = _bare(student_generator(n, nu))
        q = solve_quantile(alpha, gen)
        assert q == pytest.approx(-special.stdtrit(nu, alpha), rel=1e-12, abs=0.0), (nu, n, alpha)
        te = marginal_tail_expectation(gen, q)
        reference = student_tail_expectation(q, nu)
        assert te == pytest.approx(reference, rel=1e-12, abs=0.0), (nu, n, alpha)
    gen = _bare(student_generator(3, 2.5))
    far = big_g(1e10, gen, route="kernel")
    assert far == pytest.approx(special.stdtr(2.5, -1e10), rel=1e-12, abs=0.0)
    far = marginal_tail_expectation(gen, 1e10)
    assert far == pytest.approx(student_tail_expectation(1e10, 2.5), rel=1e-12, abs=0.0)


def test_solve_quantile_power_exponential():
    # at n = 5 and beta this low the double route may not converge; the solve does
    gen = DensityGenerator(
        dimension=5, density=lambda u: math.exp(-(u**0.42) / 2.0), auto_rescale=True
    )
    previous = 0.0
    for alpha in (0.01, 1e-3):
        q = solve_quantile(alpha, gen)
        assert q > previous
        previous = q
        try:
            double = big_g(q, gen, route="double")
        except QuadratureError:
            continue
        assert abs(double / alpha - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [2, 5])
def test_solve_quantile_deep_tail(n):
    gen = _bare(gaussian_generator(n))
    for alpha in (1e-12, 1e-15):
        q = solve_quantile(alpha, gen)
        assert q == pytest.approx(-special.ndtri(alpha), rel=1e-12, abs=0.0)
        assert marginal_tail_expectation(gen, q) == pytest.approx(
            stats.norm.pdf(q), rel=1e-10, abs=0.0
        )


@pytest.mark.parametrize("n", [1, 2, 5])
def test_solve_quantile_near_the_smallest_double(n):
    # the tail integral's absolute floor lies below any alpha, so the
    # quantile is accurate or a typed error; the bracket's upper end, 64,
    # has a tail of exactly 0, which must still bound the log-tail root
    gen = _bare(gaussian_generator(n))
    for alpha in (1e-250, 1e-300, 1e-305):
        try:
            q = solve_quantile(alpha, gen)
        except EllvarError as err:
            assert not isinstance(err, BracketError)
            continue
        assert abs(special.ndtr(-q) / alpha - 1.0) <= 1e-9


def test_cython_betainc_matches_the_ufunc_bit_for_bit():
    # the kernel route's sphere share, I_x((n - 1) / 2, 1/2)
    from scipy.special import cython_special

    rng = np.random.default_rng(7)
    xs = np.concatenate(([0.0, 1.0], rng.random(500), rng.random(200) ** 8))
    for n in [*range(2, 41), 100, 1000]:
        a = (n - 1) / 2.0
        fast = np.array([cython_special.betainc(a, 0.5, float(x)) for x in xs])
        assert np.array_equal(fast, special.betainc(a, 0.5, xs)), n


def test_large_dimension_generator_is_built_in_log_space():
    gen = DensityGenerator(dimension=100, density=lambda u: math.exp(-0.5 * u), auto_rescale=True)
    assert gen.g(0.0) == pytest.approx((2.0 * math.pi) ** -50, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_large_dimension_quantile_is_accurate_or_typed(n):
    cases = (
        (gaussian_generator(n), -special.ndtri(0.01)),
        (student_generator(n, 5.0), -special.stdtrit(5.0, 0.01)),
    )
    for gen, ref in cases:
        try:
            q = solve_quantile(0.01, gen)
        except EllvarError:
            # the density's values leave double range at this dimension
            assert n > 100
            continue
        assert q == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_big_g_routes_agree_for_custom_generator():
    gen = _pearson_vii_generator()
    for s in (0.2, 1.0, 3.0):
        d = big_g(s, gen, route="double")
        k = big_g(s, gen, route="kernel")
        assert d == pytest.approx(k, abs=1e-9)
    # total mass splits evenly around zero
    assert big_g(0.0, gen) == pytest.approx(0.5, rel=1e-9, abs=0.0)


def test_big_g_rejects_bad_route_and_argument():
    gen = gaussian_generator(2)
    with pytest.raises(DomainError):
        big_g(1.0, gen, route="triple")
    with pytest.raises(DomainError):
        big_g(float("nan"), gen)


def test_solve_quantile_gaussian():
    gen = gaussian_generator(3)
    for alpha in (0.01, 0.025, 0.05, 0.2):
        q = solve_quantile(alpha, gen)
        assert q == pytest.approx(stats.norm.ppf(1.0 - alpha), abs=1e-9)


def test_solve_quantile_student():
    gen = student_generator(2, 4.0)
    q = solve_quantile(0.05, gen)
    assert q == pytest.approx(stats.t.ppf(0.95, 4.0), abs=1e-9)


def test_solve_quantile_matches_closed_form_to_rounding():
    # the hook-less solve against stdtrit, at the criterion 4 points
    for nu in (3.0, 5.0, 10.0):
        for n in (2, 3, 5):
            bare = DensityGenerator(
                dimension=n, density=student_generator(n, nu).density, normalizer=1.0
            )
            for alpha in (0.01, 0.05):
                assert solve_quantile(alpha, bare) == pytest.approx(
                    -special.stdtrit(nu, alpha), rel=1e-14, abs=0.0
                )


def test_solve_quantile_is_cached():
    clear_quantile_cache()
    gen = _pearson_vii_generator()
    first = solve_quantile(0.05, gen)
    again = solve_quantile(0.05, gen)
    assert first == again
    residual = big_g(first, gen) - 0.05
    assert abs(residual) <= 1e-10


def test_quantile_cache_is_bounded_oldest_first():
    cap = elliptic._QUANTILE_CACHE_SIZE
    assert cap >= 4096
    clear_quantile_cache()
    try:
        # stand-in entries fill the cache to its cap, oldest first
        for i in range(cap):
            elliptic._quantile_cache[("filler", i)] = float(i)
        gen = _pearson_vii_generator()
        q = solve_quantile(0.05, gen)
        assert len(elliptic._quantile_cache) == cap
        assert ("filler", 0) not in elliptic._quantile_cache
        assert ("filler", 1) in elliptic._quantile_cache
        assert elliptic._quantile_cache[(gen, 0.05)] == q
    finally:
        clear_quantile_cache()


def test_quantile_multiplier_prefers_closed_tail():
    gen = gaussian_generator(2)
    assert quantile_multiplier(gen, 0.01) == pytest.approx(
        stats.norm.ppf(0.99), abs=1e-10
    )


def test_marginal_tail_and_expectation_hooks():
    gen = gaussian_generator(4)
    assert marginal_tail(gen, 1.3) == pytest.approx(stats.norm.sf(1.3), rel=1e-12, abs=0.0)
    # E[Z 1{Z >= t}] = phi(t) for the standard normal, at any sign of t
    for t in (-1.0, 0.0, 2.0):
        assert marginal_tail_expectation(gen, t) == pytest.approx(
            stats.norm.pdf(t), rel=1e-10, abs=0.0
        )


_TAIL_GENERATORS = {
    "gaussian": lambda: gaussian_generator(2),
    "student": lambda: student_generator(2, 5.0),
    "hook-less": _pearson_vii_generator,
}


@pytest.mark.parametrize("kind", sorted(_TAIL_GENERATORS))
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [marginal_tail, marginal_tail_expectation])
def test_tail_entries_reject_non_finite_arguments(entry, x, kind):
    # checked before any closed form or quadrature, so every generator agrees
    with pytest.raises(DomainError, match="must be finite"):
        entry(_TAIL_GENERATORS[kind](), x)


def test_marginal_tail_expectation_custom_generator():
    # the (1 + u)^-3 shape in dimension 2 is the Student nu=4 spherical
    # law shrunk by 1/2, so E[Z 1{Z >= t}] = f(2t) (4 + 4t^2) / (nu - 1) / 2
    gen = _pearson_vii_generator()
    for t in (0.5, 1.5):
        s = 2.0 * t
        ref = stats.t.pdf(s, 4) * (4.0 + s * s) / 3.0 / 2.0
        assert marginal_tail_expectation(gen, t) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_marginal_tail_expectation_divergent():
    cauchy = DensityGenerator(
        dimension=1,
        density=lambda u: 1.0 / (1.0 + u),
        name="cauchy-like",
        normalizer=1.0 / math.pi,
    )
    with pytest.raises(DivergentTailError):
        marginal_tail_expectation(cauchy, 1.0)


def test_model_validation():
    gen = gaussian_generator(2)
    with pytest.raises(NotPositiveDefiniteError):
        EllipticModel(mu=np.zeros(2), sigma=np.array([[1.0, 2.0], [2.0, 1.0]]), generator=gen)
    with pytest.raises(DimensionError):
        EllipticModel(mu=np.zeros(3), sigma=np.eye(3), generator=gen)


def test_var_gaussian_closed_form():
    gen = gaussian_generator(2)
    sigma = np.array([[0.04, 0.006], [0.006, 0.09]])
    mu = np.array([0.001, -0.002])
    model = EllipticModel(mu=mu, sigma=sigma, generator=gen)
    d = np.array([100.0, 50.0])
    vol = math.sqrt(float(d @ sigma @ d))
    mean = float(d @ mu)
    for alpha in (0.01, 0.05):
        expected = -mean + stats.norm.ppf(1.0 - alpha) * vol
        assert var(model, d, alpha) == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_expected_shortfall_gaussian_closed_form():
    gen = gaussian_generator(1)
    model = EllipticModel(mu=np.zeros(1), sigma=np.eye(1), generator=gen)
    d = np.ones(1)
    for alpha in (0.01, 0.025, 0.05):
        z = stats.norm.ppf(1.0 - alpha)
        assert expected_shortfall(model, d, alpha) == pytest.approx(
            stats.norm.pdf(z) / alpha, rel=1e-10, abs=0.0
        )


def test_expected_shortfall_exceeds_var():
    rng = np.random.default_rng(23)
    gen = student_generator(3, 6.0)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 0.2 * np.eye(3)
        mu = rng.normal(scale=0.01, size=3)
        model = EllipticModel(mu=mu, sigma=sigma, generator=gen)
        d = rng.normal(size=3)
        alpha = rng.uniform(0.005, 0.2)
        assert expected_shortfall(model, d, alpha) > var(model, d, alpha)


def test_var_translation_and_scaling():
    # VaR(c * delta) = c * VaR(delta) for mu = 0, c > 0
    gen = student_generator(2, 8.0)
    model = EllipticModel(mu=np.zeros(2), sigma=np.eye(2), generator=gen)
    d = np.array([1.0, 2.0])
    v1 = var(model, d, 0.025)
    v3 = var(model, 3.0 * d, 0.025)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12, abs=0.0)


def test_var_rejects_alpha_outside_range():
    gen = gaussian_generator(1)
    model = EllipticModel(mu=np.zeros(1), sigma=np.eye(1), generator=gen)
    for alpha in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(DomainError):
            var(model, np.ones(1), alpha)


def test_root_solves_evaluate_each_tail_point_once(monkeypatch):
    # a hook-less solve finds its root on the fixed rule and reads the adaptive
    # route at most three times: the rule's root and up to two Newton steps,
    # the returned point among them.  The mixture root's bracket ends, its
    # components' VaRs, and the returned root are read back, not re-evaluated
    points = []
    big_g_route = elliptic.big_g

    def counting_big_g(s, gen, route="double"):
        points.append(("big_g", s))
        return big_g_route(s, gen, route)

    monkeypatch.setattr(elliptic, "big_g", counting_big_g)
    hookless = DensityGenerator(
        dimension=3, density=student_generator(3, 5.0).density, normalizer=1.0
    )
    q = solve_quantile(0.01, hookless)
    assert len(points) == len(set(points)) <= 3
    assert ("big_g", q) in points

    def counting_tail(gen):
        tail = gen.tail

        def counted(s):
            points.append((gen.name, s))
            return tail(s)

        return counted

    points.clear()
    gens = [gaussian_generator(2), student_generator(2, 4.0)]
    for gen in gens:
        # the mixture root reads each component's law directly
        monkeypatch.setattr(gen, "tail", counting_tail(gen))
    mix = MixtureModel(
        components=[
            (0.7, EllipticModel(mu=np.zeros(2), sigma=np.eye(2), generator=gens[0])),
            (0.3, EllipticModel(mu=np.zeros(2), sigma=2.0 * np.eye(2), generator=gens[1])),
        ]
    )
    mixture_var(mix, np.array([1.0, 2.0]), 0.01)
    assert len(points) == len(set(points)) == 16


def test_the_engine_calls_the_laws_not_the_module_wrappers(monkeypatch):
    # the wrappers re-check a generator the model checked when it was built
    calls = []

    def counting(name):
        wrapper = getattr(elliptic, name)

        def counted(*args):
            calls.append(name)
            return wrapper(*args)

        return counted

    for name in ("marginal_tail", "marginal_tail_expectation", "quantile_multiplier"):
        monkeypatch.setattr(elliptic, name, counting(name))
    n = 20
    hookless = DensityGenerator(n, student_generator(n, 5.0).density, normalizer=1.0)
    mix = MixtureModel(
        components=[
            (w, EllipticModel(mu=np.zeros(n), sigma=np.eye(n), generator=gen))
            for w, gen in ((0.5, gaussian_generator(n)), (0.3, student_generator(n, 4.0)), (0.2, hookless))
        ]
    )
    delta = np.linspace(1.0, 2.0, n)
    risk_report(mix, delta, 0.01)
    expected_shortfall(mix, delta, 0.01)
    incremental_var(mix, delta, 0.01)
    assert calls == []


# the index of the cusped shape in _root_case, the one that is not smooth
_CUSP = 3


def _root_case(rng: random.Random):
    """A seeded (shape, f, lo, hi, xtol, rtol) with the root r of f inside [lo, hi].

    The shapes are smooth, saturated or cusped (shape ``_CUSP``), the
    cusps on brackets up to 1e60 wide (no stop within the step cap).
    Each f is 0 or at least 1e-150 in size: older scipy releases test
    signs by the product f(a) * f(b), which only differs from the sign
    bits where that product underflows.
    """
    r, k, a = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, 3.0), rng.uniform(0.0, 5.0)
    shapes = (
        lambda x: k * (x - r) * (1.0 + a * (x - r) ** 2),
        lambda x: math.expm1(min(k * (x - r), 700.0)),
        lambda x: math.tanh(k * (x - r)) + math.copysign(1e-150, x - r),
        lambda x: math.copysign(abs(x - r) ** (1.0 / 3.0) + 1e-100, x - r),
        lambda x: math.log(max(math.erfc(x - r), 5e-324)),
        lambda x: k * (x - r) ** 3 + 1e-3 * (x - r),
    )
    kind = rng.randrange(len(shapes))
    f, sign = shapes[kind], rng.choice((1.0, -1.0))
    span = 10.0 ** rng.uniform(-3.0, 60.0 if kind == _CUSP else 2.0)
    lo, hi = r - span * rng.uniform(0.01, 1.0), r + span * rng.uniform(0.01, 1.0)
    xtol = rng.choice((1e-15, 2e-12, 5e-324))
    rtol = rng.choice((8.9e-16, 1e-12, 1e-8))
    return kind, (lambda x: sign * f(x)), lo, hi, xtol, rtol


def _root_branches(run) -> set[str]:
    """The step kinds of ``elliptic._root`` that run() takes, traced by line."""
    marks = {
        "inverse quadratic": "ratio = (x3 - x1)",
        "bisection": "            t = 0.5",
    }
    lines, first = inspect.getsourcelines(elliptic._root)
    where = {
        first + i: name
        for i, line in enumerate(lines)
        for name, text in marks.items()
        if text in line
    }
    assert len(where) == len(marks)
    taken = set()

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno in where:
            taken.add(where[frame.f_lineno])
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code is elliptic._root.__code__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return taken


def test_root_agrees_with_brentq():
    # wherever scipy's brentq stops, _root stops, within its stop tolerance
    # of brentq's root, and on the smooth shapes it reads f no more often
    rng = random.Random(20250)
    cases = [_root_case(rng) for _ in range(2400)]
    calls = {"root": 0, "brentq": 0}
    stuck, smallest = 0, math.inf

    def sweep():
        nonlocal stuck, smallest
        for case in cases:
            kind, f, lo, hi, xtol, rtol = case
            ref, res = optimize.brentq(
                f, lo, hi, xtol=xtol, rtol=rtol, full_output=True, disp=False
            )
            values = []

            def counted(x):
                values.append(f(x))
                return values[-1]

            try:
                root = elliptic._root(counted, lo, hi, xtol, rtol)
            except NumericalError as exc:
                assert not res.converged, case
                assert exc.diagnostics["iterations"] == elliptic._ROOT_MAX_STEPS
                stuck += 1
                continue
            smallest = min([smallest] + [abs(v) for v in values if v != 0.0])
            if res.converged:
                assert abs(root - ref) <= 2.0 * (xtol + rtol * abs(ref)), case
            if kind != _CUSP:
                calls["root"] += len(values)
                calls["brentq"] += res.function_calls

    assert _root_branches(sweep) == {"inverse quadratic", "bisection"}
    assert 0 < stuck < len(cases)
    assert calls["root"] <= calls["brentq"]
    assert smallest >= 1e-150


def test_root_returns_a_zero_it_meets():
    # at an end without a step, and at a step without another
    for shift, want, calls in ((0.0, 0.0, 2), (1.0, 1.0, 2), (0.5, 0.5, 3)):
        points = []

        def f(x):
            points.append(x)
            return x - shift

        assert elliptic._root(f, 0.0, 1.0, 1e-15, 8.9e-16) == want
        assert len(points) == calls


def test_root_steps_onto_a_root_whose_inverse_is_quadratic():
    # x = (f / 2 + 1)^2 is quadratic in f, so the inverse quadratic through the
    # ends and the midpoint is the root itself, to rounding; one step of the
    # stop tolerance past it then closes the bracket
    for lo, hi in ((0.25, 4.0), (0.1, 9.0)):
        points = []

        def f(x):
            points.append(x)
            return 2.0 * (math.sqrt(x) - 1.0)

        root = elliptic._root(f, lo, hi, 1e-15, 8.9e-16)
        assert points[:3] == [lo, hi, lo + 0.5 * (hi - lo)]
        assert len(points) == 5 and root == points[3]
        assert abs(root - 1.0) <= 1e-15
        tol = 1e-15 + 8.9e-16 * root
        assert tol / 2.0 < abs(points[4] - root) < 2.0 * tol


def test_root_bisects_where_the_points_do_not_lie_as_a_smooth_f_places_them():
    # after the midpoint, f(1) = -0.001 lies so near f(2) = 1 against f(0) = -10
    # that the inverse quadratic is not trusted: the next point bisects [1, 2]
    points = []

    def f(x):
        points.append(x)
        return float(np.interp(x, [0.0, 1.0, 2.0], [-10.0, -0.001, 1.0]))

    elliptic._root(f, 0.0, 2.0, 1e-15, 8.9e-16)
    assert points[:4] == [0.0, 2.0, 1.0, 1.5]


def test_root_keeps_its_steps_and_its_stop_to_the_tolerance():
    # a bisection stops at the first bracket narrower than 2 (xtol + rtol |x|):
    # at width 1, not at width 2, and on the end with the smaller |f| (ties: x2)
    points = []

    def step(x):
        points.append(x)
        return 1.0 if x >= 2.5 else -1.0

    assert elliptic._root(step, 0.0, 8.0, 1.0, 0.0) == 2.0
    assert points == [0.0, 8.0, 4.0, 2.0, 3.0]
    # a root within the tolerance of an end: the inverse quadratic would step
    # onto it, but the step stops the tolerance short of the end, which closes
    # the bracket
    hi = 1.0 + 4.4e-16
    points.clear()

    def f(x):
        points.append(x)
        return 2.0 * (math.sqrt(x) - 1.0)

    assert elliptic._root(f, 0.25, hi, 1e-15, 8.9e-16) == hi
    tol = 1e-15 + 8.9e-16 * hi
    assert len(points) == 4 and tol / 2.0 < hi - points[3] < 2.0 * tol


def test_root_raises_typed_errors():
    # a nan at a step or at an end, and ends of one sign, are library errors
    def nan_inside(x):
        return math.nan if 0.0 < x < 1.0 else x - 0.5

    with pytest.raises(NumericalError) as err:
        elliptic._root(nan_inside, 0.0, 1.0, 1e-15, 8.9e-16)
    assert isinstance(err.value, EllvarError)
    assert 0.0 < err.value.diagnostics["x"] < 1.0 and err.value.diagnostics["iterations"] == 1
    with pytest.raises(NumericalError) as err:
        elliptic._root(nan_inside, 0.5, 2.0, 1e-15, 8.9e-16)
    assert err.value.diagnostics == {"x": 0.5, "iterations": 0}
    with pytest.raises(BracketError):
        elliptic._root(lambda x: x - 3.0, 0.0, 1.0, 1e-15, 8.9e-16)
    # a tail that reads nan inside its bracket fails the quantile solve the same way
    with pytest.raises(NumericalError):
        elliptic._solve_decreasing(
            lambda x: math.nan if 0.0 < x < 1.0 else 0.5 * math.exp(-10.0 * x), 0.01
        )


def test_solve_decreasing_bracket_ends():
    # a tail that never falls below alpha exhausts the doublings of its upper end
    with pytest.raises(BracketError) as err:
        elliptic._solve_decreasing(lambda x: 0.3, 0.01)
    upper = 2.0**elliptic._MAX_BRACKET_DOUBLINGS
    assert err.value.diagnostics == {"alpha": 0.01, "lower": upper / 2.0, "upper": upper}
    # an upper end whose tail is alpha exactly is the root
    assert elliptic._solve_decreasing(lambda x: 0.5 * 2.0**-x, 0.125, 0.0, 2.0) == 2.0


def test_solve_decreasing_solves_the_log_tail_to_its_stated_tolerance(monkeypatch):
    # the root of log f - log alpha within 2 (1e-15 + 8.9e-16 q), on the
    # tolerances the docstring gives; log f is linear here, so q is known
    calls = []

    def spy(f, lo, hi, xtol, rtol):
        calls.append((xtol, rtol))
        return root(f, lo, hi, xtol, rtol)

    root = elliptic._root
    monkeypatch.setattr(elliptic, "_root", spy)
    for alpha in (0.05, 1e-3, 1e-12, 1e-200):
        q = elliptic._solve_decreasing(lambda x: 0.5 * math.exp(-x), alpha)
        assert abs(q - math.log(0.5 / alpha)) <= 2.0 * (1e-15 + 8.9e-16 * q)
    assert calls == [(1e-15, 8.9e-16)] * 4


def _hook_less_deck(n):
    """Generators as the generic workload builds them: powexp, bare Student, bare normal."""
    for beta in (0.4, 0.7, 1.0):
        yield DensityGenerator(n, lambda u, b=beta: math.exp(-(u**b) / 2.0), auto_rescale=True)
    for nu in (3.0, 10.0, 30.0):
        log_norm = math.lgamma((nu + n) / 2.0) - math.lgamma(nu / 2.0) - n / 2.0 * math.log(nu * math.pi)
        yield DensityGenerator(
            n, lambda u, nu=nu: (1.0 + u / nu) ** (-(nu + n) / 2.0), normalizer=math.exp(log_norm)
        )
    yield DensityGenerator(n, lambda u: math.exp(-0.5 * u), normalizer=(2.0 * math.pi) ** (-n / 2.0))


def test_hook_less_solves_never_fall_back_to_the_adaptive_bracket(monkeypatch):
    # the fixed rule's root and slope must let Newton settle on the adaptive
    # route: a second _solve_decreasing, on that route, is the fallback, which
    # would still return a quantile that passes its residual check
    calls = []
    solve = elliptic._solve_decreasing

    def spy(f, alpha, *bracket):
        calls.append(alpha)
        return solve(f, alpha, *bracket)

    monkeypatch.setattr(elliptic, "_solve_decreasing", spy)
    fell_back = []
    for n in (1, 2, 3, 5):
        for gen in _hook_less_deck(n):
            for alpha in (0.05, 0.01, 1e-3, 1e-6):
                calls.clear()
                solve_quantile(alpha, gen)
                if calls != [alpha]:
                    fell_back.append((n, gen.name, gen.density, alpha, len(calls)))
    assert fell_back == []


def test_newton_polish_raises_typed_errors():
    def tail(x):
        return 0.5 * math.exp(-x)

    for slope in (0.0, 1.0, -math.inf, math.nan):
        with pytest.raises(NumericalError, match="slope"):
            elliptic._newton_polish(tail, 0.01, 1.0, slope)
    # from a start past the root, a flat slope steps below zero
    with pytest.raises(NumericalError, match="settle") as err:
        elliptic._newton_polish(tail, 0.01, 5.0, -1e-3)
    assert err.value.diagnostics["quantile"] < 0.0


def test_fixed_rule_raises_on_a_sum_that_is_not_finite():
    # every value of this density is finite, but not its integral
    gen = _bare_density(lambda u: 1e308)
    with pytest.raises(NumericalError, match="not finite"):
        elliptic._kernel_tail(1.0, gen, elliptic._EXP_SINH_RULE)


# points of the radial integrand: t = 0, a t whose v^2 underflows, the
# fixed rule's nodes, and the far tail
_POINTS = np.concatenate(([0.0, 1e-200], elliptic._EXP_SINH_NODES[::5], [3e3, 1e8]))


def _scalar_integrand(monkeypatch, *args, **flags):
    """The adaptive mode's integrand of _radial_integral(*args, **flags), as a function of t."""
    captured = []
    with monkeypatch.context() as patch:
        patch.setattr(
            elliptic, "integrate_semi_infinite", lambda f, lower, spec: captured.append(f) or 0.0
        )
        elliptic._radial_integral(*args, **flags)
    return captured[0]


# points x of each change of variable v = max(1, |x|) t: scale 1 from x = 0
# to its edge, and a point past it
_POINTS_AT_SCALE = {1.0: (0.0, 0.7, 1.0), 2.5: (2.5,)}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 100])
@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("negative", [False, True])
@pytest.mark.parametrize("scale", sorted(_POINTS_AT_SCALE))
def test_radial_integral_modes_agree_pointwise(monkeypatch, n, kernel, negative, scale):
    # a fixed rule with one unit weight reads the array mode at one node t,
    # times max(1, |x|) as both modes multiply their integral; the integral
    # reads |x| alone, and its callers pass negative points too; the powers
    # are those of the callers: u^((n-2)/2) on the kernel route, v^(n-2) in
    # the marginal density and v^n in the tail expectation
    powers = ((n - 2) / 2.0,) if kernel else (n - 2, n)
    for gen in (_bare(gaussian_generator(n)), _bare(student_generator(n, 4.0))):
        for x, power in itertools.product(_POINTS_AT_SCALE[scale], powers):
            args = (gen, -x if negative else x, -0.5 * n, power)
            scalar = _scalar_integrand(monkeypatch, *args, kernel=kernel)
            for k, t in enumerate(_POINTS):
                one_hot = np.zeros(len(_POINTS))
                one_hot[k] = 1.0
                array = elliptic._radial_integral(*args, kernel=kernel, quad=(_POINTS, one_hot))
                point = scale * scalar(float(t))
                assert abs(array - point) <= 1e-15 * abs(point), (gen.name, x, power, t)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_unresolved_generator_falls_back_to_the_adaptive_solve(n):
    # the kink of a compact support at u = 1 defeats the fixed rule; the solve
    # falls back to the bracketed root on the adaptive route and gives its answer
    gen = DensityGenerator(
        dimension=n, density=lambda u: max(1.0 - u, 0.0) ** 0.3, auto_rescale=True
    )
    for alpha in (0.2, 0.01, 1e-6):
        with pytest.raises(NumericalError):
            elliptic._newton_polish(
                lambda t: big_g(t, gen, route="kernel"), alpha, *elliptic._rule_quantile(gen, alpha)
            )
        reference = elliptic._solve_decreasing(lambda t: big_g(t, gen, route="kernel"), alpha)
        q = solve_quantile(alpha, gen)
        assert q == reference
        assert abs(big_g(q, gen, route="kernel") / alpha - 1.0) <= 1e-10


class _AttributeUses(ast.NodeVisitor):
    """'module:Scope.name' for every use of the named attributes in context ``ctx``."""

    def __init__(self, module: str, attrs: tuple[str, ...], ctx: type):
        self.module, self.attrs, self.ctx, self.scope, self.found = module, attrs, ctx, [], set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Attribute(self, node):
        if node.attr in self.attrs and isinstance(node.ctx, self.ctx):
            self.found.add(f"{self.module}:{'.'.join(self.scope)}")
        self.generic_visit(node)


def _attribute_uses(attrs: tuple[str, ...], ctx: type) -> set[str]:
    found = set()
    for path in sorted(Path(elliptic.__file__).parent.glob("*.py")):
        uses = _AttributeUses(path.stem, attrs, ctx)
        uses.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= uses.found
    return found


def test_only_the_radial_integrand_and_g_read_the_density():
    # g is read in two places: every quadrature through elliptic._radial_integral,
    # and point values through DensityGenerator.g
    found = _attribute_uses(("density", "_scale"), ast.Load)
    assert found == {"elliptic:_radial_integral", "elliptic:DensityGenerator.g"}


# a known law's closed forms, its draw and its tag: methods of its class alone
_CLASS_ONLY = (
    "tail",
    "tail_expectation",
    "quantile",
    "marginal_density",
    "mixing",
    "family",
    "family_params",
)


def test_laws_draws_and_tags_are_methods_never_set_on_an_instance():
    # no code in the package assigns any of them on an instance
    assert _attribute_uses(_CLASS_ONLY, ast.Store) == set()
    # each known law's class defines its own, and an instance holds only the
    # constructor's fields, the scale and (for the Student) nu
    fields = {"dimension", "density", "name", "normalizer", "auto_rescale", "_scale"}
    for gen, own, extra in (
        (student_generator(3, 4.0), set(_CLASS_ONLY), {"nu"}),
        (gaussian_generator(3), set(_CLASS_ONLY) - {"family_params"}, set()),
    ):
        assert isinstance(gen, DensityGenerator)
        assert own <= vars(type(gen)).keys()
        assert vars(gen).keys() == fields | extra
    # the tags are read-only
    for name in ("family", "family_params"):
        with pytest.raises(AttributeError):
            setattr(student_generator(1, 4.0), name, None)


# the four laws of one spherical coordinate; every other class-only name
# is the draw or the tag
_LAWS = ("tail", "tail_expectation", "quantile", "marginal_density")


@pytest.mark.parametrize("name", _CLASS_ONLY)
def test_closed_forms_and_family_are_not_constructor_options(name):
    with pytest.raises(TypeError, match=name):
        DensityGenerator(
            dimension=1, density=gaussian_generator(1).density, normalizer=1.0, **{name: None}
        )
    gen = _pearson_vii_generator()
    assert name not in vars(gen)
    if name in _LAWS or name == "mixing":
        # a generator built here takes DensityGenerator's own quadrature law
        # and its draw, which refuses to sample
        assert getattr(gen, name).__func__ is getattr(DensityGenerator, name)
    else:
        # and has no family
        assert getattr(gen, name) in (None, ())
    if name == "mixing":
        with pytest.raises(UnsupportedGeneratorError, match="pearson-vii"):
            gen.mixing(np.random.default_rng(0), 10)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "factory",
    [gaussian_generator, lambda n: student_generator(n, 5.0)],
    ids=["gaussian", "student nu=5"],
)
def test_hook_less_laws_are_the_engine_quadratures(factory, n):
    # each law of a factory's density without its closed forms is the engine's
    # quadrature, exactly, and agrees with the closed form to the bounds of the
    # route, solve and density tests
    gen = factory(n)
    bare = _bare(gen)
    for s in (0.0, 0.7, 3.0):
        assert bare.tail(s) == big_g(s, bare, route="kernel")
        assert bare.tail(s) == pytest.approx(gen.tail(s), rel=1e-9, abs=0.0)
        assert bare.tail_expectation(s) == pytest.approx(gen.tail_expectation(s), rel=1e-10, abs=0.0)
        density = bare.marginal_density(s)
        assert density == elliptic._marginal_density(s, bare, elliptic._TAIL_QUAD)
        assert density == pytest.approx(gen.marginal_density(s), rel=1e-10, abs=0.0)
    for alpha in (0.01, 0.05):
        q = bare.quantile(alpha)
        assert q == solve_quantile(alpha, bare)
        assert q == pytest.approx(gen.quantile(alpha), rel=1e-14, abs=0.0)


def test_nothing_in_the_package_reads_the_family_tag():
    # every reader calls the generator's laws, and the Student ES oracle asks
    # for a StudentGenerator and reads its nu; the tag stays for readers
    # outside the package
    assert _attribute_uses(("family", "family_params"), ast.Load) == set()
