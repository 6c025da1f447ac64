"""Generic elliptic engine: generators, marginal tails, quantiles, VaR/ES."""

from __future__ import annotations

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from ellvar import (
    DensityGenerator,
    EllipticModel,
    MixtureModel,
    big_g,
    clear_quantile_cache,
    expected_shortfall,
    gaussian_generator,
    marginal_tail,
    marginal_tail_expectation,
    mixture_var,
    quantile_multiplier,
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
)


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


def _bare_density(density):
    return DensityGenerator(dimension=2, density=density, normalizer=1.0 / (2.0 * math.pi))


# g and every integrand read the density, each with the same two checks, on
# the adaptive route and on the fixed rule, whose nodes reach past u = 4
_DENSITY_PATHS = {
    "mass check": lambda density: DensityGenerator(dimension=2, density=density),
    "kernel": lambda density: big_g(1.0, _bare_density(density), route="kernel"),
    "fixed rule": lambda density: elliptic._kernel_tail(
        1.0, _bare_density(density), elliptic._exp_sinh_rule(1.0)
    ),
    "double": lambda density: big_g(1.0, _bare_density(density), route="double"),
    "g": lambda density: _bare_density(density).g(5.0),
    "tail expectation": lambda density: marginal_tail_expectation(_bare_density(density), 1.0),
    "solve_quantile": lambda density: solve_quantile(0.01, _bare_density(density)),
}


@pytest.mark.parametrize("path", sorted(_DENSITY_PATHS))
@pytest.mark.parametrize(
    "density, error", [(_negative_past_4, DomainError), (_overflowing_past_4, NumericalError)]
)
def test_density_checks_hold_in_every_integrand(path, density, error):
    with pytest.raises(error, match="density"):
        _DENSITY_PATHS[path](density)


def test_generator_auto_rescale():
    gen = DensityGenerator(
        dimension=2, density=lambda u: math.exp(-u), auto_rescale=True
    )
    # rescaled shape is the bivariate normal with variance 1/2 per axis
    assert gen.g(0.0) == pytest.approx(1.0 / math.pi, rel=1e-9)


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


@pytest.mark.parametrize("bad", ["x", None, gaussian_generator(2).density])
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
        assert big_g(s, gen, route="double") == pytest.approx(ref, rel=1e-9)
        assert big_g(s, gen, route="kernel") == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("nu", [2.5, 5.0, 12.0])
def test_student_big_g_both_routes(n, nu):
    gen = student_generator(n, nu)
    for s in (0.0, 0.5, 2.0, 6.0, -1.2):
        ref = stats.t.sf(s, nu)
        assert big_g(s, gen, route="double") == pytest.approx(ref, rel=1e-9)
        assert big_g(s, gen, route="kernel") == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_kernel_route_small_and_large_s(n):
    # relative accuracy holds both next to s = 0 and deep in the tail
    for s in (1e-3, 1e-2, 8.0):
        gauss = big_g(s, gaussian_generator(n), route="kernel")
        assert gauss == pytest.approx(stats.norm.sf(s), rel=1e-9)
        student = big_g(s, student_generator(n, 5.0), route="kernel")
        assert student == pytest.approx(stats.t.sf(s, 5.0), rel=1e-9)


def _bare(gen):
    """The generator's density without its closed forms."""
    return DensityGenerator(dimension=gen.dimension, density=gen.density, normalizer=1.0)


def test_double_route_is_relative_in_the_deep_tail():
    # the outer integral is held to its relative tolerance alone (an absolute
    # floor of 1e-13 left these 3.9e-9 and 2.8e-8 off); the inner one keeps
    # its floor, which still leaves the Gaussian 4.3e-8 off at s = 10
    gauss = big_g(7.0, _bare(gaussian_generator(3)), route="double")
    assert gauss == pytest.approx(stats.norm.sf(7.0), rel=1e-10, abs=0.0)
    student = big_g(10.0, _bare(student_generator(3, 30.0)), route="double")
    assert student == pytest.approx(stats.t.sf(10.0, 30.0), rel=1e-10, abs=0.0)


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
        assert q == pytest.approx(-special.ndtri(alpha), rel=1e-12)
        assert marginal_tail_expectation(gen, q) == pytest.approx(stats.norm.pdf(q), rel=1e-10)


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
    assert gen.g(0.0) == pytest.approx((2.0 * math.pi) ** -50, rel=1e-9)


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
        assert q == pytest.approx(ref, rel=1e-10)


def test_big_g_routes_agree_for_custom_generator():
    gen = _pearson_vii_generator()
    for s in (0.2, 1.0, 3.0):
        d = big_g(s, gen, route="double")
        k = big_g(s, gen, route="kernel")
        assert d == pytest.approx(k, abs=1e-9)
    # total mass splits evenly around zero
    assert big_g(0.0, gen) == pytest.approx(0.5, rel=1e-9)


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
    assert marginal_tail(gen, 1.3) == pytest.approx(stats.norm.sf(1.3), rel=1e-12)
    # E[Z 1{Z >= t}] = phi(t) for the standard normal, at any sign of t
    for t in (-1.0, 0.0, 2.0):
        assert marginal_tail_expectation(gen, t) == pytest.approx(
            stats.norm.pdf(t), rel=1e-10
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
        assert marginal_tail_expectation(gen, t) == pytest.approx(ref, rel=1e-10)


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
        assert var(model, d, alpha) == pytest.approx(expected, rel=1e-10)


def test_expected_shortfall_gaussian_closed_form():
    gen = gaussian_generator(1)
    model = EllipticModel(mu=np.zeros(1), sigma=np.eye(1), generator=gen)
    d = np.ones(1)
    for alpha in (0.01, 0.025, 0.05):
        z = stats.norm.ppf(1.0 - alpha)
        assert expected_shortfall(model, d, alpha) == pytest.approx(
            stats.norm.pdf(z) / alpha, rel=1e-10
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
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


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
    tail = elliptic.marginal_tail

    def counting_big_g(s, gen, route="double"):
        points.append(("big_g", s))
        return big_g_route(s, gen, route)

    def counting_tail(gen, s):
        points.append((gen.name, s))
        return tail(gen, s)

    monkeypatch.setattr(elliptic, "big_g", counting_big_g)
    monkeypatch.setattr(elliptic, "marginal_tail", counting_tail)
    hookless = DensityGenerator(
        dimension=3, density=student_generator(3, 5.0).density, normalizer=1.0
    )
    q = solve_quantile(0.01, hookless)
    assert len(points) == len(set(points)) <= 3
    assert ("big_g", q) in points

    points.clear()
    mix = MixtureModel(
        components=[
            (0.7, EllipticModel(mu=np.zeros(2), sigma=np.eye(2), generator=gaussian_generator(2))),
            (
                0.3,
                EllipticModel(
                    mu=np.zeros(2), sigma=2.0 * np.eye(2), generator=student_generator(2, 4.0)
                ),
            ),
        ]
    )
    mixture_var(mix, np.array([1.0, 2.0]), 0.01)
    assert len(points) == len(set(points)) == 16


# points of the radial integrand: v = 0, a v whose square underflows, the
# fixed rule's nodes, and the far tail
_POINTS = np.concatenate(([0.0, 1e-200], elliptic._EXP_SINH_NODES[::5], [3e3, 1e8]))


def _scalar_integrand(monkeypatch, *args, **flags):
    """The adaptive mode's integrand of _radial_integral(*args, **flags), as a function of v."""
    captured = []
    with monkeypatch.context() as patch:
        patch.setattr(
            elliptic, "integrate_semi_infinite", lambda f, lower, spec: captured.append(f) or 0.0
        )
        elliptic._radial_integral(*args, **flags)
    return captured[0]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 100])
@pytest.mark.parametrize("of_u", [False, True])
@pytest.mark.parametrize("share", [False, True])
@pytest.mark.parametrize("stretch", [1.0, 2.5])
def test_radial_integral_modes_agree_pointwise(monkeypatch, n, of_u, share, stretch):
    # a fixed rule with one unit weight reads the array mode at one node; the
    # powers are those of the callers: u^((n-2)/2) on the kernel route, v^(n-2)
    # in the marginal density and v^n in the tail expectation
    powers = ((n - 2) / 2.0,) if of_u else (n - 2, n)
    for gen in (_bare(gaussian_generator(n)), _bare(student_generator(n, 4.0))):
        for c, power in itertools.product((0.0, 2.25, 9.0), powers):
            args = (gen, c, -0.5 * n, power)
            flags = dict(stretch=stretch, of_u=of_u, share=share)
            scalar = _scalar_integrand(monkeypatch, *args, **flags)
            for k, v in enumerate(_POINTS):
                one_hot = np.zeros(len(_POINTS))
                one_hot[k] = 1.0
                array = elliptic._radial_integral(*args, **flags, quad=(_POINTS, one_hot))
                point = scalar(float(v))
                assert abs(array - point) <= 1e-15 * abs(point), (gen.name, c, power, v)


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


# a known law's closed forms, its draw and its tag, set by its factory alone
_FACTORY_ONLY = (
    "tail",
    "tail_expectation",
    "quantile",
    "marginal_density",
    "mixing",
    "family",
    "family_params",
)


def test_only_the_two_factories_set_closed_forms_and_family():
    found = _attribute_uses(_FACTORY_ONLY, ast.Store)
    assert found == {"student:student_generator", "student:gaussian_generator"}


# the four laws of one spherical coordinate; every other factory-only field
# is the draw or the tag
_LAWS = ("tail", "tail_expectation", "quantile", "marginal_density")


@pytest.mark.parametrize("name", _FACTORY_ONLY)
def test_closed_forms_and_family_are_not_constructor_options(name):
    with pytest.raises(TypeError, match=name):
        DensityGenerator(
            dimension=1, density=gaussian_generator(1).density, normalizer=1.0, **{name: None}
        )
    gen = _pearson_vii_generator()
    if name in _LAWS:
        # a generator built here takes DensityGenerator's own quadrature law
        assert name not in vars(gen)
        assert getattr(gen, name).__func__ is getattr(DensityGenerator, name)
    else:
        # and has no draw and no family
        assert getattr(gen, name) in (None, ())


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


def test_only_the_closed_form_student_es_reads_the_family_tag():
    # every other reader calls the generator's laws; the Student ES
    # oracle reads nu from the tag, which stays for readers outside the package
    found = _attribute_uses(("family", "family_params"), ast.Load)
    assert found == {"student:student_expected_shortfall"}
