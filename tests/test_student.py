"""Student-t closed forms: CDF complement, quantiles, tail expectations, ES."""

from __future__ import annotations

import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ellvar import (
    DensityGenerator,
    EllipticModel,
    GaussianGenerator,
    MixtureModel,
    StudentGenerator,
    StudentParams,
    dispersion_from_covariance,
    expected_shortfall,
    gaussian_generator,
    mixture_expected_shortfall,
    quantile_multiplier,
    student_big_g,
    student_es_multiplier,
    student_expected_shortfall,
    student_generator,
    student_quantile,
    student_tail_expectation,
    student_var,
    var,
)
from ellvar import elliptic
from ellvar.errors import DimensionError, DomainError, NumericalError

# scipy.stats.t.sf oracle, frozen
BIG_G_CASES = [
    (0.5, 3.0, 0.3257239824240755),
    (1.0, 1.5, 0.22556768363835528),
    (2.5, 7.0, 0.020496109292876437),
    (10.0, 4.0, 0.00028100181135799556),
    (25.0, 2.5, 0.00022929692737030398),
]


@pytest.mark.parametrize("s, nu, expected", BIG_G_CASES)
def test_student_big_g_oracle(s, nu, expected):
    assert student_big_g(s, nu) == pytest.approx(expected, rel=1e-12)


# mpmath (50 digits, exact s) oracle, frozen: small s, where nu/(nu + s^2)
# rounds near 1, and two tails near 1e-12
BETA_ROUTE_MPMATH_CASES = [
    (0.0001, 2.5, 0.49996381912768145),
    (0.0001, 850.0, 0.4999601175038948),
    (0.0001, 1000.0, 0.49996011574433513),
    (0.0002, 2.5, 0.49992763825586944),
    (0.0002, 850.0, 0.49992023500818894),
    (0.0002, 1000.0, 0.49992023148906956),
    (0.01, 2.5, 0.49638199717895415),
    (0.01, 850.0, 0.4960118169308535),
    (0.01, 1000.0, 0.4960116409660936),
    (0.3, 2.5, 0.39367118574759863),
    (0.3, 850.0, 0.3821252525566366),
    (0.3, 1000.0, 0.38211975208362203),
    (10000.0, 3.0, 1.102657751147905e-12),
    (40.0, 10.0, 1.1404288715428774e-12),
]


@pytest.mark.parametrize("s, nu, expected", BETA_ROUTE_MPMATH_CASES)
def test_student_big_g_beta_route_mpmath(s, nu, expected):
    assert student_big_g(s, nu, method="beta") == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_student_big_g_symmetry_and_center():
    assert student_big_g(0.0, 5.0) == 0.5
    for s, nu in ((0.7, 3.0), (2.2, 11.0)):
        assert student_big_g(-s, nu) == pytest.approx(
            1.0 - student_big_g(s, nu), rel=1e-14
        )


def test_student_big_g_against_scipy_sweep():
    rng = np.random.default_rng(29)
    for _ in range(100):
        s = rng.uniform(-8.0, 8.0)
        nu = rng.uniform(1.1, 200.0)
        assert student_big_g(s, nu) == pytest.approx(
            stats.t.sf(s, nu), rel=1e-11, abs=1e-15
        )


def test_student_big_g_methods_agree():
    rng = np.random.default_rng(31)
    for _ in range(40):
        s = rng.uniform(0.1, 20.0)
        nu = rng.uniform(2.0, 500.0)
        hyp = student_big_g(s, nu, method="hyp2f1")
        bet = student_big_g(s, nu, method="beta")
        assert abs(hyp - bet) <= 1e-12


def test_student_big_g_hyp2f1_route_small_s():
    # s << 1 puts the hypergeometric argument -nu/s^2 far out on the
    # negative axis; the route must still agree with scipy there.
    rng = np.random.default_rng(32)
    cases = [(0.01, 1000.0), (0.001, 2.5)]
    cases += [(1e-4 * 1e3 ** rng.uniform(), 2.5 * 400.0 ** rng.uniform()) for _ in range(60)]
    for s, nu in cases:
        assert student_big_g(s, nu, method="hyp2f1") == pytest.approx(
            stats.t.sf(s, nu), rel=1e-11
        )


# mpmath oracle, frozen: G(s) = 1/2 I_x(nu/2, 1/2) at x = nu/(nu + s^2), at
# points where scipy.special.hyp2f1(1/2, nu/2; 1 + nu/2; x) is nan, so the
# route's own 2F1 cannot be swapped for scipy's.  The first three take the
# 1 - x connection formula, the last three the direct series.
HYP2F1_ROUTE_CASES = [
    (0.001289, 754.0562, 0.49948593400494123),
    (0.020841, 393.8142, 0.4916915233413324),
    (0.006514, 443.0647, 0.49740277430622726),
    (1.424672, 729.8732, 0.07733973363477377),
    (1.003364, 588.8798, 0.15804868578728573),
    (1.028302, 395.0559, 0.15221848131945828),
]


@pytest.mark.parametrize("s, nu, expected", HYP2F1_ROUTE_CASES)
def test_student_big_g_hyp2f1_route_near_argument_one(s, nu, expected):
    assert student_big_g(s, nu, method="hyp2f1") == pytest.approx(expected, rel=1e-11)


# mpmath (50 digits) oracle, frozen: large nu, where the route's argument
# -nu/s^2 maps within about 1e-6 of 1 and the connection formula's first
# series has 2 nu + 8 as the a-priori bound on its ratio checks.  The
# route's lgamma constants keep it to about 1e-8 at nu = 1e7.
HYP2F1_LARGE_NU_CASES = [
    (0.1, 5e4, 0.4601723631835029),
    (0.5, 5e4, 0.30853863892672922),
    (0.1, 1e5, 0.46017226295336311),
    (0.5, 1e5, 0.30853808882720902),
    (0.1, 1e6, 0.46017217274602158),
    (0.5, 1e6, 0.30853759373618569),
    (0.1, 1e7, 0.46017216372527619),
    (0.5, 1e7, 0.30853754422700754),
]


def _fastest_of_three(call) -> float:
    """The shortest of three wall times of call(), in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("s, nu, expected", HYP2F1_LARGE_NU_CASES)
def test_student_big_g_hyp2f1_route_at_large_nu(s, nu, expected):
    assert student_big_g(s, nu, method="hyp2f1") == pytest.approx(expected, rel=1e-7)
    assert _fastest_of_three(lambda: student_big_g(s, nu, method="hyp2f1")) <= 0.02


def test_student_big_g_hyp2f1_route_fails_promptly_past_its_term_budget():
    # at nu = 1e6, s = 1 the connection series are slow and the direct series
    # would need about 1e7 terms, past its 8e6 budget: it raises once its own
    # tail estimate shows that, not after summing the budget
    def call():
        with pytest.raises(NumericalError):
            student_big_g(1.0, 1e6, method="hyp2f1")

    assert _fastest_of_three(call) <= 0.02


def test_only_the_t_normalisers_call_log_gamma():
    # both tail routes and every density read the t constant from _t_log_norm,
    # which sums log1p steps on the half step _log_gamma_ratio, so no other
    # function forms a gamma ratio anew
    tree = ast.parse(Path(elliptic.__file__).with_name("student.py").read_text(encoding="utf-8"))
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "log_gamma"
    }
    assert callers == {"_log_gamma_ratio"}


def test_student_big_g_rejects_unknown_method():
    with pytest.raises(DomainError):
        student_big_g(1.0, 5.0, method="series")


def test_student_quantile_reference_cells():
    # spot values from the published multiplier table
    assert student_quantile(0.01, 2.0) == pytest.approx(6.96456, abs=5e-4)
    assert student_quantile(0.05, 5.0) == pytest.approx(2.01505, abs=5e-4)
    assert student_quantile(0.01, 300.0) == pytest.approx(2.33884, abs=5e-4)


def test_student_quantile_matches_scipy():
    for alpha in (0.01, 0.025, 0.05, 0.2):
        for nu in (2.0, 4.5, 30.0, 1000.0):
            assert student_quantile(alpha, nu) == pytest.approx(
                stats.t.ppf(1.0 - alpha, nu), abs=1e-10
            )


def test_student_quantile_round_trip():
    rng = np.random.default_rng(37)
    for _ in range(50):
        alpha = rng.uniform(0.001, 0.499)
        nu = rng.uniform(1.5, 400.0)
        q = student_quantile(alpha, nu)
        assert abs(student_big_g(q, nu) - alpha) <= 1e-12


def test_student_quantile_rejects_bad_alpha():
    for alpha in (0.0, 0.5, -0.2):
        with pytest.raises(DomainError):
            student_quantile(alpha, 5.0)


def test_cython_kernels_match_the_ufuncs_bit_for_bit():
    # the closed forms call stdtr, stdtrit and ndtri of cython_special, the
    # scalar C kernels behind the scipy.special ufuncs
    from scipy import special
    from scipy.special import cython_special

    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64)

    ss = np.concatenate(([0.0, 5e-324, 1e-300, 1e100], np.logspace(-3.0, 3.0, 25)))
    ss = np.concatenate((ss, -ss))
    alphas = np.concatenate((np.logspace(-300.0, math.log10(0.49), 120), [0.01, 0.05, 0.49]))
    for nu in np.logspace(math.log10(1.01), 8.0, 40):
        fast = [cython_special.stdtr(nu, float(s)) for s in ss]
        assert np.array_equal(bits(fast), bits(special.stdtr(nu, ss))), nu
        fast = [cython_special.stdtrit(nu, float(a)) for a in alphas]
        assert np.array_equal(bits(fast), bits(special.stdtrit(nu, alphas))), nu
    fast = [cython_special.ndtri(float(a)) for a in alphas]
    assert np.array_equal(bits(fast), bits(special.ndtri(alphas)))


def test_student_tail_expectation_formula():
    # oracle: f(t) (nu + t^2) / (nu - 1), and the integral definition
    from scipy import integrate

    for t in (-2.0, 0.0, 1.0, 4.0):
        for nu in (3.0, 9.0):
            ref = stats.t.pdf(t, nu) * (nu + t * t) / (nu - 1.0)
            assert student_tail_expectation(t, nu) == pytest.approx(ref, rel=1e-12)
    num, _ = integrate.quad(lambda z: z * stats.t.pdf(z, 5.0), 1.3, np.inf)
    assert student_tail_expectation(1.3, 5.0) == pytest.approx(num, rel=1e-9)


# mpmath (50 digits) oracle of f(t) (nu + t^2) / (nu - 1), frozen: t so far
# out that f(t) falls below the normal doubles, and past 1.3e154 nu + t^2
# overflows; nu = 5 and 50 give 1.2e-799 and 1.7e-9759, which round to 0
HUGE_T_TAIL_EXPECTATION_CASES = [
    (1e200, 2.01, 1.0015888293556568e-202),
    (-1e200, 2.01, 1.0015888293556568e-202),
    (1e300, 2.01, 1.0015888293557058e-303),
    (1e120, 2.01, 6.319598280312458e-122),
    (1e200, 2.5, 1.198899531805287e-300),
    (1e200, 5.0, 0.0),
    (1e200, 50.0, 0.0),
]


@pytest.mark.parametrize("t, nu, expected", HUGE_T_TAIL_EXPECTATION_CASES)
def test_student_tail_expectation_at_huge_t(t, nu, expected):
    assert student_tail_expectation(t, nu) == pytest.approx(expected, rel=1e-12, abs=0.0)


# mpmath (50 digits) oracles, frozen, at large nu: where the gamma ratios of
# log_gamma differences kept 5.5e-10 of the tail expectation at nu = 1e6 and
# 2.3e-7 of the ES multiplier at nu = 1e8, and their asymptotic series keep
# 1e-12.  Below nu/2 = 1e3 (nu = 1300, 1500) the plain difference
# (nu/2) log nu - x log(q^2 + nu) of its power terms kept 1.1e-12 to
# 1.3e-12 and their log1p form keeps 5e-13.  The multiplier is exact at the
# given q, a frozen student_quantile.
LARGE_NU_TAIL_EXPECTATION_CASES = [
    (0.0, 1000.0, 0.39924179911297114),
    (3.0, 1000.0, 0.004545675907538693),
    (30.0, 1000.0, 2.3110658920177584e-140),
    (0.0, 2001.0, 0.39909188687370795),
    (3.0, 2001.0, 0.004488529820303642),
    (30.0, 2001.0, 1.9972513926743687e-162),
    (0.0, 10000.0, 0.3989722041895266),
    (3.0, 10000.0, 0.004443157774908786),
    (30.0, 10000.0, 3.070196596618229e-188),
    (0.0, 1000000.0, 0.39894257960845464),
    (3.0, 1000000.0, 0.0044319614248874185),
    (30.0, 1000000.0, 1.8050148577721752e-196),
    (0.0, 100000000.0, 0.3989422833934998),
    (3.0, 100000000.0, 0.004431849542059434),
    (30.0, 100000000.0, 1.4766399297458766e-196),
]
LARGE_NU_ES_MULTIPLIER_CASES = [
    (0.01, 1300.0, 2.3292197802155754, 2.6695325098684775),
    (0.001, 1300.0, 3.0965133050353058, 3.375234304685912),
    (0.05, 1500.0, 1.6458701045425264, 2.0646762880320804),
    (0.01, 1000.0, 2.330082674755513, 2.6708306715321095),
    (1e-06, 1000.0, 4.781608620458351, 4.980174029106841),
    (0.01, 2001.0, 2.328212908706989, 2.668018146118905),
    (1e-06, 2001.0, 4.767473102880805, 4.964200794475353),
    (0.01, 10000.0, 2.3267208386694755, 2.665774823449367),
    (1e-06, 10000.0, 4.75622968505678, 4.951500810698309),
    (0.01, 1000000.0, 2.3263516031208056, 2.665219825232525),
    (1e-06, 1000000.0, 4.75345234827968, 4.94836437993616),
    (0.01, 100000000.0, 2.3263479113315837, 2.6652142763945603),
    (1e-06, 100000000.0, 4.753424589216037, 4.94833303319401),
]


@pytest.mark.parametrize("t, nu, expected", LARGE_NU_TAIL_EXPECTATION_CASES)
def test_student_tail_expectation_at_large_nu(t, nu, expected):
    assert student_tail_expectation(t, nu) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha, nu, q, expected", LARGE_NU_ES_MULTIPLIER_CASES)
def test_student_es_multiplier_at_large_nu(alpha, nu, q, expected):
    assert student_es_multiplier(alpha, nu, quantile=q) == pytest.approx(expected, rel=1e-12, abs=0.0)


# mpmath (50 digits) oracles, frozen, of the n-variate t constant
# lgamma((nu + n)/2) - lgamma(nu/2) - n/2 log(nu pi) at even n and nu/2
# below 1e3, where the plain difference of log_gamma values was 3.1e-13 to
# 1.25e-12 off; the sum of log1p steps is within 6e-14.  An error e in the
# log is a relative error e of the density.
T_LOG_NORM_CASES = [
    (2, 900.0, -1.8378770664093456),
    (2, 1600.0, -1.8378770664093456),
    (50, 900.0, -45.292039914071914),
    (50, 1999.0, -45.649199426539305),
    (1000, 50.0, 177.91031095576542),
    (1000, 900.0, -709.4585561327375),
    (1000, 1600.0, -788.021166660451),
]


@pytest.mark.parametrize("n, nu, expected", T_LOG_NORM_CASES)
def test_t_log_norm_keeps_its_digits_below_large_nu(n, nu, expected):
    from ellvar.student import _t_log_norm

    assert abs(_t_log_norm(nu, n) - expected) <= 2e-13


# mpmath (50 digits) oracles, frozen, of the n-variate Student density at
# u = 1, where a difference of log_gamma values of size nu log nu kept only
# 4.5e-8 of it at nu = 1e8 and n = 300; the closed form's sum of log1p
# steps keeps 1e-12.
LARGE_NU_DENSITY_CASES = [
    (2, 1e4, 0.096525113296827377),
    (5, 1e4, 0.0061301092611904773),
    (300, 1e4, 1.0244373249253311e-119),
    (2, 1e6, 0.096532280230848762),
    (5, 1e6, 0.0061291992475363816),
    (300, 1e6, 1.1628213155273587e-120),
    (2, 1e8, 0.096532351906061269),
    (5, 1e8, 0.0061291901457062607),
    (300, 1e8, 1.1375458743866734e-120),
]


@pytest.mark.parametrize("n, nu, expected", LARGE_NU_DENSITY_CASES)
def test_student_generator_density_at_large_nu(n, nu, expected):
    density = student_generator(n, nu).density(1.0)
    assert density == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_student_tail_expectation_is_the_plain_product_at_ordinary_t():
    from ellvar.student import _student_log_pdf

    for nu in (2.01, 5.0, 50.0):
        for t in (-30.0, -1.5, 0.0, 0.7, 4.0, 1e3):
            plain = math.exp(_student_log_pdf(t, nu)) * (nu + t * t) / (nu - 1.0)
            assert plain > 0.0
            assert student_tail_expectation(t, nu) == plain


def test_mixture_expected_shortfall_at_a_huge_var_is_finite():
    gauss = EllipticModel(mu=np.full(2, 0.01), sigma=np.eye(2), generator=gaussian_generator(2))
    student = StudentParams(nu=4.0, mu=np.zeros(2), sigma=2.0 * np.eye(2))
    mix = MixtureModel(components=[(0.6, gauss), (0.4, student)])
    d = np.array([1.0, 1.0])
    # far out every partial expectation and tail vanishes; far in, every tail
    # is 1 and ES is -(1/alpha) sum_k w_k delta.mu_k
    assert mixture_expected_shortfall(mix, d, 0.05, var=1e300) == 0.0
    far_in = mixture_expected_shortfall(mix, d, 0.05, var=-1e300)
    assert far_in == pytest.approx(-0.6 * 0.02 / 0.05, rel=1e-15)


# univariate oracle es = f(q) (nu + q^2) / (alpha (nu - 1)), frozen
ES_MULTIPLIER_CASES = [
    (0.01, 2.0, 14.071247279470292),
    (0.01, 3.0, 7.003082036242112),
    (0.05, 3.0, 3.8742675177192942),
    (0.01, 5.0, 4.452429111817763),
    (0.05, 5.0, 2.8901289462730744),
    (0.01, 10.0, 3.3632514750145672),
    (0.05, 10.0, 2.408401041846861),
    (0.01, 100.0, 2.7224381085980878),
    (0.01, 1000.0, 2.6708306715311148),
]


@pytest.mark.parametrize("alpha, nu, expected", ES_MULTIPLIER_CASES)
def test_student_es_multiplier_oracle(alpha, nu, expected):
    assert student_es_multiplier(alpha, nu) == pytest.approx(expected, rel=1e-11)


def test_student_es_multiplier_accepts_precomputed_quantile():
    q = student_quantile(0.025, 7.0)
    assert student_es_multiplier(0.025, 7.0, quantile=q) == pytest.approx(
        student_es_multiplier(0.025, 7.0), rel=1e-14
    )


def test_student_es_multiplier_no_overflow_at_large_nu():
    # the nu^{nu/2} prefactor overflows a plain evaluation around nu ~ 150
    for nu in (150.0, 500.0, 1000.0):
        q = stats.t.ppf(0.99, nu)
        ref = stats.t.pdf(q, nu) * (nu + q * q) / (0.01 * (nu - 1.0))
        assert student_es_multiplier(0.01, nu) == pytest.approx(ref, rel=1e-10)


# the closed forms a law's class defines over DensityGenerator's quadratures
_CLOSED_FORMS = {"tail", "tail_expectation", "quantile", "marginal_density"}


def test_student_generator_mass_and_hooks():
    from scipy import integrate

    for n, nu in ((1, 3.0), (2, 5.0), (3, 8.0)):
        gen = student_generator(n, nu)
        area = (
            2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        )
        mass, _ = integrate.quad(
            lambda r: area * r ** (n - 1) * gen.g(r * r), 0.0, np.inf
        )
        assert mass == pytest.approx(1.0, rel=1e-9)
        assert type(gen) is StudentGenerator and gen.nu == nu
        assert _CLOSED_FORMS <= vars(StudentGenerator).keys()
        assert not _CLOSED_FORMS & vars(gen).keys()
        assert gen.family == "student"
        assert gen.family_params == (nu,)


def test_gaussian_generator_hooks():
    gen = gaussian_generator(2)
    assert type(gen) is GaussianGenerator
    assert _CLOSED_FORMS <= vars(GaussianGenerator).keys()
    assert not _CLOSED_FORMS & vars(gen).keys()
    assert (gen.family, gen.family_params) == ("gaussian", ())
    assert gen.tail(1.1) == pytest.approx(stats.norm.sf(1.1), rel=1e-13)
    assert quantile_multiplier(gen, 0.025) == pytest.approx(
        stats.norm.ppf(0.975), abs=1e-10
    )


# (law, factory of a dimension, scipy's density of one coordinate)
_MARGINAL_DENSITIES = [
    ("student nu=3", lambda n: student_generator(n, 3.0), lambda z: stats.t.pdf(z, 3.0)),
    ("student nu=30", lambda n: student_generator(n, 30.0), lambda z: stats.t.pdf(z, 30.0)),
    ("gaussian", gaussian_generator, stats.norm.pdf),
]


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize(
    "factory, reference",
    [law[1:] for law in _MARGINAL_DENSITIES],
    ids=[law[0] for law in _MARGINAL_DENSITIES],
)
def test_marginal_density_hook_matches_scipy_and_quadrature(factory, reference, n):
    gen = factory(n)
    # the same law without its closed forms takes the engine's quadrature
    bare = DensityGenerator(n, gen.density, name="bare", normalizer=1.0)
    for z in (0.0, 0.5, 3.0, 30.0):
        closed = gen.marginal_density(z)
        assert closed == pytest.approx(reference(z), rel=1e-10, abs=0.0)
        assert bare.marginal_density(z) == pytest.approx(closed, rel=1e-10, abs=0.0)


def test_mixing_draws_are_the_normal_variance_mixture_factors():
    # gamma shapes nu / 2 below and above 1, and a near-normal nu; the stream
    # ends where the chi-square draw leaves it
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    for nu in (1.01, 1.5, 4.5, 1e4):
        factors = student_generator(3, nu).mixing(rng, 1_000)
        assert np.array_equal(factors, np.sqrt(nu / twin.chisquare(nu, size=1_000))), nu
        assert rng.bit_generator.state == twin.bit_generator.state
    # the Gaussian draws nothing and leaves the stream where it was
    before = rng.bit_generator.state
    assert gaussian_generator(3).mixing(rng, 1_000) is None
    assert rng.bit_generator.state == before


def test_student_params_validation_and_covariance():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    params = StudentParams(nu=5.0, mu=np.zeros(2), sigma=sigma)
    assert params.dimension == 2
    assert np.allclose(params.covariance, (5.0 / 3.0) * sigma)
    with pytest.raises(DomainError):
        StudentParams(nu=2.0, mu=np.zeros(2), sigma=sigma)
    assert repr(StudentParams(nu=5.0, mu=np.zeros(2), sigma=np.eye(2))) == (
        "StudentParams(nu=5.0, mu=array([0., 0.]), sigma=array([[1., 0.],\n       [0., 1.]]))"
    )


def test_dispersion_from_covariance_round_trip():
    cov = np.array([[1.5, -0.2], [-0.2, 0.8]])
    disp = dispersion_from_covariance(cov, 7.0)
    assert np.allclose(disp, (5.0 / 7.0) * cov)
    params = StudentParams(nu=7.0, mu=np.zeros(2), sigma=disp)
    assert np.allclose(params.covariance, cov, rtol=1e-14)
    with pytest.raises(DomainError):
        dispersion_from_covariance(cov, 2.0)


def test_student_var_reduces_to_quantile_times_vol():
    sigma = np.array([[4.0, 1.0], [1.0, 2.0]])
    mu = np.array([0.01, -0.03])
    params = StudentParams(nu=6.0, mu=mu, sigma=sigma)
    d = np.array([2.0, -1.0])
    vol = math.sqrt(float(d @ sigma @ d))
    mean = float(d @ mu)
    expected = -mean + student_quantile(0.025, 6.0) * vol
    assert student_var(params, d, 0.025) == pytest.approx(expected, rel=1e-12)


def test_student_expected_shortfall_closed_vs_engine():
    sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
    params = StudentParams(nu=8.0, mu=np.array([0.002, 0.0]), sigma=sigma)
    d = np.array([1.0, 3.0])
    closed = student_expected_shortfall(params, d, 0.01)
    engine = expected_shortfall(params, d, 0.01)
    assert closed == pytest.approx(engine, rel=1e-12)
    assert closed > student_var(params, d, 0.01)


def test_student_expected_shortfall_reads_nu_from_the_generator():
    sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
    mu = np.array([0.002, 0.0])
    d = np.array([1.0, 3.0])
    params = StudentParams(nu=8.0, mu=mu, sigma=sigma)
    plain = EllipticModel(mu=mu, sigma=sigma, generator=student_generator(2, 8.0))
    single = MixtureModel(components=[(1.0, plain)])
    closed = student_expected_shortfall(params, d, 0.01)
    assert student_expected_shortfall(plain, d, 0.01) == closed
    assert student_expected_shortfall(single, d, 0.01) == closed


@pytest.mark.parametrize("kind", ["gaussian", "mixture", "not a model"])
def test_student_expected_shortfall_rejects_other_models(kind):
    gauss = EllipticModel(mu=np.zeros(2), sigma=np.eye(2), generator=gaussian_generator(2))
    model = {
        "gaussian": gauss,
        "mixture": MixtureModel(
            components=[(0.5, gauss), (0.5, StudentParams(nu=5.0, mu=np.zeros(2), sigma=np.eye(2)))]
        ),
        "not a model": {"nu": 5.0},
    }[kind]
    with pytest.raises(DomainError):
        student_expected_shortfall(model, np.ones(2), 0.05)


def test_student_to_model_round_trip():
    params = StudentParams(nu=4.0, mu=np.zeros(3), sigma=np.eye(3))
    # a StudentParams is already an EllipticModel: the converter it once had is gone
    assert not hasattr(params, "to_model")
    assert isinstance(params, EllipticModel)
    d = np.array([1.0, 1.0, 1.0])
    assert var(params, d, 0.05) == pytest.approx(
        student_var(params, d, 0.05), rel=1e-14
    )


def test_student_dimension_mismatch():
    params = StudentParams(nu=5.0, mu=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(DimensionError):
        student_var(params, np.ones(3), 0.05)
    with pytest.raises(DimensionError):
        student_expected_shortfall(params, np.ones(3), 0.05)
