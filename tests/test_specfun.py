"""Special-function building blocks against scipy oracles and identities."""

from __future__ import annotations

import math
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from ellvar import (
    DEFAULT_QUADRATURE,
    DensityGenerator,
    QuadratureSpec,
    beta,
    hyp2f1,
    hyp2f1_log,
    integrate_semi_infinite,
    log_gamma,
    reg_inc_beta,
)
from ellvar import elliptic, specfun
from ellvar.errors import DomainError, QuadratureError


def test_log_gamma_matches_lgamma():
    for x in (0.5, 1.0, 2.0, 7.25, 171.6, 1e4):
        assert log_gamma(x) == math.lgamma(x)


def test_log_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            log_gamma(x)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert beta(2.5, 3.5) == pytest.approx(special.beta(2.5, 3.5), rel=1e-13, abs=0.0)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13, abs=0.0)


def test_beta_symmetric():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a, b = rng.uniform(0.05, 60.0, size=2)
        assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-12, abs=0.0)


# scipy.special.betainc oracle, frozen
REG_INC_BETA_CASES = [
    (0.3, 2.0, 3.0, 0.34829999999999994),
    (0.9, 0.5, 0.5, 0.7951672353008665),
    (1e-8, 5.0, 0.5, 2.4609375102539063e-41),
    (0.42, 50.0, 0.5, 1.5085975087606624e-20),
    (0.999, 500.0, 0.5, 0.31731044730971725),
]


@pytest.mark.parametrize("x, a, b, expected", REG_INC_BETA_CASES)
def test_reg_inc_beta_oracle(x, a, b, expected):
    assert reg_inc_beta(x, a, b) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
    assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0


def test_reg_inc_beta_reflection():
    # I_x(a, b) + I_{1-x}(b, a) = 1
    rng = np.random.default_rng(42)
    for _ in range(200):
        x = rng.uniform(1e-6, 1.0 - 1e-6)
        a, b = rng.uniform(0.1, 80.0, size=2)
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert total == pytest.approx(1.0, abs=1e-13)


def test_reg_inc_beta_against_scipy_sweep():
    rng = np.random.default_rng(43)
    for _ in range(200):
        x = rng.uniform(0.0, 1.0)
        a, b = rng.uniform(0.2, 200.0, size=2)
        ours = reg_inc_beta(x, a, b)
        ref = special.betainc(a, b, x)
        assert ours == pytest.approx(ref, rel=1e-11, abs=1e-300)


def test_reg_inc_beta_rejects_bad_arguments():
    with pytest.raises(DomainError):
        reg_inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        reg_inc_beta(0.5, 1.0, -2.0)


# scipy.special.hyp2f1 oracle, frozen
HYP2F1_CASES = [
    (0.5, 1.0, 2.5, -0.7, 0.8906003200805724),
    (1.25, 0.75, 2.0, -3.0, 0.48773002228848794),
    (2.0, 1.0, 3.5, -0.01, 0.9943235345818243),
    (0.5, 2.5, 3.0, -49.0, 0.15930991740941086),
    (1.5, 1.5, 2.5, 0.0, 1.0),
]


@pytest.mark.parametrize("a, b, c, z, expected", HYP2F1_CASES)
def test_hyp2f1_oracle(a, b, c, z, expected):
    assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_hyp2f1_argument_symmetry():
    rng = np.random.default_rng(44)
    for _ in range(100):
        a, b = rng.uniform(0.1, 5.0, size=2)
        c = rng.uniform(0.5, 8.0)
        z = -rng.uniform(0.0, 40.0)
        assert hyp2f1(a, b, c, z) == pytest.approx(hyp2f1(b, a, c, z), rel=1e-12, abs=0.0)


def test_hyp2f1_against_scipy_sweep():
    rng = np.random.default_rng(45)
    for _ in range(100):
        a, b = rng.uniform(0.1, 4.0, size=2)
        c = rng.uniform(0.6, 9.0)
        z = -rng.uniform(0.0, 30.0)
        assert hyp2f1(a, b, c, z) == pytest.approx(
            special.hyp2f1(a, b, c, z), rel=1e-10, abs=0.0
        )


# mpmath oracle, frozen: z far out on the negative axis, where the Pfaff
# argument nears 1.  The first case has a - b an integer and is summed
# directly; the others take the 1 - x connection formula.
HYP2F1_FAR_CASES = [
    (0.5, 2.5, 3.5, -1e9, 3.9528470712576272e-5),
    (1.25, 0.75, 2.0, -3e6, 2.9910070094225564e-5),
    (3.0, 0.3, 1.7, -1e12, 0.00019867748131125066),
    (-1.5, 2.25, 0.8, -5e4, 43553285.284349517),
    (0.5, 500.0, 501.0, -1e11, 3.165443103255792e-6),
]


@pytest.mark.parametrize("a, b, c, z, expected", HYP2F1_FAR_CASES)
def test_hyp2f1_far_negative_oracle(a, b, c, z, expected):
    assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_hyp2f1_far_negative_against_scipy_sweep():
    # The connection formula has gamma poles where a - b is an integer;
    # draws close to one are left to the direct series and skipped here.
    rng = np.random.default_rng(46)
    checked = 0
    for _ in range(200):
        a, b = rng.uniform(0.1, 4.0, size=2)
        c = rng.uniform(0.6, 9.0)
        z = -(10.0 ** rng.uniform(1.8, 12.0))
        if abs(abs(a - b) - round(abs(a - b))) < 0.05:
            continue
        checked += 1
        expected = special.hyp2f1(a, b, c, z)
        assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-10, abs=0.0)
        if expected > 0.0:
            assert hyp2f1_log(a, b, c, z) == pytest.approx(math.log(expected), abs=1e-10)
    assert checked >= 150


def _terminating_2f1(m: int, b: float, c: float, z: float) -> float:
    """2F1(-m, b; c; z), a polynomial of degree m, summed in exact rationals."""
    b, c, z = Fraction(b), Fraction(c), Fraction(z)
    term = total = Fraction(1)
    for k in range(m):
        term *= (k - m) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    return float(total)


@pytest.mark.parametrize("m", (1, 2, 3, 5, 8))
@pytest.mark.parametrize("b, c, z", ((5.55, 11.8, -1031.4), (0.5, 2.5, -100.0), (1.5, 6.0, -1e6)))
def test_hyp2f1_terminating_series_through_the_gamma_pole(m, b, c, z):
    # a = -m puts 1/Gamma(a) of the connection formula's second term at a
    # pole, which drops that term; the first alone is the polynomial
    assert specfun._log_gamma_quotient((c,), (float(-m),)) == (0.0, -math.inf)
    assert specfun._hyp2f1_parts(-m, b, c, z)[1] != 0.0  # the connection route
    assert hyp2f1(-m, b, c, z) == pytest.approx(_terminating_2f1(m, b, c, z), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("factor, connected", ((0.99, True), (1.0, True), (1.01, False)))
def test_hyp2f1_connection_formula_is_tried_only_within_its_reach(factor, connected):
    # it is tried where 1 - x = 1 / (1 - z) is at most 1/64 (z = -63 is at
    # 1/64 exactly), and marks its route by the log scale of its gamma
    # ratios; past that the direct series sums
    z = 1.0 - 64.0 / factor
    assert (specfun._hyp2f1_parts(0.5, 1.25, 2.0, z)[1] != 0.0) is connected
    assert hyp2f1(0.5, 1.25, 2.0, z) == pytest.approx(
        special.hyp2f1(0.5, 1.25, 2.0, z), rel=1e-13, abs=0.0
    )


def test_hyp2f1_fast_series_takes_term_ratios_up_to_one_quarter():
    # the first term ratio is a b w / c: 15/64 is taken, 20/64 is refused
    w = 1.0 / 64.0
    assert specfun._fast_series(3.0, 5.0, 1.0, w) == pytest.approx(
        special.hyp2f1(3.0, 5.0, 1.0, w), rel=1e-14, abs=0.0
    )
    assert specfun._fast_series(4.0, 5.0, 1.0, w) is None


def test_hyp2f1_series_whose_first_block_ends_on_a_ratio_above_one():
    # the Pfaff series 2F1(50, 100; 150; 0.9) grows through its first block,
    # whose last term ratio is 1.22: no geometric tail estimate holds there
    # (mpmath oracle, 40 digits)
    assert hyp2f1(50.0, 50.0, 150.0, -9.0) == pytest.approx(6.374294042082827e-26, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("a, m, c, z", ((-2.5, 2, 1.25, -1e4), (-3.5, 3, 2.5, -1e6), (-0.3, 1, 0.75, -500.0)))
def test_hyp2f1_terminating_series_through_the_first_terms_gamma_pole(a, m, c, z):
    # with a <= b = -m the Pfaff transformation keeps a and takes c - b, so
    # 1/Gamma(c - (c - b)) of the connection formula's first term is at a pole
    # and the second term alone is the polynomial
    b = float(-m)
    assert specfun._log_gamma_quotient((c,), (c - (c - b),)) == (0.0, -math.inf)
    assert specfun._hyp2f1_parts(a, b, c, z)[1] != 0.0  # the connection route
    assert hyp2f1(a, b, c, z) == pytest.approx(_terminating_2f1(m, a, c, z), rel=1e-13, abs=0.0)


def test_hyp2f1_at_a_zero_parameter_far_out_is_one():
    # 1/Gamma(0) is at its pole too, so the connection formula's second term drops
    assert specfun._log_gamma_quotient((1.0,), (0.0,)) == (0.0, -math.inf)
    assert specfun._hyp2f1_parts(0.0, 5.55, 11.8, -1031.4)[1] != 0.0  # the connection route
    assert hyp2f1(0.0, 5.55, 11.8, -1031.4) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_hyp2f1_domain_restrictions():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 1.0, 2.0, 0.3)  # only z <= 0 supported
    for c in (-2.0, 0.0):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 1.0, c, -0.3)  # c at a pole


def test_hyp2f1_log_consistency():
    for a, b, c, z in ((0.5, 1.0, 3.0, -5.0), (3.0, 2.5, 6.0, -0.4)):
        assert math.exp(hyp2f1_log(a, b, c, z)) == pytest.approx(
            hyp2f1(a, b, c, z), rel=1e-12, abs=0.0
        )


def test_hyp2f1_log_refuses_a_value_that_is_not_positive():
    # 2F1(-1, -1; 1; z) = 1 + z is -1 at z = -2 and exactly 0 at z = -1; its
    # Pfaff series ends on an exact zero term
    for z in (-2.0, -1.0):
        with pytest.raises(DomainError, match="not positive"):
            hyp2f1_log(-1.0, -1.0, 1.0, z)


def test_hyp2f1_log_below_double_range():
    # mpmath oracle: 2F1(30, 60, 90, -1e12) = 7.589e-354, under the double
    # floor; only the log form can represent it.
    assert hyp2f1_log(30.0, 60.0, 90.0, -1e12) == pytest.approx(
        -813.08842228376939, rel=1e-13, abs=0.0
    )


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=-1e-9)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=5)


def test_integrate_semi_infinite_known_values():
    assert integrate_semi_infinite(lambda x: math.exp(-x), 0.0) == pytest.approx(
        1.0, rel=1e-12, abs=0.0
    )
    assert integrate_semi_infinite(lambda x: x ** -2.0, 1.0) == pytest.approx(
        1.0, rel=1e-12, abs=0.0
    )
    gauss_half = integrate_semi_infinite(
        lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), 0.0
    )
    assert gauss_half == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_integrate_semi_infinite_shifted_lower_bound():
    # integral of exp(-x) from 3 to infinity
    assert integrate_semi_infinite(lambda x: math.exp(-x), 3.0) == pytest.approx(
        math.exp(-3.0), rel=1e-12, abs=0.0
    )


def test_integrate_semi_infinite_divergent_raises():
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), 0.0)


def test_integrate_semi_infinite_reports_achieved_error():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=10)
    with pytest.raises(QuadratureError) as info:
        integrate_semi_infinite(lambda x: math.sin(x) ** 2 / (1.0 + x ** 4), 0.0, spec)
    assert "achieved_abs_error" in info.value.diagnostics


class _QagieSpy:
    """Stands in for the QUADPACK extension and keeps what each QAGI call returned."""

    def __init__(self, module):
        self.module, self.returned = module, []

    def _qagie(self, *args):
        out = self.module._qagie(*args)
        self.returned.append(out)
        return out


def _subnormal_inner_integrand():
    """An inner integrand of the double route whose integral is subnormal.

    The generator is a real generic request's (seed 2, alpha 0.05), where a
    floor of 5e-324 on the inner integrals made QUADPACK report roundoff;
    its marginal density at z = 630 is 6.5e-308, an integral of 1.0e-310.
    """
    gen = DensityGenerator(
        dimension=5, density=lambda u: math.exp(-(u**0.5635656537547452) / 2), auto_rescale=True
    )
    captured = []
    real = elliptic.integrate_semi_infinite

    def spy(f, lower, spec):
        captured.append((f, lower, spec))
        return real(f, lower, spec)

    elliptic.integrate_semi_infinite = spy
    try:
        elliptic._marginal_density(630.0, gen, elliptic._INNER_QUAD)
    finally:
        elliptic.integrate_semi_infinite = real
    return captured[0]


def _quadpack_cases():
    """(integrand, lower limit, spec) of converging integrals, the subnormal one last."""
    tail = elliptic._TAIL_QUAD
    return [
        (lambda x: math.exp(-x), 0.0, DEFAULT_QUADRATURE),
        (lambda x: x**-2.0, 1.0, DEFAULT_QUADRATURE),
        (lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), 0.0, DEFAULT_QUADRATURE),
        (lambda x: (1.0 + x) ** -3.5, -0.5, tail),
        (lambda x: x * (1.0 + x * x / 3.0) ** -2.0, 2.0, tail),
        (lambda x: math.exp(-x), 3.0, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_subdivisions=10)),
        _subnormal_inner_integrand(),
    ]


def test_integrate_semi_infinite_is_scipy_quad_bit_for_bit(monkeypatch):
    # the package calls QAGI as quad(f, lower, inf) does: the same value and
    # error estimate, each to the bit, with QAGI's return code 0
    from scipy.integrate import quad

    for f, lower, spec in _quadpack_cases():
        spy = _QagieSpy(specfun._quadpack or specfun._load_quadpack())
        monkeypatch.setattr(specfun, "_quadpack", spy)
        value = integrate_semi_infinite(f, lower, spec)
        ref = quad(
            f, lower, np.inf, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=spec.max_subdivisions, full_output=True,
        )
        assert len(ref) == 3  # quad converged, with no message
        assert value.hex() == ref[0].hex()
        assert [(v.hex(), e.hex(), ier) for v, e, ier in spy.returned] == [
            (ref[0].hex(), ref[1].hex(), 0)
        ]
    assert 0.0 < value < sys.float_info.min  # the inner case's integral is subnormal


def test_integrate_semi_infinite_raises_where_quad_reports_a_failure():
    from scipy.integrate import quad

    f = lambda x: math.sin(x) ** 2 / (1.0 + x**4)  # noqa: E731
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=10)
    ref = quad(f, 0.0, np.inf, epsabs=1e-16, epsrel=1e-13, limit=10, full_output=True)
    assert len(ref) == 4  # quad's message: QAGI returned a code other than 0
    with pytest.raises(QuadratureError, match="did not converge") as info:
        integrate_semi_infinite(f, 0.0, spec)
    found = info.value.diagnostics
    assert found["value"].hex() == ref[0].hex()
    assert found["achieved_abs_error"].hex() == ref[1].hex()
    assert found["ier"] == 1 and found["lower"] == 0.0


def _log_times_exp(x):
    return math.log(x) * math.exp(-x) if x > 0.0 else 0.0


@pytest.mark.parametrize(
    "f, spec, ier",
    (
        (lambda x: 1.0 / (1.0 + x), DEFAULT_QUADRATURE, 1),  # the subdivision budget spent
        (_log_times_exp, QuadratureSpec(rel_tol=1e-14, abs_tol=5e-324), 2),  # roundoff
        (math.sin, DEFAULT_QUADRATURE, 4),  # the extrapolation does not converge
        (lambda x: math.sin(x * x), DEFAULT_QUADRATURE, 5),  # probably divergent
    ),
)
def test_quadrature_error_carries_quadpacks_return_code(f, spec, ier):
    with pytest.raises(QuadratureError) as info:
        integrate_semi_infinite(f, 0.0, spec)
    assert info.value.diagnostics["ier"] == ier


def test_integrate_semi_infinite_raises_on_a_value_that_is_not_finite():
    with pytest.raises(QuadratureError, match="the value is not finite") as info:
        integrate_semi_infinite(lambda x: math.inf, 0.0)
    assert info.value.diagnostics["ier"] == 0


def test_an_error_the_integrand_raises_passes_through():
    def integrand(x):
        raise DomainError(f"bad point {x}")

    with pytest.raises(DomainError, match="bad point"):
        integrate_semi_infinite(integrand, 0.0)


def test_quadpack_is_loaded_once_and_a_registered_module_is_reused(monkeypatch):
    loaded = specfun._load_quadpack()
    assert sys.modules[specfun._QUADPACK] is loaded is specfun._quadpack
    assert specfun._load_quadpack() is loaded
    # both are restored when the test ends
    monkeypatch.setattr(specfun, "_quadpack", None)
    stand_in = _QagieSpy(loaded)
    monkeypatch.setitem(sys.modules, specfun._QUADPACK, stand_in)
    assert specfun._load_quadpack() is stand_in is specfun._quadpack


def test_quadpack_comes_through_scipy_integrate_where_its_file_is_not_found(monkeypatch):
    def f(x):
        return math.exp(-x)

    expected = integrate_semi_infinite(f, 3.0)
    monkeypatch.setattr(specfun, "PathFinder", types.SimpleNamespace(find_spec=lambda name, path: None))
    monkeypatch.delitem(sys.modules, specfun._QUADPACK)
    monkeypatch.setattr(specfun, "_quadpack", None)
    found = specfun._load_quadpack()
    assert found is specfun._quadpack and found.__name__ == specfun._QUADPACK
    assert integrate_semi_infinite(f, 3.0).hex() == expected.hex()


# a fresh interpreter runs the hook-less engine, then imports scipy.integrate
_FRESH_RUN = """
import math, sys
import numpy as np
from ellvar import (DensityGenerator, EllipticModel, big_g, clear_quantile_cache,
    expected_shortfall, marginal_tail_expectation, solve_quantile, specfun, var)
STACK = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")

def numbers():
    clear_quantile_cache()
    gen = DensityGenerator(3, lambda u: math.exp(-u ** 0.7 / 2.0), auto_rescale=True)
    q = solve_quantile(0.01, gen)
    model = EllipticModel(mu=np.zeros(3), sigma=np.eye(3), generator=gen)
    d = np.array([1.0, -0.5, 2.0])
    values = [q, big_g(q, gen, "kernel"), big_g(q, gen, "double"),
              marginal_tail_expectation(gen, q), var(model, d, 0.01), expected_shortfall(model, d, 0.01),
              specfun.integrate_semi_infinite(lambda x: math.exp(-x * x / 2.0), 0.5)]
    return [v.hex() for v in values]

first = numbers()
print(sorted(m for m in STACK if m in sys.modules))
import scipy.integrate
print(sys.modules[specfun._QUADPACK] is specfun._quadpack is scipy.integrate._quadpack_py._quadpack)
quad = scipy.integrate.quad(lambda x: math.exp(-x * x / 2.0), 0.5, np.inf, epsabs=1e-14, epsrel=1e-10, limit=200)
print(first == numbers(), quad[0].hex() == first[-1])
"""


@pytest.fixture(scope="module")
def fresh_run():
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_hook_less_runs_load_quadpack_without_scipy_integrate(fresh_run):
    # a generator, a quantile, both routes, a tail expectation, VaR and ES
    # load the QUADPACK extension alone, not scipy.integrate and its stack
    assert fresh_run[0] == "[]"


def test_scipy_integrate_imported_later_shares_the_quadpack_module(fresh_run):
    # and the package's numbers, and quad's, are the same after that import
    assert fresh_run[1:] == ["True", "True True"]


def test_default_quadrature_tolerances():
    assert DEFAULT_QUADRATURE.rel_tol == 1e-10
    assert DEFAULT_QUADRATURE.abs_tol == 1e-14
    assert DEFAULT_QUADRATURE.max_subdivisions == 200
