"""Special-function building blocks against scipy oracles and identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from ellvar import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    beta,
    hyp2f1,
    hyp2f1_log,
    integrate_semi_infinite,
    log_gamma,
    reg_inc_beta,
)
from ellvar.errors import DomainError, QuadratureError


def test_log_gamma_matches_lgamma():
    for x in (0.5, 1.0, 2.0, 7.25, 171.6, 1e4):
        assert log_gamma(x) == math.lgamma(x)


def test_log_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            log_gamma(x)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert beta(2.5, 3.5) == pytest.approx(special.beta(2.5, 3.5), rel=1e-13)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_symmetric():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a, b = rng.uniform(0.05, 60.0, size=2)
        assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-12)


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
    assert reg_inc_beta(x, a, b) == pytest.approx(expected, rel=1e-12)


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
    assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-12)


def test_hyp2f1_argument_symmetry():
    rng = np.random.default_rng(44)
    for _ in range(100):
        a, b = rng.uniform(0.1, 5.0, size=2)
        c = rng.uniform(0.5, 8.0)
        z = -rng.uniform(0.0, 40.0)
        assert hyp2f1(a, b, c, z) == pytest.approx(hyp2f1(b, a, c, z), rel=1e-12)


def test_hyp2f1_against_scipy_sweep():
    rng = np.random.default_rng(45)
    for _ in range(100):
        a, b = rng.uniform(0.1, 4.0, size=2)
        c = rng.uniform(0.6, 9.0)
        z = -rng.uniform(0.0, 30.0)
        assert hyp2f1(a, b, c, z) == pytest.approx(
            special.hyp2f1(a, b, c, z), rel=1e-10
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
    assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-12)


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
        assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-10)
        if expected > 0.0:
            assert hyp2f1_log(a, b, c, z) == pytest.approx(math.log(expected), abs=1e-10)
    assert checked >= 150


def test_hyp2f1_domain_restrictions():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 1.0, 2.0, 0.3)  # only z <= 0 supported
    with pytest.raises(DomainError):
        hyp2f1(0.5, 1.0, -2.0, -0.3)  # c at a pole


def test_hyp2f1_log_consistency():
    for a, b, c, z in ((0.5, 1.0, 3.0, -5.0), (3.0, 2.5, 6.0, -0.4)):
        assert math.exp(hyp2f1_log(a, b, c, z)) == pytest.approx(
            hyp2f1(a, b, c, z), rel=1e-12
        )


def test_hyp2f1_log_refuses_a_value_that_is_not_positive():
    # 2F1(-1, -1; 1; z) = 1 + z is -1 at z = -2; its Pfaff series ends on an exact zero term
    with pytest.raises(DomainError, match="not positive"):
        hyp2f1_log(-1.0, -1.0, 1.0, -2.0)


def test_hyp2f1_log_below_double_range():
    # mpmath oracle: 2F1(30, 60, 90, -1e12) = 7.589e-354, under the double
    # floor; only the log form can represent it.
    assert hyp2f1_log(30.0, 60.0, 90.0, -1e12) == pytest.approx(
        -813.08842228376939, rel=1e-13
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
        1.0, rel=1e-12
    )
    assert integrate_semi_infinite(lambda x: x ** -2.0, 1.0) == pytest.approx(
        1.0, rel=1e-12
    )
    gauss_half = integrate_semi_infinite(
        lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), 0.0
    )
    assert gauss_half == pytest.approx(0.5, rel=1e-12)


def test_integrate_semi_infinite_shifted_lower_bound():
    # integral of exp(-x) from 3 to infinity
    assert integrate_semi_infinite(lambda x: math.exp(-x), 3.0) == pytest.approx(
        math.exp(-3.0), rel=1e-12
    )


def test_integrate_semi_infinite_divergent_raises():
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), 0.0)


def test_integrate_semi_infinite_reports_achieved_error():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=10)
    with pytest.raises(QuadratureError) as info:
        integrate_semi_infinite(lambda x: math.sin(x) ** 2 / (1.0 + x ** 4), 0.0, spec)
    assert "achieved_abs_error" in info.value.diagnostics


def test_default_quadrature_tolerances():
    assert DEFAULT_QUADRATURE.rel_tol == 1e-10
    assert DEFAULT_QUADRATURE.abs_tol == 1e-14
    assert DEFAULT_QUADRATURE.max_subdivisions == 200
