"""Delta-equivalent construction, risk reports, and VaR decomposition."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ellvar import (
    EllipticModel,
    IncrementalVar,
    MixtureModel,
    Position,
    RiskReport,
    StudentParams,
    business_unit_deltas,
    delta_equivalents,
    equity_deltas,
    expected_shortfall,
    gaussian_generator,
    incremental_var,
    mixture_var,
    risk_report,
    student_generator,
    student_quantile,
    var,
)
from ellvar.errors import DimensionError, DomainError


def test_position_validation():
    Position(spot=100.0, sensitivity=-0.4, label="idx")
    with pytest.raises(DomainError):
        Position(spot=0.0, sensitivity=1.0)
    with pytest.raises(DomainError):
        Position(spot=-5.0, sensitivity=1.0)
    with pytest.raises(DomainError):
        Position(spot=100.0, sensitivity=math.nan)


def test_delta_equivalents_matches_finite_difference():
    # book value V(X) = sum c_i sqrt(X_i); the first-order pnl for a joint
    # return vector r is sum (c_i sqrt(X_i) / 2) r_i, so delta_i must equal
    # X_i dV/dX_i = c_i sqrt(X_i) / 2.
    spots = np.array([100.0, 64.0, 25.0])
    coeffs = np.array([2.0, -1.5, 4.0])

    def value(x):
        return float(coeffs @ np.sqrt(x))

    positions = [
        Position(spot=s, sensitivity=c / (2.0 * math.sqrt(s)))
        for s, c in zip(spots, coeffs)
    ]
    deltas = delta_equivalents(positions)

    rng = np.random.default_rng(61)
    for _ in range(20):
        r = rng.uniform(-1e-5, 1e-5, size=3)
        pnl = value(spots * (1.0 + r)) - value(spots)
        assert pnl == pytest.approx(float(deltas @ r), abs=1e-9)


def test_delta_equivalents_requires_positions():
    with pytest.raises(DomainError):
        delta_equivalents([])


def test_equity_deltas_arithmetic():
    got = equity_deltas([100, -50, 20], [10.0, 40.0, 2.5])
    assert np.allclose(got, [1000.0, -2000.0, 50.0])


def test_equity_deltas_linearization_error_is_second_order():
    shares = np.array([100.0])
    price = np.array([50.0])
    d = equity_deltas(shares, price)
    for r in (0.01, -0.01, 0.005):
        exact = shares[0] * price[0] * r
        assert float(d[0] * r) == pytest.approx(exact, rel=1e-12)


def test_equity_deltas_validation():
    with pytest.raises(DimensionError):
        equity_deltas([1.0, 2.0], [10.0])
    with pytest.raises(DomainError):
        equity_deltas([1.0], [-10.0])
    with pytest.raises(DomainError):
        equity_deltas([math.inf], [10.0])


def test_business_unit_deltas():
    assert np.array_equal(business_unit_deltas(4), np.ones(4))
    with pytest.raises(DomainError):
        business_unit_deltas(0)
    with pytest.raises(DomainError):
        business_unit_deltas(2.0)  # type: ignore[arg-type]


def test_business_unit_var_uncorrelated_vs_comonotone():
    # three units, unit dispersion each: independent-factor VaR scales with
    # sqrt(3), near-perfect correlation with 3.
    d = business_unit_deltas(3)
    q = student_quantile(0.05, 5.0)

    indep = StudentParams(nu=5.0, mu=np.zeros(3), sigma=np.eye(3)).to_model()
    assert var(indep, d, 0.05) == pytest.approx(q * math.sqrt(3.0), rel=1e-12)

    rho = 1.0 - 1e-12
    tight = np.full((3, 3), rho)
    np.fill_diagonal(tight, 1.0)
    common = StudentParams(nu=5.0, mu=np.zeros(3), sigma=tight).to_model()
    assert var(common, d, 0.05) == pytest.approx(3.0 * q, rel=1e-9)


def test_incremental_var_single_factor():
    model = EllipticModel(
        generator=student_generator(2, 5.0),
        mu=np.zeros(2),
        sigma=np.array([[4.0, 0.0], [0.0, 1.0]]),
    )
    inc = incremental_var(model, np.array([1.0, 0.0]), 0.05)
    assert isinstance(inc, IncrementalVar)
    assert inc.total == pytest.approx(var(model, np.array([1.0, 0.0]), 0.05), rel=1e-14)
    assert inc.contributions[0] == pytest.approx(inc.total, rel=1e-14)
    assert inc.contributions[1] == 0.0


def test_incremental_var_euler_identity():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        sigma = a @ a.T + n * np.eye(n)
        d = rng.normal(size=n)
        model = EllipticModel(
            generator=student_generator(n, 7.0), mu=np.zeros(n), sigma=sigma
        )
        inc = incremental_var(model, d, 0.01)
        assert float(np.sum(inc.contributions)) == pytest.approx(inc.total, rel=1e-12)


def test_incremental_var_matches_finite_differences():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    model = EllipticModel(
        generator=student_generator(2, 6.0), mu=np.zeros(2), sigma=sigma
    )
    d = np.array([3.0, -1.0])
    inc = incremental_var(model, d, 0.025)
    h = 1e-6
    for i in range(2):
        bump = np.zeros(2)
        bump[i] = h
        fd = (
            var(model, d + bump, 0.025) - var(model, d - bump, 0.025)
        ) / (2.0 * h)
        assert inc.gamma[i] == pytest.approx(fd, rel=1e-6)


def test_incremental_var_rejects_noncentered():
    model = EllipticModel(
        generator=gaussian_generator(2), mu=np.array([0.1, 0.0]), sigma=np.eye(2)
    )
    with pytest.raises(DomainError):
        incremental_var(model, np.ones(2), 0.05)


def test_incremental_var_mixture_route():
    comps = [
        (0.7, EllipticModel(generator=gaussian_generator(2), mu=np.zeros(2), sigma=np.eye(2))),
        (
            0.3,
            EllipticModel(
                generator=student_generator(2, 5.0),
                mu=np.zeros(2),
                sigma=np.array([[2.0, 0.5], [0.5, 1.5]]),
            ),
        ),
    ]
    mix = MixtureModel(components=comps)
    d = np.array([1.0, 2.0])
    inc = incremental_var(mix, d, 0.05)
    assert inc.total == pytest.approx(mixture_var(mix, d, 0.05), rel=1e-12)
    # finite-difference gradient, so the Euler identity holds to ~1e-6
    assert float(np.sum(inc.contributions)) == pytest.approx(inc.total, rel=1e-6)


def test_incremental_var_rejects_unknown_model():
    with pytest.raises(DomainError):
        incremental_var(object(), np.ones(2), 0.05)


def test_risk_report_invariants():
    with pytest.raises(DomainError):
        RiskReport(
            model="gaussian", alpha=0.05, mean=0.0, volatility=0.0,
            quantile=1.6, var=1.6, es=2.0,
        )
    with pytest.raises(DomainError):
        RiskReport(
            model="gaussian", alpha=0.05, mean=0.0, volatility=1.0,
            quantile=1.6, var=1.6, es=1.0,
        )


def test_risk_report_dict_round_trip():
    report = RiskReport(
        model="student(nu=5)", alpha=0.05, mean=-0.25, volatility=3.0,
        quantile=2.015, var=6.295, es=8.67,
    )
    again = RiskReport.from_dict(report.to_dict())
    assert again == report


def test_risk_report_student_dispatch():
    params = StudentParams(nu=5.0, mu=np.zeros(2), sigma=np.eye(2))
    d = np.array([1.0, 0.0])
    report = risk_report(params, d, 0.05)
    assert report.model == "student(nu=5)"
    assert report.var == pytest.approx(student_quantile(0.05, 5.0), rel=1e-12)
    assert report.quantile == pytest.approx(student_quantile(0.05, 5.0), rel=1e-12)
    assert report.volatility == pytest.approx(1.0)
    assert report.es > report.var


def test_risk_report_mixture_dispatch():
    comps = [
        (0.8, EllipticModel(generator=gaussian_generator(2), mu=np.zeros(2), sigma=np.eye(2))),
        (
            0.2,
            EllipticModel(
                generator=student_generator(2, 5.0), mu=np.zeros(2), sigma=2.0 * np.eye(2)
            ),
        ),
    ]
    mix = MixtureModel(components=comps)
    d = np.array([1.0, 1.0])
    report = risk_report(mix, d, 0.01)
    assert report.model == "mixture(0.8*gaussian, 0.2*student(nu=5))"
    assert report.var == pytest.approx(mixture_var(mix, d, 0.01), rel=1e-12)
    assert report.es > report.var
    # pooled second moment of the scale: 0.8 * 2 + 0.2 * 4
    assert report.volatility == pytest.approx(math.sqrt(0.8 * 2.0 + 0.2 * 4.0), rel=1e-12)


def test_risk_report_nonzero_mean_shifts_var():
    model = EllipticModel(
        generator=gaussian_generator(1), mu=np.array([0.5]), sigma=np.eye(1)
    )
    d = np.array([1.0])
    report = risk_report(model, d, 0.05)
    assert report.mean == pytest.approx(0.5)
    assert report.var == pytest.approx(-0.5 + report.quantile, rel=1e-12)
    assert report.es == pytest.approx(
        expected_shortfall(model, d, 0.05), rel=1e-14
    )


def test_risk_report_dimension_mismatch():
    params = StudentParams(nu=5.0, mu=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(DimensionError):
        risk_report(params, np.ones(3), 0.05)


def test_risk_report_rejects_unknown_model():
    with pytest.raises(DomainError):
        risk_report("not a model", np.ones(2), 0.05)


@pytest.mark.parametrize("nu", [None, 3.0, 5.0])
def test_risk_report_large_book_matches_scipy(nu):
    # at n = 1000 the generator normalizers leave the double range unless
    # they stay in log space
    from scipy import stats

    n = 1000
    rng = np.random.default_rng(83)
    loadings = rng.normal(size=(n, 3))
    sigma = loadings @ loadings.T / 3.0 + np.diag(rng.uniform(0.5, 1.5, n))
    d = rng.normal(size=n)
    mu = np.zeros(n)
    if nu is None:
        model = EllipticModel(mu=mu, sigma=sigma, generator=gaussian_generator(n))
        q = stats.norm.isf(0.01)
        tail_mean = stats.norm.pdf(q)
    else:
        model = StudentParams(nu=nu, mu=mu, sigma=sigma)
        q = stats.t.isf(0.01, nu)
        tail_mean = stats.t.pdf(q, nu) * (nu + q * q) / (nu - 1.0)
    vol = math.sqrt(float(d @ sigma @ d))
    report = risk_report(model, d, 0.01)
    assert report.var == pytest.approx(q * vol, rel=1e-12)
    assert report.es == pytest.approx(vol * tail_mean / 0.01, rel=1e-12)
