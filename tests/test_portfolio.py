"""Delta-equivalent construction, risk reports, and VaR decomposition."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ellvar import (
    DensityGenerator,
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
    mixture_expected_shortfall,
    mixture_var,
    risk_report,
    simulate_pnl,
    student_expected_shortfall,
    student_generator,
    student_quantile,
    student_var,
    var,
)
from ellvar.errors import DimensionError, DomainError, NumericalError


def test_position_validation():
    Position(spot=100.0, sensitivity=-0.4, label="idx")
    # any positive spot, however small, is a spot
    Position(spot=1e-300, sensitivity=1.0)
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
        assert float(d[0] * r) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_equity_deltas_validation():
    with pytest.raises(DimensionError):
        equity_deltas([1.0, 2.0], [10.0])
    with pytest.raises(DomainError):
        equity_deltas([1.0], [-10.0])
    with pytest.raises(DomainError, match="prices must be positive"):
        equity_deltas([1.0], [0.0])
    assert equity_deltas([3.0], [0.5])[0] == 1.5
    with pytest.raises(DomainError):
        equity_deltas([math.inf], [10.0])


def test_business_unit_deltas():
    assert np.array_equal(business_unit_deltas(4), np.ones(4))
    assert np.array_equal(business_unit_deltas(1), np.ones(1))
    with pytest.raises(DomainError):
        business_unit_deltas(0)
    with pytest.raises(DomainError):
        business_unit_deltas(2.0)  # type: ignore[arg-type]


def test_business_unit_var_uncorrelated_vs_comonotone():
    # three units, unit dispersion each: independent-factor VaR scales with
    # sqrt(3), near-perfect correlation with 3.
    d = business_unit_deltas(3)
    q = student_quantile(0.05, 5.0)

    indep = StudentParams(nu=5.0, mu=np.zeros(3), sigma=np.eye(3))
    assert var(indep, d, 0.05) == pytest.approx(q * math.sqrt(3.0), rel=1e-12, abs=0.0)

    rho = 1.0 - 1e-12
    tight = np.full((3, 3), rho)
    np.fill_diagonal(tight, 1.0)
    common = StudentParams(nu=5.0, mu=np.zeros(3), sigma=tight)
    assert var(common, d, 0.05) == pytest.approx(3.0 * q, rel=1e-9, abs=0.0)


def test_incremental_var_single_factor():
    model = EllipticModel(
        generator=student_generator(2, 5.0),
        mu=np.zeros(2),
        sigma=np.array([[4.0, 0.0], [0.0, 1.0]]),
    )
    inc = incremental_var(model, np.array([1.0, 0.0]), 0.05)
    assert isinstance(inc, IncrementalVar)
    assert inc.total == pytest.approx(var(model, np.array([1.0, 0.0]), 0.05), rel=1e-14, abs=0.0)
    assert inc.contributions[0] == pytest.approx(inc.total, rel=1e-14, abs=0.0)
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
        assert float(np.sum(inc.contributions)) == pytest.approx(inc.total, rel=1e-12, abs=0.0)


def _hookless_student(n: int, nu: float) -> DensityGenerator:
    return DensityGenerator(dimension=n, density=student_generator(n, nu).density, normalizer=1.0)


FD_SIGMA = np.array([[2.0, 0.6], [0.6, 1.0]])
FD_MODELS = {
    "student_centered": lambda: EllipticModel(
        generator=student_generator(2, 6.0), mu=np.zeros(2), sigma=FD_SIGMA
    ),
    "gaussian_located": lambda: EllipticModel(
        generator=gaussian_generator(2), mu=np.array([0.3, -0.2]), sigma=FD_SIGMA
    ),
    "mixture_means_differ": lambda: MixtureModel(
        components=[
            (
                0.7,
                EllipticModel(
                    generator=gaussian_generator(2), mu=np.array([0.1, 0.0]), sigma=np.eye(2)
                ),
            ),
            (
                0.3,
                EllipticModel(
                    generator=student_generator(2, 4.0),
                    mu=np.array([-0.4, 0.2]),
                    sigma=np.array([[2.0, 0.5], [0.5, 1.5]]),
                ),
            ),
        ]
    ),
    "mixture_hookless": lambda: MixtureModel(
        components=[
            (
                0.6,
                EllipticModel(generator=gaussian_generator(2), mu=np.zeros(2), sigma=np.eye(2)),
            ),
            (
                0.4,
                EllipticModel(
                    generator=_hookless_student(2, 5.0),
                    mu=np.array([0.2, -0.1]),
                    sigma=np.array([[1.5, -0.3], [-0.3, 2.0]]),
                ),
            ),
        ]
    ),
}


@pytest.mark.parametrize("name", sorted(FD_MODELS))
def test_incremental_var_matches_finite_differences(name):
    model = FD_MODELS[name]()
    d = np.array([3.0, -1.0])
    inc = incremental_var(model, d, 0.025)
    h = 1e-6
    for i in range(2):
        bump = np.zeros(2)
        bump[i] = h
        fd = (
            risk_report(model, d + bump, 0.025).var - risk_report(model, d - bump, 0.025).var
        ) / (2.0 * h)
        assert inc.gamma[i] == pytest.approx(fd, rel=1e-6, abs=0.0)
    assert float(np.sum(inc.contributions)) == pytest.approx(inc.total, rel=1e-12, abs=0.0)


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
    assert inc.total == pytest.approx(mixture_var(mix, d, 0.05), rel=1e-12, abs=0.0)
    assert float(np.sum(inc.contributions)) == pytest.approx(inc.total, rel=1e-12, abs=0.0)


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
    # the ES >= VaR slack is relative to VaR: a book of VaR 1.6e-12 may not
    # report an ES below it by half its size
    with pytest.raises(DomainError):
        RiskReport(
            model="gaussian", alpha=0.05, mean=0.0, volatility=1e-12,
            quantile=1.6, var=1.6e-12, es=0.8e-12,
        )
    # an ES below VaR by the slack itself, 1e-9 of VaR, passes; by 1.2e-9 it does not
    fields = dict(model="gaussian", alpha=0.05, mean=0.0, volatility=1.0, quantile=1.0)
    RiskReport(**fields, var=1.0, es=1.0 - 1e-9)
    with pytest.raises(DomainError):
        RiskReport(**fields, var=1.0, es=1.0 - 1.2e-9)



def test_risk_report_refuses_a_volatility_that_rounds_to_zero():
    # on a book of the smallest double, VaR 0.74 of it rounds to it, the vol 0.32 to 0
    model = EllipticModel(
        generator=gaussian_generator(1), mu=np.zeros(1), sigma=np.array([[0.1]])
    )
    delta = np.array([5e-324])
    assert var(model, delta, 0.01) == incremental_var(model, delta, 0.01).total == 5e-324
    with pytest.raises(NumericalError, match="volatility rounds to 0") as err:
        risk_report(model, delta, 0.01)
    assert err.value.diagnostics == {"unit_value": math.sqrt(0.4), "exponent": -1075}

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
    assert report.var == pytest.approx(student_quantile(0.05, 5.0), rel=1e-12, abs=0.0)
    assert report.quantile == pytest.approx(student_quantile(0.05, 5.0), rel=1e-12, abs=0.0)
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
    # the report and the mixture functions take the same path over the rows
    assert report.var == mixture_var(mix, d, 0.01)
    assert report.es == mixture_expected_shortfall(mix, d, 0.01)
    assert report.es > report.var
    # pooled second moment of the scale: 0.8 * 2 + 0.2 * 4
    assert report.volatility == pytest.approx(
        math.sqrt(0.8 * 2.0 + 0.2 * 4.0), rel=1e-12, abs=0.0
    )


def test_risk_report_mixture_mean_and_quantile():
    gauss = EllipticModel(
        generator=gaussian_generator(2), mu=np.array([0.1, -0.2]), sigma=np.eye(2)
    )
    student = StudentParams(nu=5.0, mu=np.array([0.3, 0.0]), sigma=2.0 * np.eye(2))
    mix = MixtureModel(components=[(0.8, gauss), (0.2, student)])
    report = risk_report(mix, np.ones(2), 0.01)
    # E[pnl] = 0.8 * (0.1 - 0.2) + 0.2 * 0.3, and the quantile is (VaR + mean) / vol
    assert report.mean == pytest.approx(-0.02, rel=1e-12, abs=0.0)
    assert report.quantile == (report.var + report.mean) / report.volatility


def test_risk_report_nonzero_mean_shifts_var():
    model = EllipticModel(
        generator=gaussian_generator(1), mu=np.array([0.5]), sigma=np.eye(1)
    )
    d = np.array([1.0])
    report = risk_report(model, d, 0.05)
    assert report.mean == pytest.approx(0.5)
    assert report.var == pytest.approx(-0.5 + report.quantile, rel=1e-12, abs=0.0)
    assert report.es == pytest.approx(
        expected_shortfall(model, d, 0.05), rel=1e-14, abs=0.0
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
    assert report.var == pytest.approx(q * vol, rel=1e-12, abs=0.0)
    assert report.es == pytest.approx(vol * tail_mean / 0.01, rel=1e-12, abs=0.0)


def _zero_exposure_models():
    student = StudentParams(nu=5.0, mu=np.zeros(2), sigma=np.eye(2))
    gauss = EllipticModel(generator=gaussian_generator(2), mu=np.zeros(2), sigma=np.eye(2))
    return student, MixtureModel(components=[(0.6, gauss), (0.4, student)])


@pytest.mark.parametrize(
    "entry",
    [
        lambda s, m, d: var(s, d, 0.05),
        lambda s, m, d: expected_shortfall(s, d, 0.05),
        lambda s, m, d: student_var(s, d, 0.05),
        lambda s, m, d: student_expected_shortfall(s, d, 0.05),
        lambda s, m, d: mixture_var(m, d, 0.05),
        lambda s, m, d: mixture_expected_shortfall(m, d, 0.05),
        lambda s, m, d: risk_report(m, d, 0.05),
        lambda s, m, d: risk_report(s, d, 0.05),
        lambda s, m, d: incremental_var(m, d, 0.05),
        lambda s, m, d: incremental_var(s, d, 0.05),
        lambda s, m, d: simulate_pnl(m, d),
    ],
    ids=[
        "var", "expected_shortfall", "student_var", "student_expected_shortfall",
        "mixture_var", "mixture_expected_shortfall", "risk_report_mixture",
        "risk_report_student", "incremental_var_mixture", "incremental_var_student",
        "simulate_pnl",
    ],
)
def test_zero_exposure_raises_one_error_everywhere(entry):
    student, mix = _zero_exposure_models()
    with pytest.raises(DomainError, match="^delta has zero volatility; there is no risk to measure$"):
        entry(student, mix, np.zeros(2))


def _cross_type_models():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    mu = np.array([0.01, -0.02])
    gauss = EllipticModel(mu=mu, sigma=sigma, generator=gaussian_generator(2))
    student = StudentParams(nu=5.0, mu=mu, sigma=sigma)
    return {
        "elliptic": gauss,
        "student_params": student,
        "mixture_k1": MixtureModel(components=[(1.0, student)]),
        "mixture_k2": MixtureModel(
            components=[(0.7, gauss), (0.3, StudentParams(nu=4.0, mu=-mu, sigma=3.0 * sigma))]
        ),
    }


# entry -> (function, the RiskReport field it must reproduce)
CROSS_TYPE_ENTRIES = {
    "var": (var, "var"),
    "expected_shortfall": (expected_shortfall, "es"),
    "mixture_var": (mixture_var, "var"),
    "mixture_expected_shortfall": (mixture_expected_shortfall, "es"),
    "student_var": (student_var, "var"),
    "risk_report": (lambda m, d, a: risk_report(m, d, a).var, "var"),
}


@pytest.mark.parametrize("model_name", sorted(_cross_type_models()))
@pytest.mark.parametrize("entry", sorted(CROSS_TYPE_ENTRIES))
def test_every_entry_takes_every_model_type(entry, model_name):
    model = _cross_type_models()[model_name]
    fn, field = CROSS_TYPE_ENTRIES[entry]
    d = np.array([1.5, -0.5])
    for alpha in (0.001, 0.05):
        assert fn(model, d, alpha) == getattr(risk_report(model, d, alpha), field)


@pytest.mark.parametrize(
    "entry",
    sorted(CROSS_TYPE_ENTRIES) + ["student_expected_shortfall", "incremental_var", "simulate_pnl"],
)
def test_every_entry_rejects_a_non_model(entry):
    fn = {
        **{name: fn for name, (fn, _) in CROSS_TYPE_ENTRIES.items()},
        "student_expected_shortfall": student_expected_shortfall,
        "incremental_var": incremental_var,
        "simulate_pnl": lambda m, d, a: simulate_pnl(m, d),
    }[entry]
    with pytest.raises(DomainError, match="^unsupported model type dict$"):
        fn({"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}, np.ones(2), 0.05)
