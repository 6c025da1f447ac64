"""Malformed input: every public entry raises a typed error for it.

One table holds (entry, malformed argument) calls, with a bool, a
string, None, nan, an alpha outside (0, 0.5), a ragged list, an array of
bools or numeric strings, a list or object array that mixes one of them
with floats, or an arbitrary object where a number, an integer, a vector
or a library object is expected.  Each call must raise DomainError or DimensionError,
never a bare TypeError, ValueError or AttributeError, and never a
numerical failure further in.  A guard test
keeps the table complete: every function and class that ``ellvar``
exports has a row here or a one-line reason to be exempt.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

import ellvar
from ellvar import (
    DensityGenerator,
    EllipticModel,
    MixtureModel,
    Position,
    QuadratureSpec,
    RiskReport,
    SimulationSpec,
    StudentParams,
    beta,
    big_g,
    business_unit_deltas,
    cholesky,
    delta_equivalents,
    dispersion_from_covariance,
    empirical_var_es,
    equity_deltas,
    estimate_moments,
    expected_shortfall,
    GaussianGenerator,
    StudentGenerator,
    gaussian_generator,
    hyp2f1,
    hyp2f1_log,
    incremental_var,
    integrate_semi_infinite,
    log_gamma,
    marginal_tail,
    marginal_tail_expectation,
    mixture_expected_shortfall,
    mixture_var,
    quadratic_form,
    quantile_multiplier,
    reg_inc_beta,
    risk_report,
    simulate_pnl,
    solve_quantile,
    student_big_g,
    student_es_multiplier,
    student_expected_shortfall,
    student_generator,
    student_quantile,
    student_tail_expectation,
    student_var,
    validate_model,
    validate_symmetric,
    var,
)
from ellvar.errors import DimensionError, DomainError

_GEN = gaussian_generator(2)
_MODEL = EllipticModel(mu=np.zeros(2), sigma=np.eye(2), generator=_GEN)
_STUDENT = StudentParams(5.0, np.zeros(2), np.eye(2))
_DELTA = np.array([1.0, 0.5])
_RETURNS = np.random.default_rng(3).normal(size=(50, 2))
_RAGGED = [[1.0], [2.0, 3.0]]
_SMALL_SPEC = SimulationSpec(paths=20_000)
# the same law with no closed forms: its methods are the quadratures
_HOOKLESS = DensityGenerator(2, _GEN.density, normalizer=1.0)


def _decay(x: float) -> float:
    return math.exp(-x)


# (entry, what is malformed, the call)
MALFORMED = [
    ("DensityGenerator", "dimension bool", lambda: DensityGenerator(True, _GEN.density, normalizer=1.0)),
    ("DensityGenerator", "dimension str", lambda: DensityGenerator("2", _GEN.density, normalizer=1.0)),
    ("DensityGenerator", "normalizer str", lambda: DensityGenerator(2, _GEN.density, normalizer="1")),
    ("EllipticModel", "mu of str", lambda: EllipticModel(mu=["a", "b"], sigma=np.eye(2), generator=_GEN)),
    ("EllipticModel", "mu None", lambda: EllipticModel(mu=None, sigma=np.eye(2), generator=_GEN)),
    ("EllipticModel", "mu of bool", lambda: EllipticModel(mu=[True, False], sigma=np.eye(2), generator=_GEN)),
    ("EllipticModel", "sigma of numeric str", lambda: EllipticModel(mu=np.zeros(2), sigma=[["1", "0"], ["0", "1"]], generator=_GEN)),
    ("EllipticModel", "sigma ragged", lambda: EllipticModel(mu=np.zeros(2), sigma=_RAGGED, generator=_GEN)),
    ("big_g", "s str", lambda: big_g("1.5", _GEN)),
    ("big_g", "s None", lambda: big_g(None, _GEN)),
    ("big_g", "generator None", lambda: big_g(1.0, None)),
    ("solve_quantile", "alpha str", lambda: solve_quantile("0.01", _GEN)),
    ("solve_quantile", "generator None", lambda: solve_quantile(0.01, None)),
    ("quantile_multiplier", "alpha object", lambda: quantile_multiplier(_GEN, object())),
    ("quantile_multiplier", "generator None", lambda: quantile_multiplier(None, 0.01)),
    ("marginal_tail", "s bool", lambda: marginal_tail(_GEN, True)),
    ("marginal_tail", "generator None", lambda: marginal_tail(None, 1.0)),
    ("marginal_tail_expectation", "t str", lambda: marginal_tail_expectation(_GEN, "0.5")),
    ("marginal_tail_expectation", "generator None", lambda: marginal_tail_expectation(None, 1.0)),
    ("var", "alpha str", lambda: var(_MODEL, _DELTA, "x")),
    ("var", "alpha None", lambda: var(_MODEL, _DELTA, None)),
    ("var", "alpha bool", lambda: var(_MODEL, _DELTA, True)),
    ("var", "delta ragged", lambda: var(_MODEL, _RAGGED, 0.01)),
    ("var", "delta of str", lambda: var(_MODEL, ["a", "b"], 0.01)),
    ("var", "delta object", lambda: var(_MODEL, object(), 0.01)),
    ("var", "delta of numeric str", lambda: var(_MODEL, ["1.0", "2.0"], 0.01)),
    ("var", "delta of bool", lambda: var(_MODEL, [True, False], 0.01)),
    ("var", "delta bool array", lambda: var(_MODEL, np.array([True, False]), 0.01)),
    ("var", "delta of bytes", lambda: var(_MODEL, [b"1", b"2"], 0.01)),
    ("var", "delta of complex", lambda: var(_MODEL, [1.0 + 0j, 2.0], 0.01)),
    ("var", "delta of bool and float", lambda: var(_STUDENT, [True, 2.0], 0.01)),
    ("var", "delta of numpy bool and float", lambda: var(_STUDENT, [np.True_, 2.0], 0.01)),
    ("var", "delta object array of numeric str", lambda: var(_STUDENT, np.array(["1.0", 2.0], dtype=object), 0.01)),
    ("var", "delta object array of bool", lambda: var(_STUDENT, np.array([True, 2.0], dtype=object), 0.01)),
    ("var", "delta object array of bytes", lambda: var(_STUDENT, np.array([b"1", 2.0], dtype=object), 0.01)),
    ("EllipticModel", "sigma of bool and float", lambda: EllipticModel(mu=np.zeros(2), sigma=[[True, 0.0], [0.0, 1.0]], generator=_GEN)),
    ("expected_shortfall", "alpha str", lambda: expected_shortfall(_MODEL, _DELTA, "0.01")),
    ("expected_shortfall", "delta with None", lambda: expected_shortfall(_MODEL, [None, 1.0], 0.01)),
    ("validate_symmetric", "entries str", lambda: validate_symmetric([[1.0, "a"], ["a", 1.0]])),
    ("validate_symmetric", "ragged", lambda: validate_symmetric(_RAGGED)),
    ("cholesky", "ragged", lambda: cholesky(_RAGGED)),
    ("quadratic_form", "delta of str", lambda: quadratic_form(["a", "b"], np.eye(2))),
    ("quadratic_form", "delta object", lambda: quadratic_form(object(), np.eye(2))),
    ("estimate_moments", "ridge str", lambda: estimate_moments(_RETURNS, ridge="a")),
    ("estimate_moments", "ridge None", lambda: estimate_moments(_RETURNS, ridge=None)),
    ("estimate_moments", "returns ragged", lambda: estimate_moments(_RAGGED)),
    ("SimulationSpec", "paths float", lambda: SimulationSpec(paths=1e6)),
    ("SimulationSpec", "seed str", lambda: SimulationSpec(seed="7")),
    ("SimulationSpec", "workers None", lambda: SimulationSpec(workers=None)),
    ("simulate_pnl", "spec None", lambda: simulate_pnl(_MODEL, _DELTA, None)),
    ("simulate_pnl", "delta of str", lambda: simulate_pnl(_MODEL, ["a", 1.0], _SMALL_SPEC)),
    ("empirical_var_es", "pnl of str", lambda: empirical_var_es(["a"] * 20_000, 0.01)),
    ("empirical_var_es", "pnl None", lambda: empirical_var_es(None, 0.01)),
    ("empirical_var_es", "pnl of bool", lambda: empirical_var_es(np.ones(20_000, dtype=bool), 0.01)),
    ("empirical_var_es", "alpha str", lambda: empirical_var_es(np.zeros(20_000), "0.01")),
    ("validate_model", "spec None", lambda: validate_model(_MODEL, _DELTA, spec=None)),
    ("validate_model", "alpha str", lambda: validate_model(_MODEL, _DELTA, alphas=("x",))),
    ("validate_model", "delta ragged", lambda: validate_model(_MODEL, _RAGGED, spec=_SMALL_SPEC)),
    ("MixtureModel", "weight str", lambda: MixtureModel([("a", _MODEL)])),
    ("MixtureModel", "weight bool", lambda: MixtureModel([(True, _MODEL)])),
    ("MixtureModel", "bare model", lambda: MixtureModel([_MODEL])),
    ("MixtureModel", "components None", lambda: MixtureModel(None)),
    ("mixture_var", "alpha str", lambda: mixture_var(_MODEL, _DELTA, "x")),
    ("mixture_expected_shortfall", "var str", lambda: mixture_expected_shortfall(_MODEL, _DELTA, 0.01, "1.0")),
    ("mixture_expected_shortfall", "var object", lambda: mixture_expected_shortfall(_MODEL, _DELTA, 0.01, object())),
    ("Position", "spot None", lambda: Position(spot=None, sensitivity=1.0)),
    ("Position", "spot bool", lambda: Position(spot=True, sensitivity=1.0)),
    ("Position", "sensitivity str", lambda: Position(spot=100.0, sensitivity="0.5")),
    ("delta_equivalents", "position None", lambda: delta_equivalents([None])),
    ("equity_deltas", "shares of str", lambda: equity_deltas(["a"], [1.0])),
    ("equity_deltas", "prices of numeric str", lambda: equity_deltas([1.0], ["1.0"])),
    ("equity_deltas", "prices ragged", lambda: equity_deltas([1.0, 2.0], _RAGGED)),
    ("business_unit_deltas", "count bool", lambda: business_unit_deltas(True)),
    ("business_unit_deltas", "count str", lambda: business_unit_deltas("3")),
    ("business_unit_deltas", "count float", lambda: business_unit_deltas(2.0)),
    ("incremental_var", "alpha str", lambda: incremental_var(_MODEL, _DELTA, "0.01")),
    ("incremental_var", "delta of str", lambda: incremental_var(_MODEL, ["a", "b"], 0.01)),
    ("RiskReport", "unknown key", lambda: RiskReport.from_dict({"bogus": 1.0})),
    ("RiskReport", "dict None", lambda: RiskReport.from_dict(None)),
    ("risk_report", "alpha None", lambda: risk_report(_MODEL, _DELTA, None)),
    ("risk_report", "delta object", lambda: risk_report(_MODEL, object(), 0.01)),
    ("log_gamma", "x str", lambda: log_gamma("x")),
    ("log_gamma", "x None", lambda: log_gamma(None)),
    ("beta", "a str", lambda: beta("1", 2.0)),
    ("reg_inc_beta", "x str", lambda: reg_inc_beta("0.5", 1.0, 1.0)),
    ("reg_inc_beta", "a None", lambda: reg_inc_beta(0.5, None, 1.0)),
    ("hyp2f1", "a str", lambda: hyp2f1("1", 1.0, 2.0, -0.5)),
    ("hyp2f1", "z None", lambda: hyp2f1(1.0, 1.0, 2.0, None)),
    ("hyp2f1_log", "b bool", lambda: hyp2f1_log(1.0, True, 2.0, -0.5)),
    ("QuadratureSpec", "rel_tol str", lambda: QuadratureSpec(rel_tol="x")),
    ("QuadratureSpec", "abs_tol None", lambda: QuadratureSpec(abs_tol=None)),
    ("QuadratureSpec", "max_subdivisions float", lambda: QuadratureSpec(max_subdivisions=50.5)),
    ("integrate_semi_infinite", "lower str", lambda: integrate_semi_infinite(_decay, "0")),
    ("integrate_semi_infinite", "lower None", lambda: integrate_semi_infinite(_decay, None)),
    ("integrate_semi_infinite", "spec str", lambda: integrate_semi_infinite(abs, 0.0, "x")),
    ("StudentParams", "nu str", lambda: StudentParams("5", np.zeros(2), np.eye(2))),
    ("StudentParams", "mu of str", lambda: StudentParams(5.0, ["a", "b"], np.eye(2))),
    ("StudentParams", "mu ragged", lambda: StudentParams(5.0, _RAGGED, np.eye(2))),
    ("student_generator", "nu str", lambda: student_generator(2, "5")),
    ("student_generator", "dimension bool", lambda: student_generator(True, 5.0)),
    ("student_generator", "dimension float", lambda: student_generator(2.0, 5.0)),
    ("gaussian_generator", "dimension None", lambda: gaussian_generator(None)),
    ("gaussian_generator", "quantile alpha 0.7", lambda: gaussian_generator(2).quantile(0.7)),
    ("gaussian_generator", "quantile alpha str", lambda: gaussian_generator(2).quantile("0.01")),
    ("gaussian_generator", "tail s nan", lambda: gaussian_generator(2).tail(math.nan)),
    ("gaussian_generator", "tail_expectation t None", lambda: gaussian_generator(2).tail_expectation(None)),
    ("gaussian_generator", "marginal_density z nan", lambda: gaussian_generator(2).marginal_density(math.nan)),
    ("student_generator", "marginal_density z str", lambda: student_generator(2, 5.0).marginal_density("x")),
    ("StudentGenerator", "nu None", lambda: StudentGenerator(2, None)),
    ("StudentGenerator", "dimension 0", lambda: StudentGenerator(0, 5.0)),
    ("StudentGenerator", "tail s str", lambda: StudentGenerator(2, 5.0).tail("1.5")),
    ("GaussianGenerator", "dimension str", lambda: GaussianGenerator("2")),
    ("GaussianGenerator", "quantile alpha None", lambda: GaussianGenerator(2).quantile(None)),
    ("DensityGenerator", "tail_expectation t nan", lambda: _HOOKLESS.tail_expectation(math.nan)),
    ("DensityGenerator", "marginal_density z None", lambda: _HOOKLESS.marginal_density(None)),
    ("student_big_g", "s str", lambda: student_big_g("1.5", 4.0)),
    ("student_quantile", "nu str", lambda: student_quantile(0.01, "x")),
    ("student_quantile", "nu None", lambda: student_quantile(0.01, None)),
    ("student_var", "alpha object", lambda: student_var(_STUDENT, _DELTA, object())),
    ("student_es_multiplier", "quantile str", lambda: student_es_multiplier(0.01, 5.0, "2.5")),
    ("student_expected_shortfall", "alpha str", lambda: student_expected_shortfall(_STUDENT, _DELTA, "0.01")),
    ("student_tail_expectation", "t str", lambda: student_tail_expectation("x", 4.0)),
    ("dispersion_from_covariance", "nu str", lambda: dispersion_from_covariance(np.eye(2), "5")),
    ("dispersion_from_covariance", "entries str", lambda: dispersion_from_covariance([["1", "a"], ["a", "1"]], 5.0)),
]

# exported functions and classes with no argument a caller can get wrong
EXEMPT = {
    "clear_quantile_cache": "takes no arguments",
    "EmpiricalEstimate": "a result record that empirical_var_es fills; it checks nothing",
    "ValidationRow": "a result record that validate_model fills; it checks nothing",
    "IncrementalVar": "a result record that incremental_var fills; it checks nothing",
}


@pytest.mark.parametrize(
    "call", [call for _, _, call in MALFORMED], ids=[f"{e}[{what}]" for e, what, _ in MALFORMED]
)
def test_malformed_input_raises_a_typed_error(call):
    with pytest.raises((DomainError, DimensionError)):
        call()


def test_every_exported_function_and_class_is_in_the_table_or_exempt():
    public = set()
    for name in ellvar.__all__:
        obj = getattr(ellvar, name)
        exception = inspect.isclass(obj) and issubclass(obj, BaseException)
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and not exception:
            public.add(name)
    swept = {entry for entry, _, _ in MALFORMED}
    assert sorted(public - swept - EXEMPT.keys()) == []
    # the table and the exemptions name exported entries only, each in one place
    assert swept | EXEMPT.keys() <= public
    assert not swept & EXEMPT.keys()


def test_integer_checks_take_numpy_integers_as_plain_ints():
    spec = SimulationSpec(paths=np.int64(20_000), seed=np.uint8(5), batch_size=np.int32(4_096))
    assert all(type(getattr(spec, f)) is int for f in ("paths", "seed", "batch_size", "workers"))
    plain = SimulationSpec(paths=20_000, seed=5, batch_size=4_096)
    assert np.array_equal(simulate_pnl(_MODEL, _DELTA, spec), simulate_pnl(_MODEL, _DELTA, plain))
    assert type(QuadratureSpec(max_subdivisions=np.int64(50)).max_subdivisions) is int
    assert business_unit_deltas(np.int64(3)).shape == (3,)


def test_an_object_of_the_wrong_type_raises_domain_error_naming_the_type():
    calls = [call for _, what, call in MALFORMED if what in ("generator None", "spec None", "spec str")]
    assert len(calls) == 8
    for call in calls:
        with pytest.raises(DomainError, match=r"must be a \w+(Generator|Spec), got "):
            call()


def test_a_float64_array_is_checked_without_a_copy():
    mu = np.array([0.1, -0.2])
    assert EllipticModel(mu=mu, sigma=np.eye(2), generator=_GEN).mu is mu
    # other numbers are converted, from lists and object arrays alike
    assert EllipticModel(mu=[0, 1], sigma=np.eye(2), generator=_GEN).mu.dtype == np.float64
    numbers = np.array([1, np.float32(2.0)], dtype=object)
    assert var(_STUDENT, numbers, 0.01) == var(_STUDENT, [1, 2.0], 0.01) == var(_STUDENT, np.array([1.0, 2.0]), 0.01)


def test_risk_report_from_dict_names_missing_and_unknown_keys():
    data = risk_report(_MODEL, _DELTA, 0.01).to_dict()
    assert RiskReport.from_dict(data) == risk_report(_MODEL, _DELTA, 0.01)
    del data["es"]
    data["bogus"] = 1.0
    with pytest.raises(DomainError, match=r"missing \['es'\], unknown \['bogus'\]"):
        RiskReport.from_dict(data)
