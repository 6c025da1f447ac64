"""Mixture-of-elliptic risk measures against single-component and 1-D oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import optimize, special, stats

from ellvar import (
    EllipticModel,
    MixtureModel,
    expected_shortfall,
    gaussian_generator,
    incremental_var,
    marginal_tail,
    mixture_expected_shortfall,
    mixture_var,
    student_generator,
    var,
)
from ellvar.errors import DimensionError, DomainError


def _component(generator, mu, sigma):
    return EllipticModel(
        generator=generator, mu=np.asarray(mu, float), sigma=np.asarray(sigma, float)
    )


def _two_normal_mixture():
    quiet = _component(gaussian_generator(2), [0.0, 0.0], np.eye(2))
    noisy = _component(gaussian_generator(2), [0.0, 0.0], 9.0 * np.eye(2))
    return MixtureModel(components=[(0.7, quiet), (0.3, noisy)])


def test_single_component_reduces_to_elliptic():
    comp = _component(student_generator(2, 5.0), [0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]])
    mix = MixtureModel(components=[(1.0, comp)])
    d = np.array([1.0, -2.0])
    for alpha in (0.01, 0.05):
        assert mixture_var(mix, d, alpha) == pytest.approx(
            var(comp, d, alpha), abs=1e-10
        )
        assert mixture_expected_shortfall(mix, d, alpha) == pytest.approx(
            expected_shortfall(comp, d, alpha), abs=1e-10
        )


def test_two_normal_mixture_against_univariate_inversion():
    # P&L is a scale mixture of two centered normals, so the VaR solves
    # b1 Phi(-x/v1) + b2 Phi(-x/v2) = alpha in one dimension.
    mix = _two_normal_mixture()
    d = np.array([1.0, 1.0])
    v1 = math.sqrt(2.0)
    v2 = math.sqrt(18.0)
    for alpha in (0.01, 0.025, 0.05):
        def tail(x: float) -> float:
            return 0.7 * stats.norm.sf(x / v1) + 0.3 * stats.norm.sf(x / v2) - alpha

        ref = optimize.brentq(tail, 0.1, 50.0, xtol=1e-13, rtol=8.9e-16)
        got = mixture_var(mix, d, alpha)
        assert got == pytest.approx(ref, abs=1e-8)

        # componentwise Gaussian tail mean: E[L 1{L > V}] = vol phi(V / vol)
        es_ref = (
            0.7 * v1 * stats.norm.pdf(ref / v1) + 0.3 * v2 * stats.norm.pdf(ref / v2)
        ) / alpha
        assert mixture_expected_shortfall(mix, d, alpha) == pytest.approx(
            es_ref, abs=1e-8
        )


@pytest.mark.parametrize("m, expected", [(5.0, -2.219357), (50.0, -92.219357)])
def test_mixture_var_far_below_zero(m, expected):
    # a mean gain of 2m puts the VaR below -1; the components' VaRs bracket
    # the root wherever it lies
    quiet = _component(gaussian_generator(2), [m, m], np.eye(2))
    noisy = _component(gaussian_generator(2), [m, m], 9.0 * np.eye(2))
    mix = MixtureModel(components=[(0.7, quiet), (0.3, noisy)])
    d = np.array([1.0, 1.0])

    def tail(x: float) -> float:
        z = 2.0 * m + x
        return 0.7 * stats.norm.sf(z / math.sqrt(2.0)) + 0.3 * stats.norm.sf(z / math.sqrt(18.0)) - 0.01

    ref = optimize.brentq(tail, -4.0 * m, 0.0, xtol=1e-14, rtol=8.9e-16)
    got = var(mix, d, 0.01)
    assert got == pytest.approx(expected, abs=5e-7)
    assert got == pytest.approx(ref, rel=1e-13)
    assert math.fsum(incremental_var(mix, d, 0.01).contributions) == pytest.approx(got, rel=1e-13)


def test_var_threshold_recovers_alpha():
    mix = _two_normal_mixture()
    d = np.array([1.0, 1.0])
    v = mixture_var(mix, d, 0.05)
    vol1 = math.sqrt(2.0)
    vol2 = math.sqrt(18.0)
    residual = 0.7 * marginal_tail(gaussian_generator(2), v / vol1) + 0.3 * (
        marginal_tail(gaussian_generator(2), v / vol2)
    )
    assert residual == pytest.approx(0.05, abs=1e-12)


def _normal_t5_mixture():
    """0.7 N + 0.3 t5 in one dimension, at unit and doubled scale."""
    return MixtureModel(components=[
        (0.7, _component(gaussian_generator(1), [0.0], [[1.0]])),
        (0.3, _component(student_generator(1, 5.0), [0.0], [[4.0]])),
    ])


def test_deep_tail_normal_student_mixture():
    # at these alphas only a residual taken relative to alpha constrains V
    mix = _normal_t5_mixture()
    d = np.array([1.0])
    for alpha in (1e-8, 1e-12):
        ref = optimize.brentq(
            lambda x: 0.7 * special.ndtr(-x) + 0.3 * special.stdtr(5.0, -x / 2.0) - alpha,
            1.0, 1e6, xtol=1e-300, rtol=8.9e-16,
        )
        assert mixture_var(mix, d, alpha) == pytest.approx(ref, rel=1e-10)


# (alpha, VaR, ES) of a 0.99 Gaussian + 0.01 Student nu = 4 mixture at n = 3,
# mu = 0, Sigma = I, delta = (1, 1, 1), from a 60-digit mpmath root; the
# Student component dominates, so the root is near its VaR at alpha / 0.01,
# 4.2e24 vols out at alpha = 1e-100
_DEEP_MIXTURE = [
    (1e-100, 7.2084342424042628446e24, 9.6112456565390171261e24),
    (1e-200, 7.2084342424042629129e49, 9.6112456565390172171e49),
    (1e-300, 7.2084342424042628354e74, 9.6112456565390171139e74),
]


@pytest.mark.parametrize("alpha, expected_var, expected_es", _DEEP_MIXTURE)
def test_deep_tail_mixture_is_bracketed_by_its_component_vars(alpha, expected_var, expected_es):
    mix = MixtureModel(components=[
        (0.99, _component(gaussian_generator(3), np.zeros(3), np.eye(3))),
        (0.01, _component(student_generator(3, 4.0), np.zeros(3), np.eye(3))),
    ])
    d = np.ones(3)
    assert var(mix, d, alpha) == pytest.approx(expected_var, rel=1e-12, abs=0.0)
    assert expected_shortfall(mix, d, alpha) == pytest.approx(expected_es, rel=1e-12, abs=0.0)


def test_var_solve_does_not_depend_on_book_scale():
    # small books need the solve's tolerances taken in units of their vol
    mix = _normal_t5_mixture()
    for alpha in (0.01, 1e-6):
        base = mixture_var(mix, np.array([1.0]), alpha)
        for scale in (1e3, 1e-5, 1e-8):
            assert mixture_var(mix, np.array([scale]), alpha) == pytest.approx(
                scale * base, rel=1e-12
            )


def test_var_sits_between_component_vars():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(2.5, 6.0)
        w = rng.uniform(0.2, 0.8)
        comps = [
            _component(gaussian_generator(1), [0.0], [[a * a]]),
            _component(student_generator(1, 6.0), [0.0], [[b * b]]),
        ]
        mix = MixtureModel(components=[(w, comps[0]), (1.0 - w, comps[1])])
        d = np.array([1.0])
        alpha = rng.uniform(0.01, 0.2)
        lo = min(var(c, d, alpha) for c in comps)
        hi = max(var(c, d, alpha) for c in comps)
        v = mixture_var(mix, d, alpha)
        assert lo - 1e-9 <= v <= hi + 1e-9


def test_mixture_es_dominates_var_and_var_monotone_in_alpha():
    comps = [
        _component(gaussian_generator(2), [0.001, 0.0], np.eye(2)),
        _component(student_generator(2, 4.0), [0.0, -0.002], [[3.0, 1.0], [1.0, 2.0]]),
    ]
    mix = MixtureModel(components=[(0.6, comps[0]), (0.4, comps[1])])
    d = np.array([2.0, 1.0])
    last = math.inf
    for alpha in (0.01, 0.025, 0.05, 0.1):
        v = mixture_var(mix, d, alpha)
        assert mixture_expected_shortfall(mix, d, alpha) > v
        assert v < last
        last = v


def test_es_accepts_precomputed_var():
    mix = _two_normal_mixture()
    d = np.array([2.0, -1.0])
    v = mixture_var(mix, d, 0.025)
    assert mixture_expected_shortfall(mix, d, 0.025, var=v) == pytest.approx(
        mixture_expected_shortfall(mix, d, 0.025), rel=1e-14
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_es_rejects_non_finite_precomputed_var(bad):
    mix = _two_normal_mixture()
    with pytest.raises(DomainError, match="^var must be finite"):
        mixture_expected_shortfall(mix, np.array([2.0, -1.0]), 0.025, var=bad)


def test_weight_validation():
    comp = _component(gaussian_generator(1), [0.0], [[1.0]])
    with pytest.raises(DomainError):
        MixtureModel(components=[(0.5, comp), (0.6, comp)])
    with pytest.raises(DomainError):
        MixtureModel(components=[(-0.1, comp), (1.1, comp)])
    with pytest.raises(DomainError):
        MixtureModel(components=[])


def test_components_must_be_elliptic_models():
    comp = _component(gaussian_generator(2), [0.0, 0.0], np.eye(2))
    inner = MixtureModel(components=[(1.0, comp)])
    with pytest.raises(DomainError, match="elliptic models"):
        MixtureModel(components=[(0.5, inner), (0.5, comp)])
    with pytest.raises(DomainError, match="elliptic models"):
        MixtureModel(components=[(1.0, "gaussian")])


def test_component_dimension_mismatch():
    a = _component(gaussian_generator(1), [0.0], [[1.0]])
    b = _component(gaussian_generator(2), [0.0, 0.0], np.eye(2))
    with pytest.raises(DimensionError):
        MixtureModel(components=[(0.5, a), (0.5, b)])


def test_portfolio_dimension_mismatch():
    mix = _two_normal_mixture()
    with pytest.raises(DimensionError):
        mixture_var(mix, np.ones(3), 0.05)


def test_alpha_out_of_range():
    mix = _two_normal_mixture()
    d = np.array([1.0, 0.0])
    for alpha in (0.0, 0.5, 0.75):
        with pytest.raises(DomainError):
            mixture_var(mix, d, alpha)
