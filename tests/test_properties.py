"""Property tests: invariants every risk report keeps, on all three model types.

Each property is checked through ``risk_report`` on a plain
``EllipticModel``, a ``StudentParams`` and a two-component
``MixtureModel``.  The examples are derandomized so that the suite is
reproducible, and bounded so that it stays a few seconds long.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellvar import (
    EllipticModel,
    MixtureModel,
    StudentParams,
    gaussian_generator,
    risk_report,
    student_generator,
)

KINDS = ("elliptic", "student", "mixture")

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

# the mixture root is solved to xtol 1e-12, the closed forms to rounding
REL = 1e-9


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T / n + np.diag(rng.uniform(0.2, 1.0, n))


@st.composite
def cases(draw):
    """(build, mu, delta): build(mu) makes the model with location mu."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nu = draw(st.floats(2.5, 40.0))
    sigma = _spd(rng, n)
    mu = rng.normal(scale=0.1, size=n)
    delta = rng.normal(size=n)
    if kind == "elliptic":
        gen = gaussian_generator(n) if draw(st.booleans()) else student_generator(n, nu)

        def build(m):
            return EllipticModel(mu=m, sigma=sigma, generator=gen)

    elif kind == "student":

        def build(m):
            return StudentParams(nu=nu, mu=m, sigma=sigma)

    else:
        w = draw(st.floats(0.05, 0.95))
        wide = 2.0 * _spd(rng, n)
        offset = rng.normal(scale=0.1, size=n)

        def build(m):
            return MixtureModel(
                components=[
                    (w, EllipticModel(mu=m, sigma=sigma, generator=gaussian_generator(n))),
                    (
                        1.0 - w,
                        EllipticModel(
                            mu=m + offset, sigma=wide, generator=student_generator(n, nu)
                        ),
                    ),
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
    assert risk_report(params, delta, alpha) == risk_report(params.to_model(), delta, alpha)
