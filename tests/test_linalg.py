"""Matrix validation, factorization, and moment estimation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf

from ellvar import EllipticModel, gaussian_generator
from ellvar import cholesky, estimate_moments, quadratic_form, validate_symmetric
from ellvar.cli import main
from ellvar.errors import DimensionError, DomainError, NotPositiveDefiniteError


def _random_spd(rng, n, jitter=0.1):
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * np.eye(n)


def test_validate_symmetric_accepts_and_returns_array():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    out = validate_symmetric(m)
    assert np.array_equal(out, m)


def test_validate_symmetric_rejects_nonsquare():
    with pytest.raises(DimensionError):
        validate_symmetric(np.ones((2, 3)))


def test_validate_symmetric_rejects_asymmetry():
    m = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(DomainError):
        validate_symmetric(m)
    # the scale is the largest |entry| when that entry is negative: 1e-12 * 1e6
    big = np.array([[-1e6, 0.5], [0.5, 1.0]])
    validate_symmetric(big + [[0.0, 5e-7], [0.0, 0.0]])
    with pytest.raises(DomainError, match="not symmetric"):
        validate_symmetric(big + [[0.0, 2e-6], [0.0, 0.0]])


def test_validate_symmetric_rejects_nan():
    m = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(DomainError):
        validate_symmetric(m)


def test_validate_symmetric_tolerates_roundoff():
    m = np.array([[1.0, 0.5 + 1e-16], [0.5, 1.0]])
    validate_symmetric(m)


def test_cholesky_matches_lapack_dpotrf():
    # scipy's own LAPACK is the oracle, independent of the numpy call the package makes
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8):
        m = _random_spd(rng, n)
        ours = cholesky(m)
        ref, info = dpotrf(m, lower=1, clean=1)
        assert info == 0
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(ours @ ours.T, m, rtol=1e-12, atol=1e-12)


def test_cholesky_reports_failing_minor():
    # leading 1x1 minor is fine, the 2x2 minor is singular/indefinite
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky(m)
    assert info.value.minor_index == 2

    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky(np.array([[-1.0]]))
    assert info.value.minor_index == 1


@pytest.mark.parametrize("n", [2, 64, 500])
def test_cholesky_failing_minor_matches_lapack_dpotrf(n):
    # L D L' with unit-diagonal L has pivots D, so the first failing leading
    # minor is the first negative entry of D, by a margin of 1 on either side
    rng = np.random.default_rng(n)
    low = np.eye(n) + np.tril(rng.normal(scale=0.5 / np.sqrt(n), size=(n, n)), -1)
    for k in sorted({1, n // 2 + 1, n}):
        pivots = np.ones(n)
        pivots[k - 1] = -1.0
        m = (low * pivots) @ low.T
        m = 0.5 * (m + m.T)
        assert dpotrf(m, lower=1)[1] == k
        with pytest.raises(NotPositiveDefiniteError) as info:
            cholesky(m)
        assert info.value.minor_index == k
        assert f"leading minor {k} " in str(info.value)


def test_cholesky_rejects_semidefinite():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(m)


def test_quadratic_form_value():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    d = np.array([1.0, -2.0])
    expected = float(d @ sigma @ d)
    assert quadratic_form(d, sigma) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_quadratic_form_never_negative():
    # PSD matrix with an exact null vector: roundoff may push the raw
    # form a hair below zero, the result must be clamped
    sigma = np.array([[1.0, -1.0], [-1.0, 1.0]])
    d = np.array([1.0, 1.0])
    assert quadratic_form(d, sigma) >= 0.0


def test_quadratic_form_clamps_a_form_that_rounds_below_zero_to_exactly_zero():
    # sigma = v v^T and delta orthogonal to v: the exact form is 0, and the
    # rounded one falls on either side of it
    rng = np.random.default_rng(0)
    raws = []
    for _ in range(10):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        d = w - (w @ v) / (v @ v) * v
        sigma = np.outer(v, v)
        raw = float(d @ sigma @ d)
        raws.append(raw)
        assert quadratic_form(d, sigma) == max(raw, 0.0)
    assert min(raws) < 0.0 < max(raws)


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(DimensionError):
        quadratic_form(np.ones(3), np.eye(2))
    with pytest.raises(DimensionError):
        quadratic_form(np.ones((2, 2)), np.eye(2))


def test_estimate_moments_matches_numpy_cov():
    rng = np.random.default_rng(11)
    returns = rng.normal(size=(60, 4))
    mu, sigma = estimate_moments(returns)
    assert np.allclose(mu, returns.mean(axis=0), rtol=1e-13)
    assert np.allclose(sigma, np.cov(returns, rowvar=False), rtol=1e-12)
    assert np.allclose(sigma, sigma.T)


def test_estimate_moments_small_sample_by_hand():
    returns = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 2.0]])
    mu, sigma = estimate_moments(returns)
    assert np.allclose(mu, [2.0, 2.0])
    # unbiased: divide by T - 1 = 2
    assert sigma[0, 0] == pytest.approx(4.0)
    assert sigma[1, 1] == pytest.approx(1.0)
    assert sigma[0, 1] == pytest.approx(1.0)


def test_estimate_moments_singular_needs_ridge():
    # more assets than observations: sample covariance is singular
    rng = np.random.default_rng(13)
    returns = rng.normal(size=(3, 5))
    with pytest.raises(NotPositiveDefiniteError) as info:
        estimate_moments(returns)
    assert "ridge" in str(info.value)
    mu, sigma = estimate_moments(returns, ridge=1e-6)
    cholesky(sigma)  # now factorizable
    assert sigma.shape == (5, 5)


@pytest.mark.parametrize("t", [20, 60, 99])
def test_estimate_moments_short_panel_fails_at_minor_t(t):
    # a centred T x n panel has rank at most T - 1, so with T <= n its leading
    # minor of order T is singular: rounding once let the factorisation pass
    # it, naming a minor past T or (at T = 99) raising nothing
    for seed in range(20):
        returns = np.random.default_rng(seed).standard_normal((t, 100))
        with pytest.raises(NotPositiveDefiniteError, match=f"{t} observations") as info:
            estimate_moments(returns)
        assert info.value.minor_index == t
        assert "ridge" in str(info.value)


def test_estimate_moments_accepts_two_observations_of_one_factor():
    mu, sigma = estimate_moments(np.array([[1.0], [4.0]]))
    assert mu.tolist() == [2.5]
    assert sigma.tolist() == [[4.5]]


def test_estimate_moments_square_panel_fails_at_minor_t():
    # T = n: the one panel length at which the pivot floor alone lets the
    # singular covariance through (seeds 1, 5, 13 and 17), so the panel rule
    # must name minor T
    for seed in range(20):
        returns = np.random.default_rng(seed).standard_normal((5, 5))
        with pytest.raises(NotPositiveDefiniteError, match="5 observations") as info:
            estimate_moments(returns)
        assert info.value.minor_index == 5


def test_estimate_moments_refuses_an_exactly_collinear_panel():
    # column 5 copies column 3: leading minor 5 is singular, but rounding once
    # let the factorisation pass it on a pivot of order eps in 7 of these seeds
    for seed in range(20):
        returns = np.random.default_rng(seed).standard_normal((50, 10))
        returns[:, 4] = returns[:, 2]
        with pytest.raises(NotPositiveDefiniteError, match="50 observations") as info:
            estimate_moments(returns)
        assert info.value.minor_index == 5
        assert "ridge" in str(info.value)
        _, sigma = estimate_moments(returns, ridge=1e-6)
        cholesky(sigma)


def test_every_dispersion_refuses_the_collinear_covariance_at_its_singular_minor(
    tmp_path, capsys
):
    # np.cov of the panel above: cholesky, a model and a CLI model file pass
    # through the one pivot floor estimate_moments uses, so each refuses it
    # where rounding once let numpy's factorisation through (5 of 20 seeds)
    book, model = tmp_path / "book.csv", tmp_path / "model.json"
    book.write_text("id,delta\n" + "".join(f"f{i},1.0\n" for i in range(10)))
    for seed in range(20):
        returns = np.random.default_rng(seed).standard_normal((50, 10))
        returns[:, 4] = returns[:, 2]
        sigma = np.cov(returns, rowvar=False)
        with pytest.raises(NotPositiveDefiniteError) as info:
            cholesky(sigma)
        assert info.value.minor_index == 5
        with pytest.raises(NotPositiveDefiniteError) as info:
            EllipticModel(generator=gaussian_generator(10), mu=np.zeros(10), sigma=sigma)
        assert info.value.minor_index == 5
        model.write_text(json.dumps({"mu": [0.0] * 10, "sigma": sigma.tolist()}))
        assert main(["var", "--portfolio", str(book), "--model-file", str(model)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: kind=NotPositiveDefiniteError")
        assert "leading minor 5 is not positive definite" in err


def test_pivot_floor_scales_with_each_diagonal_entry():
    # D C D, with D = diag(1e-3 ... 1e3) either way round, is refused at the
    # same minor as the collinear covariance C: the floor reads a_jj, so a
    # rescaling of the factors moves no pivot across it
    for seed in range(20):
        returns = np.random.default_rng(seed).standard_normal((50, 10))
        returns[:, 4] = returns[:, 2]
        sigma = np.cov(returns, rowvar=False)
        for scale in (np.logspace(-3.0, 3.0, 10), np.logspace(3.0, -3.0, 10)):
            with pytest.raises(NotPositiveDefiniteError) as info:
                cholesky(scale[:, None] * sigma * scale[None, :])
            assert info.value.minor_index == 5, seed


def test_estimate_moments_ridge_adds_to_diagonal():
    rng = np.random.default_rng(17)
    returns = rng.normal(size=(40, 3))
    _, bare = estimate_moments(returns)
    _, loaded = estimate_moments(returns, ridge=0.25)
    assert np.allclose(loaded - bare, 0.25 * np.eye(3), atol=1e-14)


def test_estimate_moments_rejects_negative_ridge():
    with pytest.raises(DomainError, match="ridge must be non-negative"):
        estimate_moments(np.eye(3), ridge=-1.0)


def test_estimate_moments_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        estimate_moments(np.ones(5))
    with pytest.raises(DomainError):
        estimate_moments(np.ones((1, 3)))


@pytest.mark.parametrize(
    "rows",
    (
        [[1e200, 1.0], [-1e200, 3.0], [0.0, 1.0]],  # cross products overflow
        [[1e308, 1.0], [1e308, 3.0], [0.0, 1.0]],  # the column sum overflows
    ),
)
def test_estimate_moments_names_the_returns_when_their_moments_overflow(rows):
    # finite returns, no numpy overflow warning (Tier-1 makes one an error)
    with pytest.raises(DomainError, match="returns' covariance entries must be finite"):
        estimate_moments(np.array(rows))
