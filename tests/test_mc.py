"""Simulation engine: reproducibility, distributional checks, tail estimators."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg.lapack import dpotrf

from ellvar import (
    DensityGenerator,
    EllipticModel,
    MixtureModel,
    SimulationSpec,
    StudentParams,
    empirical_var_es,
    expected_shortfall,
    gaussian_generator,
    simulate_pnl,
    student_generator,
    validate_model,
    var,
)
from ellvar import mc
from ellvar.errors import DomainError, UnsupportedGeneratorError


def _gaussian_model(sigma=None):
    s = np.eye(2) if sigma is None else np.asarray(sigma, float)
    return EllipticModel(generator=gaussian_generator(2), mu=np.zeros(2), sigma=s)


def _student_model(nu=6.0):
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    return EllipticModel(generator=student_generator(2, nu), mu=np.zeros(2), sigma=sigma)


def test_spec_validation():
    with pytest.raises(DomainError):
        SimulationSpec(paths=0)
    with pytest.raises(DomainError):
        SimulationSpec(paths=100.0)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        SimulationSpec(seed=-1)
    with pytest.raises(DomainError):
        SimulationSpec(seed=2**128)
    with pytest.raises(DomainError):
        SimulationSpec(batch_size=1)
    with pytest.raises(DomainError):
        SimulationSpec(workers=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("paths", True),
        ("seed", False),
        ("batch_size", True),
        ("workers", True),
        ("antithetic", "no"),
        ("antithetic", 1),
        ("antithetic", None),
    ],
)
def test_spec_rejects_bools_as_counts_and_non_bool_antithetic(field, value):
    with pytest.raises(DomainError):
        SimulationSpec(**{field: value})


def test_same_spec_same_paths():
    model = _student_model()
    d = np.array([1.0, -1.0])
    spec = SimulationSpec(paths=50_000, seed=7, batch_size=8_192)
    a = simulate_pnl(model, d, spec)
    b = simulate_pnl(model, d, spec)
    assert np.array_equal(a, b)


def test_worker_count_does_not_change_output():
    model = _student_model()
    d = np.array([2.0, 1.0])
    base = SimulationSpec(paths=60_000, seed=11, batch_size=4_096, workers=1)
    multi = SimulationSpec(paths=60_000, seed=11, batch_size=4_096, workers=4)
    assert np.array_equal(simulate_pnl(model, d, base), simulate_pnl(model, d, multi))


def test_seed_changes_output():
    model = _gaussian_model()
    d = np.array([1.0, 0.0])
    a = simulate_pnl(model, d, SimulationSpec(paths=20_000, seed=1))
    b = simulate_pnl(model, d, SimulationSpec(paths=20_000, seed=2))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("model", [_gaussian_model(), _student_model()])
def test_antithetic_pairs_mirror_centered_pnl(model):
    d = np.array([1.0, 2.0])
    spec = SimulationSpec(paths=10_000, seed=3, antithetic=True)
    pnl = simulate_pnl(model, d, spec)
    assert np.array_equal(pnl[0::2], -pnl[1::2])


def test_antithetic_odd_path_count():
    model = _gaussian_model()
    d = np.array([1.0, 0.0])
    pnl = simulate_pnl(model, d, SimulationSpec(paths=10_001, seed=3, antithetic=True))
    assert pnl.shape == (10_001,)


def test_gaussian_sample_variance():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    model = _gaussian_model(sigma)
    d = np.array([1.0, -2.0])
    pnl = simulate_pnl(model, d, SimulationSpec(paths=400_000, seed=5))
    assert float(np.mean(pnl)) == pytest.approx(0.0, abs=0.02)
    assert float(np.var(pnl)) == pytest.approx(float(d @ sigma @ d), rel=0.01)


def test_student_sample_variance():
    model = _student_model(nu=6.0)
    d = np.array([1.0, 1.0])
    pnl = simulate_pnl(model, d, SimulationSpec(paths=400_000, seed=13))
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    want = (6.0 / 4.0) * float(d @ sigma @ d)
    assert float(np.var(pnl)) == pytest.approx(want, rel=0.02)


def test_empirical_var_es_on_constant_sample():
    pnl = np.full(20_000, -3.5)
    est = empirical_var_es(pnl, 0.05)
    assert est.var == 3.5
    assert est.es == 3.5
    assert math.isnan(est.var_se)
    assert est.es_se == 0.0
    assert est.tail_count == 1000


def test_empirical_var_es_normal_sample():
    rng = np.random.default_rng(17)
    pnl = rng.standard_normal(200_000)
    est = empirical_var_es(pnl, 0.05)
    assert abs(est.var - 1.6448536269514722) <= 3.0 * est.var_se
    assert abs(est.es - 2.0627128075074275) <= 3.0 * est.es_se
    assert est.tail_count == 10_000


def test_empirical_var_es_warns_on_thin_tail():
    rng = np.random.default_rng(19)
    pnl = rng.standard_normal(10_000)
    with pytest.warns(RuntimeWarning):
        empirical_var_es(pnl, 0.004)


@pytest.mark.parametrize(
    "call",
    [
        lambda: empirical_var_es(np.random.default_rng(19).standard_normal(10_000), 0.004),
        lambda: validate_model(
            _gaussian_model(), np.array([1.0, 0.0]), (0.001,), SimulationSpec(paths=20_000, seed=3)
        ),
    ],
    ids=["empirical_var_es", "validate_model"],
)
def test_thin_tail_warning_names_the_callers_file(call):
    with pytest.warns(RuntimeWarning, match="paths in the") as record:
        call()
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: rng.standard_normal(30_000),
        lambda rng: rng.standard_normal(60_000)[::2],
        lambda rng: rng.standard_normal(30_000).tolist(),
    ],
    ids=["float64", "strided", "list"],
)
def test_empirical_var_es_leaves_its_argument_as_it_was(make):
    pnl = make(np.random.default_rng(101))
    before = np.asarray(pnl).tobytes()
    est = empirical_var_es(pnl, 0.05)
    assert np.asarray(pnl).tobytes() == before
    assert est == empirical_var_es(np.array(pnl), 0.05)


def test_empirical_var_es_rejects_small_samples():
    with pytest.raises(DomainError):
        empirical_var_es(np.zeros(5_000), 0.05)
    rng = np.random.default_rng(23)
    with pytest.raises(DomainError):
        empirical_var_es(rng.standard_normal(20_000), 0.6)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_empirical_var_es_rejects_non_finite_pnl(bad):
    pnl = np.random.default_rng(43).standard_normal(20_000)
    pnl[123] = bad
    with pytest.raises(DomainError, match="finite"):
        empirical_var_es(pnl, 0.05)


def test_validate_model_rejects_non_finite_pnl(monkeypatch):
    def simulate(model, delta, spec):
        pnl = np.random.default_rng(47).standard_normal(spec.paths)
        pnl[-1] = math.nan
        return pnl

    monkeypatch.setattr(mc, "simulate_pnl", simulate)
    with pytest.raises(DomainError, match="finite"):
        validate_model(
            _gaussian_model(), np.array([1.0, 0.0]), spec=SimulationSpec(paths=20_000)
        )


@pytest.mark.parametrize("alpha", [0.7, 0.0, math.nan])
def test_validate_model_checks_alphas_before_drawing(monkeypatch, alpha):
    calls = []
    monkeypatch.setattr(mc, "simulate_pnl", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="alpha must lie in"):
        validate_model(
            _gaussian_model(), np.array([1.0, 0.0]), (0.05, alpha), SimulationSpec(paths=2_000_000)
        )
    assert calls == []


@pytest.mark.parametrize("alphas", [(), [], iter(())], ids=["tuple", "list", "iterator"])
def test_validate_model_refuses_no_alphas_before_drawing(monkeypatch, alphas):
    calls = []
    monkeypatch.setattr(mc, "simulate_pnl", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="at least one level"):
        validate_model(
            _gaussian_model(), np.array([1.0, 0.0]), alphas, SimulationSpec(paths=2_000_000)
        )
    assert calls == []


def _reference_estimate(pnl, alpha):
    """One full np.partition and one full np.quantile per alpha."""
    n = pnl.shape[0]
    k = math.ceil(alpha * n)
    part = np.partition(pnl, k - 1)
    tail = part[:k]
    h = alpha / 2.0
    lower, upper = np.quantile(pnl, [alpha - h, alpha + h])
    width = float(upper - lower)
    var_se = math.sqrt(alpha * (1.0 - alpha) / n) / (2.0 * h / width) if width > 0.0 else math.nan
    var, es = -float(part[k - 1]), -float(np.mean(tail))
    es_se = math.sqrt((float(np.var(tail, ddof=1)) + (1.0 - alpha) * (es - var) ** 2) / k)
    return var, es, var_se, es_se


# 0.3 and 0.45 read quantiles far past the tail of every smaller alpha
ESTIMATOR_ALPHAS = (0.001, 0.01, 0.025, 0.05, 0.3, 0.45)


@pytest.mark.parametrize(
    "sample",
    [
        lambda rng: rng.standard_normal(200_001),
        lambda rng: rng.standard_t(3.0, 150_000),
        lambda rng: np.round(rng.standard_normal(100_000), 1),
        lambda rng: np.full(100_000, -3.5),
    ],
    ids=["normal", "student", "ties", "constant"],
)
def test_empirical_var_es_matches_full_partition_and_quantile(sample):
    pnl = sample(np.random.default_rng(53))
    for alpha in ESTIMATOR_ALPHAS:
        est = empirical_var_es(pnl, alpha)
        var_ref, es_ref, var_se_ref, es_se_ref = _reference_estimate(pnl, alpha)
        assert est.var == var_ref
        assert est.var_se == var_se_ref or math.isnan(est.var_se) and math.isnan(var_se_ref)
        assert est.es == pytest.approx(es_ref, rel=1e-14, abs=0.0)
        assert est.es_se == pytest.approx(es_se_ref, rel=1e-14, abs=1e-300)
        assert est.tail_count == math.ceil(alpha * pnl.shape[0])


@pytest.mark.parametrize(
    "draw",
    [lambda rng, n: rng.standard_normal(n), lambda rng, n: rng.standard_t(4.0, n)],
    ids=["normal", "student4"],
)
def test_es_standard_error_matches_the_spread_of_es_estimates(draw):
    # without the threshold term the spread is about 1.5x (normal) and 1.3x (t4) the SE
    rng = np.random.default_rng(97)
    estimates = [empirical_var_es(draw(rng, 20_000), 0.01) for _ in range(400)]
    spread = np.std([e.es for e in estimates], ddof=1)
    assert spread == pytest.approx(np.mean([e.es_se for e in estimates]), rel=0.15)


def test_validate_model_rows_equal_per_alpha_estimates():
    model = _student_model(nu=4.0)
    d = np.array([1.0, -0.5])
    spec = SimulationSpec(paths=60_000, seed=59, batch_size=16_384)
    rows = validate_model(model, d, ESTIMATOR_ALPHAS, spec)
    pnl = simulate_pnl(model, d, spec)
    for row, alpha in zip(rows, ESTIMATOR_ALPHAS):
        est = empirical_var_es(pnl, alpha)
        assert (row.mc_var, row.var_se, row.mc_es, row.es_se) == (
            est.var,
            est.var_se,
            est.es,
            est.es_se,
        )


def _factor_mixture(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    sigma = a @ a.T / n + np.eye(n)
    mu = rng.normal(scale=0.1, size=n)
    mix = MixtureModel(
        components=[
            (0.6, EllipticModel(generator=gaussian_generator(n), mu=mu, sigma=sigma)),
            (0.4, EllipticModel(generator=student_generator(n, 5.0), mu=-mu, sigma=2.0 * sigma)),
        ]
    )
    return mix, rng.normal(size=n)


def _reference_pnl(spec, weights, nus, means, scales):
    """What simulate_pnl draws, by rng.choice and per-row gathers; nus[j] is None for a Gaussian.

    Also returns each batch's component per drawn row.
    """
    pnl, labels = [], []
    for b, start in enumerate(range(0, spec.paths, spec.batch_size)):
        count = min(spec.batch_size, spec.paths - start)
        rows = (count + 1) // 2 if spec.antithetic else count
        stream = np.random.SeedSequence(spec.seed, spawn_key=(b,))
        rng = np.random.Generator(np.random.SFC64(stream))
        component = rng.choice(len(weights), size=rows, p=weights)
        core = rng.standard_normal(rows) * scales[component]
        for j, nu in enumerate(nus):
            rows_j = component == j
            if nu is not None and rows_j.any():
                core[rows_j] *= np.sqrt(nu / rng.chisquare(nu, size=np.count_nonzero(rows_j)))
        want = means[component] + core
        if spec.antithetic:
            want = np.column_stack([want, means[component] - core]).ravel()[:count]
        pnl.append(want)
        labels.append(component)
    return np.concatenate(pnl), labels


def _k300():
    weights = np.arange(1.0, 301.0) % 7 + 1.0
    nus = [None if j % 3 else 3.0 + j / 10.0 for j in range(300)]
    return weights / weights.sum(), nus


# (weights, nus): one Student nu per component, None for a Gaussian
MIXTURE_SHAPES = {
    "student_heaviest": ((0.3, 0.7), (None, 4.0)),
    "one_student_of_three": ((0.2, 0.5, 0.3), (None, 4.0, None)),
    # a Gaussian carries most of the weight, as in the benchmark's mixture
    "gaussian_heaviest": ((0.7, 0.3), (None, 5.0)),
    "equal_weights": ((1 / 3, 1 / 3, 1 / 3), (4.0, None, 9.0)),
    # about one row in 1,000: some batches draw no row, and no block, of component 1
    "rare_component": ((0.999, 0.001), (None, 4.0)),
    "every_component_draws": ((0.2, 0.5, 0.3), (3.0, 5.0, 12.0)),
    # labels past 255
    "k300": _k300(),
}


def test_batches_draw_components_then_normals_then_chi_square():
    """Batch b reads SFC64(SeedSequence(seed, spawn_key=(b,))): components, normals, chi-squares.

    At 12,999 paths in batches of 1,000 the last batch holds 999 paths,
    so with antithetic draws its mirrored half is one row short: the
    unmirrored last row may belong to a component that has mirrored rows.
    """
    straddled = set()
    for shape, (weights, nus) in MIXTURE_SHAPES.items():
        k = len(weights)
        means, scales = np.linspace(-1.0, 1.0, k), 0.5 + np.arange(k) % 5 / 4.0
        # one factor: a unit delta reads pnl mean m and scale s from mu = m and sigma = s^2
        mix = MixtureModel(
            components=[
                (
                    w,
                    EllipticModel(
                        generator=gaussian_generator(1) if nu is None else student_generator(1, nu),
                        mu=np.full(1, m),
                        sigma=np.full((1, 1), s * s),
                    ),
                )
                for w, nu, m, s in zip(weights, nus, means, scales)
            ]
        )
        for antithetic in (False, True):
            spec = SimulationSpec(paths=12_999, seed=97, batch_size=1_000, antithetic=antithetic)
            want, labels = _reference_pnl(spec, np.asarray(weights), nus, means, scales)
            if shape == "rare_component":
                assert 0 < sum(np.any(label == 1) for label in labels) < len(labels)
            # the unmirrored last row is a lighter component's, which has mirrored rows too
            last, heaviest = labels[-1], np.argmax(weights)
            if antithetic and last[-1] != heaviest and np.count_nonzero(last == last[-1]) > 1:
                straddled.add(shape)
            for workers in (1, 2):
                pnl = simulate_pnl(mix, np.ones(1), replace(spec, workers=workers))
                assert pnl.tobytes() == want.tobytes(), (shape, antithetic, workers)
    assert len(straddled) >= 5, straddled


@pytest.mark.parametrize("antithetic", [False, True])
def test_choice_of_base_component_never_changes_a_byte(antithetic):
    """Whichever component scales the whole batch in place, every row gets the same operations."""
    gens = (student_generator(1, 4.0), gaussian_generator(1), student_generator(1, 9.0))
    draws = [gen.mixing for gen in gens]
    cdf, scales = np.array([0.2, 0.7, 1.0]), np.array([1.5, 0.25, 3.0])
    means = np.array([0.1, -2.0, 0.7])
    pnl = set()
    for base in range(3):
        out = np.empty(10_001)
        rng = np.random.Generator(np.random.SFC64(101))
        mc._draw_pnl(rng, out, cdf, scales, means, draws, base, antithetic)
        pnl.add(out.tobytes())
    assert len(pnl) == 1


WEIGHTS = {1: (1.0,), 2: (0.6, 0.4), 3: (0.5, 0.3, 0.2)}


@given(
    paths=st.integers(1, 5_000),
    batch_size=st.integers(2, 700),
    antithetic=st.booleans(),
    workers=st.sampled_from((1, 2, 3)),
    k=st.sampled_from((1, 2, 3)),
    seed=st.integers(0, 2**128 - 1),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_pnl_is_byte_identical_for_any_worker_count(
    paths, batch_size, antithetic, workers, k, seed
):
    """Every batch length, odd ones included, fills its slice; threads do not change a byte."""
    gens = (student_generator(2, 4.0), gaussian_generator(2), student_generator(2, 9.0))
    mix = MixtureModel(
        components=[
            (w, EllipticModel(generator=gen, mu=np.full(2, m), sigma=s * np.eye(2)))
            for w, gen, m, s in zip(WEIGHTS[k], gens, (0.5, -1.0, 2.0), (1.0, 4.0, 0.25))
        ]
    )
    d = np.array([1.0, -0.5])
    spec = SimulationSpec(paths=paths, seed=seed, batch_size=batch_size, antithetic=antithetic)
    one = simulate_pnl(mix, d, spec)
    many = simulate_pnl(mix, d, replace(spec, workers=workers))
    assert many.tobytes() == one.tobytes()
    assert many.shape == (paths,)
    assert np.all(np.isfinite(many))


def test_pnl_is_the_one_factor_pnl_times_the_book_scale():
    """A linear book is ||L' delta|| Z_1: n = 200 draws what n = 1 draws, scaled."""
    mix, d = _factor_mixture(200, 83)
    sigma = mix.components[0][1].sigma
    model = EllipticModel(generator=student_generator(200, 5.0), mu=np.zeros(200), sigma=sigma)
    one = EllipticModel(generator=student_generator(1, 5.0), mu=np.zeros(1), sigma=np.eye(1))
    for antithetic in (False, True):
        spec = SimulationSpec(paths=20_001, seed=89, batch_size=8_192, antithetic=antithetic)
        low, info = dpotrf(model.sigma, lower=1, clean=1)
        assert info == 0
        scale = np.linalg.norm(low.T @ d)
        pnl, unit = simulate_pnl(model, d, spec), simulate_pnl(one, np.ones(1), spec)
        assert np.max(np.abs(pnl - scale * unit) / np.spacing(np.abs(pnl))) <= 4


def test_sampler_memory_does_not_scale_with_factor_count():
    # the whole (paths, n) block of normals would be 80 MB
    mix, d = _factor_mixture(100, 61)
    spec = SimulationSpec(paths=100_000, seed=67, batch_size=100_000)
    tracemalloc.start()
    try:
        simulate_pnl(mix, d, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def _peaks_past_the_sample(run, mixture):
    """(peak - 8 paths) / (8 batch) of run(model, d, spec=spec) at 4 batches of 65,536 paths.

    One value without and one with antithetic draws.  ``mixture`` holds
    (weight, law) pairs, a law being a key of ``laws``; one pair is
    that law's model itself.
    """
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    laws = {
        "student": EllipticModel(generator=student_generator(2, 5.0), mu=np.zeros(2), sigma=sigma),
        "gauss": EllipticModel(generator=gaussian_generator(2), mu=np.ones(2), sigma=2.0 * sigma),
    }
    if len(mixture) == 1:
        model = laws[mixture[0][1]]
    else:
        model = MixtureModel(components=[(w, laws[law]) for w, law in mixture])
    d = np.array([1.0, -0.5])
    batch = 65_536
    ratios = []
    for antithetic in (False, True):
        spec = SimulationSpec(paths=4 * batch, seed=71, batch_size=batch, antithetic=antithetic)
        tracemalloc.start()
        try:
            run(model, d, spec=spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratios.append((peak - 8 * spec.paths) / (8 * batch))
    return ratios


# (mixture, bound): a mixture's bound is its worst measured ratio plus a
# quarter; the heaviest component draws no factor (mixture2: 1.36 without
# antithetic draws) or draws one and is indexed (mixture2_student_heaviest: 2.28)
PEAK_BOUNDS = {
    "student": (((1.0, "student"),), 1.5),
    "mixture2": (((0.4, "student"), (0.6, "gauss")), 1.7),
    "mixture2_student_heaviest": (((0.6, "student"), (0.4, "gauss")), 2.85),
}


@pytest.mark.parametrize("shape", PEAK_BOUNDS)
def test_sampler_fills_its_output_in_place(shape):
    """Beyond its output, the sampler holds a few batches of scratch, not a copy per batch."""
    mixture, bound = PEAK_BOUNDS[shape]
    assert max(_peaks_past_the_sample(simulate_pnl, mixture)) <= bound


@pytest.mark.parametrize("shape", PEAK_BOUNDS)
def test_validate_model_selects_in_place_on_its_sample(shape):
    """Beyond the sample it draws, a validation holds the sampler's scratch, not a copy of it."""
    mixture, bound = PEAK_BOUNDS[shape]
    assert max(_peaks_past_the_sample(validate_model, mixture)) <= bound


def test_validate_model_gaussian():
    model = _gaussian_model()
    d = np.array([3.0, 4.0])
    rows = validate_model(
        model, d, alphas=(0.01, 0.05), spec=SimulationSpec(paths=200_000, seed=29)
    )
    assert [r.alpha for r in rows] == [0.01, 0.05]
    for row in rows:
        assert row.analytic_var == pytest.approx(var(model, d, row.alpha), rel=1e-14)
        assert row.analytic_es == pytest.approx(
            expected_shortfall(model, d, row.alpha), rel=1e-12
        )
        assert row.var_ok and row.es_ok


def test_validate_model_mixture():
    comps = [
        (0.75, _gaussian_model()),
        (0.25, _student_model(nu=5.0)),
    ]
    mix = MixtureModel(components=comps)
    d = np.array([1.0, 1.0])
    rows = validate_model(
        mix, d, alphas=(0.05,), spec=SimulationSpec(paths=200_000, seed=31)
    )
    assert rows[0].var_ok and rows[0].es_ok


def test_student_params_accepted_directly():
    params = StudentParams(nu=5.0, mu=np.zeros(2), sigma=np.eye(2))
    pnl = simulate_pnl(params, np.array([1.0, 0.0]), SimulationSpec(paths=20_000, seed=37))
    assert pnl.shape == (20_000,)


def test_unsupported_generator_is_rejected():
    gen = DensityGenerator(
        dimension=2,
        density=lambda u: (1.0 + u) ** -3,
        normalizer=2.0 / math.pi,
        name="pearson-vii",
    )
    model = EllipticModel(generator=gen, mu=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(UnsupportedGeneratorError):
        simulate_pnl(model, np.array([1.0, 0.0]), SimulationSpec(paths=10_000))
