"""Simulation engine: reproducibility, distributional checks, tail estimators."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
import warnings
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
from ellvar.errors import DomainError, NumericalError, UnsupportedGeneratorError


def _gaussian_model(sigma=None):
    s = np.eye(2) if sigma is None else np.asarray(sigma, float)
    return EllipticModel(generator=gaussian_generator(2), mu=np.zeros(2), sigma=s)


def _student_model(nu=6.0):
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    return EllipticModel(generator=student_generator(2, nu), mu=np.zeros(2), sigma=sigma)


def test_spec_defaults():
    # a million paths in batches of 2^18, seed 0, plain draws, one worker: the
    # CLI's defaults too
    assert SimulationSpec() == SimulationSpec(
        paths=1_000_000, seed=0, batch_size=262_144, antithetic=False, workers=1
    )


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
    assert float(np.var(pnl)) == pytest.approx(float(d @ sigma @ d), rel=0.01, abs=0.0)


def test_student_sample_variance():
    model = _student_model(nu=6.0)
    d = np.array([1.0, 1.0])
    pnl = simulate_pnl(model, d, SimulationSpec(paths=400_000, seed=13))
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    want = (6.0 / 4.0) * float(d @ sigma @ d)
    assert float(np.var(pnl)) == pytest.approx(want, rel=0.02, abs=0.0)


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
    # 49 paths in the tail warn, naming the line that called, and 50 do not
    rng = np.random.default_rng(19)
    pnl = rng.standard_normal(10_000)
    with pytest.warns(RuntimeWarning):
        empirical_var_es(pnl, 0.004)
    with pytest.warns(RuntimeWarning, match="only 49 paths") as record:
        empirical_var_es(pnl, 0.0049)
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empirical_var_es(pnl, 0.005)


def test_es_standard_error_of_one_and_two_tail_paths():
    # one tail path has no spread, so no ES standard error, and only the
    # thin-tail warning says so; two paths have one
    pnl = np.random.default_rng(29).standard_normal(10_000)
    with pytest.warns(RuntimeWarning) as record:
        one, two = empirical_var_es(pnl, 1e-4), empirical_var_es(pnl, 2e-4)
    assert [w.message.args[0] for w in record] == [
        f"only {k} paths in the 0.000{k} tail; estimates will be noisy" for k in (1, 2)
    ]
    assert one.tail_count == 1 and math.isnan(one.es_se)
    assert two.tail_count == 2 and 0.0 < two.es_se < math.inf


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


def test_validate_model_refuses_a_sample_past_the_double_range():
    # at 2^1020 some Student nu = 3 paths overflow: the draw raises, naming the
    # batch and the pnl scale, in a worker thread too, before anything is estimated
    model = StudentParams(nu=3.0, mu=np.zeros(1), sigma=np.eye(1))
    for run, spec in (
        (simulate_pnl, SimulationSpec(paths=100_000, seed=1)),
        (validate_model, SimulationSpec(paths=100_000, seed=1)),
        (simulate_pnl, SimulationSpec(paths=100_000, seed=1, batch_size=25_000, workers=2)),
    ):
        with pytest.raises(NumericalError, match="pnl is not finite") as err:
            run(model, np.array([2.0**1020]), spec=spec)
        assert err.value.diagnostics["scale"] == 2.0**1020
        assert err.value.diagnostics["batch"] in range(-(-spec.paths // spec.batch_size))
    # a pnl scale past the double range raises before any path is drawn
    wide = StudentParams(nu=3.0, mu=np.zeros(1), sigma=np.full((1, 1), 16.0))
    with pytest.raises(NumericalError, match="double range") as err:
        simulate_pnl(wide, np.array([2.0**1023]), spec)
    # 2^1023 is 1/2 at exponent 1024, and its scale 4 * 1/2
    assert err.value.diagnostics["unit_value"].tolist() == [2.0]
    assert err.value.diagnostics["exponent"] == 1024
    # at 2^1010 every path is the unit book's, scaled exactly
    unit = simulate_pnl(model, np.ones(1), spec)
    book = simulate_pnl(model, np.array([2.0**1010]), spec)
    assert book.tobytes() == np.ldexp(unit, 1010).tobytes()


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


def test_linear_quantile_is_numpys_at_gamma_one_half():
    # 16 * 0.28125 = 4.5: the two forms of the interpolation differ by an ulp for
    # these neighbours, and numpy's linear method takes b - (b - a) (1 - gamma)
    for a, b in ((-0.9910457662660677, 7.487210707144394), (0.10483593194374219, 8.80612275317112)):
        x = np.array([-5.0] * 4 + [a, b] + [9.0] * 11)
        assert a + (b - a) * 0.5 != b - (b - a) * 0.5
        assert mc._linear_quantile(np.sort(x), x.size, 0.28125) == np.quantile(x, 0.28125)


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
    assert spread == pytest.approx(np.mean([e.es_se for e in estimates]), rel=0.15, abs=0.0)


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
    """What simulate_pnl draws, written out per batch; nus[j] is None for a Gaussian.

    Each batch reads, from its own stream: a mixture's one uniform u,
    which gives component j the drawn rows [floor(B c_{j-1} + u),
    floor(B c_j + u)), then one standard normal per drawn row, then one
    chi-square block per Student component with rows, in component
    order.  Also returns each batch's per-component row counts.
    """
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    pnl, counts = [], []
    for b, start in enumerate(range(0, spec.paths, spec.batch_size)):
        count = min(spec.batch_size, spec.paths - start)
        rows = (count + 1) // 2 if spec.antithetic else count
        stream = np.random.SeedSequence(spec.seed, spawn_key=(b,))
        rng = np.random.Generator(np.random.SFC64(stream))
        u = rng.random() if len(weights) > 1 else 0.0
        edges = [0] + [min(math.floor(rows * c + u), rows) for c in cdf]
        component = np.repeat(np.arange(len(weights)), np.diff(edges))
        core = rng.standard_normal(rows) * scales[component]
        for j, nu in enumerate(nus):
            lo, hi = edges[j], edges[j + 1]
            if nu is not None and hi > lo:
                core[lo:hi] *= np.sqrt(nu / rng.chisquare(nu, size=hi - lo))
        want = means[component] + core
        if spec.antithetic:
            want = np.column_stack([want, means[component] - core]).ravel()[:count]
        pnl.append(want)
        counts.append(np.diff(edges))
    return np.concatenate(pnl), counts


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
    # about one row in 1,000: some batches give component 1 no row, and it draws no block
    "rare_component": ((0.999, 0.001), (None, 4.0)),
    "every_component_draws": ((0.2, 0.5, 0.3), (3.0, 5.0, 12.0)),
    # components past 255, some with no row in a batch
    "k300": _k300(),
}


def test_batches_draw_components_then_normals_then_chi_square(monkeypatch):
    """Batch b reads SFC64(SeedSequence(seed, spawn_key=(b,))): u, normals, chi-squares.

    At 12,999 paths in batches of 1,000 the last batch holds 999 paths,
    so with antithetic draws its mirrored half is one row short: the
    unmirrored last row shares its component's segment with mirrored
    rows, or in one shape has it alone.  A chunk of 7 rows splits every
    segment of more than 7 rows, and reads the stream as one block does.
    """
    alone, chunk = [], mc._CHUNK
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
        empty = []
        for antithetic in (False, True):
            spec = SimulationSpec(paths=12_999, seed=97, batch_size=1_000, antithetic=antithetic)
            want, counts = _reference_pnl(spec, np.asarray(weights), nus, means, scales)
            empty += [np.any(c == 0) for c in counts]
            if antithetic:
                # is the unmirrored last row alone in its component's segment?
                alone.append(counts[-1][np.flatnonzero(counts[-1])[-1]] == 1)
            for workers, rows in ((1, chunk), (2, chunk), (1, 7)):
                monkeypatch.setattr(mc, "_CHUNK", rows)
                pnl = simulate_pnl(mix, np.ones(1), replace(spec, workers=workers))
                assert pnl.tobytes() == want.tobytes(), (shape, antithetic, workers, rows)
        if shape == "rare_component":
            assert any(empty) and not all(empty)
    assert any(alone) and not all(alone)


# sha256 of simulate_pnl's bytes at 263,145 paths, seed 2026: the default
# batch of 262,144 paths and a short last batch of 1,001, one-factor books so
# no BLAS reduction enters the scale.  _reference_pnl gives all four, with
# scales (1.5, 4.5) and means (-1.5, 0.75); its one chi-square block per
# segment is what the sampler's chunks of mixing draws read
PNL_DIGESTS = {
    ("student", False): "d169c07e4ee076cf61a3a8ed810af11b276a37574c43c5842d1cb98224594f96",
    ("student", True): "5cd269a033a189fd9f39980109d10a055884e70e66b667d4c9bb6c2d94951385",
    ("mixture", False): "938bf6eff19efe9a1baea8caa333490dd2ce3e0d547223e45fa577b2294b13fd",
    ("mixture", True): "b198b9dda32c300a32e2f35e36d93fa4d03022665e37d5cdce687d04d724276e",
}


@pytest.mark.parametrize("law, antithetic", PNL_DIGESTS)
def test_seeded_pnl_is_unchanged_at_the_default_batch_size(law, antithetic):
    """A one-component model draws no uniform: its stream starts with the normals."""
    student = StudentParams(nu=4.0, mu=np.array([0.25]), sigma=np.array([[2.25]]))
    gauss = EllipticModel(
        mu=np.array([-0.5]), sigma=np.array([[0.25]]), generator=gaussian_generator(1)
    )
    model = student if law == "student" else MixtureModel([(0.7, gauss), (0.3, student)])
    spec = SimulationSpec(paths=263_145, seed=2026, antithetic=antithetic)
    pnl = simulate_pnl(model, np.array([3.0]), spec)
    assert hashlib.sha256(pnl.tobytes()).hexdigest() == PNL_DIGESTS[law, antithetic]


def test_component_edges_are_normalised_as_rng_choice_normalises_p(monkeypatch):
    # weights may miss 1 by up to 1e-12; the edges end at 1 exactly, so the
    # last component's rows end at the batch's last row
    seen = []
    monkeypatch.setattr(mc, "_draw_pnl", lambda rng, out, cdf, *rest: seen.append(cdf.copy()))
    gauss = EllipticModel(mu=np.zeros(1), sigma=np.eye(1), generator=gaussian_generator(1))
    for weights in ((0.3, 0.7 + 0.8e-12), (0.25, 0.5, 0.25 - 0.8e-12)):
        mix = MixtureModel(components=[(w, gauss) for w in weights])
        simulate_pnl(mix, np.ones(1), SimulationSpec(paths=10))
        want = np.cumsum(weights)
        want /= want[-1]
        assert seen[-1].tobytes() == want.tobytes() and seen[-1][-1] == 1.0


def test_a_large_mixture_fills_one_segment_per_component_in_each_batch():
    """Past 256 components: component j has mean j and a tiny scale, so each path
    rounds to its component, and each batch holds floor(B c_j + u) - floor(B c_{j-1} + u)
    rows of component j, in component order, u the first draw of its stream."""
    k = 257
    weights = np.arange(1.0, k + 1.0) / (k * (k + 1) / 2.0)
    gen, sigma = gaussian_generator(1), np.full((1, 1), 1e-12)
    mix = MixtureModel(
        components=[
            (w, EllipticModel(generator=gen, mu=np.full(1, j), sigma=sigma))
            for j, w in enumerate(weights)
        ]
    )
    spec = SimulationSpec(paths=20_000, seed=113, batch_size=8_192)
    components = np.rint(simulate_pnl(mix, np.ones(1), spec))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    want = []
    for b, start in enumerate(range(0, spec.paths, spec.batch_size)):
        rows = min(spec.batch_size, spec.paths - start)
        stream = np.random.SeedSequence(spec.seed, spawn_key=(b,))
        u = np.random.Generator(np.random.SFC64(stream)).random()
        edges = np.minimum(np.floor(rows * cdf + u), rows).astype(int)
        want.append(np.repeat(np.arange(k), np.diff(edges, prepend=0)))
    want = np.concatenate(want)
    assert np.count_nonzero(want == k - 1) > 100
    assert np.array_equal(components, want)


class _FixedStream:
    """A stand-in stream for ``_draw_pnl``: ``random()`` gives u, and every normal is 0."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def standard_normal(self, out):
        out.fill(0.0)
        return out


@pytest.mark.parametrize(
    "weights, grid",
    [
        # B c_j + i / 1024 is exact, so the mean count is w_j B to the bit
        ((0.25, 0.125, 0.0078125, 0.6171875), 1024),
        # k / 7 has no exact double: each floor may move by one step of the grid
        ((1 / 7, 2 / 7, 4 / 7), 4096),
    ],
    ids=["dyadic", "sevenths"],
)
@pytest.mark.parametrize("antithetic", [False, True])
def test_segment_counts_average_to_the_expected_counts_over_u(weights, grid, antithetic):
    """Over u = i / grid, i < grid, component j's mean row count is w_j B, B the drawn rows."""
    k, count = len(weights), 2_001
    rows = (count + 1) // 2 if antithetic else count
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    means, no_factor = np.arange(float(k)), [lambda rng, n: None] * k
    total = np.zeros(k)
    for i in range(grid):
        out = np.full(count, -1.0)
        mc._draw_pnl(_FixedStream(i / grid), out, cdf, np.ones(k), means, no_factor, antithetic)
        # every path is its component's mean, a mirrored row twice
        paths = np.bincount(out.astype(int), minlength=k)
        assert paths.sum() == count
        total += np.bincount(out[0::2].astype(int), minlength=k) if antithetic else paths
    want = np.asarray(weights) * rows
    if grid == 1024:
        assert total.tolist() == (want * grid).tolist()
    else:
        assert np.max(np.abs(total / grid - want)) <= 1.0 / grid


def test_a_uniform_within_an_ulp_of_one_fills_the_batch_to_its_last_row():
    # 2^20 + u rounds to 2^20 + 1, one row past the batch: the last segment ends
    # at its last row; the first, of 2^19 + u, rounds up as well
    count, u = 2**20, np.nextafter(1.0, 0.0)
    assert math.floor(count * 1.0 + u) == count + 1
    out = np.full(count, -1.0)
    cdf, means = np.array([0.5, 1.0]), np.array([0.0, 1.0])
    mc._draw_pnl(_FixedStream(u), out, cdf, np.ones(2), means, [lambda rng, n: None] * 2, False)
    first = math.floor(count * 0.5 + u)
    assert np.bincount(out.astype(int)).tolist() == [first, count - first]


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


# (mixture, bound): each bound is its worst measured ratio plus a quarter.  The
# scratch is one chunk of mixing factors (half a batch here) and, with
# antithetic draws, the half-size buffer of normals: student 1.04, mixture2
# 0.74 and mixture2_student_heaviest 0.83, each at antithetic draws
PEAK_BOUNDS = {
    "student": (((1.0, "student"),), 1.29),
    "mixture2": (((0.4, "student"), (0.6, "gauss")), 0.99),
    "mixture2_student_heaviest": (((0.6, "student"), (0.4, "gauss")), 1.08),
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


@pytest.mark.parametrize("offset, ok", [(3.0, True), (3.25, False)])
def test_validate_model_verdicts_are_three_standard_errors(monkeypatch, offset, ok):
    # a row passes with its analytic numbers within 3 SE of the estimates, the
    # boundary included (exact in binary here), and fails past them
    est = mc.EmpiricalEstimate(var=1.0, es=2.0, var_se=0.25, es_se=0.5, paths=10, tail_count=1)
    monkeypatch.setattr(mc, "simulate_pnl", lambda *args: np.zeros(10))
    monkeypatch.setattr(mc, "_estimates", lambda x, alphas: [est] * len(alphas))
    analytic = (1.0 + offset * 0.25, 2.0 - offset * 0.5)
    monkeypatch.setattr(mc, "_analytic_var_es", lambda *args: analytic)
    [row] = validate_model(_gaussian_model(), np.ones(2), (0.05,))
    assert (row.var_ok, row.es_ok) == (ok, ok)


def test_validate_model_gaussian():
    model = _gaussian_model()
    d = np.array([3.0, 4.0])
    rows = validate_model(
        model, d, alphas=(0.01, 0.05), spec=SimulationSpec(paths=200_000, seed=29)
    )
    assert [r.alpha for r in rows] == [0.01, 0.05]
    for row in rows:
        assert row.analytic_var == pytest.approx(var(model, d, row.alpha), rel=1e-14, abs=0.0)
        assert row.analytic_es == pytest.approx(
            expected_shortfall(model, d, row.alpha), rel=1e-12, abs=0.0
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
