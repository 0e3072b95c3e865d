from __future__ import annotations

import hashlib
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from helpers import pinned_digest, random_pd
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthgrid import (
    DerivedCovariances,
    calibrate_threshold,
    derived_covariances,
    error_exponent_estimate,
    gaussian_kl_marginals,
    lrt_statistic,
    optimal_attack_covariance,
    run_detection_experiment,
    sigma_from_snr,
    toeplitz_covariance,
    zero_mean_gaussian_kl,
)
from stealthgrid import detection
from stealthgrid.detection import _LrtModel, _linear_quantile
from stealthgrid.gaussian import logdet_psd

SCALAR_DERIVED = DerivedCovariances(
    sigma_yy=np.array([[1.0]]), sigma_yaya=np.array([[2.0]])
)
IDENTICAL = DerivedCovariances(sigma_yy=np.eye(2), sigma_yaya=np.eye(2))


def _full_rank_3x3() -> DerivedCovariances:
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 3))
    syy = a @ a.T + 3.0 * np.eye(3)
    saa = rng.standard_normal((3, 3))
    return DerivedCovariances(sigma_yy=syy, sigma_yaya=syy + saa @ saa.T / 3.0)


def _optimal_attack(h: np.ndarray, rho: float, snr_db: float) -> DerivedCovariances:
    sxx = toeplitz_covariance(h.shape[1], rho)
    attack = optimal_attack_covariance(h, sxx)
    return derived_covariances(h, sxx, sigma_from_snr(h, sxx, snr_db), attack)


def _optimal_attack_8x4() -> DerivedCovariances:
    """8 measurements, 4 states: the optimal attack has rank 4 of 8."""
    return _optimal_attack(np.random.default_rng(23).standard_normal((8, 4)), 0.5, 20.0)


# ---------------------------------------------------------------------------
# lrt_statistic
# ---------------------------------------------------------------------------


def test_lrt_identical_hypotheses_is_zero():
    for y in (np.zeros(2), np.array([3.0, -1.0])):
        assert lrt_statistic(y, IDENTICAL) == pytest.approx(0.0, abs=1e-14)


def test_lrt_scalar_at_origin():
    assert lrt_statistic(np.array([0.0]), SCALAR_DERIVED) == pytest.approx(
        0.5 * math.log(0.5)
    )


def test_lrt_scalar_away_from_origin():
    expected = 0.5 * math.log(0.5) + 0.5 * 4.0 * (1.0 - 0.5)
    assert lrt_statistic(np.array([2.0]), SCALAR_DERIVED) == pytest.approx(expected)


@pytest.mark.parametrize(
    "y, match",
    [
        (np.array([2.0, 1.0]), r"y must be a vector of length m = 1, got shape \(2,\)"),
        (np.array([[2.0, 1.0]]), r"y must be a vector of length m = 1, got shape \(1, 2\)"),
        (np.array([[[2.0]]]), r"y must be a vector of length m = 1, got shape \(1, 1, 1\)"),
        (np.array([math.nan]), "y has non-finite entries"),
        (np.array([math.inf]), "y has non-finite entries"),
        (np.array([[1.0], [math.nan]]), "y has non-finite entries"),
    ],
    ids=["length-2", "matrix", "3-d", "nan", "inf", "nan-in-stream"],
)
def test_lrt_rejects_a_malformed_observation(y, match):
    with pytest.raises(ValueError, match=match):
        lrt_statistic(y, SCALAR_DERIVED)


def test_lrt_scores_a_stream_on_one_model(monkeypatch, ieee30_h):
    derived = _optimal_attack(ieee30_h, 0.1, 20.0)
    z = np.random.default_rng(8).standard_normal((40, derived.m))
    y = z @ np.linalg.cholesky(derived.sigma_yaya).T
    rows = [lrt_statistic(row, derived) for row in y]
    assert all(type(value) is float for value in rows)
    built = []
    init = _LrtModel.__init__

    def counting(self, d):
        built.append(d)
        init(self, d)

    monkeypatch.setattr(_LrtModel, "__init__", counting)
    stream = lrt_statistic(y, derived)
    assert len(built) == 1
    assert stream.shape == (40,)
    np.testing.assert_allclose(stream, rows, rtol=1e-12, atol=0.0)


def test_lrt_scalar_stream_matches_its_vectors():
    stream = lrt_statistic(np.array([[0.0], [2.0]]), SCALAR_DERIVED)
    assert stream.tolist() == [
        lrt_statistic(np.array([0.0]), SCALAR_DERIVED),
        lrt_statistic(np.array([2.0]), SCALAR_DERIVED),
    ]


@pytest.mark.parametrize("y", [np.zeros(2), np.zeros((3, 2))], ids=["vector", "stream"])
@pytest.mark.parametrize(
    "derived, match",
    [
        (DerivedCovariances(np.array([[1.0, 0.0], [0.0, math.nan]]), np.eye(2)), "sigma_yy has non-finite"),
        (DerivedCovariances(-np.eye(2), np.eye(2)), "sigma_yy is not positive definite"),
        (DerivedCovariances(np.eye(2), np.diag([1.0, -1.0])), "sigma_yaya is not positive definite"),
        (DerivedCovariances(np.eye(2), np.diag([2.0, 0.5])), "not positive semidefinite"),
    ],
    ids=["nan-covariance", "nominal-not-pd", "attacked-not-pd", "attack-not-psd"],
)
def test_lrt_keeps_the_model_checks_for_vectors_and_streams(y, derived, match):
    with pytest.raises(ValueError, match=match):
        lrt_statistic(y, derived)


# ---------------------------------------------------------------------------
# calibrate_threshold
# ---------------------------------------------------------------------------


def test_calibrate_identical_hypotheses_degenerates_to_zero():
    tau = calibrate_threshold(IDENTICAL, n=5, epsilon=0.1, trials=1000, seed=0)
    assert tau == pytest.approx(0.0, abs=1e-12)


def test_calibrate_meets_false_alarm_budget():
    epsilon = 0.1
    trials = 10_000
    tau = calibrate_threshold(SCALAR_DERIVED, n=1, epsilon=epsilon, trials=trials, seed=1)
    model = _LrtModel(SCALAR_DERIVED)
    rng = np.random.default_rng(99)
    fresh = model.aggregate_samples(attacked=False, n=1, trials=trials, rng=rng)
    alpha = float(np.mean(fresh > tau))
    assert 0.08 <= alpha <= 0.12
    stderr = math.sqrt(epsilon * (1 - epsilon) / trials)
    assert alpha <= epsilon + 2.0 * stderr


def test_calibrate_rejects_tiny_trial_budget():
    with pytest.raises(ValueError, match="trials"):
        calibrate_threshold(SCALAR_DERIVED, n=1, epsilon=0.05, trials=100, seed=0)


def test_quantile_noise_shrinks_with_trials():
    taus_small = [
        calibrate_threshold(SCALAR_DERIVED, n=1, epsilon=0.1, trials=2000, seed=s)
        for s in range(8)
    ]
    taus_large = [
        calibrate_threshold(SCALAR_DERIVED, n=1, epsilon=0.1, trials=32_000, seed=s)
        for s in range(8)
    ]
    assert np.std(taus_large) < np.std(taus_small)


def test_run_detection_experiment_rates():
    result = run_detection_experiment(SCALAR_DERIVED, n=20, epsilon=0.05, trials=4000, seed=5)
    assert 0.0 <= result.alpha_hat <= 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / 4000) + 0.01
    assert 0.0 <= result.beta_hat <= 1.0
    assert result.tau == pytest.approx(
        calibrate_threshold(SCALAR_DERIVED, n=20, epsilon=0.05, trials=4000, seed=5)
    )


@pytest.mark.parametrize("call", [calibrate_threshold, run_detection_experiment])
def test_detection_rejects_empty_blocks(call):
    with pytest.raises(ValueError, match="block length n must be >= 1, got 0"):
        call(SCALAR_DERIVED, n=0, epsilon=0.05, trials=4000, seed=0)


@pytest.mark.parametrize("call", [calibrate_threshold, run_detection_experiment])
@pytest.mark.parametrize(
    "n, trials, match",
    [
        (2.5, 4000, "block length n must be an integer, got 2.5"),
        (True, 4000, "block length n must be an integer, got True"),
        (5, 4000.0, "trials must be an integer, got 4000.0"),
    ],
    ids=["n-float", "n-bool", "trials-float"],
)
def test_detection_rejects_non_integral_counts(call, n, trials, match):
    with pytest.raises(ValueError, match=match):
        call(SCALAR_DERIVED, n=n, epsilon=0.05, trials=trials, seed=0)


# ---------------------------------------------------------------------------
# error_exponent_estimate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n_grid, trials, match",
    [
        ((10,), 0, "need at least 1000 trials"),
        ((10,), 1, "need at least 1000 trials"),
        ((10,), 999, "need at least 1000 trials"),
        ((10, 0), 2000, "block length n must be >= 1, got 0"),
    ],
)
def test_exponent_rejects_out_of_domain_input(n_grid, trials, match):
    with pytest.raises(ValueError, match=match):
        error_exponent_estimate(SCALAR_DERIVED, n_grid=n_grid, epsilon=0.05, trials=trials)


@pytest.mark.parametrize(
    "n_grid, trials, match",
    [
        ((2.5, 10), 2000, "block length n must be an integer, got 2.5"),
        ((True,), 2000, "block length n must be an integer, got True"),
        ((10,), 2000.0, "trials must be an integer, got 2000.0"),
        ((), 2000, "need at least one block length n"),
    ],
    ids=["n-float", "n-bool", "trials-float", "empty-grid"],
)
def test_exponent_rejects_non_integral_counts_and_empty_grid(n_grid, trials, match):
    with pytest.raises(ValueError, match=match):
        error_exponent_estimate(SCALAR_DERIVED, n_grid=n_grid, epsilon=0.05, trials=trials)


def test_exponent_accepts_numpy_integers():
    estimate = error_exponent_estimate(
        SCALAR_DERIVED, n_grid=np.array([5, 10]), epsilon=0.05, trials=np.int64(2000)
    )
    assert [type(p.n) for p in estimate.points] == [int, int]
    assert [p.n for p in estimate.points] == [5, 10]


@pytest.mark.parametrize("tail", ["normal", "empirical"])
def test_exponent_identical_hypotheses_is_positive_zero(tail):
    estimate = error_exponent_estimate(
        IDENTICAL, n_grid=(5, 10), epsilon=0.05, trials=2000, seed=0, tail=tail
    )
    for point in estimate.points:
        assert point.exponent == 0.0
        assert math.copysign(1.0, point.exponent) == 1.0


def test_exponent_identical_hypotheses_is_zero():
    estimate = error_exponent_estimate(
        IDENTICAL, n_grid=(5, 10), epsilon=0.05, trials=2000, seed=0
    )
    assert estimate.kl_marginals == pytest.approx(0.0, abs=1e-12)
    for point in estimate.points:
        assert point.exponent == pytest.approx(0.0, abs=1e-12)


def test_exponent_converges_toward_kl():
    estimate = error_exponent_estimate(
        SCALAR_DERIVED, n_grid=(10, 50, 200), epsilon=0.05, trials=100_000, seed=7
    )
    d = estimate.kl_marginals
    assert d == pytest.approx(0.5 * (2.0 - 1.0 + math.log(0.5)))
    exponents = [p.exponent for p in estimate.points]
    assert exponents == sorted(exponents)
    assert abs(exponents[-1] - d) <= 0.25 * d


def test_exponent_never_exceeds_kl_plus_noise():
    estimate = error_exponent_estimate(
        SCALAR_DERIVED, n_grid=(10, 50, 200), epsilon=0.05, trials=50_000, seed=3
    )
    for point in estimate.points:
        assert point.exponent <= estimate.kl_marginals + 3.0 * point.radius


def test_exponent_empirical_tail_flags_deep_tail():
    estimate = error_exponent_estimate(
        SCALAR_DERIVED,
        n_grid=(10, 200),
        epsilon=0.05,
        trials=20_000,
        seed=1,
        tail="empirical",
    )
    shallow, deep = estimate.points
    assert math.isfinite(shallow.exponent) and shallow.exceed_count > 0
    assert math.isinf(deep.exponent) and deep.exceed_count == 0


def test_exponent_tails_agree_where_counting_works():
    emp = error_exponent_estimate(
        SCALAR_DERIVED, n_grid=(20,), epsilon=0.05, trials=100_000, seed=5, tail="empirical"
    ).points[0]
    normal = error_exponent_estimate(
        SCALAR_DERIVED, n_grid=(20,), epsilon=0.05, trials=100_000, seed=5, tail="normal"
    ).points[0]
    assert emp.beta_hat == pytest.approx(normal.beta_hat, rel=0.2)


# ---------------------------------------------------------------------------
# distributional invariants of the log-LRT
# ---------------------------------------------------------------------------


def test_mean_log_lrt_under_each_hypothesis():
    derived = SCALAR_DERIVED
    model = _LrtModel(derived)
    trials = 400_000
    rng0 = np.random.default_rng(30)
    rng1 = np.random.default_rng(31)
    clean = model.aggregate_samples(attacked=False, n=1, trials=trials, rng=rng0)
    attacked = model.aggregate_samples(attacked=True, n=1, trials=trials, rng=rng1)

    d_forward = gaussian_kl_marginals(derived)  # D(attacked || nominal)
    d_reverse = zero_mean_gaussian_kl(derived.sigma_yy, derived.sigma_yaya)

    se0 = clean.std(ddof=1) / math.sqrt(trials)
    se1 = attacked.std(ddof=1) / math.sqrt(trials)
    assert abs(clean.mean() - (-d_reverse)) <= 3.0 * se0
    assert abs(attacked.mean() - d_forward) <= 3.0 * se1


def test_mean_log_lrt_multivariate():
    derived = _full_rank_3x3()
    model = _LrtModel(derived)
    trials = 200_000
    attacked = model.aggregate_samples(
        attacked=True, n=1, trials=trials, rng=np.random.default_rng(18)
    )
    se = attacked.std(ddof=1) / math.sqrt(trials)
    assert abs(attacked.mean() - gaussian_kl_marginals(derived)) <= 3.0 * se


# ---------------------------------------------------------------------------
# the chi-square kernel of aggregate_samples against direct simulation
# ---------------------------------------------------------------------------


def _mean_var_stderr(x: np.ndarray) -> tuple[float, float, float, float]:
    """Sample mean and variance with the standard error of each."""
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    fourth = float(np.mean((x - mean) ** 4))
    return mean, var, math.sqrt(var / x.size), math.sqrt(max(fourth - var**2, 0.0) / x.size)


@pytest.mark.parametrize("attacked", [False, True], ids=["nominal", "attacked"])
@pytest.mark.parametrize(
    "derived",
    [SCALAR_DERIVED, _full_rank_3x3(), _optimal_attack_8x4()],
    ids=["scalar", "full-rank-3x3", "rank-deficient-8x4"],
)
def test_aggregate_matches_direct_simulation_and_exact_moments(derived, attacked):
    n, trials = 5, 20_000
    model = _LrtModel(derived)
    cov = derived.sigma_yaya if attacked else derived.sigma_yy
    # the route the kernel replaces: y = L z, n observations per block
    z = np.random.default_rng(40).standard_normal((trials * n, derived.m))
    y = z @ np.linalg.cholesky(cov).T
    direct = model.log_lrt(y).reshape(trials, n).sum(axis=1)
    kernel = model.aggregate_samples(attacked, n, trials, np.random.default_rng(41))

    delta_cov = model.delta @ cov
    exact_mean = n * (model.const + 0.5 * np.trace(delta_cov))
    exact_var = 0.5 * n * np.trace(delta_cov @ delta_cov)
    m_d, v_d, se_md, se_vd = _mean_var_stderr(direct)
    m_k, v_k, se_mk, se_vk = _mean_var_stderr(kernel)
    assert abs(m_d - m_k) <= 4.0 * math.hypot(se_md, se_mk)
    assert abs(v_d - v_k) <= 4.0 * math.hypot(se_vd, se_vk)
    for mean, var, se_m, se_v in ((m_d, v_d, se_md, se_vd), (m_k, v_k, se_mk, se_vk)):
        assert abs(mean - exact_mean) <= 4.0 * se_m
        assert abs(var - exact_var) <= 4.0 * se_v


def test_aggregate_chunks_are_one_chisquare_stream(monkeypatch):
    model = _LrtModel(_optimal_attack_8x4())
    n, trials = 7, 100
    columns = model.weights[True].size
    assert columns == 4
    monkeypatch.setattr(detection, "_CHUNK_BUDGET", 24)  # 6 rows per chunk, 17 chunks
    chunked = model.aggregate_samples(True, n, trials, np.random.default_rng(5))
    chi2 = np.random.default_rng(5).chisquare(n, size=(trials, columns))
    whole = n * model.const + 0.5 * np.einsum("tm,m->t", chi2, model.weights[True])
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("attacked", [False, True])
def test_aggregate_identical_hypotheses_is_exactly_n_const(attacked):
    syy = _full_rank_3x3().sigma_yy
    model = _LrtModel(DerivedCovariances(sigma_yy=syy, sigma_yaya=syy))
    samples = model.aggregate_samples(attacked, 9, 1000, np.random.default_rng(2))
    assert np.all(samples == 9 * model.const)


# ---------------------------------------------------------------------------
# the weights kept: delta has rank at most rank(S_aa)
# ---------------------------------------------------------------------------


def test_a_model_factors_each_covariance_once(monkeypatch):
    factored = []
    cholesky = np.linalg.cholesky

    def counting(a):
        factored.append(a)
        return cholesky(a)

    derived = _full_rank_3x3()
    monkeypatch.setattr(np.linalg, "cholesky", counting)
    model = _LrtModel(derived)
    monkeypatch.undo()
    assert len(factored) == 2
    assert factored[0] is derived.sigma_yy and factored[1] is derived.sigma_yaya
    # the log-determinants come from the same factors logdet_psd would make
    assert model.const == 0.5 * (logdet_psd(derived.sigma_yy) - logdet_psd(derived.sigma_yaya))


def test_kept_weight_counts_follow_the_attack_rank(ieee30_h):
    systems = {
        "scalar": (SCALAR_DERIVED, 1),
        "rank-deficient-8x4": (_optimal_attack_8x4(), 4),
        "ieee30-optimal": (_optimal_attack(ieee30_h, 0.1, 20.0), 29),
        "identical": (IDENTICAL, 0),
    }
    for name, (derived, kept) in systems.items():
        model = _LrtModel(derived)
        assert [model.weights[a].size for a in (False, True)] == [kept, kept], name


@pytest.mark.parametrize("attacked", [False, True])
def test_aggregate_without_weights_draws_nothing(attacked):
    model = _LrtModel(IDENTICAL)
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    samples = model.aggregate_samples(attacked, 9, 1000, rng)
    assert rng.bit_generator.state == state
    assert np.all(samples == 9 * model.const)


@st.composite
def _rank_deficient_systems(draw):
    """S_yy with eigenvalues in [0.5, 2] and S_aa of rank r <= m, eigenvalues in [0.1, 2]."""
    m = draw(st.integers(1, 12))
    rank = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    syy = random_pd(rng, m)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    basis = q[:, :rank]
    saa = (basis * rng.uniform(0.1, 2.0, size=rank)) @ basis.T
    derived = DerivedCovariances(sigma_yy=syy, sigma_yaya=syy + (saa + saa.T) / 2.0)
    return derived, rank


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rank_deficient_systems(), st.integers(1, 50))
def test_kept_weights_carry_the_exact_moments(system, n):
    derived, rank = system
    model = _LrtModel(derived)
    for attacked, cov in ((False, derived.sigma_yy), (True, derived.sigma_yaya)):
        d = model.weights[attacked]
        assert d.size == rank
        delta_cov = model.delta @ cov
        exact_mean = n * (model.const + 0.5 * np.trace(delta_cov))
        exact_var = 0.5 * n * np.trace(delta_cov @ delta_cov)
        assert n * (model.const + 0.5 * d.sum()) == pytest.approx(exact_mean, rel=1e-12)
        assert 0.5 * n * np.sum(d * d) == pytest.approx(exact_var, rel=1e-12)


# ---------------------------------------------------------------------------
# the detection kernel's quantile, memory, imports and pinned values
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 101, 1000])
def test_linear_quantile_is_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    qs = [0.0, _EPS, 0.5, 1.0 - _EPS, 1.0, *rng.random(20).tolist()]
    distinct = rng.standard_normal(n)
    ties = rng.integers(-2, 3, size=n).astype(float)
    for values in (distinct, ties, np.full(n, 0.5)):
        for q in qs:
            samples = values.copy()
            assert _same_bits(_linear_quantile(samples, q), np.quantile(values, q)), (q, values)
            assert np.array_equal(np.sort(samples), np.sort(values))  # a reordering


def test_linear_quantile_is_numpys_on_random_sizes_and_levels():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        n = int(rng.integers(1, 300))
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        q = float(rng.random())
        assert _same_bits(_linear_quantile(values.copy(), q), np.quantile(values, q)), (n, q)


def test_a_detection_run_never_imports_numpy_ma():
    # np.quantile reaches np.unique, whose first call imports numpy.ma
    code = """
import sys
import numpy as np
from stealthgrid import (
    DerivedCovariances, calibrate_threshold, error_exponent_estimate, run_detection_experiment,
)
derived = DerivedCovariances(sigma_yy=np.array([[1.0]]), sigma_yaya=np.array([[2.0]]))
for tail in ("normal", "empirical"):
    error_exponent_estimate(derived, n_grid=(1, 5), trials=2000, seed=0, tail=tail)
run_detection_experiment(derived, n=5, epsilon=0.05, trials=2000, seed=0)
calibrate_threshold(derived, n=5, epsilon=0.05, trials=2000, seed=0)
sys.exit("numpy.ma imported" if "numpy.ma" in sys.modules else 0)
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_detection_memory_is_one_sample_array_and_one_chunk(ieee30_h):
    # 29 kept weights: drawing all trials at once would hold trials x 29 floats
    derived = _optimal_attack(ieee30_h, 0.1, 20.0)
    trials = 20_000
    bound = 4 * trials * 8 + 4 * 2**14 * 8  # a few sample arrays and 128 KB chunks
    calls = {
        f"exponent-{tail}": lambda tail=tail: error_exponent_estimate(
            derived, n_grid=(1, 2, 5), trials=trials, seed=1, tail=tail
        )
        for tail in ("normal", "empirical")
    }
    calls["experiment"] = lambda: run_detection_experiment(
        derived, n=5, epsilon=0.05, trials=trials, seed=1
    )
    for call in calls.values():  # first-call allocations are not the kernel's
        call()
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak <= bound, (name, peak, bound)
    finally:
        tracemalloc.stop()


#: per BLAS kernel (helpers.blas_kernel), the digest of the detection estimates
DETECTION_DIGESTS = {
    b"SkylakeX": "302347bdf3f3c1fd6698969897c32ad926e49690efa6879e69e94752b32006e1",
    b"Haswell": "aa32516847b73e83dd94bc4657675acef0b13b8aeed20be9ec67fd6a94cb42a1",
    b"Sandybridge": "f6e24f7937b314c29b241cc5bbb624fc629a8f9abc7311400e2845b8d64b32c5",
    b"Nehalem": "c3182a2f1e5d8e7a42f1ea4b4db51a4da1acd5e783e59253ef07594c05b4b234",
    b"Katmai": "a7e47d706bd7c64643b14667994dc3ebae7df15d3c4bafe48165d6ed931a17aa",
}


def test_detection_is_pinned_bit_for_bit(ieee30_h):
    # both calls, both tails, on 1, 4 and 29 kept weights; 16 385 trials leave
    # a last chunk of one row at 1 and 4 weights.  The digest is that of the
    # kernel that drew all rows at once and took np.quantile (numpy 2.4,
    # x86-64 OpenBLAS, one digest per kernel: each rounds the weights its way)
    digest = hashlib.sha256()
    for derived in (SCALAR_DERIVED, _optimal_attack_8x4(), _optimal_attack(ieee30_h, 0.1, 20.0)):
        for tail in ("normal", "empirical"):
            estimate = error_exponent_estimate(
                derived, n_grid=(1, 5, 20), epsilon=0.05, trials=16_385, seed=11, tail=tail
            )
            for p in estimate.points:
                digest.update(
                    np.array([p.tau, p.beta_hat, p.exponent, p.radius, estimate.kl_marginals])
                )
                digest.update(np.array([p.n, p.exceed_count], dtype=np.int64))
        result = run_detection_experiment(derived, n=5, epsilon=0.05, trials=16_385, seed=11)
        digest.update(np.array([result.tau, result.alpha_hat, result.beta_hat]))
    assert digest.hexdigest() == pinned_digest(DETECTION_DIGESTS)
