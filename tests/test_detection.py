from __future__ import annotations

import hashlib
import math
import subprocess
import sys
import tracemalloc
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from helpers import pinned_digest, random_pd
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp
from scipy.stats import chi2

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


def _delta(derived: DerivedCovariances) -> np.ndarray:
    """S_yy^-1 - S_yaya^-1, the log-LRT's quadratic form, by two explicit inverses."""
    return np.linalg.inv(derived.sigma_yy) - np.linalg.inv(derived.sigma_yaya)


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


def _mp_log_lrt(derived: DerivedCovariances, y: np.ndarray) -> list[float]:
    """log L of each row of y at 50 digits, from mpmath Cholesky factors of the float inputs.

    1/2 [log |S_yy| - log |S_yaya| + |L_0^-1 y|^2 - |L_1^-1 y|^2] = c + y^T delta y / 2,
    delta = S_yy^-1 - S_yaya^-1, with no float64 rounding on the way.
    """
    with mpmath.workdps(50):
        logdets, norms = [], []
        for cov in (derived.sigma_yy, derived.sigma_yaya):
            factor = mpmath.cholesky(mpmath.matrix(cov.tolist()))
            logdets.append(2 * mpmath.fsum(mpmath.log(factor[i, i]) for i in range(derived.m)))
            squares = []
            for row in y.tolist():
                z = []  # forward substitution: z = L^-1 y
                for i, value in enumerate(row):
                    known = mpmath.fsum(factor[i, j] * z[j] for j in range(i))
                    z.append((value - known) / factor[i, i])
                squares.append(mpmath.fsum(v * v for v in z))
            norms.append(squares)
        return [
            float((logdets[0] - logdets[1] + q0 - q1) / 2) for q0, q1 in zip(*norms)
        ]


@pytest.mark.parametrize("snr_db", [40.0, 60.0])
def test_lrt_matches_a_50_digit_delta_on_ieee30(ieee30_h, snr_db):
    # The float inputs fix the log-LRT only to about eps kappa(S_yy), kappa = 2.2e5 at
    # 40 dB and 2.2e7 at 60 dB: S_aa = S_yaya - S_yy carries round-off in the 42
    # directions H does not reach, where S_yy^-1 is 1/sigma^2.  The whitened model
    # drops those directions and stays within eps kappa, 0.16 eps kappa measured at
    # both levels; a model built on the inverses S_yy^-1 - S_yaya^-1 measured 245 and
    # 3000 eps kappa on these draws.
    derived = _optimal_attack(ieee30_h, 0.1, snr_db)
    y = np.random.default_rng(2).standard_normal((3, derived.m)) @ np.linalg.cholesky(
        derived.sigma_yaya
    ).T
    eigenvalues = np.linalg.eigvalsh(derived.sigma_yy)
    floor = float(np.finfo(float).eps) * eigenvalues[-1] / eigenvalues[0]
    exact = np.array(_mp_log_lrt(derived, y))
    np.testing.assert_allclose(lrt_statistic(y, derived), exact, rtol=floor, atol=0.0)


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
    # no weights are kept, so the threshold is n c exactly, and c = 0 for equal covariances
    syy = _full_rank_3x3().sigma_yy
    for derived in (IDENTICAL, DerivedCovariances(sigma_yy=syy, sigma_yaya=syy)):
        const = _LrtModel(derived).const
        for n in (1, 5, 1000):
            tau = calibrate_threshold(derived, n=n, epsilon=0.1)
            assert tau == n * const == 0.0


def test_calibrate_meets_false_alarm_budget():
    epsilon = 0.1
    trials = 10_000
    tau = calibrate_threshold(SCALAR_DERIVED, n=1, epsilon=epsilon)
    model = _LrtModel(SCALAR_DERIVED)
    rng = np.random.default_rng(99)
    fresh = model.aggregate_samples(attacked=False, n=1, trials=trials, rng=rng)
    alpha = float(np.mean(fresh > tau))
    assert 0.08 <= alpha <= 0.12
    stderr = math.sqrt(epsilon * (1 - epsilon) / trials)
    assert alpha <= epsilon + 2.0 * stderr


@pytest.mark.parametrize("attack_var", [1.0, 10.0, 1e4])
def test_calibrate_matches_the_exact_chi_square_quantile(attack_var):
    # 1x1: the clean aggregate is n c + d_0 chi2_n / 2, so the chi2_n tail at
    # 2 (tau - n c) / d_0 is the false-alarm rate; its relative error is the
    # saddlepoint's, 2.1% at n = 1 and at most 0.29% from n = 5
    derived = DerivedCovariances(np.array([[1.0]]), np.array([[1.0 + attack_var]]))
    model = _LrtModel(derived)
    (d0,) = model.weights[False]
    for n in (1, 2, 5, 20, 100):
        for epsilon in (0.01, 0.05, 0.3, 0.45):  # from 0.317 the n = 1 root lies at y > 0
            tau = calibrate_threshold(derived, n=n, epsilon=epsilon)
            alpha = chi2.sf(2.0 * (tau - n * model.const) / d0, n)
            assert alpha == pytest.approx(epsilon, rel=0.022 if n < 5 else 0.003), (n, epsilon)


def test_calibrate_draws_nothing_and_the_experiment_draws_each_rate_once(monkeypatch, ieee30_h):
    derived = _optimal_attack(ieee30_h, 0.1, 20.0)
    draws = []
    aggregate = _LrtModel.aggregate_samples

    def counting(self, attacked, n, trials, rng):
        draws.append((attacked, trials * self.weights[attacked].size))
        return aggregate(self, attacked, n, trials, rng)

    monkeypatch.setattr(_LrtModel, "aggregate_samples", counting)
    tau = calibrate_threshold(derived, n=5, epsilon=0.05)
    assert draws == []
    result = run_detection_experiment(derived, n=5, epsilon=0.05, trials=2000, seed=4)
    assert draws == [(False, 2000 * 29), (True, 2000 * 29)]  # 2 x trials x r entries
    assert result.tau == tau


def test_pooled_false_alarm_rate_meets_epsilon_on_ieee30(ieee30_h):
    # alpha_hat of the draw-free threshold, pooled over seeds, within 4 stderr of epsilon
    derived = _optimal_attack(ieee30_h, 0.1, 20.0)
    epsilon, trials, seeds = 0.05, 20_000, range(5)
    for n in (1, 5):
        runs = [run_detection_experiment(derived, n, epsilon, trials, seed) for seed in seeds]
        assert len({run.tau for run in runs}) == 1
        pooled = np.mean([run.alpha_hat for run in runs])
        stderr = math.sqrt(epsilon * (1.0 - epsilon) / (trials * len(runs)))
        assert abs(pooled - epsilon) <= 4.0 * stderr, (n, pooled)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "clean_var, attack_var, match",
    [
        (1e-320, 1.0, "the log likelihood ratio of these covariances overflows float64"),
        (1e-300, 1e300, "the log likelihood ratio of these covariances overflows float64"),
        (1e308, 1e308, "sigma_yaya has non-finite entries"),
        (1.0, 1e100, None),
        (1e-100, 1.0, None),
        (1.0, 1e307, None),
    ],
)
def test_calibrate_rejects_far_apart_covariances_or_returns_a_finite_threshold(
    clean_var, attack_var, match
):
    derived = DerivedCovariances(np.array([[clean_var]]), np.array([[clean_var + attack_var]]))
    for n in (1, 10, 1000):
        if match is None:
            assert math.isfinite(calibrate_threshold(derived, n=n, epsilon=0.05))
        else:
            with pytest.raises(ValueError, match=match):
                calibrate_threshold(derived, n=n, epsilon=0.05)


def test_run_detection_experiment_rates():
    result = run_detection_experiment(SCALAR_DERIVED, n=20, epsilon=0.05, trials=4000, seed=5)
    assert 0.0 <= result.alpha_hat <= 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / 4000) + 0.01
    assert 0.0 <= result.beta_hat <= 1.0
    assert result.tau == calibrate_threshold(SCALAR_DERIVED, n=20, epsilon=0.05)


def _call_with_design(call, n, trials=4000):
    """``call`` on the scalar system; only the experiment takes trials and a seed."""
    if call is calibrate_threshold:
        return call(SCALAR_DERIVED, n=n, epsilon=0.05)
    return call(SCALAR_DERIVED, n=n, epsilon=0.05, trials=trials, seed=0)


@pytest.mark.parametrize("call", [calibrate_threshold, run_detection_experiment])
def test_detection_rejects_empty_blocks(call):
    with pytest.raises(ValueError, match="block length n must be >= 1, got 0"):
        _call_with_design(call, n=0)


_N_FLOAT = "block length n must be an integer, got 2.5"
_N_BOOL = "block length n must be an integer, got True"


@pytest.mark.parametrize(
    "call, n, trials, match",
    [
        pytest.param(calibrate_threshold, 2.5, None, _N_FLOAT, id="n-float-calibrate_threshold"),
        pytest.param(
            run_detection_experiment, 2.5, 4000, _N_FLOAT, id="n-float-run_detection_experiment"
        ),
        pytest.param(calibrate_threshold, True, None, _N_BOOL, id="n-bool-calibrate_threshold"),
        pytest.param(
            run_detection_experiment, True, 4000, _N_BOOL, id="n-bool-run_detection_experiment"
        ),
        pytest.param(
            run_detection_experiment, 5, 4000.0, "trials must be an integer, got 4000.0",
            id="trials-float-run_detection_experiment",
        ),
    ],
)
def test_detection_rejects_non_integral_counts(call, n, trials, match):
    with pytest.raises(ValueError, match=match):
        _call_with_design(call, n, trials)


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
    # the trial floor is the empirical tail's: the saddlepoint tail draws nothing
    with pytest.raises(ValueError, match=match):
        error_exponent_estimate(
            SCALAR_DERIVED, n_grid=n_grid, epsilon=0.05, trials=trials, tail="empirical"
        )


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


@pytest.mark.parametrize("tail", ["saddlepoint", "empirical"])
def test_exponent_identical_hypotheses_is_positive_zero(tail):
    estimate = error_exponent_estimate(
        IDENTICAL, n_grid=(5, 10), epsilon=0.05, trials=2000, seed=0, tail=tail
    )
    for point in estimate.points:
        assert point.exponent == 0.0
        assert math.copysign(1.0, point.exponent) == 1.0
        assert point.radius == 0.0  # every block is n c: neither count nor tau is noisy


def test_exponent_identical_hypotheses_is_zero():
    estimate = error_exponent_estimate(
        IDENTICAL, n_grid=(5, 10), epsilon=0.05, trials=2000, seed=0
    )
    assert estimate.kl_marginals == pytest.approx(0.0, abs=1e-12)
    for point in estimate.points:
        assert point.exponent == pytest.approx(0.0, abs=1e-12)
        assert point.tau == 0.0 and point.beta_hat == 1.0


def test_exponent_converges_toward_kl():
    # -log beta_n = n D - sqrt(n V) Phi^-1(1 - eps) + O(log n) (Strassen 1962), with
    # V the per-observation variance of the log-LRT under attack: the gap to the KL
    # closes like 1/sqrt(n), so at n = 200 the exponent is still 38% below it
    grid = (10, 50, 200, 2000, 20_000, 200_000)
    estimate = error_exponent_estimate(SCALAR_DERIVED, n_grid=grid, epsilon=0.05)
    d = estimate.kl_marginals
    assert d == pytest.approx(0.5 * (2.0 - 1.0 + math.log(0.5)))
    exponents = [p.exponent for p in estimate.points]
    assert exponents == sorted(exponents) and exponents[-1] < d
    spread = math.sqrt(0.5 * np.sum(_LrtModel(SCALAR_DERIVED).weights[True] ** 2))  # sqrt(V)
    second_order = spread * NormalDist().inv_cdf(0.95)
    ratios = [(d - e) * math.sqrt(n) / second_order for n, e in zip(grid, exponents)]
    assert ratios == sorted(ratios) and 0.98 < ratios[-1] < 1.0


def test_exponent_never_exceeds_kl_plus_noise():
    # the saddlepoint tail has no sampling noise, so the check is exponent <= KL
    estimate = error_exponent_estimate(SCALAR_DERIVED, n_grid=(1, 10, 50, 200, 1000))
    for point in estimate.points:
        assert point.radius == 0.0 and point.exceed_count == 0
        assert point.exponent <= estimate.kl_marginals


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


def test_exponent_rejects_an_unknown_tail():
    with pytest.raises(ValueError, match="tail must be 'saddlepoint' or 'empirical', got 'normal'"):
        error_exponent_estimate(SCALAR_DERIVED, n_grid=(10,), tail="normal")


# ---------------------------------------------------------------------------
# the saddlepoint tail against the exact law and against counting
# ---------------------------------------------------------------------------


def _log_chi2_sf(x: float, n: int) -> float:
    """log P(chi2_n > x), n even: log of e^(-x/2) sum_{k < n/2} (x/2)^k / k!, at any x.

    ``chi2.logsf`` takes the log of a tail that underflows to 0 once x is a
    few thousand."""
    k = np.arange(n // 2)
    return float(logsumexp(k * math.log(0.5 * x) - gammaln(k + 1)) - 0.5 * x)


@pytest.mark.parametrize("attack_var", [1.0, 10.0, 1e4, 1e100])
def test_saddlepoint_matches_the_exact_chi_square_exponent(attack_var):
    # 1x1: the aggregate is n c + d chi2_n / 2, so tau sits at the chi2_n epsilon-quantile
    # x of the attacked weight, and beta is the chi2_n tail at x d_1 / d_0
    derived = DerivedCovariances(np.array([[1.0]]), np.array([[1.0 + attack_var]]))
    (d1,), (d0,) = (_LrtModel(derived).weights[a] for a in (True, False))
    grid = (10, 20, 50, 100, 200, 1000, 10_000)
    estimate = error_exponent_estimate(derived, n_grid=grid, epsilon=0.05)
    scipy_finite = 0
    for point in estimate.points:
        x0 = chi2.ppf(0.05, point.n) * d1 / d0
        log_sf = chi2.logsf(x0, point.n)
        if math.isfinite(log_sf):
            scipy_finite += 1
            assert _log_chi2_sf(x0, point.n) == pytest.approx(log_sf, rel=1e-12)
        exact = -_log_chi2_sf(x0, point.n) / point.n
        assert point.exponent == pytest.approx(exact, rel=1e-3), point.n
        assert point.exponent < estimate.kl_marginals
    assert scipy_finite or attack_var >= 1e4  # there chi2.logsf is -inf from n = 10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "clean_var, attack_var",
    [(1.0, 1.0), (1.0, 10.0), (1.0, 1e4), (1.0, 1e100), (1e-100, 1.0), (1.0, 1e300)],
)
def test_saddlepoint_exponent_is_finite_and_below_kl_at_every_n(clean_var, attack_var):
    derived = DerivedCovariances(np.array([[clean_var]]), np.array([[clean_var + attack_var]]))
    estimate = error_exponent_estimate(derived, n_grid=(1, 2, 5, 10, 50, 200, 1000, 100_000))
    for point in estimate.points:
        assert math.isfinite(point.exponent) and math.isfinite(point.tau)
        assert 0.0 < point.exponent <= estimate.kl_marginals, point.n


def _log_chi2_sf_mp(x: float, n: int) -> float:
    """log P(chi2_n > x) at 30 digits, as the regularized upper incomplete gamma Q(n/2, x/2)."""
    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.gammainc(n / 2, x / 2, regularized=True)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saddlepoint_tails_hold_at_huge_block_lengths():
    # The 1x1 default of `stealthgrid detect`.  Near y = 0 the tail's w^2 = 2 (r t - K)
    # cancels to second order, so K must carry its log a to relative accuracy: with
    # log(a), n = 1e10 and 2^40 ended in a math domain error.  Exact: the chi2_n tail,
    # as the even-n sum where it is short enough and as Q(n/2, x/2) throughout.
    grid = (10**6, 10**8, 10**10, 2**40)
    model = _LrtModel(SCALAR_DERIVED)
    (d1,), (d0,) = (model.weights[a] for a in (True, False))
    estimate = error_exponent_estimate(SCALAR_DERIVED, n_grid=grid, epsilon=0.05)
    exponents = [p.exponent for p in estimate.points]
    assert all(map(math.isfinite, exponents))
    assert exponents == sorted(exponents) and exponents[-1] < estimate.kl_marginals
    for point in estimate.points:
        x0 = chi2.ppf(0.05, point.n) * d1 / d0
        exact = -_log_chi2_sf_mp(x0, point.n) / point.n
        if point.n <= 10**6:
            assert exact == pytest.approx(-_log_chi2_sf(x0, point.n) / point.n, rel=1e-12)
        assert point.exponent == pytest.approx(exact, rel=1e-3), point.n
    for n in grid:
        tau = calibrate_threshold(SCALAR_DERIVED, n=n, epsilon=0.05)
        alpha = chi2.sf(2.0 * (tau - n * model.const) / d0, n)  # Q(n/2, x/2) to 1e-14 here
        assert alpha == pytest.approx(0.05, rel=0.003), n


def _point_bits(estimate) -> bytes:
    return b"".join(
        np.array([p.n, p.tau, p.beta_hat, p.exponent, p.radius, p.exceed_count]).tobytes()
        for p in estimate.points
    )


def test_saddlepoint_values_are_the_same_for_every_seed_and_trial_count(ieee30_h):
    # bit for bit, below the empirical tail's trial floor too: this tail draws nothing
    for derived in (SCALAR_DERIVED, _optimal_attack(ieee30_h, 0.1, 20.0)):
        first = error_exponent_estimate(derived, n_grid=(1, 10), seed=0)
        for seed, trials in ((1, 1000), (2**63, 100_000), (12345, 2_000_000), (3, 999), (4, 0)):
            again = error_exponent_estimate(derived, n_grid=(1, 10), trials=trials, seed=seed)
            assert _point_bits(again) == _point_bits(first), (seed, trials)


@pytest.mark.parametrize("snr_db", [0.0, 20.0])
def test_saddlepoint_agrees_with_counting_on_ieee30(ieee30_h, snr_db):
    # The count is that of 10 seeds, and its radius the standard error of their
    # mean, measured from their spread.  Each seed's own radius carries the
    # empirical threshold's noise as well as the count's, so over the 10 fixed
    # seeds z = (saddlepoint - counted) / radius has an SD near 1; the count's
    # binomial noise alone would give about 2.
    derived = _optimal_attack(ieee30_h, 0.1, snr_db)
    grid = (1, 2, 5)
    saddle = error_exponent_estimate(derived, n_grid=grid).points
    runs = [
        error_exponent_estimate(derived, grid, trials=10_000, seed=s, tail="empirical").points
        for s in range(10)
    ]
    compared, z = 0, []
    for i, point in enumerate(saddle):
        counted = [run[i] for run in runs]
        if min(p.exceed_count for p in counted) < 100:
            continue
        values = np.array([p.exponent for p in counted])
        radius = float(values.std(ddof=1)) / math.sqrt(values.size)
        assert abs(point.exponent - values.mean()) <= 4.0 * radius, (point.n, radius)
        z += [(point.exponent - p.exponent) / p.radius for p in counted]
        compared += 1
    assert compared >= 2
    assert 0.6 <= np.std(z, ddof=1) <= 1.5, np.std(z, ddof=1)


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

    delta_cov = _delta(derived) @ cov
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

    def no_inverse(a):
        raise AssertionError("the model inverts no matrix")

    derived = _full_rank_3x3()
    monkeypatch.setattr(np.linalg, "cholesky", counting)
    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    model = _LrtModel(derived)
    monkeypatch.undo()
    assert len(factored) == 2
    assert factored[0] is derived.sigma_yy and factored[1] is derived.sigma_yaya
    # c = -1/2 sum log1p(nu) is the log-determinant ratio (matrix determinant lemma)
    assert model.const == pytest.approx(
        0.5 * (logdet_psd(derived.sigma_yy) - logdet_psd(derived.sigma_yaya)), rel=1e-14
    )


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


@pytest.mark.parametrize("snr_db", [60.0, 80.0, 120.0])
def test_ieee30_optimal_attack_keeps_its_rank_at_high_snr(ieee30_h, snr_db):
    # sigma^2 falls to 1e-6 .. 1e-12 of S_yy's range.  The rank is decided on S_aa,
    # where the subtraction's round-off stays below m eps max S_yaya at any SNR, so
    # both hypotheses keep the 29 weights of the attack
    derived = _optimal_attack(ieee30_h, 0.1, snr_db)
    model = _LrtModel(derived)
    assert [model.weights[a].size for a in (False, True)] == [29, 29]
    estimate = error_exponent_estimate(derived, n_grid=(1, 5, 20))
    for point in estimate.points:
        assert math.isfinite(point.tau)
        assert 0.0 < point.exponent < estimate.kl_marginals, point.n
    epsilon, trials = 0.05, 20_000
    runs = [run_detection_experiment(derived, 5, epsilon, trials, seed) for seed in range(5)]
    assert all(math.isfinite(run.tau) and 0.0 <= run.beta_hat <= 1.0 for run in runs)
    pooled = np.mean([run.alpha_hat for run in runs])
    stderr = math.sqrt(epsilon * (1.0 - epsilon) / (trials * len(runs)))
    assert abs(pooled - epsilon) <= 4.0 * stderr, pooled


def test_anisotropic_covariances_keep_both_weights():
    # S_aa = diag(1, 1e-12) lies far above the round-off scale 2 eps max S_yaya = 8.9e-16,
    # and whitening by S_yy = diag(1, 1e-12) makes both directions alike
    derived = DerivedCovariances(np.diag([1.0, 1e-12]), np.diag([2.0, 2e-12]))
    model = _LrtModel(derived)
    np.testing.assert_allclose(model.weights[True], [1.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(model.weights[False], [0.5, 0.5], rtol=1e-12)
    assert model.const == pytest.approx(-math.log(2.0), rel=1e-14)


def test_attack_psd_check_is_relative_to_its_largest_eigenvalue():
    # attack_from_matrix's rule: an eigenvalue down to -PSD_TOL lambda_max is round-off,
    # and, below the rank cut, carries no weight
    model = _LrtModel(DerivedCovariances(np.eye(2), np.diag([2.0, 1.0 - 1e-9])))
    assert model.weights[True].tolist() == [1.0]
    with pytest.raises(ValueError, match="sigma_yaya - sigma_yy is not positive semidefinite"):
        _LrtModel(DerivedCovariances(np.eye(2), np.diag([2.0, 1.0 - 1e-7])))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    _rank_deficient_systems(),
    st.integers(1, 2000),
    st.floats(1e-3, 0.49),
    st.floats(-6.0, 6.0),
)
def test_saddlepoint_beta_obeys_data_processing(system, n, epsilon, log10_scale):
    # Any test with attack-side error epsilon has d(1 - epsilon || beta) <= n D (data
    # processing), so -log beta <= (n D - epsilon log epsilon) / (1 - epsilon) - log(1 - epsilon).
    # This caps the exponent of the exact law and of every approximation worth having.
    derived, _ = system
    scale = 10.0**log10_scale
    derived = DerivedCovariances(
        sigma_yy=derived.sigma_yy,
        sigma_yaya=derived.sigma_yy + scale * (derived.sigma_yaya - derived.sigma_yy),
    )
    estimate = error_exponent_estimate(derived, n_grid=(n,), epsilon=epsilon)
    d = estimate.kl_marginals
    cap = (n * d - epsilon * math.log(epsilon)) / (1.0 - epsilon) - math.log1p(-epsilon)
    (point,) = estimate.points
    assert math.isfinite(point.tau)
    assert 0.0 <= point.exponent * n <= cap * (1.0 + 1e-9)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rank_deficient_systems(), st.integers(1, 50))
def test_kept_weights_carry_the_exact_moments(system, n):
    derived, rank = system
    model = _LrtModel(derived)
    for attacked, cov in ((False, derived.sigma_yy), (True, derived.sigma_yaya)):
        d = model.weights[attacked]
        assert d.size == rank
        delta_cov = _delta(derived) @ cov
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
for tail in ("saddlepoint", "empirical"):
    error_exponent_estimate(derived, n_grid=(1, 5), trials=2000, seed=0, tail=tail)
run_detection_experiment(derived, n=5, epsilon=0.05, trials=2000, seed=0)
calibrate_threshold(derived, n=5, epsilon=0.05)
sys.exit("numpy.ma imported" if "numpy.ma" in sys.modules else 0)
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_detection_memory_is_one_sample_array_and_one_chunk(ieee30_h):
    # 29 kept weights: drawing all trials at once would hold trials x 29 floats.
    # The saddlepoint tail holds no array of trials floats: past the model's
    # own 71 x 71 matrices (about 320 KB at peak) it takes under 64 KB.
    derived = _optimal_attack(ieee30_h, 0.1, 20.0)
    trials = 20_000
    bound = 4 * trials * 8 + 4 * 2**14 * 8  # a few sample arrays and 128 KB chunks
    calls = {
        f"exponent-{tail}": lambda tail=tail: error_exponent_estimate(
            derived, n_grid=(1, 2, 5), trials=trials, seed=1, tail=tail
        )
        for tail in ("saddlepoint", "empirical")
    }
    calls["experiment"] = lambda: run_detection_experiment(
        derived, n=5, epsilon=0.05, trials=trials, seed=1
    )
    calls["model"] = lambda: _LrtModel(derived)
    for call in calls.values():  # first-call allocations are not the kernel's
        call()
    tracemalloc.start()
    try:
        peaks = {}
        for name, call in calls.items():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peaks["exponent-saddlepoint"] <= peaks["model"] + 64 * 1024, peaks
    for name in ("exponent-empirical", "experiment"):
        assert peaks[name] <= bound, (name, peaks[name], bound)


#: per BLAS kernel (helpers.blas_kernel), the digest of the detection estimates
DETECTION_DIGESTS = {
    b"SkylakeX": "17e7f50affd7c4352826c8b2cbdc66fdbbed8f51d4a5c96c1421be2cee6505ab",
    b"Haswell": "24542e5dfe349c2540cb4555574fefdb060c8fe43b087ca46ce300a43a78577a",
    b"Sandybridge": "03aff2ca71e5b7d57cd680cfaaa52091f0852e3ef562bc61845747035eb15432",
    b"Nehalem": "f76b1755394fa3571a28f40e54d923007b6214e31edfeddb755e8b6ff2c4a24e",
    b"Katmai": "70d81314b15c01e229acad1370cba047fbb0a1dd26b5b5ce1b2b333ae8631857",
}


def test_detection_is_pinned_bit_for_bit(ieee30_h):
    # both calls, both tails, on 1, 4 and 29 kept weights; 16 385 trials leave
    # a last chunk of one row at 1 and 4 weights.  The empirical tau, beta_hat
    # and counts are those of the kernel that drew all rows at once and took
    # np.quantile (numpy 2.4, x86-64 OpenBLAS, one digest per kernel: each
    # rounds the weights its way, and the saddlepoint tails start from those)
    digest = hashlib.sha256()
    for derived in (SCALAR_DERIVED, _optimal_attack_8x4(), _optimal_attack(ieee30_h, 0.1, 20.0)):
        for tail in ("saddlepoint", "empirical"):
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
