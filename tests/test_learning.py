from __future__ import annotations

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from stealthgrid import (
    SpectralData,
    StateCovariance,
    TrainingConfig,
    derived_covariances,
    draw_sample_covariance,
    estimate_ergodic_cost,
    nonzero_spectrum,
    optimal_attack_covariance,
    sample_covariance,
    sigma_from_snr,
    spectral_ergodic_costs,
    stealth_cost,
    toeplitz_covariance,
)
from stealthgrid.experiment import DEFAULT_K_GRID
from stealthgrid.gaussian import RANK_TOL, logdet_psd, symmetrize
from stealthgrid.learning import SAMPLERS, _empirical_grams, _trials_per_chunk, _white_grams
from helpers import BAD_SIGMA, bartlett_factors, centred_factors, pinned_digest


def _white_factors(p, k, sampler, rng, count):
    """The Monte Carlo's white draws of ``count`` trials as factors B, B B^T = G."""
    if sampler == "bartlett":
        return bartlett_factors(p, k, rng, count)
    return centred_factors(rng.standard_normal((count, k, p)))


# ---------------------------------------------------------------------------
# sample_covariance
# ---------------------------------------------------------------------------


def test_sample_covariance_two_points():
    s = sample_covariance(np.array([1.0, -1.0]))
    assert s[0, 0] == pytest.approx(2.0)


def test_sample_covariance_identical_samples_is_zero():
    s = sample_covariance(np.ones((5, 3)) * 2.7)
    np.testing.assert_allclose(s, 0.0, atol=1e-14)


def test_sample_covariance_law_of_large_numbers():
    rng = np.random.default_rng(5)
    s = sample_covariance(rng.standard_normal(100_000))
    assert 0.97 <= s[0, 0] <= 1.03


def test_sample_covariance_rejects_single_sample():
    with pytest.raises(ValueError, match="at least 2"):
        sample_covariance(np.array([1.0]))


# ---------------------------------------------------------------------------
# draw_sample_covariance
# ---------------------------------------------------------------------------


def test_draw_scalar_matches_chi_square_moments():
    # (K-1) S ~ chi-square with d = K-1 dof, so E[S] = 1 with var 2/d
    d = 10
    draws = 100_000
    cov = StateCovariance(sigma_xx=np.array([[1.0]]))
    left = np.linalg.cholesky(cov.sigma_xx)
    b = bartlett_factors(1, d + 1, np.random.default_rng(99), draws)
    vals = b[:, 0, 0] ** 2 / d
    tol = 3.0 * math.sqrt(2.0 / d) / math.sqrt(draws)
    assert abs(vals.mean() - 1.0) <= tol
    # with S_xx = 1, draw_sample_covariance is the count=1 white draw of the same stream, c^2 / d
    for i in range(5):
        seed = np.random.SeedSequence((99, i))
        one = (left @ bartlett_factors(1, d + 1, np.random.default_rng(seed), 1))[0]
        assert draw_sample_covariance(cov, d + 1, seed=seed)[0, 0] == (one @ one.T / d)[0, 0]


def test_draw_is_entrywise_unbiased():
    cov = toeplitz_covariance(3, 0.5)
    draws = 10_000
    total = np.zeros((3, 3))
    totalsq = np.zeros((3, 3))
    for i in range(draws):
        s = draw_sample_covariance(cov, 20, seed=np.random.SeedSequence((4, i)))
        total += s
        totalsq += s**2
    mean = total / draws
    stderr = np.sqrt((totalsq / draws - mean**2) / draws)
    assert np.all(np.abs(mean - cov.sigma_xx) <= 3.0 * stderr)


def test_draw_same_seed_is_bit_identical():
    cov = toeplitz_covariance(4, 0.3)
    a = draw_sample_covariance(cov, 12, seed=77)
    b = draw_sample_covariance(cov, 12, seed=77)
    assert a.tobytes() == b.tobytes()


def test_draw_samplers_differ_for_same_seed_but_share_law():
    cov = StateCovariance(sigma_xx=np.array([[1.0]]))
    a = draw_sample_covariance(cov, 8, seed=1, sampler="bartlett")[0, 0]
    b = draw_sample_covariance(cov, 8, seed=1, sampler="empirical")[0, 0]
    assert a != b


@pytest.mark.parametrize(
    "k", [10.5, np.float64(10.0), True, "10"], ids=["10.5", "float64", "True", "str"]
)
def test_draw_rejects_k_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        draw_sample_covariance(toeplitz_covariance(3, 0.4), k, seed=1)


def test_draw_accepts_a_numpy_integer_k():
    cov = toeplitz_covariance(3, 0.4)
    expected = draw_sample_covariance(cov, 10, seed=1)
    assert draw_sample_covariance(cov, np.int64(10), seed=1).tobytes() == expected.tobytes()


def test_bartlett_requires_enough_dof():
    cov = toeplitz_covariance(5, 0.2)
    with pytest.raises(ValueError, match="k-1 >= N"):
        draw_sample_covariance(cov, 4, seed=0, sampler="bartlett")
    # the empirical path accepts the same K and yields a singular PSD matrix
    s = draw_sample_covariance(cov, 4, seed=0, sampler="empirical")
    assert np.linalg.eigvalsh(s).min() >= -1e-12


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_draw_of_an_empty_covariance_is_empty(sampler):
    s = draw_sample_covariance(np.zeros((0, 0)), 5, seed=1, sampler=sampler)
    assert s.shape == (0, 0)


@pytest.mark.parametrize("n, k", [(29, 1000), (150, 120)], ids=["full-rank", "singular"])
def test_empirical_large_k_scatter_matches_explicit_centred_product(n, k):
    # k*n above the chunk size: the scatter is summed over row blocks of the same stream
    assert k * n > 2**14
    cov = toeplitz_covariance(n, 0.5)
    s = draw_sample_covariance(cov, k, seed=31, sampler="empirical")
    x = np.random.default_rng(31).standard_normal((k, n)) @ np.linalg.cholesky(cov.sigma_xx).T
    centred = x - x.mean(axis=0)
    explicit = centred.T @ centred / (k - 1)
    assert np.linalg.norm(s - explicit) <= 1e-12 * np.linalg.norm(explicit)


def test_samplers_agree_in_distribution():
    # two-sample Kolmogorov-Smirnov on scalar draws must not reject at 1%
    cov = StateCovariance(sigma_xx=np.array([[1.0]]))
    draws = 10_000
    bartlett = np.empty(draws)
    empirical = np.empty(draws)
    for i in range(draws):
        bartlett[i] = draw_sample_covariance(
            cov, 15, seed=np.random.SeedSequence((21, i)), sampler="bartlett"
        )[0, 0]
        empirical[i] = draw_sample_covariance(
            cov, 15, seed=np.random.SeedSequence((22, i)), sampler="empirical"
        )[0, 0]
    assert stats.ks_2samp(bartlett, empirical).pvalue > 0.01


@pytest.mark.parametrize("n, k", [(1, 2), (5, 9), (29, 50)])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_draw_is_the_monte_carlo_gram_lifted_by_chol(sampler, n, k):
    # one writer: a draw is chol(S_xx) G chol(S_xx)^T / (K-1) bit for bit, G the
    # Monte Carlo's one-trial white Gram from the same seed, upper triangle from the lower
    cov = toeplitz_covariance(n, 0.6)
    w = np.empty((1, n, n))
    (g_diag,) = _white_grams((k,), sampler, np.random.default_rng(13), w)
    lower = np.tril(w[0], -1)
    g = lower + lower.T + np.diag(g_diag[0])
    left = np.linalg.cholesky(cov.sigma_xx)
    want = symmetrize(left @ g @ left.T / (k - 1))
    got = draw_sample_covariance(cov, k, seed=13, sampler=sampler)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, k", [(1, 2), (3, 4), (10, 40), (29, 3000)])
def test_bartlett_draw_matches_the_factor_oracle(n, k):
    # the writer's G = L L^T + L diag(c) against (chol(S_xx) B)(chol(S_xx) B)^T / (K-1)
    # for the factor B = L + diag(c) of the same stream: they differ by rounding only
    cov = toeplitz_covariance(n, 0.6)
    left = np.linalg.cholesky(cov.sigma_xx)
    for seed in range(10):
        got = draw_sample_covariance(cov, k, seed=seed)
        b = left @ bartlett_factors(n, k, np.random.default_rng(seed), 1)[0]
        want = b @ b.T / (k - 1)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), seed


@pytest.mark.parametrize(
    "k, sampler, message",
    [(1, "bartlett", "need at least 2 training samples, got k=1"),
     (10.5, "bartlett", "k must be an integer, got 10.5"),
     (5, "other", "sampler must be one of ('bartlett', 'empirical'), got 'other'")],
    ids=["k=1", "k-float", "sampler"],
)
def test_training_config_and_draw_reject_k_and_sampler_alike(k, sampler, message):
    with pytest.raises(ValueError, match=re.escape(message)) as config_error:
        TrainingConfig(k, seed=0, sampler=sampler)
    with pytest.raises(ValueError, match=re.escape(message)) as draw_error:
        draw_sample_covariance(np.eye(3), k, seed=0, sampler=sampler)
    assert str(config_error.value) == str(draw_error.value)


# ---------------------------------------------------------------------------
# the learned attack: optimal_attack_covariance on a sample covariance
# ---------------------------------------------------------------------------


def test_learned_with_true_covariance_equals_optimal(ieee30_h):
    # on the true S_xx as a matrix the learned attack is the optimal one, bit for bit;
    # on a draw it is H S_xx H^T symmetrized
    cov = toeplitz_covariance(29, 0.5)
    learned = optimal_attack_covariance(ieee30_h, cov.sigma_xx)
    assert learned.sigma_aa.tobytes() == optimal_attack_covariance(ieee30_h, cov).sigma_aa.tobytes()
    s = draw_sample_covariance(cov, 40, seed=3)
    learned = optimal_attack_covariance(ieee30_h, s)
    assert learned.sigma_aa.tobytes() == symmetrize(ieee30_h @ s @ ieee30_h.T).tobytes()


def test_learned_with_zero_sample_is_zero():
    s = sample_covariance(np.ones((3, 2)))
    learned = optimal_attack_covariance(np.ones((4, 2)), s)
    np.testing.assert_allclose(learned.sigma_aa, 0.0, atol=1e-14)


def test_learned_scalar_arithmetic():
    s = sample_covariance(np.array([0.0, 3.0, 6.0]))  # variance 9
    learned = optimal_attack_covariance(np.array([[2.0]]), s)
    assert learned.sigma_aa[0, 0] == pytest.approx(36.0)


@pytest.mark.parametrize("source", ["samples", "bartlett", "empirical"])
def test_a_sample_covariance_is_a_matrix_that_every_consumer_takes(source):
    cov = toeplitz_covariance(4, 0.5)
    if source == "samples":
        s = sample_covariance(np.random.default_rng(8).standard_normal((9, 4)))
    else:
        s = draw_sample_covariance(cov, 9, seed=8, sampler=source)
    assert type(s) is np.ndarray and s.shape == (4, 4)
    assert s.tobytes() == s.T.tobytes()
    h = np.random.default_rng(9).standard_normal((6, 4))
    attack = optimal_attack_covariance(h, s)
    assert attack.sigma_aa.tobytes() == symmetrize(h @ s @ h.T).tobytes()
    as_state = StateCovariance(s)
    spectrum = nonzero_spectrum(h, s)
    assert spectrum.eigenvalues.tobytes() == nonzero_spectrum(h, as_state).eigenvalues.tobytes()
    assert spectrum.p == 4
    redrawn = draw_sample_covariance(s, 12, seed=3)
    assert redrawn.tobytes() == draw_sample_covariance(as_state, 12, seed=3).tobytes()


# ---------------------------------------------------------------------------
# estimate_ergodic_cost
# ---------------------------------------------------------------------------

SCALAR_H = np.array([[1.0]])
SCALAR_COV = StateCovariance(sigma_xx=np.array([[1.0]]))


def test_ergodic_large_k_approaches_optimal():
    cfg = TrainingConfig(k=10**6, seed=3, trials=200)
    est = estimate_ergodic_cost(SCALAR_H, SCALAR_COV, 1.0, cfg)
    assert abs(est.mean - 0.25) <= 3.0 * est.stderr + 1e-3


def test_ergodic_scalar_matches_independent_chi_square_oracle():
    cfg = TrainingConfig(k=101, seed=17, trials=100_000)
    est = estimate_ergodic_cost(SCALAR_H, SCALAR_COV, 1.0, cfg)
    # oracle: draw s ~ chi2_100/100 directly and average the scalar cost
    rng = np.random.default_rng(1234)
    s = rng.chisquare(100, size=100_000) / 100.0
    costs = 0.5 * (s / 2.0 - np.log(s + 1.0) + math.log(2.0))
    oracle_mean = costs.mean()
    oracle_stderr = costs.std(ddof=1) / math.sqrt(costs.size)
    combined = math.hypot(est.stderr, oracle_stderr)
    assert abs(est.mean - oracle_mean) <= 3.0 * combined
    assert est.mean == pytest.approx(0.2513, abs=3e-3)


def test_ergodic_mean_respects_optimality():
    cfg = TrainingConfig(k=30, seed=5, trials=2000)
    est = estimate_ergodic_cost(SCALAR_H, SCALAR_COV, 1.0, cfg)
    assert est.mean + 3.0 * est.stderr >= 0.25 - 1e-9


def test_ergodic_reproducible_across_runs(ieee30_h):
    cov = toeplitz_covariance(29, 0.8)
    cfg = TrainingConfig(k=60, seed=9, trials=64)
    first = estimate_ergodic_cost(ieee30_h, cov, 2.0, cfg)
    second = estimate_ergodic_cost(ieee30_h, cov, 2.0, cfg)
    assert first.mean == second.mean
    assert first.stderr == second.stderr


def test_ergodic_empirical_sampler_consistent():
    cfg = TrainingConfig(k=101, seed=31, trials=4000, sampler="empirical")
    est_emp = estimate_ergodic_cost(SCALAR_H, SCALAR_COV, 1.0, cfg)
    cfg_b = TrainingConfig(k=101, seed=32, trials=4000, sampler="bartlett")
    est_bar = estimate_ergodic_cost(SCALAR_H, SCALAR_COV, 1.0, cfg_b)
    combined = math.hypot(est_emp.stderr, est_bar.stderr)
    assert abs(est_emp.mean - est_bar.mean) <= 4.0 * combined


def test_ergodic_monotone_learning_trend(ieee30_h):
    cov = toeplitz_covariance(29, 0.8)
    sigma = sigma_from_snr(ieee30_h, cov, 20.0)
    results = [
        estimate_ergodic_cost(
            ieee30_h, cov, sigma, TrainingConfig(k=k, seed=41, trials=400)
        )
        for k in (50, 500, 5000)
    ]
    for small_k, large_k in zip(results, results[1:]):
        separation = 3.0 * math.hypot(small_k.stderr, large_k.stderr)
        assert large_k.mean < small_k.mean - separation


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("shape", ["tall", "wide", "rank_deficient", "zero"])
def test_ergodic_kernel_matches_stealth_cost_oracle(shape, sampler):
    # trial by trial, the same white p x p draws G lifted to the full sample
    # covariance L V_p G V_p^T L^T / (K-1), L = chol(S_xx) and V_p the right
    # singular vectors of H L for the nonzero spectrum, and scored through the
    # M x M stealth cost: the factors are re-drawn from one generator in the
    # estimator's chunks, here two full chunks and a ragged last one
    rng = np.random.default_rng(8)
    h = {
        "tall": rng.standard_normal((7, 4)),
        "wide": rng.standard_normal((3, 5)),
        "rank_deficient": rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4)),
        "zero": np.zeros((5, 3)),
    }[shape]
    n = h.shape[1]
    cov = toeplitz_covariance(n, 0.6)
    sigma, seed = 0.7, 12
    chol = np.linalg.cholesky(cov.sigma_xx)
    p = nonzero_spectrum(h, cov).p
    v_p = np.linalg.svd(h @ chol)[2][:p].T
    k = n + 3 if sampler == "bartlett" else 3  # empirical: singular sample covariances
    chunk = _trials_per_chunk(p or n)  # p = 0 draws nothing
    trials = 2 * chunk + chunk // 3 + 1
    est = estimate_ergodic_cost(h, cov, sigma, TrainingConfig(k, seed, trials, sampler))
    draws = np.random.default_rng(seed)
    costs = []
    for start in range(0, trials, chunk):
        for b in _white_factors(p, k, sampler, draws, min(chunk, trials - start)):
            s_xx = chol @ v_p @ (b @ b.T) @ v_p.T @ chol.T / (k - 1)
            attack = optimal_attack_covariance(h, s_xx)
            costs.append(stealth_cost(attack, derived_covariances(h, cov, sigma, attack), sigma))
    assert len(costs) == trials
    if shape == "zero":
        assert abs(est.mean - np.mean(costs)) <= 1e-12
    else:
        assert est.mean == pytest.approx(np.mean(costs), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "sampler, k",
    [("bartlett", 7), ("empirical", 3), ("empirical", 5000)],
    ids=["bartlett", "empirical", "empirical-streamed"],
)
def test_shared_draws_equal_single_system_calls(sampler, k):
    # two systems of one rank scored on one set of draws give the bits of two lone calls
    # K = 5000: 5000 x 4 normals exceed a draw block, so each trial is drawn in row blocks
    h = np.random.default_rng(3).standard_normal((8, 4))
    systems = [
        (nonzero_spectrum(h, toeplitz_covariance(4, rho)), sigma)
        for rho, sigma in ((0.1, 0.3), (0.8, 1.7))
    ]
    cfg = TrainingConfig(k, seed=5, trials=7 if k == 5000 else 3000, sampler=sampler)
    (joint,) = spectral_ergodic_costs(systems, [cfg])
    assert joint == [spectral_ergodic_costs([system], [cfg])[0][0] for system in systems]
    assert joint[0] != joint[1]


def test_shared_draws_reject_mixed_ranks():
    full = nonzero_spectrum(np.eye(2), np.eye(2))
    half = nonzero_spectrum(np.diag([1.0, 0.0]), np.eye(2))
    with pytest.raises(ValueError, match="share one rank"):
        spectral_ergodic_costs([(full, 1.0), (half, 1.0)], [TrainingConfig(5, seed=0)])


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_sweep_kernel_matches_stealth_cost_oracle(sampler):
    # a two-K sweep against factors re-drawn from one generator in the
    # documented order, each trial scored through the M x M stealth cost:
    # per chunk, bartlett draws the chi-square diagonals of both K and then
    # the strictly lower normals both K share; empirical draws each K's
    # samples in turn, scored here through their centred factors; chunks
    # hold 2^14 // p^2 trials for both, here two full chunks and a ragged last one
    h = np.random.default_rng(8).standard_normal((7, 4))
    cov = toeplitz_covariance(4, 0.6)
    sigma, seed = 0.7, 12
    chol = np.linalg.cholesky(cov.sigma_xx)
    p = nonzero_spectrum(h, cov).p
    v_p = np.linalg.svd(h @ chol)[2][:p].T
    ks = (p + 3, p + 9) if sampler == "bartlett" else (3, 6)
    chunk = _trials_per_chunk(p)
    trials = 2 * chunk + chunk // 3 + 1
    sweep = spectral_ergodic_costs(
        [(nonzero_spectrum(h, cov), sigma)],
        [TrainingConfig(k, seed, trials, sampler) for k in ks],
    )
    draws = np.random.default_rng(seed)
    below = np.tril_indices(p, -1)
    costs = [[] for _ in ks]
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        if sampler == "bartlett":
            dof = np.array(ks)[:, None] - 1 - np.arange(p)
            chi = np.sqrt(draws.chisquare(dof, size=(count, len(ks), p)))
            lower = draws.standard_normal((count, below[0].size))
        for j, k in enumerate(ks):
            if sampler == "bartlett":
                factors = np.zeros((count, p, p))
                factors[:, below[0], below[1]] = lower
                factors[:, np.arange(p), np.arange(p)] = chi[:, j]
            else:
                factors = centred_factors(draws.standard_normal((count, k, p)))
            for b in factors:
                s_xx = chol @ v_p @ (b @ b.T) @ v_p.T @ chol.T / (k - 1)
                attack = optimal_attack_covariance(h, s_xx)
                cost = stealth_cost(attack, derived_covariances(h, cov, sigma, attack), sigma)
                costs[j].append(cost)
    for (est,), k, row in zip(sweep, ks, costs):
        assert len(row) == trials and est.k == k and est.trials == trials
        assert est.mean == pytest.approx(np.mean(row), rel=1e-12, abs=0.0)
        assert est.stderr == pytest.approx(np.std(row, ddof=1) / math.sqrt(trials), rel=1e-9)


def _scaled_gram_costs(spectrum, sigma, k, sampler, seed, trials):
    # the scoring before the diagonal identity: A = G * s s^T / (K-1), then
    # log|A + sigma^2 I| by Cholesky, on factors re-drawn in the estimator's chunks
    ev, p = spectrum.eigenvalues, spectrum.p
    outer = np.outer(np.sqrt(ev), np.sqrt(ev)) / (k - 1)
    draws = np.random.default_rng(seed)
    chunk = _trials_per_chunk(p)
    costs = []
    for start in range(0, trials, chunk):
        b = _white_factors(p, k, sampler, draws, min(chunk, trials - start))
        a = (b @ np.swapaxes(b, 1, 2)) * outer
        trace = np.diagonal(a, axis1=1, axis2=2) @ (1.0 / (ev + sigma**2))
        logdet = logdet_psd(a + sigma**2 * np.eye(p))
        costs.append(0.5 * (trace - logdet + np.sum(np.log(ev + sigma**2))))
    return np.concatenate(costs)


@pytest.mark.parametrize(
    "sampler, k", [("bartlett", 9), ("bartlett", 10**8 + 1), ("empirical", 4)],
    ids=["bartlett-k=p+1", "bartlett-k=1e8+1", "empirical-singular-g"],
)
@pytest.mark.parametrize("decades", [1, 10], ids=["one-decade", "ten-decades"])
def test_diagonal_identity_matches_scaled_gram_scoring(sampler, k, decades):
    # log|A + sigma^2 I| = log|G + Lambda| + sum log s^2 - p log(K-1) against the
    # direct A, on the same draws, p = 8, at SNR -10, 20 and 60 dB; the ten-decade
    # spectrum reaches down to RANK_TOL of its largest eigenvalue; the empirical
    # K-1 = 3 < p makes G singular, so only Lambda keeps G + Lambda definite
    p, seed, trials = 8, 21, 300
    ev = 40.0 * np.geomspace(1.0, RANK_TOL if decades == 10 else 0.1, p)
    spectrum = SpectralData(eigenvalues=ev)
    snrs = (-10.0, 20.0, 60.0)
    sigmas = [math.sqrt(ev.sum() / (p * 10.0 ** (snr / 10.0))) for snr in snrs]
    (estimates,) = spectral_ergodic_costs(
        [(spectrum, sigma) for sigma in sigmas], [TrainingConfig(k, seed, trials, sampler)]
    )
    for est, sigma, snr in zip(estimates, sigmas, snrs):
        oracle = _scaled_gram_costs(spectrum, sigma, k, sampler, seed, trials)
        # at 60 dB the null directions of a singular G are held up only by Lambda,
        # about 1e-6 of G's scale, so every Cholesky of G + Lambda or of
        # A + sigma^2 I loses six digits: on these draws both scorings are off
        # from a 50-digit reference by up to 6e-10 a trial
        rel = 1e-10 if sampler == "empirical" and snr == 60.0 else 1e-12
        assert est.mean == pytest.approx(oracle.mean(), rel=rel, abs=0.0)
        # a trial's cost is a difference of log-determinants of order 10, which
        # either scoring rounds by about 1e-14; at K = 1e8+1 the stderr (down to
        # 3e-11) is so small that this is above 1e-9 of it
        assert est.stderr == pytest.approx(
            oracle.std(ddof=1) / math.sqrt(trials), rel=1e-9, abs=1e-14 / math.sqrt(trials)
        )


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_sweep_rows_agree_with_independent_one_k_estimates(ieee30_h, sampler):
    # shared draws change no row's law: each row against a lone, independently
    # seeded estimate at its K (K = 700 streams the empirical scatter)
    cov = toeplitz_covariance(ieee30_h.shape[1], 0.5)
    sigma = sigma_from_snr(ieee30_h, cov, 20.0)
    ks, trials = (40, 200, 700), 400 if sampler == "bartlett" else 150
    sweep = spectral_ergodic_costs(
        [(nonzero_spectrum(ieee30_h, cov), sigma)],
        [TrainingConfig(k, 5, trials, sampler) for k in ks],
    )
    for (row,), k in zip(sweep, ks):
        cfg = TrainingConfig(k, 500 + k, trials, sampler)
        alone = estimate_ergodic_cost(ieee30_h, cov, sigma, cfg)
        assert abs(row.mean - alone.mean) <= 4 * math.hypot(row.stderr, alone.stderr)


@pytest.mark.parametrize(
    "ks, changed, message",
    [
        ((5, 9), {"seed": 1}, "share"),
        ((5, 9), {"trials": 11}, "share"),
        ((5, 9), {"sampler": "empirical"}, "share"),
        ((9, 5), {}, "strictly increasing"),
        ((5, 5), {}, "strictly increasing"),
        ((), {}, "at least one"),
    ],
    ids=["mixed-seed", "mixed-trials", "mixed-sampler", "decreasing-k", "repeated-k", "empty"],
)
def test_sweep_rejects_configs_of_different_draws(ks, changed, message):
    system = (nonzero_spectrum(np.eye(2), np.eye(2)), 1.0)
    cfgs = [TrainingConfig(k, seed=0, trials=10) for k in ks]
    if changed:
        cfgs[-1] = TrainingConfig(ks[-1], **{"seed": 0, "trials": 10, **changed})
    with pytest.raises(ValueError, match=message):
        spectral_ergodic_costs([system], cfgs)


#: per sampler and BLAS kernel (helpers.blas_kernel), the digest of the one-K estimates
ONE_K_DIGESTS = {
    "bartlett": {
        b"SkylakeX": "4ca50b12a38d198bcb37d38c79ba8e4263b85f54226b1034bd87c7661257756c",
        b"Haswell": "fd23d69309a0bccbdfdc46f06ca7147eeafeec0d42fd6d0b849b8246684834bc",
        b"Sandybridge": "ad8db7eac41d1312fd42124636f185c872ef3529cdf694c930305254c8aa1a8d",
        b"Nehalem": "309175be97c1c5275a97fa5ba9040636b856548e2d4d6315b94469fdc186ecc2",
        b"Katmai": "6b493c14dc30cf558526d3fcf2ad6c76ab0cdf8378866a29fb3b70a5ae315827",
    },
    "empirical": {
        b"SkylakeX": "28e7f4cea7ca41e0dc2c77a133eb1adc6de4c920efc5373831f093622fe0f929",
        b"Haswell": "78a4e52e8f8546f3cabb100c66ad9554781083d71abb960e7d0de58abce7fd63",
        b"Sandybridge": "d7f38cd3f0b2724aae9426db79c3ff04d84b8fe89ed8ca1a026aa8ffca381326",
        b"Nehalem": "b7aa7123f4f66a830bb6c72159a3e8e07cde5a0763433ba3f446e03fc580b96c",
        b"Katmai": "56c8b233d98b0bab34850fd67e7d765739a60c5408580564a677affe0cd8459a",
    },
}


def test_one_k_estimates_are_pinned_bit_for_bit():
    # mean and stderr of 4 systems x 4 K, as float64 bytes, hash to one digest
    # per sampler and BLAS kernel (numpy 2.4, x86-64 OpenBLAS).  Bartlett: the
    # scoring on the shared lower triangle of G + Lambda, whose values differ
    # from the sweep-free Monte Carlo's by rounding only, at most 6.9e-14
    # relative.  Empirical: G = X^T X - s s^T / K summed in draw blocks, whose
    # values differ from those of the centred factors of the same draws by at
    # most 2.5e-16 relative in the mean and 1.2e-13 in the stderr (SkylakeX;
    # 3.8e-16 and 1.8e-13 over the five kernels)
    rng = np.random.default_rng(2024)
    systems = [
        (np.array([[1.3]]), (2, 3, 10, 50)),
        (rng.standard_normal((8, 4)), (5, 7, 20, 100)),
        (rng.standard_normal((20, 10)), (11, 15, 40, 2000)),
        (rng.standard_normal((3, 5)), (4, 6, 12, 60)),
    ]
    for sampler in SAMPLERS:
        digest = hashlib.sha256()
        for h, ks in systems:
            cov = toeplitz_covariance(h.shape[1], 0.5)
            for k in ks:
                cfg = TrainingConfig(k, seed=k + 7, trials=300, sampler=sampler)
                est = estimate_ergodic_cost(h, cov, 0.6, cfg)
                digest.update(np.array([est.mean, est.stderr]).tobytes())
        assert digest.hexdigest() == pinned_digest(ONE_K_DIGESTS[sampler]), sampler


@pytest.mark.parametrize(
    "n, k, count",
    [(10, 51, 70), (29, 1000, 3), (12, 5, 9)],
    ids=["trials-per-block", "row-blocks", "singular"],
)
def test_empirical_grams_equal_centred_scatter(n, k, count):
    # G = X^T X - s s^T / K against the centred factors of the same draws:
    # K n = 510 puts 32 trials in a draw block (here 32, 32 and 6); K n =
    # 29 000 > 2^14 draws each trial in row blocks; K - 1 = 4 < n makes G singular
    grams = _empirical_grams(k, np.random.default_rng(4), np.empty((count, n, n)))
    b = centred_factors(np.random.default_rng(4).standard_normal((count, k, n)))
    for g, want in zip(grams, b @ np.swapaxes(b, 1, 2)):
        assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)
    if k - 1 < n:
        eigenvalues = np.linalg.eigvalsh(grams)
        assert np.all(np.abs(eigenvalues[:, : n - k + 1]) <= 1e-12 * eigenvalues[:, -1:])


@pytest.mark.parametrize(
    "k, trials", [(50, 2000), (5000, 40)], ids=["trials-per-block", "row-blocks"]
)
def test_empirical_memory_is_one_draw_block_and_one_gram_stack(ieee30_h, k, trials):
    # p = 29: a chunk's Gram stack holds 2^14 // 29^2 = 19 trials, 128 kB, and
    # a draw block at most 2^14 normals, 128 kB: 11 trials at K = 50, row
    # blocks of 564 at K = 5000.  Around them: a few p x p matrices and O(trials) floats
    cov = toeplitz_covariance(29, 0.5)
    system = (nonzero_spectrum(ieee30_h, cov), sigma_from_snr(ieee30_h, cov, 20.0))
    cfg = TrainingConfig(k, seed=1, trials=trials, sampler="empirical")
    bound = 2 * 2**14 * 8 + 8 * 29 * 29 * 8 + 4 * trials * 8
    spectral_ergodic_costs([system], [cfg])  # first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectral_ergodic_costs([system], [cfg])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_bartlett_grams_take_no_broadcast_buffer_per_k():
    # fig1's chunk: 19 trials of p = 29.  Per K the generator writes L diag(c)
    # into w in place; only diag(G), 19 x 29 floats, is new.  A broadcast
    # product L * c[:, None, :] took a 62 KB temporary per K and chunk
    w = np.empty((19, 29, 29))
    grams = _white_grams(DEFAULT_K_GRID, "bartlett", np.random.default_rng(3), w)
    next(grams)  # draws the shared lower triangles
    tracemalloc.start()
    try:
        for _ in DEFAULT_K_GRID[1:]:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            next(grams)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < 16 * 1024, peak
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", ["wide", "rank_deficient"])
def test_rank_p_monte_carlo_matches_full_dimensional_draws(shape):
    # p < N: the p-dimensional white draws against independently seeded full
    # N-dimensional sample covariances, which is the rotation argument
    rng = np.random.default_rng(17)
    h = {
        "wide": rng.standard_normal((3, 5)),
        "rank_deficient": rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4)),
    }[shape]
    n = h.shape[1]
    cov = toeplitz_covariance(n, 0.7)
    assert nonzero_spectrum(h, cov).p < n
    sigma, k, trials = 0.5, n + 3, 2000
    est = estimate_ergodic_cost(h, cov, sigma, TrainingConfig(k, 71, 4 * trials))
    costs = np.empty(trials)
    for i in range(trials):
        attack = optimal_attack_covariance(
            h, draw_sample_covariance(cov, k, seed=np.random.SeedSequence((72, i)))
        )
        costs[i] = stealth_cost(attack, derived_covariances(h, cov, sigma, attack), sigma)
    combined = math.hypot(est.stderr, costs.std(ddof=1) / math.sqrt(trials))
    assert abs(est.mean - costs.mean()) <= 4.0 * combined


@BAD_SIGMA
def test_ergodic_rejects_sigma_not_finite_and_positive(sigma):
    cfg = TrainingConfig(k=10, seed=0, trials=20)
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        estimate_ergodic_cost(SCALAR_H, SCALAR_COV, sigma, cfg)


def test_ergodic_bartlett_check_is_on_the_rank():
    # rank 2 of N = 6: K-1 = 3 is enough for the p-dimensional draws
    h = np.zeros((4, 6))
    h[0, 0] = h[1, 1] = 1.0
    est = estimate_ergodic_cost(h, np.eye(6), 1.0, TrainingConfig(k=4, seed=1, trials=50))
    assert math.isfinite(est.mean)
    with pytest.raises(ValueError, match="k-1 >= p"):
        estimate_ergodic_cost(h, np.eye(6), 1.0, TrainingConfig(k=2, seed=1, trials=50))


def test_ergodic_batched_mean_matches_per_trial_draws(ieee30_h):
    # the chunked stream against independently seeded per-trial draws on IEEE-30
    cov = toeplitz_covariance(29, 0.8)
    sigma = sigma_from_snr(ieee30_h, cov, 20.0)
    k, trials = 50, 1000
    est = estimate_ergodic_cost(ieee30_h, cov, sigma, TrainingConfig(k, 61, 4 * trials))
    costs = np.empty(trials)
    for i in range(trials):
        s = draw_sample_covariance(cov, k, seed=np.random.SeedSequence((62, i)))
        attack = optimal_attack_covariance(ieee30_h, s)
        costs[i] = stealth_cost(attack, derived_covariances(ieee30_h, cov, sigma, attack), sigma)
    combined = math.hypot(est.stderr, costs.std(ddof=1) / math.sqrt(trials))
    assert abs(est.mean - costs.mean()) <= 4.0 * combined


def test_training_config_validation():
    with pytest.raises(ValueError, match="at least 2"):
        TrainingConfig(k=1, seed=0)
    with pytest.raises(ValueError, match="trials"):
        TrainingConfig(k=5, seed=0, trials=0)
    with pytest.raises(ValueError, match="sampler"):
        TrainingConfig(k=5, seed=0, sampler="other")
    for name in ("k", "trials", "seed"):
        for bad in (10.5, np.float64(10.0), True, "10"):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
                TrainingConfig(**{"k": 10, "seed": 0, "trials": 10, name: bad})
    cfg = TrainingConfig(k=np.int64(10), seed=np.uint64(2**63), trials=np.int32(10))
    assert (cfg.k, cfg.seed, cfg.trials) == (10, 2**63, 10)
