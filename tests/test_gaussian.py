from __future__ import annotations

import math

import numpy as np
import pytest

from stealthgrid import (
    AttackModel,
    StateCovariance,
    DerivedCovariances,
    SpectralData,
    SampleCovariance,
    TrainingConfig,
    attack_from_matrix,
    derived_covariances,
    draw_sample_covariance,
    gaussian_kl_marginals,
    gaussian_mutual_information,
    learned_attack_covariance,
    nonzero_spectrum,
    optimal_attack_covariance,
    optimal_cost,
    sample_covariance,
    sigma_from_snr,
    solve_bound_program,
    spectral_ergodic_costs,
    stealth_cost,
    toeplitz_covariance,
    zero_mean_gaussian_kl,
)
from stealthgrid.gaussian import RANK_TOL, _spectrum, symmetrize
from helpers import BAD_SIGMA, random_pd, random_psd


def scalar_system(h=2.0, sxx=1.0, sigma=1.0, saa=4.0):
    hm = np.array([[h]])
    cov = StateCovariance(sigma_xx=np.array([[sxx]]))
    attack = AttackModel(sigma_aa=np.array([[saa]]))
    derived = derived_covariances(hm, cov, sigma, attack)
    return hm, cov, attack, derived


# ---------------------------------------------------------------------------
# symmetrize
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symmetrize_is_finite_near_the_float64_maximum():
    m = np.array([[1.5e308, 1.5e308], [1.5e308, 1.5e308]])
    np.testing.assert_array_equal(symmetrize(m), m)
    s = symmetrize(np.array([[1.5e308, 1.7e308], [1.3e308, -1.5e308]]))
    assert np.isfinite(s).all() and s[0, 1] == s[1, 0] == pytest.approx(1.5e308)


# ---------------------------------------------------------------------------
# toeplitz_covariance
# ---------------------------------------------------------------------------


def test_toeplitz_entries():
    cov = toeplitz_covariance(3, 0.5)
    expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    np.testing.assert_allclose(cov.sigma_xx, expected)


def test_toeplitz_rho_zero_is_identity():
    np.testing.assert_array_equal(toeplitz_covariance(4, 0.0).sigma_xx, np.eye(4))


def test_toeplitz_two_by_two_eigenvalues():
    cov = toeplitz_covariance(2, 0.8)
    eigs = np.linalg.eigvalsh(cov.sigma_xx)
    np.testing.assert_allclose(eigs, [0.2, 1.8])


@pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
def test_toeplitz_rejects_bad_rho(rho):
    with pytest.raises(ValueError, match="rho"):
        toeplitz_covariance(3, rho)


@pytest.mark.parametrize(
    "n", [2.5, 3.0, np.float64(3.0), True, "3"], ids=["2.5", "3.0", "float64", "True", "str"]
)
def test_toeplitz_rejects_a_dimension_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        toeplitz_covariance(n, 0.3)


def test_toeplitz_accepts_a_numpy_integer_dimension():
    expected = toeplitz_covariance(3, 0.3).sigma_xx
    np.testing.assert_array_equal(toeplitz_covariance(np.int64(3), 0.3).sigma_xx, expected)


# ---------------------------------------------------------------------------
# sigma_from_snr
# ---------------------------------------------------------------------------


def test_sigma_from_snr_20db():
    sigma = sigma_from_snr(np.array([[2.0]]), np.array([[1.0]]), 20.0)
    assert sigma**2 == pytest.approx(0.04)


def test_sigma_from_snr_0db():
    sigma = sigma_from_snr(np.array([[1.0]]), np.array([[1.0]]), 0.0)
    assert sigma**2 == pytest.approx(1.0)


def test_sigma_from_snr_zero_h_rejected():
    with pytest.raises(ValueError, match="positive"):
        sigma_from_snr(np.zeros((2, 2)), np.eye(2), 10.0)


# ---------------------------------------------------------------------------
# derived_covariances
# ---------------------------------------------------------------------------


def test_derived_covariances_scalar():
    _, _, _, derived = scalar_system()
    assert derived.sigma_yy[0, 0] == pytest.approx(5.0)
    assert derived.sigma_yaya[0, 0] == pytest.approx(9.0)


def test_derived_difference_is_attack():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((6, 4))
    cov = StateCovariance(sigma_xx=random_pd(rng, 4))
    attack = AttackModel(sigma_aa=random_psd(rng, 6))
    derived = derived_covariances(h, cov, 0.7, attack)
    np.testing.assert_allclose(
        derived.sigma_yaya - derived.sigma_yy, attack.sigma_aa, atol=1e-12
    )


def test_derived_zero_attack_covariances_match():
    _, _, _, derived = scalar_system(saa=0.0)
    np.testing.assert_array_equal(derived.sigma_yaya, derived.sigma_yy)


def test_derived_zero_h_gives_noise_only():
    attack = AttackModel(sigma_aa=np.zeros((3, 3)))
    derived = derived_covariances(np.zeros((3, 2)), np.eye(2), 1.0, attack)
    np.testing.assert_allclose(derived.sigma_yy, np.eye(3))


def test_derived_dimension_mismatch():
    attack = AttackModel(sigma_aa=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="columns"):
        derived_covariances(np.ones((2, 3)), np.eye(2), 1.0, attack)


# ---------------------------------------------------------------------------
# optimal_attack_covariance / attack_from_matrix
# ---------------------------------------------------------------------------


def test_optimal_attack_scalar():
    attack = optimal_attack_covariance(np.array([[2.0]]), np.array([[1.0]]))
    assert attack.sigma_aa[0, 0] == pytest.approx(4.0)


def test_optimal_attack_zero_h():
    attack = optimal_attack_covariance(np.zeros((3, 2)), np.eye(2))
    np.testing.assert_array_equal(attack.sigma_aa, np.zeros((3, 3)))


def test_optimal_attack_rank_on_ieee30(ieee30_h):
    cov = toeplitz_covariance(29, 0.8)
    attack = optimal_attack_covariance(ieee30_h, cov)
    assert np.linalg.matrix_rank(attack.sigma_aa) == 29


def test_attack_from_matrix_clips_roundoff():
    m = np.diag([1.0, -1e-12])
    attack = attack_from_matrix(m)
    assert np.linalg.eigvalsh(attack.sigma_aa).min() >= 0.0


def test_attack_from_matrix_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        attack_from_matrix(np.diag([1.0, -0.5]))


# ---------------------------------------------------------------------------
# stealth_cost and its components
# ---------------------------------------------------------------------------


def test_stealth_cost_zero_system_is_zero():
    attack = AttackModel(sigma_aa=np.zeros((2, 2)))
    derived = derived_covariances(np.zeros((2, 2)), np.eye(2), 1.0, attack)
    assert stealth_cost(attack, derived, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_stealth_cost_scalar_at_optimum():
    _, _, attack, derived = scalar_system()
    assert stealth_cost(attack, derived, 1.0) == pytest.approx(0.4)


def test_stealth_cost_scalar_no_attack():
    _, _, attack, derived = scalar_system(saa=0.0)
    assert stealth_cost(attack, derived, 1.0) == pytest.approx(0.5 * math.log(5.0))


def test_mutual_information_zero_h():
    attack = AttackModel(sigma_aa=np.eye(2))
    derived = derived_covariances(np.zeros((2, 2)), np.eye(2), 1.0, attack)
    assert gaussian_mutual_information(attack, derived, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_mutual_information_scalar():
    _, _, attack, derived = scalar_system()
    assert gaussian_mutual_information(attack, derived, 1.0) == pytest.approx(
        0.5 * math.log(9.0 / 5.0)
    )


def test_mutual_information_decreases_with_larger_attack():
    h, cov, attack, derived = scalar_system()
    bigger = AttackModel(sigma_aa=attack.sigma_aa + np.eye(1))
    derived_big = derived_covariances(h, cov, 1.0, bigger)
    assert gaussian_mutual_information(bigger, derived_big, 1.0) < gaussian_mutual_information(
        attack, derived, 1.0
    )


def test_kl_marginals_identical_is_zero():
    derived = DerivedCovariances(sigma_yy=np.eye(3), sigma_yaya=np.eye(3))
    assert gaussian_kl_marginals(derived) == pytest.approx(0.0, abs=1e-14)


def test_kl_marginals_scalar():
    derived = DerivedCovariances(sigma_yy=np.array([[1.0]]), sigma_yaya=np.array([[2.0]]))
    assert gaussian_kl_marginals(derived) == pytest.approx(0.5 * (2 - 1 + math.log(0.5)))


def test_kl_marginals_nonnegative_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = rng.integers(1, 6)
        derived = DerivedCovariances(
            sigma_yy=random_pd(rng, m), sigma_yaya=random_pd(rng, m)
        )
        assert gaussian_kl_marginals(derived) >= 0.0


# ---------------------------------------------------------------------------
# nonzero_spectrum / optimal_cost
# ---------------------------------------------------------------------------


def test_spectrum_scalar():
    spec = nonzero_spectrum(np.array([[2.0]]), np.array([[1.0]]))
    assert spec.p == 1
    np.testing.assert_allclose(spec.eigenvalues, [4.0])


def test_spectrum_zero_h():
    spec = nonzero_spectrum(np.zeros((3, 2)), np.eye(2))
    assert spec.p == 0
    assert spec.eigenvalues.size == 0


def test_spectrum_ieee30_low_correlation(ieee30_h):
    spec = nonzero_spectrum(ieee30_h, toeplitz_covariance(29, 0.1))
    assert spec.p == 29


def _gram_oracle_spectrum(h: np.ndarray, sxx: np.ndarray) -> np.ndarray:
    """Nonzero eigenvalues of the M x M matrix H S_xx H^T, descending, by the RANK_TOL rule."""
    gram = h @ sxx @ h.T
    ev = np.linalg.eigvalsh((gram + gram.T) / 2.0)[::-1]
    return ev[ev > RANK_TOL * ev[0]]


@pytest.mark.parametrize(
    "shape, rank",
    [((12, 5), 5), ((4, 9), 4), ((7, 7), 7), ((10, 6), 3), ((3, 8), 2), ((71, 29), 29)],
    ids=["tall", "wide", "square", "rank-deficient-tall", "rank-deficient-wide", "ieee30-shape"],
)
def test_spectrum_matches_m_by_m_gram_oracle(shape, rank):
    m, n = shape
    rng = np.random.default_rng([m, n, rank])
    h = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    sxx = toeplitz_covariance(n, 0.95)
    spec = nonzero_spectrum(h, sxx)
    oracle = _gram_oracle_spectrum(h, sxx.sigma_xx)
    assert spec.p == oracle.size == rank
    assert np.all(np.diff(spec.eigenvalues) <= 0.0)
    # a symmetric eigensolver's error is bounded by eps times the norm, so
    # agreement is relative to lambda_max, the scale of the RANK_TOL rule too
    np.testing.assert_allclose(spec.eigenvalues, oracle, rtol=0.0, atol=1e-12 * oracle[0])


def test_optimal_cost_closed_form_scalar():
    spec = nonzero_spectrum(np.array([[2.0]]), np.array([[1.0]]))
    assert optimal_cost(spec, 1.0) == pytest.approx(0.4)


@BAD_SIGMA
def test_optimal_cost_rejects_sigma_not_finite_and_positive(sigma):
    spec = nonzero_spectrum(np.array([[2.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        optimal_cost(spec, sigma)


@BAD_SIGMA
def test_mutual_information_rejects_sigma_not_finite_and_positive(sigma):
    # unchecked, sigma enters squared: -1 would act as +1, and nan give nan
    h = np.random.default_rng(35).standard_normal((3, 2))
    attack = optimal_attack_covariance(h, np.eye(2))
    derived = derived_covariances(h, np.eye(2), 0.5, attack)
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        gaussian_mutual_information(attack, derived, sigma)


@BAD_SIGMA
@pytest.mark.parametrize("call", ["derived_covariances", "stealth_cost"])
def test_covariances_and_cost_reject_sigma_not_finite_and_positive(call, sigma):
    h = np.random.default_rng(36).standard_normal((3, 2))
    attack = optimal_attack_covariance(h, np.eye(2))
    derived = derived_covariances(h, np.eye(2), 0.5, attack)
    run = {
        "derived_covariances": lambda: derived_covariances(h, np.eye(2), sigma, attack),
        "stealth_cost": lambda: stealth_cost(attack, derived, sigma),
    }[call]
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        run()


NON_FINITE = pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)


@NON_FINITE
def test_state_covariance_rejects_non_finite_entries(bad):
    m = np.eye(3)
    m[2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        StateCovariance(sigma_xx=m)


@NON_FINITE
def test_spectral_data_rejects_non_finite_eigenvalues(bad):
    with pytest.raises(ValueError, match="finite"):
        SpectralData(eigenvalues=np.array([bad, 1.0]))


def test_spectral_data_derives_its_rank_from_the_eigenvalues():
    spectrum = SpectralData(np.array([2.0, 1.0]))
    assert spectrum.p == 2 and type(spectrum.p) is int
    assert SpectralData(np.empty(0)).p == 0
    with pytest.raises(TypeError):
        SpectralData(np.array([2.0, 1.0]), p=2.0)  # p is derived, never given
    ((estimate,),) = spectral_ergodic_costs([(spectrum, 0.5)], [TrainingConfig(5, 1, 8)])
    assert estimate.trials == 8


def test_spectral_data_rejects_eigenvalues_that_are_not_a_vector():
    with pytest.raises(ValueError, match=r"eigenvalues must be a 1-D array, got shape \(2, 1\)"):
        SpectralData(np.array([[2.0], [1.0]]))


def _poisoned(shape, bad):
    a = np.random.default_rng(33).standard_normal(shape)
    a[-1, 0] = bad
    return a


def _poisoned_cost(bad):
    h = np.random.default_rng(34).standard_normal((3, 2))
    derived = derived_covariances(h, np.eye(2), 0.5, optimal_attack_covariance(h, np.eye(2)))
    return stealth_cost(AttackModel(sigma_aa=_poisoned((3, 3), bad)), derived, 0.5)


def _poisoned_information(bad):
    h = np.random.default_rng(35).standard_normal((3, 2))
    derived = derived_covariances(h, np.eye(2), 0.5, optimal_attack_covariance(h, np.eye(2)))
    return gaussian_mutual_information(AttackModel(sigma_aa=_poisoned((3, 3), bad)), derived, 0.5)


def _poisoned_draw(bad):
    # the poison sits above the diagonal, where a Cholesky factor never looks
    sxx = np.eye(3)
    sxx[0, 1] = bad
    return draw_sample_covariance(sxx, 10, 36)


@NON_FINITE
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda bad: optimal_attack_covariance(_poisoned((3, 2), bad), np.eye(2)), "H"),
        (lambda bad: derived_covariances(
            _poisoned((3, 2), bad), np.eye(2), 0.5, AttackModel(sigma_aa=np.eye(3))), "H"),
        (_poisoned_cost, "S_aa"),
        (lambda bad: zero_mean_gaussian_kl(_poisoned((3, 3), bad), np.eye(3)), "cov_p"),
        (lambda bad: sample_covariance(_poisoned((5, 2), bad)), "samples"),
        (lambda bad: attack_from_matrix(_poisoned((3, 3), bad)), "matrix"),
        (_poisoned_information, "S_aa"),
        (lambda bad: learned_attack_covariance(
            _poisoned((3, 2), bad), SampleCovariance(s_xx=np.eye(2), dof=4)), "H"),
        (_poisoned_draw, "S_xx"),
        (lambda bad: solve_bound_program([bad, 1.0], 10), "b"),
    ],
    ids=["optimal_attack_covariance", "derived_covariances", "stealth_cost",
         "zero_mean_gaussian_kl", "sample_covariance", "attack_from_matrix",
         "gaussian_mutual_information", "learned_attack_covariance", "draw_sample_covariance",
         "solve_bound_program"],
)
def test_non_finite_input_raises_naming_the_array(call, name, bad):
    # a nan or inf fails loudly instead of coming back as a nan cost or matrix
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        call(bad)


def test_spectrum_eigenvalues_are_read_only():
    spec = nonzero_spectrum(np.random.default_rng(31).standard_normal((5, 3)), np.eye(3))
    assert not spec.eigenvalues.flags.writeable
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 1.0


def test_spectrum_follows_arrays_changed_in_place():
    rng = np.random.default_rng(32)
    h = rng.standard_normal((6, 4))
    sxx = toeplitz_covariance(4, 0.3).sigma_xx.copy()

    def check_fresh(previous):
        spec = nonzero_spectrum(h, sxx)
        # equal to the unmemoised computation on the arrays as they are now
        np.testing.assert_array_equal(spec.eigenvalues, _spectrum(h, sxx).eigenvalues)
        oracle = _gram_oracle_spectrum(h, sxx)
        np.testing.assert_allclose(spec.eigenvalues, oracle, rtol=0.0, atol=1e-12 * oracle[0])
        assert previous is None or not np.array_equal(spec.eigenvalues, previous.eigenvalues)
        return spec

    spec = check_fresh(None)
    h[0, 0] += 1.0
    spec = check_fresh(spec)
    sxx *= 2.0
    check_fresh(spec)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_effective_secrecy_identity_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 21))
        h = rng.standard_normal((m, n))
        cov = StateCovariance(sigma_xx=random_pd(rng, n))
        sigma = float(rng.uniform(0.5, 2.0))
        attack = AttackModel(sigma_aa=random_psd(rng, m))
        derived = derived_covariances(h, cov, sigma, attack)
        f = stealth_cost(attack, derived, sigma)
        i = gaussian_mutual_information(attack, derived, sigma)
        d = gaussian_kl_marginals(derived)
        assert abs(f - (i + d)) < 1e-9


def test_optimum_never_beaten_by_psd_perturbations():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((8, 5))
    cov = StateCovariance(sigma_xx=random_pd(rng, 5))
    sigma = 0.8
    best = optimal_attack_covariance(h, cov)
    derived = derived_covariances(h, cov, sigma, best)
    f_star = stealth_cost(best, derived, sigma)
    for _ in range(50):
        delta = random_psd(rng, 8, scale=float(rng.uniform(0.01, 5.0)))
        perturbed = AttackModel(sigma_aa=best.sigma_aa + delta)
        assert stealth_cost(perturbed, derived, sigma) >= f_star - 1e-10


def test_optimum_matches_spectral_closed_form(ieee30_h):
    cov = toeplitz_covariance(29, 0.8)
    sigma = sigma_from_snr(ieee30_h, cov, 20.0)
    attack = optimal_attack_covariance(ieee30_h, cov)
    derived = derived_covariances(ieee30_h, cov, sigma, attack)
    f = stealth_cost(attack, derived, sigma)
    closed = optimal_cost(nonzero_spectrum(ieee30_h, cov), sigma)
    assert abs(f - closed) < 1e-9


def test_outputs_are_symmetric(ieee30_h):
    cov = toeplitz_covariance(29, 0.5)
    attack = optimal_attack_covariance(ieee30_h, cov)
    derived = derived_covariances(ieee30_h, cov, 1.0, attack)
    for m in (attack.sigma_aa, derived.sigma_yy, derived.sigma_yaya):
        np.testing.assert_array_equal(m, m.T)


def test_reverse_kl_differs_from_forward():
    a, b = np.array([[1.0]]), np.array([[2.0]])
    assert zero_mean_gaussian_kl(b, a) != pytest.approx(zero_mean_gaussian_kl(a, b))
