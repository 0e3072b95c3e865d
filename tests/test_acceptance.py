"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -v -s`` to see them).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from stealthgrid import (
    AttackModel,
    DerivedCovariances,
    StateCovariance,
    TrainingConfig,
    derived_covariances,
    draw_sample_covariance,
    emit_fig1_dataset,
    ergodic_upper_bound,
    error_exponent_estimate,
    estimate_ergodic_cost,
    expected_logdet_std_wishart,
    extreme_eig_bounds,
    gaussian_kl_marginals,
    gaussian_mutual_information,
    nonzero_spectrum,
    optimal_attack_covariance,
    optimal_cost,
    sigma_from_snr,
    solve_bound_program,
    stealth_cost,
    toeplitz_covariance,
)
from helpers import grid_oracle_objective, random_pd, random_psd, standard_wishart_extremes


class Timer:
    def __init__(self, number: int, name: str, limit: float):
        self.number = number
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[acceptance] criterion {self.number} ({self.name}): {status} "
            f"({elapsed:.1f}s, limit {self.limit:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def test_criterion_1_effective_secrecy_identity():
    with Timer(1, "effective-secrecy identity", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(1, 21))
            h = rng.standard_normal((m, n))
            cov = StateCovariance(sigma_xx=random_pd(rng, n))
            sigma = float(rng.uniform(0.5, 2.0))
            attack = AttackModel(sigma_aa=random_psd(rng, m))
            derived = derived_covariances(h, cov, sigma, attack)
            f = stealth_cost(attack, derived, sigma)
            identity = gaussian_mutual_information(attack, derived, sigma) + gaussian_kl_marginals(derived)
            assert abs(f - identity) < 1e-9


def test_criterion_2_optimum_closed_form_and_optimality(ieee30_h):
    with Timer(2, "optimal attack closed form and optimality", 10.0):
        cov = toeplitz_covariance(29, 0.8)
        sigma = sigma_from_snr(ieee30_h, cov, 20.0)
        attack = optimal_attack_covariance(ieee30_h, cov)
        derived = derived_covariances(ieee30_h, cov, sigma, attack)
        f_star = stealth_cost(attack, derived, sigma)
        closed = optimal_cost(nonzero_spectrum(ieee30_h, cov), sigma)
        assert abs(f_star - closed) < 1e-9

        rng = np.random.default_rng(202)
        scale = float(np.trace(attack.sigma_aa)) / attack.sigma_aa.shape[0]
        for _ in range(100):
            delta = random_psd(rng, 71, scale=scale * 10.0 ** rng.uniform(-3, 0))
            perturbed = AttackModel(sigma_aa=attack.sigma_aa + delta)
            assert stealth_cost(perturbed, derived, sigma) >= f_star - 1e-10


def test_criterion_3_wishart_machinery():
    with Timer(3, "Wishart sampling and expected log-determinant", 30.0):
        # (a) entrywise unbiasedness of the sample covariance draws
        cov = toeplitz_covariance(3, 0.5)
        draws = 10_000
        total = np.zeros((3, 3))
        totalsq = np.zeros((3, 3))
        for i in range(draws):
            s = draw_sample_covariance(cov, 20, seed=np.random.SeedSequence((303, i)))
            total += s
            totalsq += s**2
        mean = total / draws
        stderr = np.sqrt((totalsq / draws - mean**2) / draws)
        assert np.all(np.abs(mean - cov.sigma_xx) <= 3.0 * stderr)

        # (b) scalar expected log-determinant against both formula tags
        rng = np.random.default_rng(304)
        logs = np.log(rng.chisquare(10, size=1_000_000) / 10.0)
        se = logs.std(ddof=1) / math.sqrt(logs.size)
        real = expected_logdet_std_wishart(1, 11, "real_exact")
        paper = expected_logdet_std_wishart(1, 11, "paper")
        assert abs(logs.mean() - real) <= 3.0 * se
        assert logs.mean() + 3.0 * se < paper


def test_criterion_4_extreme_eigenvalue_concentration():
    with Timer(4, "singular-value variance and eigenvalue bounds", 60.0):
        _, _, smax = standard_wishart_extremes(10, 50, draws=10_000, seed=404)
        assert smax.var(ddof=1) < 1.0

        for l, dof in ((5, 50), (10, 100), (20, 400)):
            lmin, lmax, _ = standard_wishart_extremes(l, dof, draws=10_000, seed=405 + l)
            pair = extreme_eig_bounds(l, dof + 1)
            se_min = lmin.std(ddof=1) / math.sqrt(lmin.size)
            se_max = lmax.std(ddof=1) / math.sqrt(lmax.size)
            assert lmin.mean() >= pair.lower_min - 3.0 * se_min
            assert lmax.mean() <= pair.upper_max + 3.0 * se_max


def test_criterion_5_allocation_solver():
    with Timer(5, "box-constrained allocation solver", 30.0):
        rng = np.random.default_rng(505)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            b = 10.0 ** rng.uniform(-2, 2, size=p)
            k = int(rng.integers(p + 2, 502))
            program = solve_bound_program(b, k)
            oracle = grid_oracle_objective(b, program.box_lo, program.box_hi, steps=400)
            assert program.objective <= oracle + 1e-6
            assert abs(program.x_star.sum() - p) <= 1e-10

        program = solve_bound_program([10.0, 0.1], 101)
        np.testing.assert_allclose(program.x_star, [0.73716, 1.26284], atol=1e-5)
        x1 = np.arange(program.box_lo, program.box_hi, 1e-6)
        x2 = 2.0 - x1
        mask = (x2 >= program.box_lo) & (x2 <= program.box_hi)
        grid_best = float(np.min(np.log(10.0 + 1.0 / x1[mask]) + np.log(0.1 + 1.0 / x2[mask])))
        assert program.objective <= grid_best + 1e-6


def test_criterion_6_bound_validity_on_ieee30(ieee30_h):
    with Timer(6, "bound dominates Monte Carlo on the 30-bus sweep", 600.0):
        for rho in (0.1, 0.8):
            cov = toeplitz_covariance(29, rho)
            sigma = sigma_from_snr(ieee30_h, cov, 20.0)
            f_star = optimal_cost(nonzero_spectrum(ieee30_h, cov), sigma)
            gaps = []
            for k in (50, 100, 500, 1000, 10_000, 100_000):
                cfg = TrainingConfig(k=k, seed=606, trials=1000)
                estimate = estimate_ergodic_cost(ieee30_h, cov, sigma, cfg)
                bound = ergodic_upper_bound(ieee30_h, cov, sigma, k).value
                assert bound >= estimate.mean - 3.0 * estimate.stderr, (rho, k)
                gaps.append(bound - f_star)
            assert all(b < a for a, b in zip(gaps, gaps[1:])), rho


def test_criterion_7_asymptotic_consistency(ieee30_h):
    with Timer(7, "analytic large-K consistency", 5.0):
        for rho in (0.1, 0.8):
            cov = toeplitz_covariance(29, rho)
            sigma = sigma_from_snr(ieee30_h, cov, 20.0)
            f_star = optimal_cost(nonzero_spectrum(ieee30_h, cov), sigma)
            bound = ergodic_upper_bound(ieee30_h, cov, sigma, 10**8 + 1).value
            assert abs(bound - f_star) / f_star < 0.005


def test_criterion_8_error_exponent():
    with Timer(8, "detection error exponent", 60.0):
        derived = DerivedCovariances(
            sigma_yy=np.array([[1.0]]), sigma_yaya=np.array([[2.0]])
        )
        estimate = error_exponent_estimate(
            derived, n_grid=(10, 50, 200), epsilon=0.05, trials=100_000, seed=808
        )
        d = estimate.kl_marginals
        assert d == pytest.approx(0.1534, abs=1e-4)
        exponents = [point.exponent for point in estimate.points]
        assert exponents == sorted(exponents) and exponents[-1] < d
        # the exact law: tau at the chi2_n 0.05-quantile x of the attacked weight 1,
        # beta the chi2_n tail at 2x (clean weight 1/2); 0.04455, 0.06693, 0.09554
        exact = [-chi2.logsf(2.0 * chi2.ppf(0.05, n), n) / n for n in (10, 50, 200)]
        assert exponents == pytest.approx(exact, rel=1e-3)


def test_criterion_9_pipeline_determinism(tmp_path):
    with Timer(9, "byte-identical sweeps across runs", 120.0):
        runs = {}
        for label in ("a", "b"):
            paths = emit_fig1_dataset(tmp_path / label, trials=20, seed=909)
            runs[label] = {p.name: p.read_bytes() for p in paths}
        assert runs["a"] == runs["b"]
