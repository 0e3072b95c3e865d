from __future__ import annotations

import hashlib
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from stealthgrid import (
    SpectralData,
    StateCovariance,
    TrainingConfig,
    ergodic_upper_bound,
    estimate_ergodic_cost,
    expected_logdet_std_wishart,
    extreme_eig_bounds,
    logdet_lower_bound,
    nonzero_spectrum,
    optimal_cost,
    sigma_from_snr,
    solve_bound_program,
    spectral_upper_bound,
    toeplitz_covariance,
)
from stealthgrid import bounds, gaussian
from stealthgrid.bounds import EULER_GAMMA, FORMULAS, _digamma
from helpers import BAD_SIGMA, grid_oracle_objective, pinned_digest, standard_wishart_extremes

SCALAR_SPEC = nonzero_spectrum(np.array([[1.0]]), np.array([[1.0]]))


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------


def test_digamma_at_one():
    assert _digamma(1) == pytest.approx(-EULER_GAMMA, abs=1e-14)


def test_digamma_at_two():
    assert _digamma(2) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)


def test_digamma_at_ten_harmonic_oracle():
    h9 = math.fsum(1.0 / k for k in range(1, 10))
    assert _digamma(10) == pytest.approx(h9 - EULER_GAMMA, abs=1e-14)
    assert _digamma(10) == pytest.approx(2.2517526, abs=1e-7)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 9999, 10_000, 10_001, 50_000, 10**8])
def test_digamma_matches_scipy(n):
    assert _digamma(n) == pytest.approx(float(special.digamma(n)), abs=1e-12)


@pytest.mark.parametrize("twice", [1, 3, 5, 99, 19_999, 20_001, 10**7 + 1])
def test_half_integer_digamma_matches_scipy(twice):
    assert float(_digamma(twice / 2.0)) == pytest.approx(
        float(special.digamma(twice / 2.0)), abs=1e-12
    )


def test_digamma_is_a_scalar_function_from_one_half_to_1e15():
    half, big = _digamma(0.5), _digamma(1e15)
    assert type(half) is float and type(big) is float
    assert half == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-14)
    assert big == pytest.approx(float(special.digamma(1e15)), abs=1e-14)


# ---------------------------------------------------------------------------
# extreme_eig_bounds
# ---------------------------------------------------------------------------


def test_eig_bounds_direct_substitution():
    pair = extreme_eig_bounds(4, 17)  # L=4, K-1=16
    assert pair.lower_min == pytest.approx(0.25)
    assert pair.upper_max == pytest.approx(2.3125)


def test_eig_bounds_square_case_lower_is_zero():
    pair = extreme_eig_bounds(6, 7)  # L = K-1
    assert pair.lower_min == pytest.approx(0.0)


def test_eig_bounds_refuse_undersampled():
    with pytest.raises(ValueError, match="k-1 >= L"):
        extreme_eig_bounds(10, 10)


def test_eig_bounds_hold_for_wishart_draws():
    lmin, lmax, _ = standard_wishart_extremes(10, 100, draws=4000, seed=2)
    pair = extreme_eig_bounds(10, 101)
    assert pair.lower_min == pytest.approx(0.46754, abs=1e-5)
    assert pair.upper_max == pytest.approx(1.74246, abs=1e-5)
    assert lmin.mean() >= pair.lower_min - 3.0 * lmin.std(ddof=1) / math.sqrt(lmin.size)
    assert lmax.mean() <= pair.upper_max + 3.0 * lmax.std(ddof=1) / math.sqrt(lmax.size)


def test_max_singular_value_variance_below_one():
    _, _, smax = standard_wishart_extremes(10, 50, draws=4000, seed=3)
    assert smax.var(ddof=1) < 1.0


# ---------------------------------------------------------------------------
# expected_logdet_std_wishart
# ---------------------------------------------------------------------------


def test_expected_logdet_paper_small_case():
    value = expected_logdet_std_wishart(1, 11, "paper")
    assert value == pytest.approx(_digamma(10) - math.log(10.0), abs=1e-12)
    assert value == pytest.approx(-0.0508325, abs=1e-7)


def test_expected_logdet_real_exact_small_case():
    value = expected_logdet_std_wishart(1, 11, "real_exact")
    assert value == pytest.approx(_digamma(5) + math.log(2.0) - math.log(10.0), abs=1e-12)
    assert value == pytest.approx(-0.1033, abs=1e-4)


def test_expected_logdet_real_exact_matches_chi_square_mc():
    # E[log(chi2_10 / 10)] estimated directly from draws
    rng = np.random.default_rng(8)
    draws = np.log(rng.chisquare(10, size=1_000_000) / 10.0)
    stderr = draws.std(ddof=1) / math.sqrt(draws.size)
    real = expected_logdet_std_wishart(1, 11, "real_exact")
    paper = expected_logdet_std_wishart(1, 11, "paper")
    assert abs(draws.mean() - real) <= 3.0 * stderr
    assert draws.mean() + 3.0 * stderr < paper


def test_expected_logdet_multidimensional_real_exact_mc():
    # log det of a centered 3x3 sample covariance, dof = 12
    rng = np.random.default_rng(9)
    p, dof, draws = 3, 12, 40_000
    vals = np.empty(draws)
    for i in range(draws):
        z = rng.standard_normal((dof, p))
        vals[i] = np.linalg.slogdet(z.T @ z / dof)[1]
    stderr = vals.std(ddof=1) / math.sqrt(draws)
    real = expected_logdet_std_wishart(p, dof + 1, "real_exact")
    assert abs(vals.mean() - real) <= 3.0 * stderr


def test_expected_logdet_requires_enough_samples():
    with pytest.raises(ValueError, match="k-1 >= p"):
        expected_logdet_std_wishart(5, 5)


@pytest.mark.parametrize("p", [2.5, 2.0, True, "2"], ids=["2.5", "2.0", "True", "str"])
def test_expected_logdet_rejects_p_that_is_not_an_integer(p):
    with pytest.raises(ValueError, match=f"p must be an integer, got {re.escape(repr(p))}"):
        expected_logdet_std_wishart(p, 10)


def test_expected_logdet_accepts_a_numpy_integer_p():
    assert expected_logdet_std_wishart(np.int64(3), 10) == expected_logdet_std_wishart(3, 10)


def _scipy_digamma_sum(p: int, k: int, formula: str) -> float:
    """expected_logdet_std_wishart as p scipy digammas, summed with fsum."""
    if formula == "paper":
        total = math.fsum(special.digamma(k - 1 - np.arange(p, dtype=float)))
    else:
        total = math.fsum(special.digamma((k - np.arange(1, p + 1, dtype=float)) / 2.0))
        total += p * math.log(2.0)
    return total - p * math.log(k - 1)


def test_digamma_ladders_match_scipy_digamma_sums():
    # 1000 seeded (p, K): p in 1..200, K log-uniform in [p + 1, 1e8 + 1], and
    # the edges K = p + 1, p + 2, 1e8 + 1 and 2^64 - 1 for a few p
    rng = np.random.default_rng(27)
    pairs = []
    for _ in range(1000):
        p = int(rng.integers(1, 201))
        k = max(p + 1, int(10.0 ** rng.uniform(math.log10(p + 1), math.log10(10**8 + 1))))
        pairs.append((p, k))
    for p in (1, 2, 3, 29, 199, 200):
        pairs += [(p, p + 1), (p, p + 2), (p, 10**8 + 1), (p, 2**64 - 1)]
    for p, k in pairs:
        for formula in FORMULAS:
            value = expected_logdet_std_wishart(p, k, formula)
            tolerance = 1e-13 * p * math.log(k) + 1e-12
            assert abs(value - _scipy_digamma_sum(p, k, formula)) <= tolerance, (p, k, formula)


@pytest.mark.parametrize("k", [10**6, 10**9, 10**12, 2**63], ids=["1e6", "1e9", "1e12", "2^63"])
@pytest.mark.parametrize("formula", FORMULAS)
def test_expected_logdet_keeps_relative_accuracy_at_large_k(formula, k):
    # p = 29: the value cancels to about -p^2 / 2K (-4.35e-10 at K = 1e12), where an
    # error of eps * p log K, the scipy check's scale, would be 1e-4 of it, and at 2^63
    # more than all of it.  The oracle sums the 29 digammas at 40 digits.
    p = 29
    with mpmath.workdps(40):
        if formula == "paper":
            psi = [mpmath.digamma(k - 1 - i) for i in range(p)]
        else:
            psi = [mpmath.digamma(mpmath.mpf(k - i) / 2) + mpmath.log(2) for i in range(1, p + 1)]
        exact = float(mpmath.fsum(psi) - p * mpmath.log(k - 1))
    assert expected_logdet_std_wishart(p, k, formula) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_a_digamma_sum_evaluates_digamma_at_most_twice_on_every_call(monkeypatch):
    calls = []
    digamma = bounds._digamma
    monkeypatch.setattr(bounds, "_digamma", lambda x: calls.append(x) or digamma(x))
    for p in (1, 2, 3, 29, 200):
        for k in (p + 1, p + 2, 10**8 + 1):
            for formula in FORMULAS:
                counts = []
                for _ in range(2):  # nothing is memoised: a repeat costs the same
                    calls.clear()
                    expected_logdet_std_wishart(p, k, formula)
                    counts.append(len(calls))
                # a ladder that starts at 16 or above takes psi from _series alone
                most = 1 if formula == "paper" else 2
                assert counts[0] == counts[1] <= most, (p, k, formula)


# ---------------------------------------------------------------------------
# solve_bound_program
# ---------------------------------------------------------------------------


def test_solver_single_coordinate_forced():
    program = solve_bound_program([7.3], 50)
    np.testing.assert_allclose(program.x_star, [1.0], atol=1e-12)
    assert program.objective == pytest.approx(math.log(7.3 + 1.0), abs=1e-12)


def test_solver_symmetric_instance():
    program = solve_bound_program([1.0, 1.0], 9)  # K-1 = 8
    np.testing.assert_allclose(program.x_star, [1.0, 1.0], atol=1e-10)
    assert program.objective == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


def test_solver_reproduces_clipped_example():
    program = solve_bound_program([10.0, 0.1], 101)  # K-1 = 100
    lo = (1.0 - math.sqrt(2.0 / 100.0)) ** 2
    np.testing.assert_allclose(program.x_star, [lo, 2.0 - lo], atol=1e-9)
    np.testing.assert_allclose(program.x_star, [0.73716, 1.26284], atol=1e-5)
    assert program.objective == pytest.approx(2.31537, abs=1e-4)
    # brute-force oracle on a 1e-6 grid
    x1 = np.arange(program.box_lo, program.box_hi, 1e-6)
    x2 = 2.0 - x1
    mask = (x2 >= program.box_lo) & (x2 <= program.box_hi)
    grid_best = np.min(
        np.log(10.0 + 1.0 / x1[mask]) + np.log(0.1 + 1.0 / x2[mask])
    )
    assert program.objective <= grid_best + 1e-6


def test_solver_beats_grid_oracle_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = int(rng.integers(1, 4))
        b = 10.0 ** rng.uniform(-2, 2, size=p)
        k = int(rng.integers(p + 2, 502))
        program = solve_bound_program(b, k)
        oracle = grid_oracle_objective(b, program.box_lo, program.box_hi, steps=400)
        assert program.objective <= oracle + 1e-6
        assert abs(program.x_star.sum() - p) <= 1e-10
        assert np.all(program.x_star >= program.box_lo - 1e-12)
        assert np.all(program.x_star <= program.box_hi + 1e-12)


def test_solver_kkt_residuals():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = int(rng.integers(2, 4))
        b = 10.0 ** rng.uniform(-2, 2, size=p)
        k = int(rng.integers(p + 2, 502))
        program = solve_bound_program(b, k)
        x = program.x_star
        assert abs(x.sum() - p) <= 1e-10
        interior = (x > program.box_lo + 1e-9) & (x < program.box_hi - 1e-9)
        if interior.sum() >= 2:
            levels = b[interior] * x[interior] ** 2 + x[interior]
            assert levels.max() - levels.min() < 1e-8


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        solve_bound_program([1.0, -2.0], 10)
    with pytest.raises(ValueError, match="k-1 >= L"):
        solve_bound_program([1.0, 1.0, 1.0], 3)


def _allocation_objective(b: np.ndarray, x: np.ndarray) -> float:
    return math.fsum(np.log(b + 1.0 / x))


@st.composite
def _bound_programs(draw):
    """(b, K, seed): p in 1..40, b log-uniform on [1e-8, 1e8] or tied, drawn
    from 2 to 4 distinct such values; K at p+1 (lo = 0), p+2, log-uniform up
    to about 1e8, or 1e8+1; seed drives the perturbations."""
    p = draw(st.integers(1, 40))
    exponents = st.floats(-8.0, 8.0)
    if draw(st.sampled_from(["log-uniform", "tied"])) == "tied":
        exponents = st.sampled_from(draw(st.lists(exponents, min_size=2, max_size=4, unique=True)))
    b = 10.0 ** np.array(draw(st.lists(exponents, min_size=p, max_size=p)))
    kind = draw(st.sampled_from(["p+1", "p+2", "random", "1e8+1"]))
    if kind == "random":
        k = p + 1 + int(10.0 ** draw(st.floats(0.0, 8.0)))
    else:
        k = {"p+1": p + 1, "p+2": p + 2, "1e8+1": 10**8 + 1}[kind]
    return b, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_bound_programs())
def test_solver_satisfies_kkt_and_beats_feasible_perturbations(case):
    b, k, seed = case
    p = b.size
    program = solve_bound_program(b, k)
    x, lo, hi = program.x_star, program.box_lo, program.box_hi
    assert math.isfinite(program.objective)
    assert program.objective == _allocation_objective(b, x)
    assert abs(x.sum() - p) <= 1e-11 * p
    assert np.all((x >= lo) & (x <= hi))

    # KKT: interior coordinates share the level t = b x^2 + x; a coordinate
    # held at lo would sit below lo at level t (its level at lo is >= t), one
    # held at hi would exceed hi (its level at hi is <= t)
    level = b * x**2 + x
    at_lo, at_hi = x == lo, x == hi
    interior = ~(at_lo | at_hi)
    if interior.any():
        t_min, t_max = level[interior].min(), level[interior].max()
        assert t_max - t_min <= 1e-10 * t_max
        if at_lo.any():
            assert level[at_lo].min() >= t_max * (1.0 - 1e-10)
        if at_hi.any():
            assert level[at_hi].max() <= t_min * (1.0 + 1e-10)
    if at_lo.any() and at_hi.any():
        assert level[at_lo].min() >= level[at_hi].max() * (1.0 - 1e-10)

    # no feasible point nearby or towards x = 1 (always feasible) is better
    rng = np.random.default_rng(seed)
    slack = 1e-12 * max(1.0, abs(program.objective))
    for _ in range(4):
        s = rng.uniform(1e-6, 1.0)
        moved = (1.0 - s) * x + s
        assert _allocation_objective(b, moved) >= program.objective - slack
    if p >= 2:
        for _ in range(4):
            i, j = rng.choice(p, size=2, replace=False)
            delta = rng.uniform(0.01, 0.99) * min(x[i] - lo, hi - x[j])
            moved = x.copy()
            moved[i] -= delta
            moved[j] += delta
            assert _allocation_objective(b, moved) >= program.objective - slack


def _numpy_level(b, target, left, right):
    """The dual level by Newton from the left end, one numpy call per sum (the
    solver's earlier search, kept as an oracle)."""
    t = left
    for steps in range(1, bounds._NEWTON_STEPS + 1):
        radical = np.sqrt(1.0 + 4.0 * b * t)
        shortfall = target - float((2.0 * t / (1.0 + radical)).sum())
        if shortfall > 0.0:
            left = t
        else:
            right = t
        step = shortfall / float((1.0 / radical).sum())
        if shortfall == 0.0 or abs(step) <= bounds._STEP_TOL * t:
            break
        t = t + step if left < t + step < right else 0.5 * (left + right)
    return t


def _scan_bracket(b, lo, hi):
    """The bracket from the clipped sums at all 2p breakpoints in one 2p x p
    table (the solver's earlier scan, kept as an oracle): (free, target, left,
    right) with ``free`` the coordinates clipped nowhere in [left, right] and
    ``target`` what their roots must add up to."""
    p = b.size
    enter, leave = b * lo**2 + lo, b * hi**2 + hi
    levels = np.sort(np.concatenate([enter, leave]))
    roots = 2.0 * levels[:, None] / (1.0 + np.sqrt(1.0 + 4.0 * b * levels[:, None]))
    sums = np.clip(roots, lo, hi).sum(axis=1)
    j = int(np.searchsorted(sums, p))
    left, right = float(levels[j - 1]), float(levels[j])
    at_lo, at_hi = enter >= right, leave <= left
    target = p - lo * np.count_nonzero(at_lo) - hi * np.count_nonzero(at_hi)
    return ~(at_lo | at_hi), target, left, right


def _check_against_oracles(b, k):
    """The program of b (an array or a prepared ``_Allocation``) at K against
    the scan's bracket and the numpy Newton level, and below the step cap."""
    program = solve_bound_program(b, k)
    b, lo, hi, p = program.b, program.box_lo, program.box_hi, program.p
    free, target, left, right = _scan_bracket(b, lo, hi)
    t = _numpy_level(b[free], target, left, right)
    x = np.clip(2.0 * t / (1.0 + np.sqrt(1.0 + 4.0 * b * t)), lo, hi)
    oracle = _allocation_objective(b, x)
    # each of the p terms carries an absolute error of a few ulps however
    # small it is, so an objective near 0 is compared on the scale p
    assert abs(program.objective - oracle) <= 1e-13 * max(abs(oracle), p)
    assert abs(program.x_star.sum() - p) <= 1e-12 * p
    assert 1 <= program.newton_steps < bounds._NEWTON_STEPS


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_bound_programs())
def test_newton_from_the_chord_matches_the_numpy_search(case):
    b, k, _ = case
    _check_against_oracles(bounds._prepare_allocation(b), k)


@pytest.mark.parametrize("p", [1, 2, 4, 29, 117])
@pytest.mark.parametrize("spread", ["narrow", "wide"])
def test_newton_from_the_chord_matches_the_numpy_search_up_to_p_117(p, spread):
    rng = np.random.default_rng([p, spread == "wide"])
    exponents = rng.uniform(-6.0, 6.0, p) if spread == "wide" else rng.uniform(-0.5, 0.5, p)
    allocation = bounds._prepare_allocation(10.0 ** exponents)  # one for every K, as a bound's
    for k in (p + 1, p + 2, 2 * p + 3, 10 * p + 1, 10**4 + p, 10**8 + 1):
        _check_against_oracles(allocation, k)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_bound_programs())
def test_bisected_breakpoints_match_the_scan(case):
    b, k, _ = case
    _check_against_oracles(b, k)


@pytest.mark.parametrize("p", [1, 2, 4, 29, 60, 117, 300])
@pytest.mark.parametrize("spread", ["narrow", "wide", "repeated"])
def test_bisected_breakpoints_match_the_scan_up_to_p_300(p, spread):
    rng = np.random.default_rng([p, ["narrow", "wide", "repeated"].index(spread)])
    if spread == "repeated":  # equal b_i share their breakpoints
        exponents = rng.choice([-1.0, 0.0, 0.5, 2.0], p)
    else:
        exponents = rng.uniform(-6.0, 6.0, p) if spread == "wide" else rng.uniform(-0.5, 0.5, p)
    b = 10.0 ** exponents
    for k in (p + 1, p + 2, 2 * p + 3, 10 * p + 1, 10**4 + p, 10**8 + 1):
        _check_against_oracles(b, k)


@pytest.mark.parametrize("k", [10.5, np.float64(10.0), True, "10"], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda k: solve_bound_program([1.0, 2.0, 3.0], k), "k"),
        (lambda k: expected_logdet_std_wishart(3, k), "k"),
        (lambda k: extreme_eig_bounds(3, k), "k"),
        (lambda l: extreme_eig_bounds(l, 20), "l"),
    ],
    ids=["solve_bound_program", "expected_logdet_std_wishart", "extreme_eig_bounds", "l"],
)
def test_sizes_that_are_not_integers_are_rejected(call, name, k):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(k))}$"):
        call(k)


def test_numpy_integer_sizes_are_accepted():
    k, l = np.int64(10), np.int64(3)
    assert solve_bound_program([1.0, 2.0, 3.0], k).objective == (
        solve_bound_program([1.0, 2.0, 3.0], 10).objective
    )
    assert expected_logdet_std_wishart(3, k) == expected_logdet_std_wishart(3, 10)
    assert extreme_eig_bounds(l, k) == extreme_eig_bounds(3, 10)


# ---------------------------------------------------------------------------
# logdet_lower_bound
# ---------------------------------------------------------------------------


def test_logdet_lower_rank_zero_is_exact():
    spec = nonzero_spectrum(np.zeros((3, 2)), np.eye(2))
    assert logdet_lower_bound(spec, 1.0, 3, 100) == pytest.approx(0.0)
    assert logdet_lower_bound(spec, 2.0, 3, 100) == pytest.approx(6.0 * math.log(2.0))


def test_logdet_lower_scalar_digamma_arithmetic():
    value = logdet_lower_bound(SCALAR_SPEC, 1.0, 1, 101, "paper")
    expected = _digamma(100) - math.log(100.0) + math.log(2.0)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.68814, abs=1e-5)


@pytest.mark.parametrize("formula", ["paper", "real_exact"])
def test_logdet_lower_is_below_mc_expectation(formula):
    rng = np.random.default_rng(14)
    s = rng.chisquare(100, size=100_000) / 100.0
    vals = np.log(s + 1.0)
    stderr = vals.std(ddof=1) / math.sqrt(vals.size)
    bound = logdet_lower_bound(SCALAR_SPEC, 1.0, 1, 101, formula)
    assert vals.mean() >= bound - 3.0 * stderr


@BAD_SIGMA
@pytest.mark.parametrize(
    "bound", ["logdet_lower_bound", "spectral_upper_bound", "ergodic_upper_bound"]
)
def test_bounds_reject_sigma_not_finite_and_positive(bound, sigma):
    h = np.random.default_rng(6).standard_normal((8, 4))
    cov = toeplitz_covariance(4, 0.5)
    spectrum = nonzero_spectrum(h, cov)
    call = {
        "logdet_lower_bound": lambda: logdet_lower_bound(spectrum, sigma, 8, 10),
        "spectral_upper_bound": lambda: spectral_upper_bound(spectrum, sigma, 8, 10),
        "ergodic_upper_bound": lambda: ergodic_upper_bound(h, cov, sigma, 10),
    }[bound]
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        call()


THREE_SPEC = SpectralData(eigenvalues=np.array([3.0, 2.0, 1.0]))


@pytest.mark.parametrize(
    "m, k, message",
    [
        (1, 10, r"need m >= p \(got m=1, p=3\)"),
        (2, 10, r"need m >= p \(got m=2, p=3\)"),
        (5, 10.5, "k must be an integer, got 10.5"),
        (5, 10.0, "k must be an integer, got 10.0"),
        (5, True, "k must be an integer, got True"),
        (5.0, 10, "m must be an integer, got 5.0"),
        (True, 10, "m must be an integer, got True"),
    ],
    ids=["m=1", "m=p-1", "k=10.5", "k=10.0", "k=True", "m=5.0", "m=True"],
)
@pytest.mark.parametrize("bound", ["logdet_lower_bound", "spectral_upper_bound"])
def test_bounds_reject_impossible_sizes(bound, m, k, message):
    call = {"logdet_lower_bound": logdet_lower_bound, "spectral_upper_bound": spectral_upper_bound}
    with pytest.raises(ValueError, match=message):
        call[bound](THREE_SPEC, 0.5, m, k)


def test_bounds_accept_numpy_integer_sizes():
    plain = spectral_upper_bound(THREE_SPEC, 0.5, 3, 10)
    numpy = spectral_upper_bound(THREE_SPEC, 0.5, np.int64(3), np.int64(10))
    assert numpy.value == plain.value
    assert logdet_lower_bound(THREE_SPEC, 0.5, np.int32(3), np.int32(10)) == plain.logdet_lower


# ---------------------------------------------------------------------------
# ergodic_upper_bound
# ---------------------------------------------------------------------------

SCALAR_H = np.array([[1.0]])
SCALAR_COV = StateCovariance(sigma_xx=np.array([[1.0]]))


def test_bound_scalar_hand_value():
    result = ergodic_upper_bound(SCALAR_H, SCALAR_COV, 1.0, 101, "paper")
    expected = 0.5 * (0.5 + math.log(2.0) - (_digamma(100) - math.log(100.0) + math.log(2.0)))
    assert result.value == pytest.approx(expected, abs=1e-12)
    assert result.value == pytest.approx(0.25250, abs=1e-5)


def test_bound_dominates_mc_mean_scalar():
    est = estimate_ergodic_cost(
        SCALAR_H, SCALAR_COV, 1.0, TrainingConfig(k=101, seed=2, trials=20_000)
    )
    bound = ergodic_upper_bound(SCALAR_H, SCALAR_COV, 1.0, 101).value
    assert bound >= est.mean - 3.0 * est.stderr
    assert est.mean == pytest.approx(0.25125, abs=2e-3)


def test_bound_converges_to_optimal_cost():
    bound = ergodic_upper_bound(SCALAR_H, SCALAR_COV, 1.0, 10**8 + 1).value
    assert abs(bound - 0.25) < 1e-6


def test_bound_monotone_in_k_on_ieee30(ieee30_h):
    cov = toeplitz_covariance(29, 0.8)
    sigma = sigma_from_snr(ieee30_h, cov, 20.0)
    values = [
        ergodic_upper_bound(ieee30_h, cov, sigma, k).value
        for k in (50, 100, 500, 1000, 10_000, 100_000)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_bound_asymptotic_relative_gap_ieee30(ieee30_h):
    for rho in (0.1, 0.8):
        cov = toeplitz_covariance(29, rho)
        sigma = sigma_from_snr(ieee30_h, cov, 20.0)
        f_star = optimal_cost(nonzero_spectrum(ieee30_h, cov), sigma)
        bound = ergodic_upper_bound(ieee30_h, cov, sigma, 10**8 + 1).value
        assert abs(bound - f_star) / f_star < 0.005


def test_real_exact_bound_is_larger(ieee30_h):
    cov = toeplitz_covariance(29, 0.1)
    sigma = sigma_from_snr(ieee30_h, cov, 20.0)
    paper = ergodic_upper_bound(ieee30_h, cov, sigma, 50, "paper").value
    real = ergodic_upper_bound(ieee30_h, cov, sigma, 50, "real_exact").value
    assert real > paper


def test_bound_requires_enough_samples(ieee30_h):
    cov = toeplitz_covariance(29, 0.1)
    with pytest.raises(ValueError, match="k-1 >= p"):
        ergodic_upper_bound(ieee30_h, cov, 1.0, 29)


@st.composite
def _small_systems(draw):
    """H (M <= 12, N <= 6, rank r: tall, wide, square or rank-deficient), rho, SNR, K >= p+1."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rank = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    rho = draw(st.floats(0.0, 0.95))
    snr_db = draw(st.floats(-10.0, 60.0))
    k = rank + int(10.0 ** draw(st.floats(0.0, 3.0)))
    return h, rho, snr_db, k, draw(st.integers(0, 2**63 - 1))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_small_systems())
def test_default_bound_dominates_monte_carlo_mean(system):
    h, rho, snr_db, k, seed = system
    cov = toeplitz_covariance(h.shape[1], rho)
    sigma = sigma_from_snr(h, cov, snr_db)
    spectrum = nonzero_spectrum(h, cov)
    assert k >= spectrum.p + 1
    # draw_sample_covariance's Bartlett sampler needs K-1 >= N (the Monte Carlo's
    # only K-1 >= p); below N the empirical sampler is used
    sampler = "bartlett" if k - 1 >= h.shape[1] else "empirical"
    estimate = estimate_ergodic_cost(
        h, cov, sigma, TrainingConfig(k=k, seed=seed, trials=3000, sampler=sampler)
    )
    bound = spectral_upper_bound(spectrum, sigma, h.shape[0], k).value
    assert bound >= estimate.mean - 4.0 * estimate.stderr


def _h_oracle_bound(h, sxx, sigma, k, formula):
    """1/2 [tr(S_yy^-1 G) + log|S_yy| - logdet_lower_bound] with G = H S_xx H^T, from H."""
    gram = h @ sxx @ h.T
    syy = gram + sigma**2 * np.eye(h.shape[0])
    sign, logdet = np.linalg.slogdet(syy)
    assert sign == 1.0
    lower = logdet_lower_bound(nonzero_spectrum(h, sxx), sigma, h.shape[0], k, formula)
    return 0.5 * (float(np.trace(np.linalg.solve(syy, gram))) + logdet - lower)


@pytest.mark.parametrize("formula", FORMULAS)
@pytest.mark.parametrize(
    "shape, rank",
    [((8, 3), 3), ((12, 6), 6), ((4, 9), 4), ((7, 5), 2)],
    ids=["tall", "tall-wide-spectrum", "wide", "rank-deficient"],
)
def test_spectral_upper_bound_matches_h_oracle(shape, rank, formula):
    m, n = shape
    rng = np.random.default_rng([m, n, rank])
    h = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    sxx = toeplitz_covariance(n, 0.6).sigma_xx
    sigma = 0.3
    spectrum = nonzero_spectrum(h, sxx)
    assert spectrum.p == rank
    for k in (rank + 1, 3 * rank + 7, 10**5, 10**8 + 1):
        result = spectral_upper_bound(spectrum, sigma, m, k, formula)
        assert result.value == pytest.approx(_h_oracle_bound(h, sxx, sigma, k, formula), rel=1e-10)
        assert result.value == ergodic_upper_bound(h, sxx, sigma, k, formula).value


@pytest.mark.parametrize("formula", FORMULAS)
def test_spectral_upper_bound_rank_zero_is_zero(formula):
    h = np.zeros((5, 3))
    sxx = np.eye(3)
    empty = SpectralData(eigenvalues=np.empty(0))
    result = spectral_upper_bound(empty, 0.7, 5, 2, formula)
    assert result.value == pytest.approx(0.0, abs=1e-12)
    assert result.value == pytest.approx(_h_oracle_bound(h, sxx, 0.7, 2, formula), abs=1e-12)


#: per BLAS kernel (helpers.blas_kernel), the digest of the bound path
BOUND_PATH_DIGESTS = {
    b"SkylakeX": "f21d7d6e61198c7d202512c0ce8fd3923c00b5b96a0b615cc11c7e40d43410ca",
    b"Haswell": "d2ad1a97c913b7e56d34c924f7abc5efe186db32687c8dba032ce10e8afa78e7",
    b"Sandybridge": "a4fe3485127b27f5726af371390d562007078e6a1495c4b4dda25063676d6274",
    b"Nehalem": "7e29ff231494996baefad22070adf6d3c06108088399544a7b6bf5431a93c479",
    b"Katmai": "37c72e221d598f7e042eea0e4b93ad38a3a3b0574eee41cd1f60ab0e27fb4778",
}


def test_bound_path_is_pinned_bit_for_bit(ieee30_h):
    # value, digamma sum, log-det lower bound, program objective, Newton steps
    # and x* of 4 systems x 3 SNR x 6 K x both formulas, as float64/int64
    # bytes, hash to the digest of the bound computed afresh on every call,
    # before its per-(spectrum, sigma) context (numpy 2.4, x86-64 OpenBLAS,
    # one digest per kernel: each rounds the last bits of the spectrum its way)
    rng = np.random.default_rng(2026)
    systems = [
        (ieee30_h, 0.1),
        (rng.standard_normal((8, 4)), 0.5),
        (rng.standard_normal((20, 10)), 0.8),
        (rng.standard_normal((5, 9)), 0.3),
    ]
    digest = hashlib.sha256()
    for h, rho in systems:
        cov = toeplitz_covariance(h.shape[1], rho)
        spectrum = nonzero_spectrum(h, cov)
        p = spectrum.p
        for snr_db in (0.0, 20.0, 40.0):
            sigma = sigma_from_snr(h, cov, snr_db)
            for k in (p + 1, p + 2, 2 * p + 3, 10 * p + 1, 10**4 + p, 10**8 + 1):
                for formula in FORMULAS:
                    r = spectral_upper_bound(spectrum, sigma, h.shape[0], k, formula)
                    program = r.program
                    digest.update(
                        np.array([r.value, r.digamma_sum, r.logdet_lower, program.objective])
                    )
                    digest.update(np.array([program.newton_steps], dtype=np.int64))
                    digest.update(program.x_star)
    assert digest.hexdigest() == pinned_digest(BOUND_PATH_DIGESTS)


def test_random_allocation_programs_are_pinned_bit_for_bit():
    # 1000 seeded programs: p in 1..59, b log-uniform about a random centre
    # within [1e-6, 1e6], K log-uniform in [p + 1, 1e8 + 1].  Terms b + 1/x
    # within 1e-4..1e-1 of 1 come up here, where np.log and math.log differ
    # in the last bit about once in 50 (numpy 2.4, x86-64): swapping one for
    # the other in the objective changes 14 of these objectives, and none of
    # the systems above
    rng = np.random.default_rng(2020)
    digest = hashlib.sha256()
    for _ in range(1000):
        p = int(rng.integers(1, 60))
        center, spread = rng.uniform(-6.0, 6.0), rng.uniform(0.0, 3.0)
        b = 10.0 ** np.clip(center + rng.uniform(-spread, spread, size=p), -6.0, 6.0)
        k = max(p + 1, int(10.0 ** rng.uniform(math.log10(p + 1), math.log10(10**8 + 1))))
        program = solve_bound_program(b, k)
        digest.update(np.array([program.objective, program.box_lo, program.box_hi]))
        digest.update(np.array([program.newton_steps], dtype=np.int64))
        digest.update(program.x_star)
    assert digest.hexdigest() == "2f61a86b25be576e76d23d6276f085d1616910d53bdb96fa6155a8740e2564a7"


@pytest.mark.parametrize(
    "sigma, m, k, logdet_lower",
    [(0.7, 5, 2, -3.5667494393873245), (3.0, 4, 10**8 + 1, 8.788898309344878)],
)
def test_rank_zero_bound_prepares_no_program(monkeypatch, sigma, m, k, logdet_lower):
    def refuse(b):
        raise AssertionError("prepared an allocation for p = 0")

    monkeypatch.setattr(bounds, "_prepare_allocation", refuse)
    empty = SpectralData(eigenvalues=np.empty(0))
    for formula in FORMULAS:
        result = spectral_upper_bound(empty, sigma, m, k, formula)
        # the values of the bound computed afresh on every call
        assert (result.value, result.logdet_lower, result.digamma_sum) == (0.0, logdet_lower, 0.0)
        assert result.program is None
    assert optimal_cost(empty, sigma) == 0.0


# ---------------------------------------------------------------------------
# memoised inputs and non-finite systems
# ---------------------------------------------------------------------------


def test_both_formulas_share_one_program_solve(monkeypatch):
    calls = []

    def counting(b, k):
        calls.append(k)
        return solve_bound_program(b, k)

    monkeypatch.setattr(bounds, "solve_bound_program", counting)
    # eigenvalues no other test uses, so the program memo is cold for them
    ev = np.sort(np.random.default_rng(41).uniform(0.5, 3.0, 4))[::-1]
    spectrum = SpectralData(eigenvalues=ev)
    paper = spectral_upper_bound(spectrum, 0.4, 6, 20, "paper")
    real_exact = spectral_upper_bound(spectrum, 0.4, 6, 20, "real_exact")
    assert calls == [20]
    assert paper.program is real_exact.program
    assert real_exact.value > paper.value
    spectral_upper_bound(spectrum, 0.4, 6, 21, "paper")
    assert calls == [20, 21]


def test_a_bound_looks_up_its_program_and_digamma_sum_once(monkeypatch):
    looked_up = []
    program, digamma_sum = bounds._bound_program, bounds.expected_logdet_std_wishart

    def counted(name, lookup):
        return lambda *args: looked_up.append(name) or lookup(*args)

    monkeypatch.setattr(bounds, "_bound_program", counted("program", program))
    monkeypatch.setattr(bounds, "expected_logdet_std_wishart", counted("digamma", digamma_sum))
    result = spectral_upper_bound(THREE_SPEC, 0.5, 3, 10)
    assert sorted(looked_up) == ["digamma", "program"]
    assert type(result.logdet_lower) is float
    assert result.logdet_lower == logdet_lower_bound(THREE_SPEC, 0.5, 3, 10)
    assert bounds._last_context.key == (THREE_SPEC.eigenvalues.tobytes(), 0.5)
    assert result.program is program(bounds._last_context, 10)


def test_a_bound_keeps_its_context_when_the_slot_is_replaced_meanwhile(monkeypatch):
    # another thread may replace the slot at any point of a bound; here it
    # happens while the program is looked up
    spectrum, other = SpectralData(np.array([3.0, 1.5, 0.5])), SpectralData(np.array([7.0, 0.25]))
    _fresh_slots(monkeypatch)
    expected = spectral_upper_bound(spectrum, 0.3, 6, 20)
    other_context = logdet_lower_bound(other, 0.7, 6, 20).context
    program = bounds._bound_program

    def replaced_meanwhile(context, k):
        result = program(context, k)
        bounds._last_context = other_context
        return result

    monkeypatch.setattr(bounds, "_bound_program", replaced_meanwhile)
    _fresh_slots(monkeypatch)
    got = spectral_upper_bound(spectrum, 0.3, 6, 20)
    assert (got.value, got.logdet_lower) == (expected.value, expected.logdet_lower)


def test_bounds_computed_in_three_threads_equal_those_of_one():
    rng = np.random.default_rng(59)
    spectra = [SpectralData(np.sort(rng.uniform(0.2, 4.0, 6))[::-1]) for _ in range(3)]
    ks, rounds = range(8, 60), 12
    expected = [[spectral_upper_bound(s, 0.3, 9, k).value for k in ks] for s in spectra]

    def sweeps(spectrum):
        return [[spectral_upper_bound(spectrum, 0.3, 9, k).value for k in ks]
                for _ in range(rounds)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(sweeps, s) for s in spectra]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [[values] * rounds for values in expected]


def _fresh_slots(monkeypatch) -> None:
    """Empty spectrum and context slots (the program slot lives in the context)
    for the rest of a test."""
    monkeypatch.setattr(gaussian, "_last_system", None)
    monkeypatch.setattr(bounds, "_last_context", None)


def _bound_terms(spectrum: SpectralData, sigma: float, m: int, k: int) -> tuple:
    results = [spectral_upper_bound(spectrum, sigma, m, k, f) for f in FORMULAS]
    return (
        [(r.value, r.logdet_lower, r.program.objective) for r in results],
        results[0].program.x_star.tolist(),
        optimal_cost(spectrum, sigma),
    )


def test_a_sweep_builds_one_context_and_solves_each_k_once(monkeypatch):
    built, prepared, solved = [], [], []
    context, prepare = bounds._BoundContext, bounds._prepare_allocation

    class CountedContext(context):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(bounds, "_BoundContext", CountedContext)
    monkeypatch.setattr(bounds, "_prepare_allocation", lambda b: prepared.append(b) or prepare(b))
    monkeypatch.setattr(
        bounds, "solve_bound_program", lambda b, k: solved.append(k) or solve_bound_program(b, k)
    )
    # eigenvalues no other test uses, so the memos are cold for them
    ev = np.sort(np.random.default_rng(50).uniform(0.2, 4.0, 6))[::-1]
    spectrum = SpectralData(eigenvalues=ev)
    ks = [int(k) for k in np.unique(np.round(np.geomspace(7, 10**6, 50)))]
    assert len(ks) == 50
    results = [spectral_upper_bound(spectrum, 0.3, 9, k, f) for k in ks for f in FORMULAS]
    assert optimal_cost(spectrum, 0.3) == 0.5 * float(np.sum(ev / (ev + 0.3**2)))
    assert len(built) == 1 and len(prepared) == 1
    assert solved == ks
    assert all(r.program is s.program for r, s in zip(results[::2], results[1::2]))
    assert all(r.program.b is results[0].program.b for r in results)


def test_eigenvalues_changed_in_place_get_fresh_terms(monkeypatch):
    ev = np.array([2.5, 1.25, 0.5])  # user-built, writable
    spectrum = SpectralData(eigenvalues=ev)
    first = _bound_terms(spectrum, 0.6, 4, 11)
    ev *= 1.75
    second = _bound_terms(spectrum, 0.6, 4, 11)
    _fresh_slots(monkeypatch)
    assert _bound_terms(spectrum, 0.6, 4, 11) == second
    assert second[0] != first[0] and second[2] != first[2]


def test_a_new_sigma_gets_a_new_context(monkeypatch):
    ev = np.array([3.5, 0.75])
    spectrum = SpectralData(eigenvalues=ev)
    contexts = [logdet_lower_bound(spectrum, sigma, 2, 9).context for sigma in (0.5, 0.5, 0.8, 0.5)]
    assert contexts[0] is contexts[1] and contexts[2] is not contexts[1]
    np.testing.assert_array_equal(contexts[2].allocation.b, ev / 0.8**2)
    # only the last context is kept: 0.5 after 0.8 builds an equal one afresh
    first, again = contexts[0], contexts[3]
    assert again is not first and again is not contexts[2]
    np.testing.assert_array_equal(again.allocation.b, first.allocation.b)
    assert (again.trace_sum, again.log_shifted_sum) == (first.trace_sum, first.log_shifted_sum)
    terms = [_bound_terms(spectrum, sigma, 2, 9) for sigma in (0.5, 0.8)]
    assert terms[0] != terms[1]
    _fresh_slots(monkeypatch)
    assert [_bound_terms(spectrum, sigma, 2, 9) for sigma in (0.8, 0.5)] == terms[::-1]


def test_optimal_cost_builds_no_context(monkeypatch):
    _fresh_slots(monkeypatch)

    def refuse(*args):
        raise AssertionError("optimal_cost built a bound context")

    monkeypatch.setattr(bounds, "_BoundContext", refuse)
    ev = np.array([2.0, 0.5, 0.125])
    assert optimal_cost(SpectralData(ev), 0.3) == 0.5 * float((ev / (ev + 0.3**2)).sum())
    assert bounds._last_context is None


@pytest.mark.parametrize("seed", range(5))
def test_the_context_trace_term_is_twice_the_optimal_cost_bit_for_bit(seed):
    rng = np.random.default_rng([53, seed])
    ev = np.sort(10.0 ** rng.uniform(-6.0, 6.0, int(rng.integers(1, 60))))[::-1]
    spectrum, sigma = SpectralData(ev), float(10.0 ** rng.uniform(-3.0, 3.0))
    context = logdet_lower_bound(spectrum, sigma, ev.size, ev.size + 1).context
    assert context.trace_sum == 2.0 * optimal_cost(spectrum, sigma)
    # the sum the bound used before it read the optimal cost
    assert context.trace_sum == float((ev / (ev + sigma**2)).sum())


@st.composite
def _random_spectra(draw):
    """Descending lambda log-uniform in [1e-6, 1e6], p in 1..59, sigma log-uniform
    in [1e-3, 1e3] and two K log-uniform in [p + 1, 1e8 + 1]."""
    p = draw(st.integers(1, 59))
    logs = draw(st.lists(st.floats(-6.0, 6.0), min_size=p, max_size=p))
    ev = np.sort(10.0 ** np.array(logs))[::-1]
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    ks = sorted(
        max(p + 1, int(10.0 ** draw(st.floats(math.log10(p + 1), math.log10(10**8 + 1)))))
        for _ in range(2)
    )
    return SpectralData(ev), sigma, ks


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_random_spectra())
def test_bound_is_above_the_optimal_cost_and_does_not_increase_in_k(case):
    spectrum, sigma, (k_small, k_large) = case
    f_star = optimal_cost(spectrum, sigma)
    for formula in FORMULAS:
        small, large = (
            spectral_upper_bound(spectrum, sigma, spectrum.p, k, formula).value
            for k in (k_small, k_large)
        )
        assert large >= f_star
        assert large <= small


@BAD_SIGMA
def test_a_sigma_that_fails_its_check_stores_nothing(monkeypatch, sigma):
    _fresh_slots(monkeypatch)
    kept = spectral_upper_bound(THREE_SPEC, 0.5, 3, 10).program
    context = bounds._last_context
    for call in (
        lambda: spectral_upper_bound(THREE_SPEC, sigma, 3, 11),
        lambda: logdet_lower_bound(THREE_SPEC, sigma, 3, 11),
        lambda: optimal_cost(THREE_SPEC, sigma),
    ):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            call()
    assert bounds._last_context is context
    assert context.key == (THREE_SPEC.eigenvalues.tobytes(), 0.5)
    assert context.last_program == (10, kept)


def test_a_sigma_with_a_subnormal_square_reaches_the_check_on_b():
    # sigma^2 = 1e-320 passes the sigma check; b = lambda / sigma^2 overflows
    # to inf, which the bound rejects, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_cost(THREE_SPEC, 1e-160) == 1.5
        with pytest.raises(ValueError, match="b has non-finite entries"):
            spectral_upper_bound(THREE_SPEC, 1e-160, 3, 10)


def test_eigenvalue_written_below_minus_sigma_sq_raises_as_before():
    # the context's log sum is nan then; the optimal cost does not read it and
    # the bound rejects b first, with no RuntimeWarning on the way
    ev = np.array([2.0, 1.0])
    spectrum = SpectralData(eigenvalues=ev)
    ev[1] = -2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_cost(spectrum, 1.0) == 0.5 * float(np.sum(ev / (ev + 1.0)))
        with pytest.raises(ValueError, match="all b_i must be positive"):
            spectral_upper_bound(spectrum, 1.0, 3, 10)


def test_a_b_mutated_after_solve_bound_program_leaves_memoised_programs(monkeypatch):
    ev = np.array([4.0, 1.5, 0.25])
    spectrum = SpectralData(eigenvalues=ev)
    before = _bound_terms(spectrum, 0.7, 5, 12)  # K = 13 is not memoised yet
    b = ev / 0.7**2
    programs = [solve_bound_program(b, k) for k in (12, 13)]
    assert all(program.b is b for program in programs)  # the caller's array, as passed
    expected = (programs[1].objective, programs[1].x_star.tolist())
    b *= 3.0
    assert _bound_terms(spectrum, 0.7, 5, 12) == before
    at_13 = spectral_upper_bound(spectrum, 0.7, 5, 13).program
    assert (at_13.objective, at_13.x_star.tolist()) == expected
    np.testing.assert_array_equal(at_13.b, ev / 0.7**2)
    _fresh_slots(monkeypatch)
    assert _bound_terms(spectrum, 0.7, 5, 12) == before


def test_memoised_program_arrays_are_read_only():
    result = spectral_upper_bound(SCALAR_SPEC, 0.9, 1, 30)
    program = result.program
    assert program.p == 1 and program.newton_steps >= 1
    for array in (program.x_star, program.b, result.spectrum.eigenvalues):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_bound_follows_h_changed_in_place():
    rng = np.random.default_rng(42)
    h = rng.standard_normal((7, 3))
    sxx = toeplitz_covariance(3, 0.4)
    first = ergodic_upper_bound(h, sxx, 0.5, 12)
    h *= 1.5
    second = ergodic_upper_bound(h, sxx, 0.5, 12)
    # the spectrum computed afresh, without the memo, and the bound from H alone
    fresh = gaussian._spectrum(h, sxx.sigma_xx)
    np.testing.assert_array_equal(second.spectrum.eigenvalues, fresh.eigenvalues)
    assert second.value == spectral_upper_bound(fresh, 0.5, 7, 12).value
    assert second.value == pytest.approx(
        _h_oracle_bound(h, sxx.sigma_xx, 0.5, 12, "real_exact"), rel=1e-10
    )
    assert second.value != first.value


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["H", "S_xx"])
@pytest.mark.parametrize(
    "call", ["nonzero_spectrum", "ergodic_upper_bound", "estimate_ergodic_cost"]
)
def test_non_finite_system_raises(call, where, bad):
    h = np.random.default_rng(43).standard_normal((3, 2))
    sxx = np.eye(2)
    (h if where == "H" else sxx)[1, 1] = bad
    run = {
        "nonzero_spectrum": lambda: nonzero_spectrum(h, sxx),
        "ergodic_upper_bound": lambda: ergodic_upper_bound(h, sxx, 0.5, 10),
        "estimate_ergodic_cost": lambda: estimate_ergodic_cost(
            h, sxx, 0.5, TrainingConfig(k=10, seed=1, trials=10)
        ),
    }[call]
    with pytest.raises(ValueError, match=f"^{where} has non-finite entries"):
        run()


@pytest.mark.parametrize("where", ["H", "S_xx"])
def test_nan_written_into_a_memoised_system_raises(where):
    h = np.random.default_rng(44).standard_normal((5, 3))
    sxx = toeplitz_covariance(3, 0.2).sigma_xx.copy()
    nonzero_spectrum(h, sxx)
    ergodic_upper_bound(h, sxx, 0.5, 10)
    (h if where == "H" else sxx)[0, 0] = math.nan
    with pytest.raises(ValueError, match=f"^{where} has non-finite entries"):
        nonzero_spectrum(h, sxx)
    with pytest.raises(ValueError, match=f"^{where} has non-finite entries"):
        ergodic_upper_bound(h, sxx, 0.5, 10)


def test_only_a_spectrum_memo_miss_checks_finiteness(monkeypatch):
    checked = []
    check_finite = gaussian._check_finite

    def counting(**arrays):
        checked.append(sorted(arrays))
        check_finite(**arrays)

    monkeypatch.setattr(gaussian, "_check_finite", counting)
    h = np.random.default_rng(45).standard_normal((4, 3))
    first = nonzero_spectrum(h, np.eye(3))
    assert checked == [["H", "S_xx"]]
    assert nonzero_spectrum(h, np.eye(3)) is first
    assert checked == [["H", "S_xx"]]


def _count_spectrum_work(monkeypatch) -> dict:
    """Count the decompositions of nonzero_spectrum."""
    counts = {"decompose": 0}
    spectrum = gaussian._spectrum

    def decompose(*args):
        counts["decompose"] += 1
        return spectrum(*args)

    monkeypatch.setattr(gaussian, "_spectrum", decompose)
    return counts


def test_repeated_system_is_decomposed_once(monkeypatch):
    counts = _count_spectrum_work(monkeypatch)
    h = np.random.default_rng(46).standard_normal((6, 4))
    sxx = toeplitz_covariance(4, 0.3)
    results = [
        ergodic_upper_bound(h, sxx, 0.5, k, formula)
        for k in range(5, 30)
        for formula in FORMULAS
    ]
    assert len(results) == 50
    assert counts == {"decompose": 1}
    assert all(r.spectrum is results[0].spectrum for r in results)


@pytest.mark.parametrize("where", ["H", "S_xx", "StateCovariance"])
def test_entry_changed_in_place_between_consecutive_calls_is_decomposed_afresh(where):
    h = np.random.default_rng(47).standard_normal((6, 4))
    cov = toeplitz_covariance(4, 0.6)
    sxx = cov if where == "StateCovariance" else cov.sigma_xx.copy()
    first = nonzero_spectrum(h, sxx)
    assert nonzero_spectrum(h, sxx) is first
    if where == "H":
        h[2, 1] += 0.5
    else:
        gaussian._as_matrix(sxx)[1, 1] *= 1.5  # a larger diagonal keeps S_xx definite
    second = nonzero_spectrum(h, sxx)
    fresh = gaussian._spectrum(h, gaussian._as_matrix(sxx))
    np.testing.assert_array_equal(second.eigenvalues, fresh.eigenvalues)
    assert not np.array_equal(second.eigenvalues, first.eigenvalues)


@pytest.mark.parametrize("where", ["H", "StateCovariance"])
def test_nan_written_between_consecutive_calls_raises(monkeypatch, where):
    counts = _count_spectrum_work(monkeypatch)
    h = np.random.default_rng([48, where == "H"]).standard_normal((5, 3))
    cov = toeplitz_covariance(3, 0.7)
    nonzero_spectrum(h, cov)
    nonzero_spectrum(h, cov)
    assert counts == {"decompose": 1}
    (h if where == "H" else cov.sigma_xx)[0, 0] = math.nan
    name = "H" if where == "H" else "S_xx"
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        nonzero_spectrum(h, cov)
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        ergodic_upper_bound(h, cov, 0.5, 10)


def test_alternating_systems_return_their_own_spectra():
    rng = np.random.default_rng(49)
    systems = [(rng.standard_normal((5, 3)), toeplitz_covariance(3, rho)) for rho in (0.1, 0.9)]
    for _ in range(10):
        for h, sxx in systems:
            spectrum, fresh = nonzero_spectrum(h, sxx), gaussian._spectrum(h, sxx.sigma_xx)
            assert spectrum.p == fresh.p
            np.testing.assert_array_equal(spectrum.eigenvalues, fresh.eigenvalues)


def test_a_sweep_decomposes_each_system_once_and_solves_each_setting_and_k_once(monkeypatch):
    # the traffic of a bound sweep: H, rho and SNR outermost, a new state
    # covariance object per setting, K and the formula innermost
    _fresh_slots(monkeypatch)
    decomposed = _count_spectrum_work(monkeypatch)
    built, solved = [], []
    context = bounds._BoundContext

    class CountedContext(context):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(bounds, "_BoundContext", CountedContext)
    monkeypatch.setattr(
        bounds, "solve_bound_program", lambda b, k: solved.append(k) or solve_bound_program(b, k)
    )
    rng = np.random.default_rng(51)
    hs = [rng.standard_normal((7, 4)), rng.standard_normal((9, 5))]
    ks = [12, 20, 50]
    results, sigmas = [], []
    for h in hs:
        for rho in (0.2, 0.7):
            for snr_db in (10.0, 30.0):
                cov = toeplitz_covariance(h.shape[1], rho)
                sigma = sigma_from_snr(h, cov, snr_db)
                sigmas.append(sigma)
                results += [ergodic_upper_bound(h, cov, sigma, k, f) for k in ks for f in FORMULAS]
    assert decomposed == {"decompose": 4}
    assert built == sigmas
    assert solved == ks * 8
    assert all(r.program is s.program for r, s in zip(results[::2], results[1::2]))


def test_a_monte_carlo_sweep_decomposes_each_system_once(monkeypatch):
    # the traffic of mc_small: every K and sampler of one system in a row
    _fresh_slots(monkeypatch)
    decomposed = _count_spectrum_work(monkeypatch)
    rng = np.random.default_rng(52)
    for m, n in ((1, 1), (8, 4), (20, 10)):
        h, cov = rng.standard_normal((m, n)), toeplitz_covariance(n, 0.5)
        for k in (n + 2, n + 5, n + 20):
            for sampler in ("bartlett", "empirical"):
                cfg = TrainingConfig(k=k, seed=3, trials=4, sampler=sampler)
                estimate_ergodic_cost(h, cov, 0.5, cfg)
    assert decomposed == {"decompose": 3}


def test_systems_of_equal_bytes_and_other_shapes_get_their_own_spectra():
    entries = np.arange(1.0, 7.0)
    wide, tall = entries.reshape(2, 3), entries.reshape(3, 2)
    first = nonzero_spectrum(wide, np.eye(3))
    second = nonzero_spectrum(tall, np.eye(2))
    np.testing.assert_array_equal(first.eigenvalues, gaussian._spectrum(wide, np.eye(3)).eigenvalues)
    np.testing.assert_array_equal(second.eigenvalues, gaussian._spectrum(tall, np.eye(2)).eigenvalues)
    assert not np.array_equal(first.eigenvalues, second.eigenvalues)
