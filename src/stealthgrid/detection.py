"""Likelihood-ratio detection of stealth attacks and its error exponent.

The operator decides between the nominal and attacked measurement laws
with a log likelihood-ratio test aggregated over n independent
measurement vectors.  The best achievable error exponent of that test
equals the KL divergence between the attacked and nominal laws, which is
exactly the detectability term of the stealth cost; the experiment here
takes the exponent from the saddlepoint tails of the test's law (or counts
it) and reports that KL alongside for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    PSD_TOL,
    DerivedCovariances,
    _check_count,
    _check_finite,
    gaussian_kl_marginals,
    symmetrize,
)

__all__ = [
    "DetectionExperiment",
    "ExponentPoint",
    "ExponentEstimate",
    "lrt_statistic",
    "calibrate_threshold",
    "run_detection_experiment",
    "error_exponent_estimate",
]

#: Chi-square entries drawn at a time: 128 KB of float64, whatever trials and rank.
_CHUNK_BUDGET = 2**14


@dataclass(frozen=True)
class DetectionExperiment:
    """One calibrated detection run with measured error rates."""

    n: int
    epsilon: float
    tau: float
    trials: int
    seed: int
    alpha_hat: float
    beta_hat: float


@dataclass(frozen=True)
class ExponentPoint:
    """Error exponent at one block length n."""

    n: int
    tau: float
    beta_hat: float
    exponent: float
    radius: float  # one-standard-error radius on the exponent; 0.0 on the saddlepoint tail
    exceed_count: int  # clean aggregates drawn at or beyond tau; 0 on the saddlepoint tail


@dataclass(frozen=True)
class ExponentEstimate:
    """Exponent sequence plus the KL divergence it converges to."""

    points: tuple[ExponentPoint, ...]
    kl_marginals: float


class _LrtModel:
    """Log-LRT c + 1/2 sum_j d_j (Q^T L_0^-1 y)_j^2 and its block law, from one spectrum.

    S_aa = S_yaya - S_yy keeps its eigenvalues above its round-off, m eps max S_yaya;
    with L_0 L_0^T = S_yy, L_0^-1 U_p Lambda_p^1/2 = Q diag(s) V^T gives the whitened
    attack spectrum nu = s^2, d = nu / (1 + nu) and c = -1/2 sum log1p(nu) (Woodbury,
    determinant lemma).  A block of n sums to n c + 1/2 sum_j w_j chi2_{n,j} with
    w = d, or nu if attacked, as Q^T L_0^-1 y has covariance I or diag(1 + nu).
    """

    @np.errstate(over="ignore", invalid="ignore")  # covariances too far apart: caught below
    def __init__(self, derived: DerivedCovariances):
        factors = []
        for name in ("sigma_yy", "sigma_yaya"):  # S_yaya's factor only shows it is PD
            cov = getattr(derived, name)
            if not np.all(np.isfinite(cov)):
                raise ValueError(f"{name} has non-finite entries")
            try:
                factors.append(np.linalg.cholesky(cov))
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} is not positive definite") from None
        lam, u = np.linalg.eigh(symmetrize(derived.sigma_yaya - derived.sigma_yy))
        if lam[0] < -PSD_TOL * max(float(lam[-1]), 0.0):
            raise ValueError("attack covariance sigma_yaya - sigma_yy is not positive semidefinite")
        keep = lam > derived.m * np.finfo(float).eps * derived.sigma_yaya.diagonal().max()
        # scaled after the solve, which then meets no inf: svd takes inf, not nan
        x = np.linalg.solve(factors[0], u[:, keep]) * np.sqrt(lam[keep])
        q, s, _ = np.linalg.svd(x, full_matrices=False)
        s, q = s[::-1], q[:, ::-1]  # ascending, the order of the draws' columns
        nu = s * s
        self._proj = np.linalg.solve(factors[0].T, q * (s / np.sqrt(1.0 + nu)))
        if not all(np.isfinite(a).all() for a in (lam, nu, self._proj)):
            raise ValueError("the log likelihood ratio of these covariances overflows float64")
        self.const = 0.0 - 0.5 * float(np.log1p(nu).sum())  # +0.0 with no weight
        self.weights = {False: nu / (1.0 + nu), True: nu}

    def log_lrt(self, y: np.ndarray) -> np.ndarray:
        """Log likelihood ratio of each observation (rows of y)."""
        w = np.atleast_2d(np.asarray(y, dtype=float)) @ self._proj
        return self.const + 0.5 * np.einsum("ij,ij->i", w, w)

    def aggregate_samples(
        self, attacked: bool, n: int, trials: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sum of n per-observation log-LRTs for each of `trials` blocks, exact in law.

        Each block costs one chi-square draw per kept weight; with none kept
        (identical hypotheses) nothing is drawn and every block is n * const.
        The draws come in row chunks of at most ``_CHUNK_BUDGET`` entries,
        one stream of the generator whatever the chunk size, and each chunk's
        weighted sums are written straight into the result, which is then
        scaled and shifted in place: the memory is the result plus one
        128 KB chunk, not trials x rank.
        """
        d = self.weights[attacked]
        out = np.empty(trials)
        step = max(1, _CHUNK_BUDGET // max(d.size, 1))
        for start in range(0, trials, step):
            stop = min(trials, start + step)
            chi2 = rng.chisquare(n, size=(stop - start, d.size))
            # einsum sums each row alike in every chunk; BLAS gemv would not
            np.einsum("tm,m->t", chi2, d, out=out[start:stop])
        # the bits of n * const + 0.5 * sums: the same two roundings per entry
        out *= 0.5
        out += n * self.const
        return out


def lrt_statistic(y: np.ndarray, derived: DerivedCovariances) -> float | np.ndarray:
    """Log likelihood ratio of one measurement vector, or of each row of a stream.

    log L(y) = 1/2 [ log(|S_yy| / |S_yaya|) + y^T (S_yy^-1 - S_yaya^-1) y ],
    positive values favor the attacked hypothesis.  A vector of length m
    gives a float; a (T, m) array gives the T values, all scored on one
    model, so a stream pays for its spectrum once.  Raises ``ValueError`` if
    y has another shape or holds a nan or inf, and as :class:`_LrtModel`
    does if a covariance is not positive definite, the attack covariance is
    not positive semidefinite or its whitened spectrum overflows float64.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != derived.m:
        raise ValueError(
            f"y must be a vector of length m = {derived.m}, got shape {y.shape} "
            "(a stream of T vectors is a (T, m) array)"
        )
    _check_finite(y=y)
    values = _LrtModel(derived).log_lrt(y)
    return float(values[0]) if y.ndim == 1 else values


def _check_design(block_lengths, epsilon: float, trials: int | None = None) -> None:
    """Reject a false-alarm budget, block length or, if given, trial count no estimate can use.

    An epsilon tail of ``trials`` samples, a quantile or a rate, rests on
    about ``trials * epsilon`` of them; below 50 it is noise.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if trials is not None:
        _check_count("trials", trials)
        if trials < 50 / epsilon:
            raise ValueError(
                f"need at least {math.ceil(50 / epsilon)} trials to place the "
                f"{epsilon} tail quantile, got {trials}"
            )
    if not block_lengths:
        raise ValueError("need at least one block length n")
    for n in block_lengths:
        _check_count("block length n", n)
        if n < 1:
            raise ValueError(f"block length n must be >= 1, got {n}")


def _linear_quantile(samples: np.ndarray, q: float) -> float:
    """``np.quantile(samples, q)`` bit for bit, for finite samples; partitions them in place.

    numpy's default ("linear") method: the virtual index v = (n - 1) q falls
    between the order statistics a at i = floor(v) and b at i + 1, and the
    quantile is numpy's lerp with g = v - i, a + (b - a) g, or
    b - (b - a)(1 - g) once g >= 1/2.  At v = n - 1 numpy takes the maximum
    as both a and b, from index -1, so its g is v + 1.  The samples here
    are always finite, so numpy's handling of nan is not needed, and
    skipping it skips the ``np.unique`` call whose first use imports
    ``numpy.ma``.
    """
    n = samples.size
    virtual = (n - 1) * q
    if virtual < n - 1:
        i = math.floor(virtual)
        j, gamma = i + 1, virtual - i
    else:
        i = j = n - 1
        gamma = virtual + 1.0
    samples.partition((i, j))
    a, b = float(samples[i]), float(samples[j])
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def calibrate_threshold(derived: DerivedCovariances, n: int, epsilon: float) -> float:
    """Decision threshold meeting a false-alarm budget on clean data, with no draws.

    The (1 - epsilon)-quantile of the n-observation aggregated log-LRT under
    the nominal law, from its Lugannani-Rice tail: deciding "attack" above it
    has Type I rate epsilon to 2.1% relative on a 1x1 system at n = 1, and
    to 0.3% from n = 5.
    """
    _check_design((n,), epsilon)
    return _threshold(_LrtModel(derived), n, epsilon)


def run_detection_experiment(
    derived: DerivedCovariances, n: int, epsilon: float, trials: int, seed: int
) -> DetectionExperiment:
    """The threshold of :func:`calibrate_threshold`, then both error rates measured.

    Only the rates are drawn, ``trials`` blocks per hypothesis: clean from
    ``SeedSequence((seed, 1))``, attacked from ``(seed, 2)``.  Each array is
    reduced to its rate and freed before the next is drawn.
    """
    _check_design((n,), epsilon, trials)
    model = _LrtModel(derived)
    tau = _threshold(model, n, epsilon)

    def draw(attacked: bool, stream: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
        return model.aggregate_samples(attacked=attacked, n=n, trials=trials, rng=rng)

    return DetectionExperiment(
        n=n,
        epsilon=epsilon,
        tau=tau,
        trials=trials,
        seed=seed,
        alpha_hat=float(np.mean(draw(False, 1) > tau)),
        beta_hat=float(np.mean(draw(True, 2) <= tau)),
    )


def _lugannani_rice(e: np.ndarray, n: int, y: float, t=None, lower=False) -> tuple[float, float]:
    """(t, log P(W >= t)), or log P(W <= t) if ``lower``: the Lugannani-Rice tail.

    W = 1/2 sum_j e_j chi2_{n,j} (0 < e <= 1 = max e) has the cumulant generating
    function K(r) = -(n/2) sum_j log(1 - r e_j), r < 1.  The saddlepoint r of t,
    K'(r) = t (t's default), comes as y = log(1 - r), so a = 1 - r e = (1 - e) + q e,
    q = e^y, keeps its digits next to the pole r = 1 and K' = (n/2) sum b / q and
    K'' = (n/2) sum b^2 / q^2, b = q e / a <= 1, do not overflow.  The tail is
    Q(w) + phi(w) (1/u - 1/w), w = sign(r) sqrt(2 (r t - K)), u = r sqrt(K'')
    (Lugannani & Rice 1980; Butler 2007, sec. 1.2); W's lower tail is -W's upper.
    Near y = 0, r t - K cancels to second order: there (a >= 1/2) log a is log1p(-r e).
    """
    q = math.exp(y)
    a = (1.0 - e) + q * e
    b = q * e / a
    if t is None:
        t = 0.5 * n * float(b.sum()) / q
    r = -math.expm1(y)
    k2 = 0.5 * n * float(b @ b)  # q^2 K''
    log_a = np.log1p(-r * e) if q >= 0.5 else np.log(a)
    w2 = max(2.0 * (r * t + 0.5 * n * float(log_a.sum())), 0.0)
    sign = -1.0 if lower else 1.0
    w = sign * math.copysign(math.sqrt(w2), r)
    if abs(w) < 1e-4:  # 1/u - 1/w cancels: take its limit, -skewness/6
        correction = -sign * n * float(b @ (b * b)) / (6.0 * k2**1.5)
    else:
        inv_u = sign * q / (r * math.sqrt(k2))
        correction = inv_u - 1.0 / w
    if w < 30.0:
        phi = math.exp(-0.5 * w2) / math.sqrt(2.0 * math.pi)
        return t, math.log(0.5 * math.erfc(w / math.sqrt(2.0)) + phi * correction)
    # Mills ratio Q/phi = 1/w - 1/w^3 + 3/w^5 - 15/w^7: 1/u kept apart from the 1/w it cancels
    iw2 = 1.0 / w / w
    series = inv_u - iw2 / w * (1.0 - iw2 * (3.0 - 15.0 * iw2))
    return t, -0.5 * w2 - 0.5 * math.log(2.0 * math.pi) + math.log(series)


def _root(g, lo: float, hi: float) -> float:
    """Root of a decreasing g, g(lo) >= 0 >= g(hi), by false position kept in the
    bracket, halving the value at an end left in place twice (Illinois method)."""
    g_lo, g_hi = g(lo), g(hi)
    x, side = lo, 0
    for _ in range(100):  # at most 20 steps over 3000 random systems
        if hi - lo <= 1e-13 * (1.0 + abs(lo)):
            break
        x = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        gx = g(x)
        if gx > 0.0:
            lo, g_lo, g_hi, side = x, gx, g_hi * (0.5 if side > 0 else 1.0), 1
        elif gx < 0.0:
            hi, g_hi, g_lo, side = x, gx, g_lo * (0.5 if side < 0 else 1.0), -1
        else:
            break
    return x


def _tail_root(e: np.ndarray, n: int, log_epsilon: float, lower: bool) -> float:
    """The t at which W's upper tail, or its lower tail if ``lower``, is epsilon.

    W is as in :func:`_lugannani_rice`; y = log(1 - r) is bracketed from 0 by
    doubling on the side the sign at 0 picks: a lower tail's root lies at y >= 0,
    an upper tail's too once epsilon exceeds the tail at the mean (0.317 for chi2_1).
    """

    def excess(y: float) -> float:
        log_tail = _lugannani_rice(e, n, y, lower=lower)[1]
        return log_tail - log_epsilon if lower else log_epsilon - log_tail

    side = 1.0 if excess(0.0) >= 0.0 else -1.0
    y = side
    while side * excess(y) > 0.0:
        y *= 2.0
    return _lugannani_rice(e, n, _root(excess, min(y, 0.0), max(y, 0.0)))[0]


def _threshold(model: _LrtModel, n: int, epsilon: float) -> float:
    """(1 - epsilon)-quantile of the clean aggregate n c + s_0 W_0, s_0 its largest weight."""
    d0 = model.weights[False]
    if not d0.size:  # identical hypotheses: every block is n c
        return n * model.const
    s0 = float(d0.max())
    return n * model.const + s0 * _tail_root(d0 / s0, n, math.log(epsilon), lower=False)


def _saddlepoint(model: _LrtModel, n: int, epsilon: float) -> tuple[float, float]:
    """(tau, log beta) at block length n from the Lugannani-Rice tails, with no draws.

    A hypothesis's aggregate is n c + s W, with s its largest weight and W as in
    :func:`_lugannani_rice` for e = d / s.
    The attacked W's lower tail is epsilon at t_1 (:func:`_tail_root`); beta is the
    clean W's upper tail at s_1 t_1 / s_0, whose saddlepoint lies in
    [log(n / 2 t_0), log(n k / 2 t_0)], as 1 <= sum b <= k for k weights.
    """
    d1, d0 = model.weights[True], model.weights[False]
    if not d1.size:  # identical hypotheses: every block is n c
        return n * model.const, 0.0
    s1, s0 = float(d1.max()), float(d0.max())
    e0 = d0 / s0
    t1 = _tail_root(d1 / s1, n, math.log(epsilon), lower=True)
    t0 = t1 * (s1 / s0)
    if math.isinf(t0):
        raise OverflowError("the threshold in units of the clean weights is not finite")

    def slope_excess(y: float) -> float:  # log K_0' - log t_0
        q = math.exp(y)
        return math.log(0.5 * n * float((q * e0 / ((1.0 - e0) + q * e0)).sum()) / t0) - y

    y0 = _root(slope_excess, math.log(0.5 * n / t0), math.log(0.5 * n * d0.size / t0))
    return n * model.const + s1 * t1, _lugannani_rice(e0, n, y0, t=t0)[1]


def error_exponent_estimate(
    derived: DerivedCovariances,
    n_grid,
    epsilon: float = 0.05,
    trials: int = 100_000,
    seed: int = 0,
    tail: str = "saddlepoint",
) -> ExponentEstimate:
    """Error exponent -(1/n) log beta_n over a grid of block lengths.

    At each n the threshold tau is the epsilon-quantile of the aggregated
    log-LRT under the attacked law, capping the attack-side error at epsilon,
    and beta_n is the chance that a clean block still reaches tau.  The
    exponent converges from below to the KL divergence between the attacked
    and nominal laws (Chernoff-Stein), returned as ``kl_marginals``.

    The default ``tail="saddlepoint"`` draws nothing: tau and beta_n are the
    Lugannani-Rice tails (Lugannani & Rice 1980; Butler, *Saddlepoint
    Approximations with Applications*, 2007) of the aggregate's law,
    n c + 1/2 sum_j d_j chi2_{n,j}, with relative error O(1/n) far into the
    tail.  On a 1x1 system they give the exact exponent to 5e-4, 1.5e-5, 7e-7
    and 1e-13 relative at n = 10, 50, 200 and 1e6 to 2^40, and at a variance
    ratio of 1e100 they stay finite and below the KL.  With no sampling
    error, every ``radius`` is 0.0 and every ``exceed_count`` 0; ``trials``
    must be an integer but is otherwise unused, and so is ``seed``.
    ``tail="empirical"`` needs ``trials >= 50 / epsilon``, draws ``trials``
    blocks per hypothesis and n (attacked first, reduced to its quantile and
    freed, each hypothesis with its own seed), counts the clean ones at or
    beyond tau and reports the radius sqrt(beta (1 - beta) + e^(-2 tau)
    epsilon (1 - epsilon)) / (beta n sqrt(trials)), which adds the empirical
    tau's noise to the count's: f_1(tau) = e^tau f_0(tau) for a log-LRT.  A
    zero count, as once n * KL exceeds about log(trials), gives ``exponent = inf``.

    Raises ``ValueError`` when a statistic overflows float64, as it does for
    covariances too small or too far apart: then the attack spectrum, the KL,
    a threshold or a printed exponent or radius is not finite (the empirical
    tail's zero-count points excepted), or a step on the way overflows.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            estimate = _exponent_estimate(derived, n_grid, epsilon, trials, seed, tail)
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"the detection statistics overflow float64 ({exc})") from None
    values = [estimate.kl_marginals]
    for point in estimate.points:
        values.append(point.tau)
        if tail == "saddlepoint" or point.exceed_count:
            values += [point.exponent, point.radius]
    if not all(map(math.isfinite, values)):
        raise ValueError("the detection statistics overflow float64 (a result is not finite)")
    return estimate


def _exponent_estimate(
    derived: DerivedCovariances, n_grid, epsilon: float, trials: int, seed: int, tail: str
) -> ExponentEstimate:
    """:func:`error_exponent_estimate` before its overflow checks."""
    if tail not in ("saddlepoint", "empirical"):
        raise ValueError(f"tail must be 'saddlepoint' or 'empirical', got {tail!r}")
    n_grid = tuple(n_grid)
    _check_count("trials", trials)  # the saddlepoint tail reads neither trials nor seed
    _check_design(n_grid, epsilon, trials if tail == "empirical" else None)
    model = _LrtModel(derived)
    points = []
    for grid_index, n in enumerate(n_grid):
        if tail == "saddlepoint":
            tau, log_beta = _saddlepoint(model, n, epsilon)
            beta, radius, exceed = math.exp(log_beta), 0.0, 0
        else:  # one hypothesis at a time, each with its own seed, reduced and freed
            rng1, rng0 = (np.random.default_rng((seed, grid_index, h)) for h in (1, 0))
            tau = _linear_quantile(model.aggregate_samples(True, n, trials, rng1), epsilon)
            exceed = int(np.count_nonzero(model.aggregate_samples(False, n, trials, rng0) >= tau))
            beta = exceed / trials
            log_beta = math.log(beta) if exceed else -math.inf
            noise = beta * (1.0 - beta)
            if model.weights[True].size:  # with none, tau is n c whatever the draws
                noise += math.exp(-2.0 * tau) * epsilon * (1.0 - epsilon)
            radius = math.sqrt(noise / trials) / (beta * n) if exceed else math.inf
        points.append(
            ExponentPoint(
                n=int(n),
                tau=tau,
                beta_hat=beta,
                exponent=0.0 - log_beta / n,  # not -log_beta / n: log_beta = 0 gives +0.0
                radius=radius,
                exceed_count=exceed,
            )
        )
    return ExponentEstimate(points=tuple(points), kl_marginals=gaussian_kl_marginals(derived))
