"""Likelihood-ratio detection of stealth attacks and its error exponent.

The operator decides between the nominal and attacked measurement laws
with a log likelihood-ratio test aggregated over n independent
measurement vectors.  The best achievable error exponent of that test
equals the KL divergence between the attacked and nominal laws, which is
exactly the detectability term of the stealth cost; the experiment here
measures the empirical exponent and reports that KL alongside for
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    PSD_TOL,
    RANK_TOL,
    DerivedCovariances,
    _check_count,
    _check_finite,
    _logdet_of_factor,
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
    """Empirical error exponent at one block length n."""

    n: int
    tau: float
    beta_hat: float
    exponent: float
    radius: float  # one-standard-error radius on the exponent
    exceed_count: int  # raw count of clean aggregates beyond the threshold


@dataclass(frozen=True)
class ExponentEstimate:
    """Exponent sequence plus the KL divergence it converges to."""

    points: tuple[ExponentPoint, ...]
    kl_marginals: float


class _LrtModel:
    """Log likelihood ratio const + y^T delta y / 2 and the law of its block sums."""

    def __init__(self, derived: DerivedCovariances):
        chol = {}
        for attacked, name in ((False, "sigma_yy"), (True, "sigma_yaya")):
            cov = getattr(derived, name)
            if not np.all(np.isfinite(cov)):
                raise ValueError(f"{name} has non-finite entries")
            try:
                chol[attacked] = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} is not positive definite") from None
        self.const = 0.5 * (_logdet_of_factor(chol[False]) - _logdet_of_factor(chol[True]))
        # y = L z under a hypothesis of covariance L L^T, so y^T delta y = sum_j d_j z_j^2
        # with d = eig(L^T delta L) (Imhof 1961); keyed by ``attacked``.  Covariances
        # too small or too far apart overflow these, and are rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            self.delta = np.linalg.inv(derived.sigma_yy) - np.linalg.inv(derived.sigma_yaya)
            weights = {
                attacked: np.linalg.eigvalsh(symmetrize(l.T @ self.delta @ l))
                for attacked, l in chol.items()
            }
        if not all(np.isfinite(a).all() for a in (self.delta, *weights.values())):
            raise ValueError("the log likelihood ratio of these covariances overflows float64")
        # nominal side: d = 1 - 1/eig(I + L^-1 S_aa L^-T), negative iff S_aa is not PSD
        if weights[False][0] < -PSD_TOL:
            raise ValueError(
                "attack covariance sigma_yaya - sigma_yy is not positive semidefinite"
            )
        # delta has rank at most rank(S_aa): the other weights are roundoff of exact
        # zeros, and a zero weight leaves the aggregate's law unchanged.
        self.weights = {
            attacked: d[np.abs(d) > RANK_TOL * np.abs(d).max()] for attacked, d in weights.items()
        }

    def log_lrt(self, y: np.ndarray) -> np.ndarray:
        """Log likelihood ratio of each observation (rows of y)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        quad = np.einsum("im,mk,ik->i", y, self.delta, y)
        return self.const + 0.5 * quad

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
    model, so a stream pays for the factorizations once.  Raises
    ``ValueError`` if y has another shape or holds a nan or inf, and as
    :class:`_LrtModel` does if a covariance is not positive definite or the
    attack covariance is not positive semidefinite.
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


def _check_design(block_lengths, epsilon: float, trials: int) -> None:
    """Reject a false-alarm budget, trial count or block length no estimate can use.

    An epsilon tail quantile of ``trials`` samples rests on about
    ``trials * epsilon`` of them; below 50 it is noise.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
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


def _calibrate(model: _LrtModel, n: int, epsilon: float, trials: int, seed: int) -> float:
    """:func:`calibrate_threshold` on a built model, its arguments already checked."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    samples = model.aggregate_samples(attacked=False, n=n, trials=trials, rng=rng)
    return _linear_quantile(samples, 1.0 - epsilon)


def calibrate_threshold(
    derived: DerivedCovariances, n: int, epsilon: float, trials: int, seed: int
) -> float:
    """Decision threshold meeting a false-alarm budget on clean data.

    Returns the empirical (1 - epsilon)-quantile of the n-observation
    aggregated log-LRT under the nominal law, so deciding "attack" above
    the threshold has Type I rate about epsilon.
    """
    _check_design((n,), epsilon, trials)
    return _calibrate(_LrtModel(derived), n, epsilon, trials, seed)


def run_detection_experiment(
    derived: DerivedCovariances, n: int, epsilon: float, trials: int, seed: int
) -> DetectionExperiment:
    """Calibrate a threshold, then measure both error rates on fresh data.

    Each sample array is reduced to its rate and freed before the next is
    drawn; each hypothesis has its own seed, so the order changes no value.
    """
    _check_design((n,), epsilon, trials)
    model = _LrtModel(derived)
    tau = _calibrate(model, n, epsilon, trials, seed)

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


def _log_normal_sf(z: float) -> float:
    """log of the standard normal upper tail, stable far into the tail."""
    if z < 30.0:
        return math.log(0.5 * math.erfc(z / math.sqrt(2.0)))
    # asymptotic: Q(z) ~ phi(z)/z * (1 - 1/z^2 + 3/z^4); z**4 overflows past
    # about 1e77, where the correction is far below an ulp of z^2/2
    correction = -1.0 / z**2 + 3.0 / z**4 if z < 1e70 else 0.0
    return (
        -0.5 * z * z
        - math.log(z)
        - 0.5 * math.log(2.0 * math.pi)
        + math.log1p(correction)
    )


def error_exponent_estimate(
    derived: DerivedCovariances,
    n_grid,
    epsilon: float = 0.05,
    trials: int = 100_000,
    seed: int = 0,
    tail: str = "normal",
) -> ExponentEstimate:
    """Empirical error exponent -(1/n) log beta_n over a grid of block lengths.

    For each n the threshold is placed at the empirical epsilon-quantile of
    the aggregated log-LRT under the attacked law, which caps the
    attack-side error at epsilon; beta_n is then the probability that a
    clean block still lands beyond the threshold.  Held to that constraint,
    the exponent converges (from below) to the KL divergence between the
    attacked and nominal laws, returned as ``kl_marginals``.

    beta_n decays exponentially, so raw frequencies die out once
    n * KL exceeds about log(trials).  The default ``tail="normal"``
    evaluates the tail of the aggregate statistic from its fitted Gaussian
    (the aggregate is a sum of n i.i.d. terms), which stays usable at
    block lengths where counting fails; ``tail="empirical"`` reports the
    raw frequency and gives a zero-count point ``exponent = inf``.

    At each n the attacked samples are drawn and reduced to their moments
    (normal tail) and their quantile, and freed, before the clean samples
    are drawn; each hypothesis has its own seed, so the order changes no
    value.  Memory is one array of ``trials`` floats and its reductions'
    temporaries, plus the 128 KB chunk of :meth:`_LrtModel.aggregate_samples`.

    Raises ``ValueError`` when a statistic overflows float64, as it does for
    covariances too small or too far apart: then the KL, a threshold or a
    printed exponent or radius is not finite (the empirical tail's zero-count
    points excepted), or a step on the way overflows.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            estimate = _exponent_estimate(derived, n_grid, epsilon, trials, seed, tail)
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"the detection statistics overflow float64 ({exc})") from None
    values = [estimate.kl_marginals]
    for point in estimate.points:
        values.append(point.tau)
        if tail == "normal" or point.exceed_count:
            values += [point.exponent, point.radius]
    if not all(map(math.isfinite, values)):
        raise ValueError("the detection statistics overflow float64 (a result is not finite)")
    return estimate


def _exponent_estimate(
    derived: DerivedCovariances, n_grid, epsilon: float, trials: int, seed: int, tail: str
) -> ExponentEstimate:
    """:func:`error_exponent_estimate` before its overflow checks."""
    if tail not in ("normal", "empirical"):
        raise ValueError(f"tail must be 'normal' or 'empirical', got {tail!r}")
    n_grid = tuple(n_grid)
    _check_design(n_grid, epsilon, trials)
    model = _LrtModel(derived)
    points = []
    for grid_index, n in enumerate(n_grid):
        rng_h1 = np.random.default_rng(np.random.SeedSequence((seed, grid_index, 1)))
        attacked = model.aggregate_samples(attacked=True, n=n, trials=trials, rng=rng_h1)
        if tail == "normal":
            m1 = float(np.mean(attacked))
            s1 = float(np.std(attacked, ddof=1))
        tau = _linear_quantile(attacked, epsilon)  # reorders attacked: moments first
        del attacked
        rng_h0 = np.random.default_rng(np.random.SeedSequence((seed, grid_index, 0)))
        clean = model.aggregate_samples(attacked=False, n=n, trials=trials, rng=rng_h0)
        exceed = int(np.count_nonzero(clean >= tau))
        if tail == "normal":
            m0 = float(np.mean(clean))
            s0 = float(np.std(clean, ddof=1))
        del clean

        if tail == "empirical":
            beta = exceed / trials
            log_beta = math.log(beta) if exceed else -math.inf
            radius = (
                math.sqrt(beta * (1.0 - beta) / trials) / (beta * n) if exceed else math.inf
            )
        else:
            if s0 == 0.0:
                beta = 1.0 if tau <= m0 else 0.0
                log_beta = 0.0 if tau <= m0 else -math.inf
                radius = 0.0
            else:
                z = (tau - m0) / s0
                log_beta = _log_normal_sf(z)
                beta = math.exp(log_beta)
                # delta method through the quantile and the fitted moments
                density = math.exp(-0.5 * ((tau - m1) / s1) ** 2) / (
                    s1 * math.sqrt(2.0 * math.pi)
                )
                var_tau = epsilon * (1.0 - epsilon) / (trials * density**2)
                dz = math.sqrt(var_tau + s0**2 / trials) / s0
                hazard = math.exp(-0.5 * z * z - log_beta) / math.sqrt(2.0 * math.pi)
                radius = hazard * dz / n
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
