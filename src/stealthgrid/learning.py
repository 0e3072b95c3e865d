"""Learned attacks from training data and the ergodic cost Monte Carlo.

The attacker estimates the state covariance from K training realizations;
the mean-subtracted sample covariance of K Gaussian vectors is a scaled
Wishart matrix with K-1 degrees of freedom, which is what every downstream
bound consumes.  The ergodic cost averages the stealth cost of the
resulting learned attack over independent training-set draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import AttackModel, StateCovariance, logdet_psd, symmetrize, _as_matrix

__all__ = [
    "TrainingConfig",
    "SampleCovariance",
    "ErgodicEstimate",
    "sample_covariance",
    "draw_sample_covariance",
    "learned_attack_covariance",
    "estimate_ergodic_cost",
]

SAMPLERS = ("bartlett", "empirical")

_MAX_SEED = 2**64

#: float64 entries drawn per chunk of Monte Carlo trials (N*N per Bartlett
#: trial, K*N per empirical one): large enough to amortize numpy's per-call
#: overhead, small enough to keep the working set a few hundred kB.
_CHUNK_ENTRIES = 2**14


@dataclass(frozen=True)
class TrainingConfig:
    """Size and reproducibility knobs of the training-data experiment."""

    k: int
    seed: int
    trials: int = 1000
    sampler: str = "bartlett"

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"need at least 2 training samples, got k={self.k}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be a 64-bit non-negative integer")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}, got {self.sampler!r}")


@dataclass(frozen=True)
class SampleCovariance:
    """Sample covariance of the training data with its degrees of freedom."""

    s_xx: np.ndarray
    dof: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_xx", symmetrize(self.s_xx))
        if self.dof < 1:
            raise ValueError(f"degrees of freedom must be >= 1, got {self.dof}")

    @property
    def n(self) -> int:
        return int(self.s_xx.shape[0])


@dataclass(frozen=True)
class ErgodicEstimate:
    """Monte Carlo mean/stderr of the learned-attack cost at one K."""

    mean: float
    stderr: float
    trials: int
    k: int


def sample_covariance(samples: np.ndarray, subtract_mean: bool = True) -> SampleCovariance:
    """Sample covariance of row-wise observations with divisor K-1.

    ``subtract_mean=True`` (default) centers the data, matching a scaled
    Wishart law with K-1 degrees of freedom.  ``subtract_mean=False``
    evaluates the uncentered variant (sum of raw outer products over K-1).

    Parameters
    ----------
    samples:
        Array of shape (K, N), one observation per row.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    k = x.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 samples, got {k}")
    centered = x - x.mean(axis=0) if subtract_mean else x
    s = centered.T @ centered / (k - 1)
    return SampleCovariance(s_xx=s, dof=k - 1)


def _check_bartlett_dof(sampler: str, k: int, n: int) -> None:
    if sampler == "bartlett" and k - 1 < n:
        raise ValueError(
            f"bartlett sampler needs k-1 >= N (got k-1={k - 1}, N={n}); "
            "use the empirical sampler for singular sample covariances"
        )


@lru_cache(maxsize=8)
def _bartlett_layout(n: int, dof: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Chi-square degrees of freedom of the Bartlett diagonal and its strictly lower indices.

    Cached because every chunk of a Monte Carlo needs the same pair; callers only read it.
    """
    return dof - np.arange(n), np.tril_indices(n, -1)


def _trials_per_chunk(sampler: str, k: int, n: int) -> int:
    """Trials drawn together by the Monte Carlo: about ``_CHUNK_ENTRIES`` random entries."""
    return max(1, _CHUNK_ENTRIES // (n * n if sampler == "bartlett" else k * n))


def _draw_factor(
    left: np.ndarray, k: int, sampler: str, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` factors B, shape (count, r, ·), each with B B^T / (k-1) ~ left W left^T / (k-1).

    W ~ Wishart(k-1, I_N), N = left's columns.  ``bartlett`` multiplies
    ``left`` by triangular Bartlett factors (chi distributions on the
    diagonal, standard normals below; needs k-1 >= N), drawing all diagonals
    and then all lower triangles; ``empirical`` draws k Gaussian vectors
    N(0, left left^T) per factor and centers them (for k*N above
    ``_CHUNK_ENTRIES``, one factor at a time through its streamed scatter).
    """
    n = left.shape[1]
    if sampler == "bartlett":
        df, below = _bartlett_layout(n, k - 1)
        diag = np.arange(n)
        t = np.zeros((count, n, n))
        t[:, diag, diag] = np.sqrt(rng.chisquare(df, size=(count, n)))
        t[:, below[0], below[1]] = rng.standard_normal((count, below[0].size))
        return left @ t
    if k * n > _CHUNK_ENTRIES:
        return np.stack([_streamed_scatter_factor(left, k, rng) for _ in range(count)])
    x = rng.standard_normal((count, k, n)) @ left.T
    return np.swapaxes(x - x.mean(axis=1, keepdims=True), 1, 2)


def _streamed_scatter_factor(left: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical factor for large k: B (r x r) with B B^T the centred scatter of k draws.

    Draws the same normal stream as one (k, N) array, in row blocks of about
    ``_CHUNK_ENTRIES`` entries, so the working set does not grow with k.
    """
    r, n = left.shape
    rows = max(1, _CHUNK_ENTRIES // n)
    total = np.zeros(r)
    scatter = np.zeros((r, r))
    for start in range(0, k, rows):
        x = rng.standard_normal((min(rows, k - start), n)) @ left.T
        total += x.sum(axis=0)
        scatter += x.T @ x
    mean = total / k
    # zero-mean draws: the raw scatter is about k times the subtracted term, so
    # the subtraction loses almost no precision; eigenvalues below zero are round-off
    w, v = np.linalg.eigh(scatter - k * np.outer(mean, mean))
    return v * np.sqrt(np.clip(w, 0.0, None))


def draw_sample_covariance(
    sigma_xx,
    k: int,
    seed: int | np.random.SeedSequence,
    sampler: str = "bartlett",
) -> SampleCovariance:
    """Draw one sample covariance of K Gaussian state realizations.

    Both samplers realize the same law, (1/(K-1)) Wishart(K-1, S_xx): the
    ``empirical`` path draws K state vectors and centers them, the
    ``bartlett`` path draws the Wishart factor directly (cost independent
    of K, but it needs K-1 >= N).  Deterministic given (seed, sampler).
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if k < 2:
        raise ValueError(f"need at least 2 training samples, got k={k}")
    sxx = _as_matrix(sigma_xx)
    _check_bartlett_dof(sampler, k, sxx.shape[0])
    b = _draw_factor(np.linalg.cholesky(sxx), k, sampler, np.random.default_rng(seed), 1)[0]
    return SampleCovariance(s_xx=b @ b.T / (k - 1), dof=k - 1)


def learned_attack_covariance(h: np.ndarray, s: SampleCovariance) -> AttackModel:
    """Attack covariance built from a sample covariance: H S_xx H^T."""
    h = np.asarray(h, dtype=float)
    if h.shape[1] != s.n:
        raise ValueError(f"H has {h.shape[1]} columns but S_xx is {s.n}-dimensional")
    return AttackModel(sigma_aa=symmetrize(h @ s.s_xx @ h.T), kind="learned")


def estimate_ergodic_cost(
    h: np.ndarray,
    sigma_xx: StateCovariance,
    sigma: float,
    cfg: TrainingConfig,
) -> ErgodicEstimate:
    """Monte Carlo estimate of the expected learned-attack cost at one K.

    Each trial draws an independent sample covariance with the draws of
    :func:`draw_sample_covariance` and evaluates the stealth cost of the
    learned attack in the min(M, N) coordinates of H chol(S_xx); the
    reported mean/stderr are taken over ``cfg.trials`` trials.  One generator
    seeded with ``cfg.seed`` draws the trials in consecutive chunks, stacked
    and scored together, so the estimate is reproducible bit-for-bit.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    h = np.asarray(h, dtype=float)
    sxx = _as_matrix(sigma_xx)
    _check_bartlett_dof(cfg.sampler, cfg.k, sxx.shape[0])
    # H chol(S_xx) = U diag(s) V^T, so the learned attack is U A U^T with
    # A = F W F^T, F = diag(s) V^T and W the Wishart draw: the cost needs only
    # the r x r matrix A, r = min(M, N).  The M - r noise directions outside U
    # add log sigma^2 to both log-determinants and cancel; so do the terms of
    # a zero s_i, whose row of A is zero.
    _, s, vt = np.linalg.svd(h @ np.linalg.cholesky(sxx), full_matrices=False)
    left = s[:, None] * vt
    shifted = s**2 + sigma**2
    weights = 1.0 / shifted
    logdet_syy = float(np.sum(np.log(shifted)))
    noise = sigma**2 * np.eye(s.size)

    rng = np.random.default_rng(cfg.seed)
    chunk = _trials_per_chunk(cfg.sampler, cfg.k, sxx.shape[0])
    costs = np.empty(cfg.trials)
    for start in range(0, cfg.trials, chunk):
        count = min(chunk, cfg.trials - start)
        b = _draw_factor(left, cfg.k, cfg.sampler, rng, count)
        a = b @ np.swapaxes(b, 1, 2) / (cfg.k - 1)
        trace = np.diagonal(a, axis1=1, axis2=2) @ weights
        costs[start:start + count] = 0.5 * (trace - logdet_psd(a + noise) + logdet_syy)

    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    return ErgodicEstimate(mean=mean, stderr=stderr, trials=cfg.trials, k=cfg.k)
