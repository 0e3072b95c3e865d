"""Learned attacks from training data and the ergodic cost Monte Carlo.

The attacker estimates the state covariance from K training realizations;
the mean-subtracted sample covariance of K Gaussian vectors is a scaled
Wishart matrix with K-1 degrees of freedom, which is what every downstream
bound consumes.  The ergodic cost averages the stealth cost of the
resulting learned attack over independent training-set draws.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import (
    SpectralData,
    StateCovariance,
    _as_matrix,
    _check_count,
    _check_finite,
    _check_sigma,
    logdet_psd,
    nonzero_spectrum,
    symmetrize,
)

__all__ = [
    "TrainingConfig",
    "ErgodicEstimate",
    "sample_covariance",
    "draw_sample_covariance",
    "estimate_ergodic_cost",
    "spectral_ergodic_costs",
]

SAMPLERS = ("bartlett", "empirical")

#: float64 entries per Monte Carlo array: a chunk scores about this many in its
#: p x p Gram stack, max(1, _CHUNK_ENTRIES // p^2) trials for both samplers, and
#: the empirical sampler draws at most this many normals at a time (several
#: whole trials, or row blocks of one); large enough to amortize numpy's
#: per-call overhead, small enough to keep each array within 128 kB.
_CHUNK_ENTRIES = 2**14


def _check_draw(k: int, sampler: str) -> None:
    """Reject a training size K or a sampler that no training draw takes."""
    _check_count("k", k)
    if k < 2:
        raise ValueError(f"need at least 2 training samples, got k={k}")
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")


@dataclass(frozen=True)
class TrainingConfig:
    """Size and reproducibility knobs of the training-data experiment.

    ``k``, ``seed`` and ``trials`` must be integers below 2^64 (numpy's
    included, bools not), ``k`` and ``trials`` at least 2 (one draw has no
    standard error) and ``seed`` at least 0; anything else raises
    ``ValueError``, for ``k`` and ``sampler`` in the words of
    :func:`draw_sample_covariance`.
    """

    k: int
    seed: int
    trials: int = 1000
    sampler: str = "bartlett"

    def __post_init__(self) -> None:
        _check_draw(self.k, self.sampler)
        for name in ("trials", "seed"):
            _check_count(name, getattr(self, name))
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2 for a standard error, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class ErgodicEstimate:
    """Monte Carlo mean/stderr of the learned-attack cost at one K."""

    mean: float
    stderr: float
    trials: int
    k: int


def sample_covariance(samples: np.ndarray) -> np.ndarray:
    """Centred sample covariance S_xx of row-wise observations with divisor K-1, symmetrized.

    For K Gaussian observations it follows a scaled Wishart law with K-1
    degrees of freedom.  The learned attack is
    :func:`~stealthgrid.gaussian.optimal_attack_covariance` on it.

    Parameters
    ----------
    samples:
        Array of shape (K, N), one observation per row; a nan or inf raises
        ``ValueError``.
    """
    x = np.asarray(samples, dtype=float)
    _check_finite(samples=x)
    if x.ndim == 1:
        x = x[:, None]
    k = x.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 samples, got {k}")
    centered = x - x.mean(axis=0)
    return symmetrize(centered.T @ centered / (k - 1))


def _check_bartlett_dof(sampler: str, k: int, n: int, dim: str = "N") -> None:
    if sampler == "bartlett" and k - 1 < n:
        raise ValueError(
            f"bartlett sampler needs k-1 >= {dim} (got k-1={k - 1}, {dim}={n}); "
            "use the empirical sampler for singular sample covariances"
        )


@lru_cache(maxsize=8)
def _lower_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Strictly lower indices of an n x n Bartlett factor.

    Cached because every chunk of a Monte Carlo needs them; callers only read them.
    """
    return np.tril_indices(n, -1)


def _trials_per_chunk(n: int) -> int:
    """Trials per Monte Carlo chunk: their n x n Grams hold about ``_CHUNK_ENTRIES`` floats."""
    return max(1, _CHUNK_ENTRIES // (n * n))


def _empirical_grams(k: int, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, shape (count, n, n), with G = X^T X - s s^T / k and return it.

    Each trial's X is k standard normal n-vectors, one per row, and s its
    column sums, so G is their centred scatter, Wishart(k-1, I_n), without
    a centred copy.  The trials are drawn in turn, row-major, in blocks of
    about ``_CHUNK_ENTRIES`` normals: several whole trials per block when
    k*n fits, else row blocks of one trial.
    """
    count, n, _ = out.shape
    per_block = _CHUNK_ENTRIES // max(1, k * n)
    if per_block:
        for start in range(0, count, per_block):
            x = rng.standard_normal((min(per_block, count - start), k, n))
            g = out[start:start + len(x)]
            np.matmul(np.swapaxes(x, 1, 2), x, out=g)
            u = np.ones(k) @ x / np.sqrt(k)
            del x  # freed before the outer products' temporary
            g -= u[:, :, None] @ u[:, None, :]  # "*" would buffer 192 kB to broadcast
        return out
    rows = max(1, _CHUNK_ENTRIES // n)
    block = np.empty((rows, n))
    for g in out:
        g.fill(0.0)
        total = np.zeros(n)
        for start in range(0, k, rows):
            x = rng.standard_normal(out=block[:k - start])
            total += x.sum(axis=0)
            g += x.T @ x
        u = total / np.sqrt(k)
        g -= np.outer(u, u)
    return out


def _white_grams(
    ks: Sequence[int], sampler: str, rng: np.random.Generator, w: np.ndarray
) -> Iterator[np.ndarray]:
    """Per K in ``ks``, write count white Wishart(K-1, I_n) matrices G into ``w``; yield diag(G).

    ``w``, shape (count, n, n), gets G's strict lower triangle; its diagonal
    and upper triangle are scratch.  It is overwritten for the next K, so use
    it first.  ``bartlett`` (needs K-1 >= n) draws the chi diagonals c of
    every K, shape (count, len(ks), n), then the standard normals below the
    diagonal, which all K share, as strictly lower triangular matrices L.
    With the Bartlett factor B = L + diag(c) at each K, B B^T ~
    Wishart(K-1, I_n); L L^T is formed once, and the strict lower triangle
    of G = B B^T is that of L L^T + L diag(c), with diag(G) = diag(L L^T) + c^2.
    ``empirical`` draws each K's centred scatters in turn (:func:`_empirical_grams`).
    """
    count, n, _ = w.shape
    if sampler == "bartlett":
        dof = np.asarray(ks)[:, None] - 1 - np.arange(n)
        chi = np.sqrt(rng.chisquare(dof, size=(count, len(ks), n)))
        below = _lower_indices(n)
        lower = np.zeros((count, n, n))
        lower[:, below[0], below[1]] = rng.standard_normal((count, below[0].size))
        shared = lower @ np.swapaxes(lower, 1, 2)
        shared_diag = np.diagonal(shared, axis1=1, axis2=2)
        for c in np.moveaxis(chi, 1, 0):
            np.einsum("tij,tj->tij", lower, c, out=w)
            w += shared
            yield shared_diag + c * c
        return
    for k in ks:
        _empirical_grams(k, rng, w)
        yield np.diagonal(w, axis1=1, axis2=2).copy()


def draw_sample_covariance(
    sigma_xx,
    k: int,
    seed: int | np.random.SeedSequence,
    sampler: str = "bartlett",
) -> np.ndarray:
    """Draw one sample covariance S_xx of K Gaussian state realizations, symmetrized.

    Both samplers realize the same law, (1/(K-1)) Wishart(K-1, S_xx): the
    white Gram G ~ Wishart(K-1, I_N) is the Monte Carlo's one-trial draw
    (:func:`_white_grams` from ``default_rng(seed)``), a Bartlett factor
    product (cost independent of K, but it needs K-1 >= N) or the centred
    scatter of K white state vectors, and the result is
    L G L^T / (K-1) with L = chol(S_xx).  Deterministic given
    (seed, sampler).  Raises ``ValueError`` if K is not an integer in
    [2, 2^64), the sampler is unknown or S_xx holds a nan or inf.
    """
    _check_draw(k, sampler)
    sxx = _as_matrix(sigma_xx)
    _check_finite(S_xx=sxx)
    n = sxx.shape[0]
    _check_bartlett_dof(sampler, k, n)
    w = np.empty((1, n, n))
    (g_diag,) = _white_grams((k,), sampler, np.random.default_rng(seed), w)
    g, (i, j) = w[0], _lower_indices(n)
    g[j, i] = g[i, j]
    g.flat[:: n + 1] = g_diag[0]
    left = np.linalg.cholesky(sxx)
    return symmetrize(left @ g @ left.T / (k - 1))


def estimate_ergodic_cost(
    h: np.ndarray,
    sigma_xx: StateCovariance,
    sigma: float,
    cfg: TrainingConfig,
) -> ErgodicEstimate:
    """Monte Carlo estimate of the expected learned-attack cost at one K.

    :func:`spectral_ergodic_costs` for the one system (H, S_xx, sigma) and
    the one K of ``cfg``: the trials are drawn in the p dimensions of the
    nonzero spectrum of H S_xx H^T, reproducibly from ``cfg.seed``.
    """
    return spectral_ergodic_costs([(nonzero_spectrum(h, sigma_xx), sigma)], [cfg])[0][0]


def spectral_ergodic_costs(
    systems: list[tuple[SpectralData, float]], cfgs: Sequence[TrainingConfig]
) -> list[list[ErgodicEstimate]]:
    """Monte Carlo estimates of the expected learned-attack cost over a K sweep.

    ``cfgs`` is the sweep: configs of one seed, trial count and sampler with
    strictly increasing K.  The result holds one list per K, in that order,
    with one estimate per system.  Each system is the nonzero spectrum of
    its optimal attack H S_xx H^T and its noise level sigma; all must share
    the rank p.  With H chol(S_xx) = U diag(s) V^T, the learned attack is
    U A U^T with A = diag(s) V_p^T W V_p diag(s) / (K-1) on the p nonzero
    s_i, and V_p^T W V_p is again Wishart(K-1, I_p).  So every trial draws
    one white p x p Wishart matrix G per K (with the samplers of
    :func:`draw_sample_covariance`, in dimension p) and scores each system
    on A = G * s s^T / (K-1):

        1/2 [ sum_i A_ii / (s_i^2 + sigma^2) - log|A + sigma^2 I_p| + sum_i log(s_i^2 + sigma^2) ].

    The M - p noise directions outside U add log sigma^2 to both
    log-determinants and cancel.  With D = diag(s) and the diagonal
    Lambda = (K-1) sigma^2 D^-2, A + sigma^2 I_p = D (G + Lambda) D / (K-1), so

        log|A + sigma^2 I_p| = log|G + Lambda| + sum_i log s_i^2 - p log(K-1).

    Systems differ only in Lambda, and Cholesky reads only the lower
    triangle and the diagonal: each chunk and K holds G's lower triangle in
    one buffer, and each system rewrites its diagonal and factors it.  One
    generator seeded with the sweep's seed draws the trials in consecutive
    chunks of ``max(1, _CHUNK_ENTRIES // p^2)`` trials, whose Gram stack
    then holds about ``_CHUNK_ENTRIES`` entries, in the order of
    :func:`_white_grams`: a Bartlett chunk draws the chi-square diagonals of
    every K, then the strictly lower normals that all K share; an empirical
    chunk draws each K's trials in turn, K x p normals a trial, and sums
    their scatter in draw blocks (:func:`_empirical_grams`).  Every K's
    trials keep their law, so each row's mean and stderr mean what they
    would alone, but Bartlett rows are correlated across K (common random
    numbers).  Each estimate is reproducible bit for bit and equals the one
    from a call with its system alone.  With p = 0 every trial costs 0.
    """
    if not cfgs:
        raise ValueError("a sweep needs at least one TrainingConfig")
    first = cfgs[0]
    for cfg in cfgs[1:]:
        differ = [name for name in ("seed", "trials", "sampler")
                  if getattr(cfg, name) != getattr(first, name)]
        if differ:
            raise ValueError(f"configs of one sweep must share {differ}")
    ks = [cfg.k for cfg in cfgs]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"the K of a sweep must be strictly increasing, got {ks}")
    ranks = {spectrum.p for spectrum, _ in systems}
    if len(ranks) != 1:
        raise ValueError(f"systems must share one rank p, got {sorted(ranks)}")
    for _, sigma in systems:
        _check_sigma(sigma)
    (p,) = ranks
    _check_bartlett_dof(first.sampler, ks[0], p, "p")
    trials = first.trials
    if p == 0:
        return [[ErgodicEstimate(mean=0.0, stderr=0.0, trials=trials, k=k) for _ in systems]
                for k in ks]
    # per K and system: the trace weights s^2 / ((K-1)(s^2 + sigma^2)), the
    # diagonal Lambda = (K-1) sigma^2 / s^2 and the constant terms
    # sum log(s^2 + sigma^2) - sum log s^2 + p log(K-1), s^2 the spectrum's eigenvalues
    scored = []
    for k in ks:
        per_system = []
        for spectrum, sigma in systems:
            ev, noise = spectrum.eigenvalues, sigma**2
            offset = float(np.sum(np.log1p(noise / ev))) + p * np.log(k - 1)
            per_system.append((ev / ((k - 1) * (ev + noise)), (k - 1) * noise / ev, offset))
        scored.append(per_system)
    rng = np.random.default_rng(first.seed)
    chunk = min(_trials_per_chunk(p), trials)
    grams = np.empty((chunk, p, p))  # one Gram stack for every chunk and K
    costs = np.empty((len(ks), len(systems), trials))
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        w = grams[:count]
        w_diag = w.reshape(count, p * p)[:, :: p + 1]
        for per_k, scored_k, g_diag in zip(costs, scored, _white_grams(ks, first.sampler, rng, w)):
            for row, (weights, lam, offset) in zip(per_k, scored_k):
                np.add(g_diag, lam, out=w_diag)  # G + Lambda on G's lower triangle, in place
                row[start:start + count] = 0.5 * (g_diag @ weights - logdet_psd(w) + offset)

    return [
        [
            ErgodicEstimate(
                mean=float(np.mean(row)),
                stderr=float(np.std(row, ddof=1) / np.sqrt(trials)),
                trials=trials,
                k=k,
            )
            for row in per_k
        ]
        for k, per_k in zip(ks, costs)
    ]
