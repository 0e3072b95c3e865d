"""Monte Carlo oracles and parametrizations shared by the module and acceptance tests.

These draw from the raw distributions directly (no library sampling code)
so they stay independent of the paths they are used to check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from stealthgrid.experiment import blas_kernel

#: Noise levels every sigma check rejects: sigma, or its square, is not finite
#: and > 0 (1e300 squares to inf, 1e-300 to 0).
BAD_SIGMA = pytest.mark.parametrize(
    "sigma",
    [math.nan, math.inf, 0.0, -1.0, 1e300, 1e-300],
    ids=["nan", "inf", "zero", "negative", "square_inf", "square_zero"],
)


def pinned_digest(digests: dict[bytes, str]) -> str:
    """The digest pinned for the running BLAS kernel; fails naming an unlisted kernel."""
    kernel = blas_kernel()
    if kernel not in digests:
        pytest.fail(f"no digest pinned for BLAS kernel {kernel!r}; pinned: {sorted(digests)}")
    return digests[kernel]


def centred_factors(x: np.ndarray) -> np.ndarray:
    """Centred factors B, shape (count, n, K), of trial-major draws x, shape (count, K, n).

    B B^T is each trial's centred scatter (x - mean)^T (x - mean): the reference
    for the empirical sampler's Gram G = X^T X - s s^T / K.
    """
    return np.swapaxes(x - x.mean(axis=1, keepdims=True), 1, 2)


def bartlett_factors(n: int, k: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` lower triangular Bartlett factors B, shape (count, n, n), B B^T ~ Wishart(k-1, I_n).

    Drawn in the library's order: the chi-square diagonals of every trial,
    then the standard normals below the diagonal, row by row.  The reference
    for the Bartlett Gram G = L L^T + L diag(c) with B = L + diag(c).
    """
    chi = np.sqrt(rng.chisquare(k - 1 - np.arange(n), size=(count, n)))
    below = np.tril_indices(n, -1)
    factors = np.zeros((count, n, n))
    factors[:, below[0], below[1]] = rng.standard_normal((count, below[0].size))
    factors[:, np.arange(n), np.arange(n)] = chi
    return factors


def standard_wishart_extremes(
    l: int, dof: int, draws: int, seed: int, batch: int = 500
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extreme eigenvalues of W = Z^T Z / dof and max singular values of Z.

    Z is dof x l with independent standard normal entries.  Returns
    (lambda_min, lambda_max, s_max) arrays of length ``draws``.
    """
    rng = np.random.default_rng(seed)
    mins = np.empty(draws)
    maxs = np.empty(draws)
    smax = np.empty(draws)
    done = 0
    while done < draws:
        b = min(batch, draws - done)
        z = rng.standard_normal((b, dof, l))
        gram = np.swapaxes(z, 1, 2) @ z
        eigs = np.linalg.eigvalsh(gram)
        mins[done : done + b] = eigs[:, 0] / dof
        maxs[done : done + b] = eigs[:, -1] / dof
        smax[done : done + b] = np.sqrt(eigs[:, -1])
        done += b
    return mins, maxs, smax


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random PSD matrix B B^T with controlled scale."""
    b = rng.standard_normal((n, n))
    return scale * (b @ b.T) / n


def random_pd(rng: np.random.Generator, n: int, lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Random well-conditioned PD matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(lo, hi, size=n)
    return (q * eigs) @ q.T


def grid_oracle_objective(
    b: np.ndarray, lo: float, hi: float, steps: int = 400
) -> float:
    """Brute-force minimum of sum log(b_i + 1/x_i) on the simplex-box set.

    Enumerates a regular grid over the first p-1 coordinates (the last is
    fixed by the sum constraint) and returns the best feasible objective.
    Supports p <= 3.
    """
    b = np.asarray(b, dtype=float)
    p = b.size
    if p == 1:
        return float(np.log(b[0] + 1.0))
    axis = np.linspace(lo, hi, steps + 1)
    if p == 2:
        x1 = axis
        x2 = p - x1
        mask = (x2 >= lo) & (x2 <= hi)
        x1, x2 = x1[mask], x2[mask]
        vals = np.log(b[0] + 1.0 / x1) + np.log(b[1] + 1.0 / x2)
        return float(vals.min())
    if p == 3:
        x1 = axis[:, None]
        x2 = axis[None, :]
        x3 = p - x1 - x2
        mask = (x3 >= lo) & (x3 <= hi)
        vals = np.where(
            mask,
            np.log(b[0] + 1.0 / x1)
            + np.log(b[1] + 1.0 / x2)
            + np.log(b[2] + 1.0 / np.where(mask, x3, 1.0)),
            np.inf,
        )
        return float(vals.min())
    raise ValueError("grid oracle supports p <= 3")
