"""Closed-form upper bound on the expected learned-attack cost.

The expected stealth cost of the learned attack differs from the optimal
cost only through E[log|H S_xx H^T + sigma^2 I|].  That term is bounded
from below by a digamma sum (the expected log-determinant of the
standardized sample covariance) plus the minimum of a separable convex
allocation problem over the expected extreme-eigenvalue box of a white
Wishart matrix, yielding a computable upper bound on the ergodic cost for
any training size K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import SpectralData, StateCovariance, nonzero_spectrum

__all__ = [
    "digamma",
    "EigBoundPair",
    "extreme_eig_bounds",
    "expected_logdet_std_wishart",
    "BoundProgram",
    "solve_bound_program",
    "logdet_lower_bound",
    "BoundResult",
    "spectral_upper_bound",
    "ergodic_upper_bound",
]

EULER_GAMMA = 0.5772156649015328606

FORMULAS = ("paper", "real_exact")

#: Above this argument the asymptotic expansion is used (error < 1e-24).
_EXACT_SUM_LIMIT = 10_000


@lru_cache(maxsize=None)
def _harmonic(n: int) -> float:
    """H_n = sum_{k=1}^n 1/k, exactly rounded via fsum."""
    return math.fsum(1.0 / k for k in range(1, n + 1))


@lru_cache(maxsize=None)
def _odd_harmonic(n: int) -> float:
    """sum_{j=1}^n 1/(2j-1), exactly rounded via fsum."""
    return math.fsum(1.0 / (2 * j - 1) for j in range(1, n + 1))


def _digamma_asymptotic(x: float) -> float:
    return math.log(x) - 1.0 / (2.0 * x) - 1.0 / (12.0 * x**2) + 1.0 / (120.0 * x**4)


def digamma(n: int) -> float:
    """Digamma function at a positive integer.

    Evaluates psi(n) = -gamma + H_{n-1} by exact harmonic summation for
    n <= 10^4 and by the asymptotic expansion
    log n - 1/(2n) - 1/(12 n^2) + 1/(120 n^4) beyond, accurate to 1e-12.
    """
    if n != int(n) or n <= 0:
        raise ValueError(f"digamma is defined here for positive integers, got {n}")
    n = int(n)
    if n <= _EXACT_SUM_LIMIT:
        return -EULER_GAMMA + _harmonic(n - 1)
    return _digamma_asymptotic(float(n))


def _digamma_half_integer(twice_x: int) -> float:
    """psi(twice_x / 2) for positive integer twice_x (integer or half-integer arg).

    psi(m + 1/2) = -gamma - 2 log 2 + 2 sum_{j=1}^{m} 1/(2j-1).
    """
    if twice_x <= 0:
        raise ValueError(f"argument must be positive, got {twice_x / 2}")
    if twice_x % 2 == 0:
        return digamma(twice_x // 2)
    if twice_x <= 2 * _EXACT_SUM_LIMIT:
        m = (twice_x - 1) // 2
        return -EULER_GAMMA - 2.0 * math.log(2.0) + 2.0 * _odd_harmonic(m)
    return _digamma_asymptotic(twice_x / 2.0)


@dataclass(frozen=True)
class EigBoundPair:
    """Bounds on the expected extreme eigenvalues of a white Wishart matrix."""

    lower_min: float
    upper_max: float
    l: int
    k: int


def extreme_eig_bounds(l: int, k: int) -> EigBoundPair:
    """Expected extreme-eigenvalue bounds for W ~ Wishart(K-1, I_L)/(K-1).

        E[lambda_min] >= (1 - sqrt(L/(K-1)))^2
        E[lambda_max] <= (1 + sqrt(L/(K-1)))^2 + 1/(K-1)

    Requires K-1 >= L; below that the lower bound does not apply.
    """
    if l < 1:
        raise ValueError(f"dimension must be >= 1, got {l}")
    if k - 1 < l:
        raise ValueError(
            f"extreme-eigenvalue bounds need k-1 >= L (got k-1={k - 1}, L={l})"
        )
    ratio = math.sqrt(l / (k - 1))
    return EigBoundPair(
        lower_min=(1.0 - ratio) ** 2,
        upper_max=(1.0 + ratio) ** 2 + 1.0 / (k - 1),
        l=l,
        k=k,
    )


def expected_logdet_std_wishart(p: int, k: int, formula: str = "paper") -> float:
    """E[log det] of the standardized p-dimensional sample covariance.

    For S ~ Wishart(K-1, I_p)/(K-1):

    - ``paper``: sum_{i=0}^{p-1} psi(K-1-i) - p log(K-1), the classical
      complex-ensemble identity used by the closed-form bound;
    - ``real_exact``: sum_{i=1}^{p} psi((K-i)/2) + p log 2 - p log(K-1),
      exact for real-valued data and strictly smaller.
    """
    if formula not in FORMULAS:
        raise ValueError(f"formula must be one of {FORMULAS}, got {formula!r}")
    if p < 0:
        raise ValueError(f"rank must be >= 0, got {p}")
    if k - 1 < p:
        raise ValueError(f"need k-1 >= p (got k-1={k - 1}, p={p})")
    if p == 0:
        return 0.0
    if formula == "paper":
        total = math.fsum(digamma(k - 1 - i) for i in range(p))
    else:
        total = math.fsum(_digamma_half_integer(k - i) for i in range(1, p + 1))
        total += p * math.log(2.0)
    return total - p * math.log(k - 1)


@dataclass(frozen=True)
class BoundProgram:
    """Solution of the box-constrained allocation behind the bound.

    Minimizes sum_i log(b_i + 1/x_i) subject to sum_i x_i = p and the
    extreme-eigenvalue box constraints.
    """

    b: np.ndarray
    p: int
    box_lo: float
    box_hi: float
    x_star: np.ndarray
    objective: float


def _allocation_roots(b: np.ndarray, t: float) -> np.ndarray:
    """Per-coordinate positive root of b x^2 + x = t (stable for small b)."""
    return 2.0 * t / (1.0 + np.sqrt(1.0 + 4.0 * b * t))


def solve_bound_program(b, k: int) -> BoundProgram:
    """Solve min sum log(b_i + 1/x_i) s.t. sum x_i = p within the eigenvalue box.

    The problem is separable and strictly convex, so the optimum is
    water-filling-like: every interior coordinate satisfies
    b_i x_i^2 + x_i = t for a shared dual level t, coordinates beyond the
    box are clipped, and t is found by bisection on the monotone sum
    constraint (tolerance 1e-12, at most 200 iterations).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("b must be a non-empty 1-D sequence")
    if np.any(b <= 0.0):
        raise ValueError("all b_i must be positive")
    p = int(b.size)
    box = extreme_eig_bounds(p, k)
    lo, hi = box.lower_min, box.upper_max

    def clipped(t: float) -> np.ndarray:
        return np.clip(_allocation_roots(b, t), lo, hi)

    target = float(p)
    t_lo, t_hi = 0.0, 1.0
    while np.sum(clipped(t_hi)) < target:
        t_hi *= 2.0
    x = clipped(t_hi)
    for _ in range(200):
        t_mid = 0.5 * (t_lo + t_hi)
        x = clipped(t_mid)
        total = float(np.sum(x))
        if abs(total - target) <= 1e-12 * max(1.0, target):
            break
        if total < target:
            t_lo = t_mid
        else:
            t_hi = t_mid
        if t_hi - t_lo <= 1e-16 * max(t_hi, 1.0):
            break

    # distribute any residual over interior coordinates to pin the sum
    residual = target - float(np.sum(x))
    interior = (x > lo) & (x < hi)
    if abs(residual) > 0 and np.any(interior):
        x = x.copy()
        x[interior] += residual / int(np.count_nonzero(interior))
        x = np.clip(x, lo, hi)

    objective = float(math.fsum(np.log(b + 1.0 / x)))
    return BoundProgram(b=b, p=p, box_lo=lo, box_hi=hi, x_star=x, objective=objective)


def logdet_lower_bound(
    spectrum: SpectralData, sigma: float, m: int, k: int, formula: str = "paper"
) -> float:
    """Lower bound on E[log|H S_xx H^T + sigma^2 I_M|].

    Combines the expected log-determinant of the standardized sample
    covariance with the allocation program over the spectrum of the
    optimal attack:

        expected_logdet + sum_i log(lambda_i/sigma^2 + 1/x_i*) + 2 M log sigma.

    With p = 0 the matrix is exactly sigma^2 I and the value 2 M log sigma
    is exact.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if spectrum.p == 0:
        return 2.0 * m * math.log(sigma)
    if k - 1 < spectrum.p:
        raise ValueError(f"need k-1 >= p (got k-1={k - 1}, p={spectrum.p})")
    program = solve_bound_program(spectrum.eigenvalues / sigma**2, k)
    logdet_term = expected_logdet_std_wishart(spectrum.p, k, formula)
    return logdet_term + program.objective + 2.0 * m * math.log(sigma)


@dataclass(frozen=True)
class BoundResult:
    """Upper bound on the expected learned-attack cost, with its pieces."""

    value: float
    digamma_sum: float  # expected log-det of the standardized sample covariance
    logdet_lower: float
    spectrum: SpectralData
    k: int
    formula: str


def spectral_upper_bound(
    spectrum: SpectralData, sigma: float, m: int, k: int, formula: str = "paper"
) -> BoundResult:
    """Closed-form upper bound on the expected learned-attack cost at K.

        bound = 1/2 [ tr(S_yy^-1 S_aa*) + log|S_yy| - logdet_lower_bound ]

    with S_aa* = H S_xx H^T the optimal attack covariance and
    S_yy = S_aa* + sigma^2 I_M.  Both terms follow from the nonzero
    spectrum lambda_1..lambda_p of S_aa*:

        tr(S_yy^-1 S_aa*) = sum_i lambda_i / (lambda_i + sigma^2),
        log|S_yy| = sum_i log(lambda_i + sigma^2) + (M - p) log sigma^2.

    The bound decreases monotonically in K and converges to the optimal cost.
    """
    lower = logdet_lower_bound(spectrum, sigma, m, k, formula)
    shifted = spectrum.eigenvalues + sigma**2
    trace_term = float(np.sum(spectrum.eigenvalues / shifted))
    logdet_syy = float(np.sum(np.log(shifted))) + (m - spectrum.p) * math.log(sigma**2)
    return BoundResult(
        value=0.5 * (trace_term + logdet_syy - lower),
        digamma_sum=expected_logdet_std_wishart(spectrum.p, k, formula),
        logdet_lower=lower,
        spectrum=spectrum,
        k=k,
        formula=formula,
    )


def ergodic_upper_bound(
    h: np.ndarray,
    sigma_xx: StateCovariance,
    sigma: float,
    k: int,
    formula: str = "paper",
) -> BoundResult:
    """:func:`spectral_upper_bound` for the system (H, S_xx, sigma)."""
    h = np.asarray(h, dtype=float)
    return spectral_upper_bound(nonzero_spectrum(h, sigma_xx), sigma, h.shape[0], k, formula)
