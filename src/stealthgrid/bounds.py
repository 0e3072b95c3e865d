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
from typing import NamedTuple

import numpy as np

from .gaussian import (
    SpectralData,
    StateCovariance,
    _check_count,
    _check_sigma,
    nonzero_spectrum,
    optimal_cost,
)

__all__ = [
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


def _series(y: float) -> float:
    """log y - 1/(2y) - psi(y) for y >= 16: sum_j B_2j / (2j y^2j) to 1/y^10, within 1e-16."""
    z = 1.0 / (y * y)
    return z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z / 132))))


def _digamma(x: float) -> float:
    """Digamma of a positive real to about 1e-15: psi(x) = psi(x + 1) - 1/x, then the series."""
    recurrence = 0.0
    while x < 16.0:
        recurrence += 1.0 / x
        x += 1.0
    return math.log(x) - 0.5 / x - _series(x) - recurrence


def _log1p_gap(u: float) -> float:
    """(1 + u) log1p(u) - u = sum_{k>=2} (-u)^k / (k (k - 1)), by ten terms below |u| = 0.01."""
    if abs(u) >= 0.01:
        return (1.0 + u) * math.log1p(u) - u
    v = u * (1 / 56 - u * (1 / 72 - u * (1 / 90 - u / 110)))
    return u * u * (1 / 2 - u * (1 / 6 - u * (1 / 12 - u * (1 / 20 - u * (1 / 30 - u * (1 / 42 - v))))))


def _digamma_ladder(c: float, d: float, n: int) -> float:
    """sum_{j<n} psi(a + j) - n log c, a = c + d, b = a + n, c > 0.

    By psi(x + 1) = psi(x) + 1/x the sum is F(b) - F(a), F(x) = (x - 1) psi(x) - x.
    From a = 16, psi(x) = log x - 1/(2x) - :func:`_series` makes it
    G(b) - G(a) - n / (2ab), G(x) = c g(u) - log1p(u) - (x - 1) _series(x) with
    u = (x - c)/c and g = :func:`_log1p_gap`: every term keeps its digits where the
    sum cancels to about -n^2 / 2c, and u comes from the exact offset d, not from
    a - c.  Below 16 the sum is n (psi(b) - log c - 1) + (a - 1) h with
    h = psi(b) - psi(a) = sum_{l<n} 1/(a + l), which adds its terms below 16 and
    takes the rest from _series, log(b/x) as log1p."""
    a = c + d
    b = a + n
    if a >= 16.0:
        ua, ub = d / c, (d + n) / c
        gaps = c * (_log1p_gap(ub) - _log1p_gap(ua)) - (math.log1p(ub) - math.log1p(ua))
        return gaps - ((b - 1.0) * _series(b) - (a - 1.0) * _series(a)) - 0.5 * n / (a * b)
    h, i = 0.0, 0
    while i < n and a + i < 16.0:
        h += 1.0 / (a + i)
        i += 1
    if i < n:
        x = a + i
        h += math.log1p((n - i) / x) + 0.5 * (n - i) / (x * b) + _series(x) - _series(b)
    return n * (_digamma(b) - math.log(c) - 1.0) + (a - 1.0) * h


@dataclass(frozen=True)
class EigBoundPair:
    """Bounds on the expected extreme eigenvalues of a white Wishart matrix."""

    lower_min: float
    upper_max: float


def extreme_eig_bounds(l: int, k: int) -> EigBoundPair:
    """Expected extreme-eigenvalue bounds for W ~ Wishart(K-1, I_L)/(K-1).

        E[lambda_min] >= (1 - sqrt(L/(K-1)))^2
        E[lambda_max] <= (1 + sqrt(L/(K-1)))^2 + 1/(K-1)

    Requires integers L >= 1 and K-1 >= L; below that the lower bound does
    not apply.
    """
    _check_count("l", l)
    _check_count("k", k)
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
    )


def expected_logdet_std_wishart(p: int, k: int, formula: str = "real_exact") -> float:
    """E[log det] of the standardized p-dimensional sample covariance.

    For S ~ Wishart(K-1, I_p)/(K-1):

    - ``paper``: sum_{i=0}^{p-1} psi(K-1-i) - p log(K-1), the classical
      complex-ensemble identity used by the closed-form bound;
    - ``real_exact``: sum_{i=1}^{p} psi((K-i)/2) + p log 2 - p log(K-1),
      exact for real-valued data and strictly smaller.

    Each psi sum is one :func:`_digamma_ladder` (``paper``) or two, each with
    p log(K-1) folded in: two digamma evaluations at most, whatever p, and
    relative accuracy also where the value cancels to about -p^2 / 2K.  p and
    K must be integers below 2^64.
    """
    _check_count("p", p)
    _check_count("k", k)
    p, k = int(p), int(k)
    if formula not in FORMULAS:
        raise ValueError(f"formula must be one of {FORMULAS}, got {formula!r}")
    if p < 0:
        raise ValueError(f"rank must be >= 0, got {p}")
    if k - 1 < p:
        raise ValueError(f"need k-1 >= p (got k-1={k - 1}, p={p})")
    if p == 0:
        return 0.0
    if formula == "paper":
        return _digamma_ladder(float(k - 1), float(1 - p), p)
    # psi((K - i)/2) - log((K - 1)/2), i = p, p - 2, ... and i = p - 1, p - 3, ...
    c = (k - 1) / 2
    return _digamma_ladder(c, (1 - p) / 2, (p + 1) // 2) + _digamma_ladder(c, (2 - p) / 2, p // 2)


@dataclass(frozen=True)
class BoundProgram:
    """Solution of the box-constrained allocation behind the bound.

    Minimizes sum_i log(b_i + 1/x_i) subject to sum_i x_i = p and the
    extreme-eigenvalue box constraints.  ``newton_steps`` counts the
    clipped sums the search for the dual level evaluated, each one a Newton
    or a bisection step; it stays below ``_NEWTON_STEPS``.
    """

    b: np.ndarray
    p: int
    box_lo: float
    box_hi: float
    x_star: np.ndarray
    objective: float
    newton_steps: int

    @property
    def clipped(self) -> int:
        """Coordinates of x* on an edge of the box."""
        return int(np.count_nonzero((self.x_star <= self.box_lo) | (self.x_star >= self.box_hi)))

    @property
    def sum_residual(self) -> float:
        """|sum_i x*_i - p|, zero up to round-off."""
        return abs(float(np.sum(self.x_star)) - self.p)


class _Allocation(NamedTuple):
    """What the allocation program needs of b alone, whatever K."""

    b: np.ndarray
    values: list[float]  # b as Python floats, finite and positive
    four_b: list[float]  # 4 b_i in the order of b
    median: float  # median of b


def _prepare_allocation(b) -> _Allocation:
    """Check b and build its :class:`_Allocation`; raises ``ValueError`` unless
    b is a non-empty vector of finite positive numbers."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("b must be a non-empty 1-D sequence")
    values = b.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("b has non-finite entries")
    if min(values) <= 0.0:
        raise ValueError("all b_i must be positive")
    # in Python: the first np.median of a process adds about 2 MB to its peak RSS (numpy 2.4)
    ordered, half = sorted(values), len(values) // 2
    median = 0.5 * ordered[half] + 0.5 * ordered[~half]
    return _Allocation(b, values, [4.0 * v for v in values], median)


#: Cap on the steps of the search for the dual level, a safety net: it takes
#: a handful, and a few dozen when b spans many decades.
_NEWTON_STEPS = 200
#: The search stops once its step, or its bracket, is within a few ulps of the level.
_STEP_TOL = 4.0 * float(np.finfo(float).eps)


def solve_bound_program(b, k: int) -> BoundProgram:
    """Solve min sum log(b_i + 1/x_i) s.t. sum x_i = p within the eigenvalue box.

    The problem is separable and strictly convex, so the optimum is
    water-filling-like: every interior coordinate satisfies
    b_i x_i^2 + x_i = t for a shared dual level t, and the others sit on
    the box [lo, hi].  Coordinate i leaves lo at t = b_i lo^2 + lo and
    reaches hi at t = b_i hi^2 + hi, so the clipped sum
    S(t) = sum_i clip(root_i(t), lo, hi) rises from p lo to p hi over
    [min b lo^2 + lo, max b hi^2 + hi], and t is its root there.  Newton's
    method safeguarded by bisection (``rtsafe``, Numerical Recipes 9.4)
    finds it from t = median(b) + 1, where the median coordinate has x = 1:
    each step sums the clipped roots and d root_i / dt = 1 / sqrt(1 + 4 b_i t)
    over the free coordinates in Python floats, which for a few dozen
    coordinates costs less than the calls of a numpy step.  Every step
    shrinks the bracket, and a Newton step that leaves it is replaced by
    bisection.  The search stops once the step or the bracket is within
    ``_STEP_TOL`` of t: with many tied b_i the rounding of S can keep the
    step above that for ever, while the bracket closes.  Raises
    ``ValueError`` if b holds a nan, inf or non-positive entry, before any
    arithmetic and before K is checked.

    The work splits into a part that depends on b alone (the checks, b and
    4b as floats and the median) and the solve at K (the box and the
    search).  ``b`` may also be that first part, an ``_Allocation``, which a
    bound prepares once for every K of its spectrum and sigma.
    """
    allocation = b if isinstance(b, _Allocation) else _prepare_allocation(b)
    b, values, four_b = allocation.b, allocation.values, allocation.four_b
    p = len(values)
    box = extreme_eig_bounds(p, k)
    lo, hi = box.lower_min, box.upper_max

    left, right = min(values) * lo**2 + lo, max(values) * hi**2 + hi
    t = allocation.median + 1.0
    # the positive root of b x^2 + x = t, in a form stable for small b
    sqrt = math.sqrt
    for steps in range(1, _NEWTON_STEPS + 1):
        total = slope = 0.0
        twice_t = 2.0 * t
        for c in four_b:
            radical = sqrt(1.0 + c * t)
            root = twice_t / (1.0 + radical)
            if root <= lo:
                total += lo
            elif root >= hi:
                total += hi
            else:
                total += root
                slope += 1.0 / radical
        shortfall = p - total
        if shortfall == 0.0:
            break
        if shortfall > 0.0:
            left = t
        else:
            right = t
        step = shortfall / slope if slope else math.inf
        if abs(step) <= _STEP_TOL * t or right - left <= _STEP_TOL * t:
            break
        t = t + step if left < t + step < right else 0.5 * (left + right)
    roots = [2.0 * t / (1.0 + sqrt(1.0 + c * t)) for c in four_b]
    x = np.array([lo if r < lo else hi if r > hi else r for r in roots])

    objective = math.fsum(np.log(b + 1.0 / x).tolist())
    return BoundProgram(
        b=b, p=p, box_lo=lo, box_hi=hi, x_star=x, objective=objective, newton_steps=steps
    )


class _BoundContext:
    """What the bound needs of (spectrum, sigma) alone, whatever K and formula.

    Built for one eigenvalue bytes and sigma (``key``): the trace term
    ``sum_i lambda_i / (lambda_i + sigma^2)``, ``sum_i log(lambda_i + sigma^2)``
    and ``allocation``, the program's preparation of the read-only
    ``b = lambda / sigma^2`` (None when p = 0).  A b that fails the
    program's checks raises here, so no context holds it.  ``last_program``
    is the last (K, program) solved from it, which both formulas share.
    """

    __slots__ = ("key", "trace_sum", "log_shifted_sum", "allocation", "last_program")

    def __init__(self, key: tuple, spectrum: SpectralData, sigma: float):
        self.key = key
        ev = spectrum.eigenvalues
        with np.errstate(over="ignore"):  # an inf if sigma^2 is subnormal: the checks reject it
            b = ev / sigma**2
        b.setflags(write=False)
        self.allocation = _prepare_allocation(b) if ev.size else None
        # twice the halved sum is exact above the subnormal range, so the
        # optimal cost is the one implementation of the trace sum
        self.trace_sum = 2.0 * optimal_cost(spectrum, sigma)
        self.log_shifted_sum = float(np.log(ev + sigma**2).sum())
        self.last_program = None


#: The last context :func:`logdet_lower_bound` used, or None before the first.
_last_context: _BoundContext | None = None


def _bound_program(context: _BoundContext, k: int) -> BoundProgram:
    """The allocation program of a context with p > 0 at K; the context keeps
    the last one.

    Both formulas share it, so a bound under the second one solves nothing.
    A kept program's arrays are shared, hence read-only.
    """
    last = context.last_program
    if last is not None and last[0] == k:
        return last[1]
    program = solve_bound_program(context.allocation, k)
    program.x_star.setflags(write=False)
    context.last_program = (k, program)
    return program


class _LowerBound(float):
    """A :func:`logdet_lower_bound` value with the digamma sum, the program
    (None when p = 0) and the context it was built from, so a bound looks
    each up once."""

    __slots__ = ("digamma_sum", "program", "context")


def logdet_lower_bound(
    spectrum: SpectralData, sigma: float, m: int, k: int, formula: str = "real_exact"
) -> float:
    """Lower bound on E[log|H S_xx H^T + sigma^2 I_M|].

    Combines the expected log-determinant of the standardized sample
    covariance with the allocation program over the spectrum of the
    optimal attack:

        expected_logdet + sum_i log(lambda_i/sigma^2 + 1/x_i*) + 2 M log sigma.

    With p = 0 the matrix is exactly sigma^2 I and the value 2 M log sigma
    is exact.  This module keeps the last (lambda, sigma) context, built
    here and only here while the bytes of the eigenvalues and sigma equal
    its key: it holds b checked once, and the last program it
    solved, at one K for both formulas.  Raises ``ValueError`` unless sigma
    and sigma^2 are finite and > 0, M and K are integers, M >= p and
    K - 1 >= p, and b = lambda / sigma^2 is finite and > 0; a call that
    raises stores nothing.
    """
    global _last_context
    _check_sigma(sigma)
    _check_count("m", m)
    p = spectrum.p
    if m < p:
        raise ValueError(f"need m >= p (got m={m}, p={p})")
    digamma_sum = expected_logdet_std_wishart(p, k, formula)
    key = (spectrum.eigenvalues.tobytes(), sigma)
    context = _last_context  # read once: another thread may replace it
    if context is None or context.key != key:
        context = _last_context = _BoundContext(key, spectrum, sigma)
    program = _bound_program(context, k) if p else None
    objective = program.objective if program else 0.0
    lower = _LowerBound(digamma_sum + objective + 2.0 * m * math.log(sigma))
    lower.digamma_sum = digamma_sum
    lower.program = program
    lower.context = context
    return lower


@dataclass(frozen=True)
class BoundResult:
    """Upper bound on the expected learned-attack cost, with its pieces."""

    value: float
    digamma_sum: float  # expected log-det of the standardized sample covariance
    logdet_lower: float
    spectrum: SpectralData
    k: int
    formula: str
    program: BoundProgram | None  # the allocation program; None when p = 0


def spectral_upper_bound(
    spectrum: SpectralData, sigma: float, m: int, k: int, formula: str = "real_exact"
) -> BoundResult:
    """Closed-form upper bound on the expected learned-attack cost at K.

        bound = 1/2 [ tr(S_yy^-1 S_aa*) + log|S_yy| - logdet_lower_bound ]

    with S_aa* = H S_xx H^T the optimal attack covariance and
    S_yy = S_aa* + sigma^2 I_M.  Both terms follow from the nonzero
    spectrum lambda_1..lambda_p of S_aa*:

        tr(S_yy^-1 S_aa*) = sum_i lambda_i / (lambda_i + sigma^2),
        log|S_yy| = sum_i log(lambda_i + sigma^2) + (M - p) log sigma^2.

    The bound decreases monotonically in K and converges to the optimal cost.
    Both sums depend on (lambda, sigma) alone: they are read from the
    context :func:`logdet_lower_bound` keeps with the allocation program's
    b, the first as twice :func:`optimal_cost`, so a sweep over K and
    formulas computes them once, and each K pays only for its box and its
    search for the dual level.  Inputs are checked as in
    :func:`logdet_lower_bound`.
    """
    lower = logdet_lower_bound(spectrum, sigma, m, k, formula)
    context = lower.context
    logdet_syy = context.log_shifted_sum + (m - spectrum.p) * math.log(sigma**2)
    return BoundResult(
        value=0.5 * (context.trace_sum + logdet_syy - lower),
        digamma_sum=lower.digamma_sum,
        logdet_lower=float(lower),
        spectrum=spectrum,
        k=k,
        formula=formula,
        program=lower.program,
    )


def ergodic_upper_bound(
    h: np.ndarray,
    sigma_xx: StateCovariance,
    sigma: float,
    k: int,
    formula: str = "real_exact",
) -> BoundResult:
    """:func:`spectral_upper_bound` for the system (H, S_xx, sigma)."""
    h = np.asarray(h, dtype=float)
    return spectral_upper_bound(nonzero_spectrum(h, sigma_xx), sigma, h.shape[0], k, formula)
