"""Gaussian covariance model and the information-theoretic stealth cost.

All information quantities are in nats (natural logarithms).  The stealth
cost of an additive zero-mean Gaussian attack with covariance C against a
nominal measurement covariance S_yy = H S_xx H^T + sigma^2 I is

    f(C) = 1/2 [ tr(S_yy^-1 C) - log|C + sigma^2 I| + log|S_yy| ],

which equals the KL divergence between the joint law of (state, attacked
measurements) and the product of the nominal marginals.  It decomposes as
mutual information leaked to the operator plus the detectability KL
between the attacked and nominal measurement distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateCovariance",
    "AttackModel",
    "DerivedCovariances",
    "SpectralData",
    "Scenario",
    "toeplitz_covariance",
    "sigma_from_snr",
    "derived_covariances",
    "optimal_attack_covariance",
    "attack_from_matrix",
    "stealth_cost",
    "gaussian_mutual_information",
    "gaussian_kl_marginals",
    "zero_mean_gaussian_kl",
    "nonzero_spectrum",
    "optimal_cost",
]

#: Relative eigenvalue floor below which attack covariances are rejected.
PSD_TOL = 1e-8

#: Relative threshold separating true null directions from roundoff.
RANK_TOL = 1e-10


#: The last :func:`nonzero_spectrum` call: ((H shape, S_xx shape, H bytes,
#: S_xx bytes), spectrum), or None before the first call.
_last_system: tuple | None = None


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T) / 2.

    Halved before the sum, so entries up to the float64 maximum do not
    overflow; above the subnormal range the bits equal ``(m + m.T) / 2``.
    """
    m = np.asarray(m, dtype=float)
    return m * 0.5 + m.T * 0.5


def logdet_psd(m: np.ndarray) -> float | np.ndarray:
    """Log-determinant of a symmetric positive-definite matrix via Cholesky.

    A stack of shape (..., n, n) gives an array of shape (...); a single
    matrix gives a float.  Raises ``numpy.linalg.LinAlgError`` if a matrix
    is not positive definite.
    """
    return _logdet_of_factor(np.linalg.cholesky(m))


def _logdet_of_factor(chol: np.ndarray) -> float | np.ndarray:
    """log|L L^T| from a Cholesky factor L, as :func:`logdet_psd` returns it."""
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return logdet if logdet.ndim else float(logdet)


def _check_sigma(sigma: float) -> None:
    """Reject a noise level that is not finite and > 0 (nan included), or
    whose square is not: sigma = 1e300 overflows it, sigma = 1e-300 gives 0."""
    s = float(sigma)
    if not (s > 0.0 and 0.0 < s * s < math.inf):
        raise ValueError(f"sigma must be finite and > 0, and so must sigma^2, got {sigma}")


def _check_count(name: str, value) -> None:
    """Reject a size that is not an integer (bools included)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_finite(**arrays: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first of ``arrays`` that holds a nan or inf."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite entries")


def _as_matrix(cov) -> np.ndarray:
    """Accept a :class:`StateCovariance` or a plain array."""
    if isinstance(cov, StateCovariance):
        return cov.sigma_xx
    return np.asarray(cov, dtype=float)


@dataclass(frozen=True)
class StateCovariance:
    """Positive-definite covariance of the state variables."""

    sigma_xx: np.ndarray

    def __post_init__(self) -> None:
        m = symmetrize(self.sigma_xx)
        if not np.all(np.isfinite(m)):
            raise ValueError("state covariance S_xx has non-finite entries")
        np.linalg.cholesky(m)  # positive-definiteness check
        object.__setattr__(self, "sigma_xx", m)

    @property
    def n(self) -> int:
        return int(self.sigma_xx.shape[0])


@dataclass(frozen=True)
class AttackModel:
    """Covariance of the additive Gaussian attack."""

    sigma_aa: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_aa", symmetrize(self.sigma_aa))


@dataclass(frozen=True)
class DerivedCovariances:
    """Nominal and attacked measurement covariances.

    ``sigma_yaya - sigma_yy`` equals the attack covariance exactly.
    """

    sigma_yy: np.ndarray
    sigma_yaya: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_yy", symmetrize(self.sigma_yy))
        object.__setattr__(self, "sigma_yaya", symmetrize(self.sigma_yaya))
        if self.sigma_yy.shape != self.sigma_yaya.shape:
            raise ValueError("covariance shape mismatch")

    @property
    def m(self) -> int:
        return int(self.sigma_yy.shape[0])


@dataclass(frozen=True)
class SpectralData:
    """Nonzero eigenvalues of the optimal attack covariance, descending.

    Their count is the rank ``p``, derived from them and never given.
    """

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if ev.ndim != 1:
            raise ValueError(f"eigenvalues must be a 1-D array, got shape {ev.shape}")
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite")
        if ev.size and (np.any(ev <= 0) or np.any(np.diff(ev) > 0)):
            raise ValueError("eigenvalues must be positive and sorted descending")

    @property
    def p(self) -> int:
        return self.eigenvalues.size


def toeplitz_covariance(n: int, rho: float) -> StateCovariance:
    """Exponential-decay Toeplitz covariance, entry (i, j) = rho^|i-j|.

    Parameters
    ----------
    n:
        Dimension, an integer at least 1.
    rho:
        Decay parameter in [0, 1); rho = 0 gives the identity.
    """
    _check_count("n", n)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return StateCovariance(sigma_xx=np.power(rho, lags))


def sigma_from_snr(h: np.ndarray, sigma_xx, snr_db: float) -> float:
    """Noise standard deviation realizing a target SNR in dB.

    Inverts SNR = 10 log10( tr(H S_xx H^T) / (M sigma^2) ), i.e.
    sigma^2 = tr(H S_xx H^T) / (M 10^(SNR/10)).  Raises ``ValueError``
    unless the SNR is finite and the result is finite and positive.
    """
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    h = np.asarray(h, dtype=float)
    gram = h @ _as_matrix(sigma_xx) @ h.T
    signal = float(np.trace(gram))
    if signal <= 0.0:
        raise ValueError("tr(H S_xx H^T) must be positive to set an SNR")
    m = h.shape[0]
    try:
        sigma = float(np.sqrt(signal / (m * 10.0 ** (snr_db / 10.0))))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"SNR {snr_db} dB gives noise sigma {sigma}, not finite and > 0")
    return sigma


def derived_covariances(
    h: np.ndarray, sigma_xx, sigma: float, attack: AttackModel
) -> DerivedCovariances:
    """Nominal S_yy = H S_xx H^T + sigma^2 I and attacked S_yy + S_aa.

    Raises ``ValueError`` if H, S_xx or S_aa holds a nan or inf.
    """
    h = np.asarray(h, dtype=float)
    sxx = _as_matrix(sigma_xx)
    _check_finite(H=h, S_xx=sxx, S_aa=attack.sigma_aa)
    if h.shape[1] != sxx.shape[0]:
        raise ValueError(f"H has {h.shape[1]} columns but S_xx is {sxx.shape[0]}-dimensional")
    if attack.sigma_aa.shape[0] != h.shape[0]:
        raise ValueError(
            f"attack covariance is {attack.sigma_aa.shape[0]}-dimensional "
            f"but there are {h.shape[0]} measurements"
        )
    _check_sigma(sigma)
    syy = symmetrize(h @ sxx @ h.T) + sigma**2 * np.eye(h.shape[0])
    return DerivedCovariances(sigma_yy=syy, sigma_yaya=syy + attack.sigma_aa)


def optimal_attack_covariance(h: np.ndarray, sigma_xx) -> AttackModel:
    """Stealth-optimal attack covariance H S_xx H^T (symmetrized).

    Raises ``ValueError`` if H or S_xx holds a nan or inf.
    """
    h = np.asarray(h, dtype=float)
    sxx = _as_matrix(sigma_xx)
    _check_finite(H=h, S_xx=sxx)
    return AttackModel(sigma_aa=symmetrize(h @ sxx @ h.T))


def attack_from_matrix(matrix: np.ndarray) -> AttackModel:
    """Validate a user-supplied attack covariance.

    Eigenvalues down to ``-PSD_TOL * lambda_max`` are treated as roundoff
    and clipped to zero; anything lower is rejected, as is a nan or inf.
    """
    sym = symmetrize(matrix)
    _check_finite(matrix=sym)
    w, v = np.linalg.eigh(sym)
    floor = -PSD_TOL * max(float(w[-1]), 0.0)
    if np.any(w < floor):
        raise ValueError(
            f"attack covariance is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    if np.any(w < 0):
        sym = symmetrize((v * np.clip(w, 0.0, None)) @ v.T)
    return AttackModel(sigma_aa=sym)


def stealth_cost(attack: AttackModel, derived: DerivedCovariances, sigma: float) -> float:
    """Stealth cost f of an attack: disruption plus detectability, in nats.

    f = 1/2 [ tr(S_yy^-1 S_aa) - log|S_aa + sigma^2 I| + log|S_yy| ].

    Raises ``ValueError`` if S_aa or S_yy holds a nan or inf, or if sigma
    is not finite and > 0.
    """
    syy = derived.sigma_yy
    saa = attack.sigma_aa
    _check_finite(S_aa=saa, S_yy=syy)
    _check_sigma(sigma)
    m = syy.shape[0]
    trace_term = float(np.trace(np.linalg.solve(syy, saa)))
    return 0.5 * (
        trace_term - logdet_psd(saa + sigma**2 * np.eye(m)) + logdet_psd(syy)
    )


def gaussian_mutual_information(
    attack: AttackModel, derived: DerivedCovariances, sigma: float
) -> float:
    """Mutual information between the states and the attacked measurements.

    Closed Gaussian form 1/2 log( |S_yaya| / |S_aa + sigma^2 I| ).  Raises
    ``ValueError`` if S_aa or S_yaya holds a nan or inf, or if sigma is not
    finite and > 0.
    """
    _check_finite(S_aa=attack.sigma_aa, S_yaya=derived.sigma_yaya)
    _check_sigma(sigma)
    m = derived.m
    return 0.5 * (
        logdet_psd(derived.sigma_yaya)
        - logdet_psd(attack.sigma_aa + sigma**2 * np.eye(m))
    )


def zero_mean_gaussian_kl(cov_p: np.ndarray, cov_q: np.ndarray) -> float:
    """KL divergence D(N(0, cov_p) || N(0, cov_q)) in nats.

    Raises ``ValueError`` if cov_p or cov_q holds a nan or inf.
    """
    cov_p = symmetrize(cov_p)
    cov_q = symmetrize(cov_q)
    _check_finite(cov_p=cov_p, cov_q=cov_q)
    m = cov_p.shape[0]
    trace_term = float(np.trace(np.linalg.solve(cov_q, cov_p)))
    return 0.5 * (trace_term - m + logdet_psd(cov_q) - logdet_psd(cov_p))


def gaussian_kl_marginals(derived: DerivedCovariances) -> float:
    """Detectability term: KL of the attacked vs nominal measurement law."""
    return zero_mean_gaussian_kl(derived.sigma_yaya, derived.sigma_yy)


def nonzero_spectrum(h: np.ndarray, sigma_xx) -> SpectralData:
    """Nonzero eigenvalues of H S_xx H^T and their count p.

    With F = H chol(S_xx), H S_xx H^T = F F^T shares its nonzero eigenvalues
    with F^T F, so the smaller of the two Gram matrices is decomposed: N x N
    when M > N, M x M otherwise.  Eigenvalues at or below
    ``RANK_TOL * lambda_max`` are treated as zero.  Raises ``ValueError`` if
    H or S_xx holds a nan or inf.

    The last system is kept with its spectrum: a call whose H and S_xx equal
    it in shape and float64 bytes returns the same spectrum, so a system
    swept over K or formulas is decomposed once, whatever objects hold it,
    and arrays changed in place are decomposed afresh.  The returned
    eigenvalues are shared, hence read-only.  Only a miss checks for a nan
    or inf: a hit matches the bytes of arrays that passed the check.
    """
    global _last_system
    h = np.asarray(h, dtype=float)
    sxx = _as_matrix(sigma_xx)
    key = (h.shape, sxx.shape, h.tobytes(), sxx.tobytes())
    if _last_system is not None and _last_system[0] == key:
        return _last_system[1]
    _check_finite(H=h, S_xx=sxx)
    spectrum = _spectrum(h, sxx)
    _last_system = (key, spectrum)
    return spectrum


def _spectrum(h: np.ndarray, sxx: np.ndarray) -> SpectralData:
    """:func:`nonzero_spectrum` without its slot; the eigenvalues come back read-only."""
    f = h @ np.linalg.cholesky(sxx)
    gram = f.T @ f if f.shape[0] > f.shape[1] else f @ f.T
    ev = np.linalg.eigvalsh(gram)[::-1]
    kept = ev[ev > RANK_TOL * ev[0]] if ev.size and ev[0] > 0.0 else np.empty(0)
    kept.setflags(write=False)
    return SpectralData(eigenvalues=kept)


def optimal_cost(spectrum: SpectralData, sigma: float) -> float:
    """Stealth cost at the optimal attack: 1/2 sum_i lambda_i/(lambda_i + sigma^2).

    A plain sum over the spectrum, cached nowhere; twice it is the trace
    term of the bound, which :mod:`stealthgrid.bounds` takes from here.
    """
    _check_sigma(sigma)
    ev = spectrum.eigenvalues
    return 0.5 * float((ev / (ev + sigma**2)).sum())


@dataclass(frozen=True)
class Scenario:
    """One attacked system: H, the state covariance, the noise level and the spectrum.

    Everything the ergodic cost and its bound need about the system; build
    it once with :meth:`build` and pass its fields on.
    """

    h: np.ndarray
    sigma_xx: StateCovariance
    sigma: float
    spectrum: SpectralData

    @classmethod
    def build(cls, h: np.ndarray, rho: float, snr_db: float) -> "Scenario":
        """Toeplitz state covariance with decay ``rho`` and noise at ``snr_db``."""
        h = np.asarray(h, dtype=float)
        sigma_xx = toeplitz_covariance(h.shape[1], rho)
        sigma = sigma_from_snr(h, sigma_xx, snr_db)
        return cls(h=h, sigma_xx=sigma_xx, sigma=sigma, spectrum=nonzero_spectrum(h, sigma_xx))

    @property
    def m(self) -> int:
        return int(self.h.shape[0])
