"""Closed-form asymptotic covariance of the likelihood moment estimator pair.

For a linear process with coefficient sequence c and tail index gamma, the
standardized fitted pair is asymptotically bivariate normal with covariance
``L S L^T``.  ``S`` collects the limits kappa_1..kappa_3 of the centered tail
sum variances and covariance, and ``L = -J**-1`` is the negated inverse of the
Jacobian limit J, taken by the 2x2 adjugate.  Serial dependence enters only
through the three coefficient series phi_1..phi_3 below, all zero in the iid
case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .process import CoefficientSequence, _overflow, _within, decay_certificate

__all__ = [
    "PhiConstants",
    "RawLimits",
    "CovarianceReport",
    "coefficient_norm",
    "phi_constants",
    "pairwise_dependence_sum",
    "raw_limits",
    "sigma_matrix",
    "linearization_matrix",
    "jacobian_limit",
    "estimator_cov",
]


@dataclass(frozen=True)
class PhiConstants:
    """Dependence constants of a coefficient sequence at fixed (gamma, r).

    ``norm_c = sum |c_k|**(1/gamma)``; phi_1..phi_3 are the cross-lag series
    normalized by it.  All three vanish when a single coefficient is nonzero.
    ``truncation_error`` bounds the norm mass lost to an ARMA truncation.
    """

    norm_c: float
    phi1: float
    phi2: float
    phi3: float
    truncation_error: float = 0.0


@dataclass(frozen=True)
class RawLimits:
    """Limits of the scaled variances and covariances of the tail sums.

    t1, t2, tI are the variance limits of the two transformed sums and the
    exceedance count; t12, t1I, t2I the covariance limits.  beta1p and beta2p
    are the centering weights.
    """

    t1: float
    t2: float
    tI: float
    t12: float
    t1I: float
    t2I: float
    beta1p: float
    beta2p: float


@dataclass(frozen=True)
class CovarianceReport:
    """Covariance of the standardized estimator pair with all intermediates."""

    gamma: float
    r: float
    phi: PhiConstants
    raw: RawLimits
    kappa1: float
    kappa2: float
    kappa3: float
    sigma_matrix: np.ndarray
    l_matrix: np.ndarray
    estimator_cov: np.ndarray

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "r": self.r,
            **asdict(self.phi),
            "raw_limits": asdict(self.raw),
            "kappa1": self.kappa1,
            "kappa2": self.kappa2,
            "kappa3": self.kappa3,
            "sigma_matrix": self.sigma_matrix.tolist(),
            "l_matrix": self.l_matrix.tolist(),
            "estimator_cov": self.estimator_cov.tolist(),
        }


def _check_domain(gamma: float, r: float) -> None:
    _within("gamma", gamma, 0, math.inf)
    _within("r", r, -math.inf, 0)


def coefficient_norm(coeffs: CoefficientSequence, gamma: float) -> tuple[float, float]:
    """``sum |c_k|**(1/gamma)`` over the stored support with a tail bound.

    Returns (value, truncation_error) where the error term bounds the
    discarded mass via the geometric decay certificate; it is zero for
    explicitly given (exact) sequences.
    """
    _within("gamma", gamma, 0, math.inf)
    with _overflow(f"coefficient norm's exponent 1/gamma overflows at gamma={gamma!r}"):
        p = float(np.divide(1.0, gamma))
    value = coeffs.power_sum(p)
    if coeffs.truncation_error_bound == 0.0:
        return value, 0.0
    a_cert, u_cert = decay_certificate(coeffs)
    # A u**-(J+1) is below 1 by construction, so its power cannot overflow; expm1 keeps
    # 1 - u**-p from rounding to 0 at a huge gamma, and numpy's makes the division raise.
    with _overflow(f"coefficient norm's truncation bound overflows at gamma={gamma!r}"):
        tail = (a_cert * u_cert ** -(coeffs.order + 1)) ** p / -np.expm1(-p * math.log(u_cert))
    return value, float(tail)


def _lag_pair_sums(coeffs: CoefficientSequence, gamma: float, r: float) -> tuple:
    """The sums of phi_1..phi_3 before their division by the norm."""
    arr = np.abs(coeffs.as_array())
    logs = np.log(np.where(arr > 0, arr, 1.0))
    s1 = s2 = s3 = 0.0
    for j in range(1, arr.size):
        lo, hi = np.minimum(arr[:-j], arr[j:]), np.maximum(arr[:-j], arr[j:])
        keep = lo > 0
        lo, hi = lo[keep], hi[keep]
        w = lo ** (1.0 / gamma)
        s1 += float(np.sum(w))
        s2 += float(np.sum(w * (lo / hi) ** (-r / gamma)))
        s3 += float(np.sum(w * np.abs(logs[:-j] - logs[j:])[keep]))
    return s1, s2, s3


def phi_constants(coeffs: CoefficientSequence, gamma: float, r: float) -> PhiConstants:
    """Dependence constants phi_1..phi_3 by direct double summation.

    phi_1 sums ``min**(1/gamma)`` over all lag pairs, phi_2 sums
    ``max**(r/gamma) / min**((r-1)/gamma)`` and phi_3 sums
    ``min**(1/gamma) * log(max/min)``, each over pairs with both coefficients
    nonzero and divided by the coefficient norm.  The phi_2 term is evaluated
    as ``min**(1/gamma) * (min/max)**(-r/gamma)`` and ``log(max/min)`` as
    ``|log c_i - log c_j|``, so no factor can overflow once the norm is finite.
    """
    _check_domain(gamma, r)
    norm, trunc = coefficient_norm(coeffs, gamma)
    s1, s2, s3 = _lag_pair_sums(coeffs, gamma, r)
    return PhiConstants(norm_c=norm, phi1=s1 / norm, phi2=s2 / norm,
                        phi3=s3 / norm, truncation_error=trunc)


def pairwise_dependence_sum(coeffs: CoefficientSequence, gamma: float) -> float:
    """Cross-lag summability diagnostic: the phi_3 sum of ``phi_constants`` (at any r)
    before its division by the norm, from the same loop over lag pairs."""
    _within("gamma", gamma, 0, math.inf)
    return _lag_pair_sums(coeffs, gamma, -1.0)[2]


def raw_limits(gamma: float, r: float, phi: PhiConstants) -> RawLimits:
    """The six variance and covariance limits of the scaled tail sums, with
    ``t1 = 2 gamma t1I`` and ``t2 = -2r / (1 - 2r) t2I``."""
    _check_domain(gamma, r)
    g, p1, p2, p3 = gamma, phi.phi1, phi.phi2, phi.phi3
    t1I = g + 2.0 * g * p1 + p3
    t2I = (-r + (1.0 - 2.0 * r) * p1 - p2) / (1.0 - r)
    with _overflow(f"raw limits overflow at gamma={gamma!r}, r={r!r}"):
        t12 = (-g * r * (2.0 - r) + (2.0 * r**2 - 4.0 * r + 1.0) * g * p1
               - g * p2 - r * (1.0 - r) * p3) / (1.0 - r) ** 2
    return RawLimits(t1=2.0 * g * t1I, t2=-2.0 * r / (1.0 - 2.0 * r) * t2I,
                     tI=1.0 + 2.0 * p1, t12=t12, t1I=t1I, t2I=t2I,
                     beta1p=g / (g + 1.0), beta2p=-r / (1.0 - r + g))


def _centered(raw: RawLimits) -> tuple[float, float, float]:
    """kappa_1..kappa_3: the limit variances and covariance of the tail sums,
    each centered by its ``beta'`` times the exceedance count."""
    b1, b2 = raw.beta1p, raw.beta2p
    return (raw.t1 - 2.0 * b1 * raw.t1I + b1**2 * raw.tI,
            raw.t2 - 2.0 * b2 * raw.t2I + b2**2 * raw.tI,
            raw.t12 - b1 * raw.t2I - b2 * raw.t1I + b1 * b2 * raw.tI)


def sigma_matrix(kappa1: float, kappa2: float, kappa3: float) -> np.ndarray:
    """Limit covariance of the two centered tail sum statistics."""
    _within("kappa1", kappa1, 0, math.inf, low_in=True)
    _within("kappa2", kappa2, 0, math.inf, low_in=True)
    _within("kappa3", kappa3, -math.inf, math.inf)
    return np.array([[kappa1, -kappa3], [-kappa3, kappa2]])


def jacobian_limit(gamma: float, r: float) -> np.ndarray:
    """Probability limit of the Jacobian of the estimating-equation system."""
    _check_domain(gamma, r)
    g = gamma
    with _overflow(f"Jacobian limit overflows at gamma={gamma!r}, r={r!r}"):
        return np.array([
            [-g / (1.0 + g), -g / (1.0 + g)],
            [-r / ((1.0 - r) ** 2 * (1.0 + g - r)), -r / ((1.0 - r) * (1.0 + g - r))],
        ])


def linearization_matrix(gamma: float, r: float) -> np.ndarray:
    """Matrix ``L = -J**-1`` mapping the tail sum limit to the estimator pair
    limit, with J the ``jacobian_limit``, by the 2x2 adjugate.  J is
    non-singular for every gamma > 0, r < 0 in exact arithmetic only: as
    r -> 0 its rows become parallel (det ~ r**2), and in floats L loses
    digits.  An L past the float range raises ``OverflowError``: for a
    nonzero det, as at a tiny gamma, and where det rounds to zero, as at
    r = -1e-20."""
    (j00, j01), (j10, j11) = jacobian_limit(gamma, r)
    det = j00 * j11 - j01 * j10
    with _overflow(f"linearization matrix overflows at gamma={gamma!r}, r={r!r}"):
        return -np.array([[j11, -j01], [-j10, j00]]) / det


def estimator_cov(gamma: float, r: float, coeffs: CoefficientSequence) -> CovarianceReport:
    """Asymptotic covariance ``L S L^T`` of the standardized estimator pair,
    with ``L = -J**-1`` taken from the Jacobian limit by the 2x2 adjugate.

    Raises ``ArithmeticError`` when the kappas are not finite (a huge gamma),
    when L overflows (``linearization_matrix``'s ``OverflowError``, as at
    r = -1e-20), or when the covariance is not finite and positive definite,
    as the cancellation in ``L S L^T`` makes it at a small ``|r|`` such as
    -1e-6.  A wrong result that is still positive definite passes.
    """
    phi = phi_constants(coeffs, gamma, r)
    raw = raw_limits(gamma, r, phi)
    kappa1, kappa2, kappa3 = kappas = _centered(raw)
    if not all(map(math.isfinite, kappas)):
        raise ArithmeticError(f"kappas {kappas} are not finite at gamma={gamma!r}, r={r!r}")
    sigma = sigma_matrix(kappa1, kappa2, kappa3)
    # Not _overflow: a covariance that is not finite or not positive definite is an ArithmeticError.
    with np.errstate(all="ignore"):
        lmat = linearization_matrix(gamma, r)
        cov = lmat @ sigma @ lmat.T
        cov = 0.5 * (cov + cov.T)
    if not (np.all(np.isfinite(cov)) and np.linalg.eigvalsh(cov)[0] > 0):
        raise ArithmeticError(f"covariance L S L^T is not finite and positive definite "
                              f"at gamma={gamma!r}, r={r!r}")
    return CovarianceReport(gamma=gamma, r=r, phi=phi, raw=raw,
                            kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
                            sigma_matrix=sigma, l_matrix=lmat, estimator_cov=cov)
