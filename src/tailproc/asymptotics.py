"""Closed-form asymptotic covariance of the likelihood moment estimator pair.

For a linear process with coefficient sequence c and tail index gamma, the
standardized fitted pair is asymptotically bivariate normal with covariance
``L S L^T``.  ``S`` collects the limits kappa_1..kappa_3 of the centered tail
sum variances and covariance; serial dependence enters only through the three
coefficient series phi_1..phi_3 below, all zero in the iid case.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .process import CoefficientSequence, decay_certificate, lag_pairs

__all__ = [
    "PhiConstants",
    "RawLimits",
    "CovarianceReport",
    "coefficient_norm",
    "phi_constants",
    "raw_limits",
    "kappas",
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
    gamma: float
    r: float
    truncation_error: float = 0.0


@dataclass(frozen=True)
class RawLimits:
    """Limits of the scaled variances and covariances of the tail sums.

    t1, t2, tI are the variance limits of the two transformed sums and the
    exceedance count; t12, t1I, t2I the covariance limits.  beta1p and beta2p
    are the centering weights, beta1 and beta2 the mean limits used for
    centering the Monte Carlo statistics.
    """

    t1: float
    t2: float
    tI: float
    t12: float
    t1I: float
    t2I: float
    beta1p: float
    beta2p: float
    beta1: float
    beta2: float


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
        # The phi block carries the report's own gamma and r, so merging it
        # keeps them first: gamma, r, norm_c, phi1..phi3, truncation_error.
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
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if r >= 0:
        raise ValueError("r must be negative")


def coefficient_norm(coeffs: CoefficientSequence, gamma: float) -> tuple[float, float]:
    """``sum |c_k|**(1/gamma)`` over the stored support with a tail bound.

    Returns (value, truncation_error) where the error term bounds the
    discarded mass via the geometric decay certificate; it is zero for
    explicitly given (exact) sequences.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    p = 1.0 / gamma
    value = coeffs.power_sum(p)
    if coeffs.truncation_error_bound == 0.0:
        return value, 0.0
    a_cert, u_cert = decay_certificate(coeffs)
    j_last = coeffs.order
    tail = a_cert**p * u_cert ** (-p * (j_last + 1)) / (1.0 - u_cert**-p)
    return value, float(tail)


def phi_constants(coeffs: CoefficientSequence, gamma: float, r: float) -> PhiConstants:
    """Dependence constants phi_1..phi_3 by direct double summation.

    phi_1 sums ``min**(1/gamma)`` over all lag pairs, phi_2 sums
    ``max**(r/gamma) / min**((r-1)/gamma)`` and phi_3 sums
    ``min**(1/gamma) * log(max/min)``, each over pairs with both coefficients
    nonzero and divided by the coefficient norm.  The phi_2 term is evaluated
    as ``min**(1/gamma) * (min/max)**(-r/gamma)``, whose factors cannot
    overflow once the norm is finite.
    """
    _check_domain(gamma, r)
    norm, trunc = coefficient_norm(coeffs, gamma)
    s1 = s2 = s3 = 0.0
    for lo, hi in lag_pairs(coeffs):
        w = lo ** (1.0 / gamma)
        s1 += float(np.sum(w))
        s2 += float(np.sum(w * (lo / hi) ** (-r / gamma)))
        s3 += float(np.sum(w * np.log(hi / lo)))
    return PhiConstants(norm_c=norm, phi1=s1 / norm, phi2=s2 / norm,
                        phi3=s3 / norm, gamma=gamma, r=r, truncation_error=trunc)


def raw_limits(gamma: float, r: float, phi: PhiConstants) -> RawLimits:
    """The six variance and covariance limits of the scaled tail sums."""
    _check_domain(gamma, r)
    g, p1, p2, p3 = gamma, phi.phi1, phi.phi2, phi.phi3
    t1 = 2.0 * g * (g + 2.0 * g * p1 + p3)
    t2 = -2.0 * r * (-r + (1.0 - 2.0 * r) * p1 - p2) / ((1.0 - r) * (1.0 - 2.0 * r))
    tI = 1.0 + 2.0 * p1
    t12 = (-g * r * (2.0 - r) + (2.0 * r**2 - 4.0 * r + 1.0) * g * p1
           - g * p2 - r * (1.0 - r) * p3) / (1.0 - r) ** 2
    t1I = g + 2.0 * g * p1 + p3
    t2I = (-r + (1.0 - 2.0 * r) * p1 - p2) / (1.0 - r)
    return RawLimits(t1=t1, t2=t2, tI=tI, t12=t12, t1I=t1I, t2I=t2I,
                     beta1p=g / (g + 1.0), beta2p=-r / (1.0 - r + g),
                     beta1=g, beta2=-r / (1.0 - r))


def kappas(gamma: float, r: float, phi: PhiConstants) -> tuple[float, float, float]:
    """Variance and covariance limits of the centered tail sums.

    Evaluated term by term exactly as the closed forms are written, with the
    phi-free and phi-weighted groups combined last to limit cancellation.
    """
    _check_domain(gamma, r)
    g, p1, p2, p3 = gamma, phi.phi1, phi.phi2, phi.phi3

    kappa1 = ((1.0 + 2.0 * p1) * g**2 * (2.0 * g**2 + 2.0 * g + 1.0)
              + 2.0 * g**2 * (g + 1.0) * p3) / (g + 1.0) ** 2

    kappa2 = (-2.0 * g * r * (g + 1.0) * (-r + p1 * (1.0 - 2.0 * r) - p2)
              + r**2 * (1.0 - r) * (1.0 + 2.0 * p2)) \
        / ((1.0 - r) * (1.0 - 2.0 * r) * (1.0 - r + g) ** 2)

    term0 = -g * r * ((2.0 - r) * (g**2 + g + 1.0) - 1.0) \
        / ((1.0 - r) ** 2 * (1.0 + g) * (1.0 - r + g))
    term1 = -g * (2.0 * r * (2.0 - r) * (g**2 + g + 1.0)
                  - (g**2 + g + 3.0 * r - r**2)) \
        / ((1.0 - r) ** 2 * (1.0 + g) * (1.0 - r + g)) * p1
    term2 = -g * (g + r) / ((1.0 - r) ** 2 * (1.0 + g)) * p2
    term3 = -g * r / ((1.0 - r) * (1.0 - r + g)) * p3
    kappa3 = term0 + (term1 + term2 + term3)

    return kappa1, kappa2, kappa3


def sigma_matrix(kappa1: float, kappa2: float, kappa3: float) -> np.ndarray:
    """Limit covariance of the two centered tail sum statistics."""
    if kappa1 < 0 or kappa2 < 0:
        raise ValueError("kappa1 and kappa2 must be non-negative")
    return np.array([[kappa1, -kappa3], [-kappa3, kappa2]])


def jacobian_limit(gamma: float, r: float) -> np.ndarray:
    """Probability limit of the Jacobian of the estimating-equation system."""
    _check_domain(gamma, r)
    g = gamma
    return np.array([
        [-g / (1.0 + g), -g / (1.0 + g)],
        [-r / ((1.0 - r) ** 2 * (1.0 + g - r)), -r / ((1.0 - r) * (1.0 + g - r))],
    ])


def linearization_matrix(gamma: float, r: float) -> np.ndarray:
    """Matrix mapping the tail sum limit to the estimator pair limit.

    Equals the negated inverse of ``jacobian_limit``, which is non-singular
    for every gamma > 0, r < 0.
    """
    _check_domain(gamma, r)
    g = gamma
    return np.array([
        [-(1.0 - r) * (1.0 + g) / (g * r), (1.0 - r) ** 2 * (1.0 + g - r) / r**2],
        [(1.0 + g) / (g * r), -(1.0 - r) ** 2 * (1.0 + g - r) / r**2],
    ])


def estimator_cov(gamma: float, r: float, coeffs: CoefficientSequence) -> CovarianceReport:
    """Asymptotic covariance ``L S L^T`` of the standardized estimator pair."""
    _check_domain(gamma, r)
    phi = phi_constants(coeffs, gamma, r)
    raw = raw_limits(gamma, r, phi)
    kappa1, kappa2, kappa3 = kappas(gamma, r, phi)
    sigma = sigma_matrix(kappa1, kappa2, kappa3)
    lmat = linearization_matrix(gamma, r)
    cov = lmat @ sigma @ lmat.T
    cov = 0.5 * (cov + cov.T)
    return CovarianceReport(gamma=gamma, r=r, phi=phi, raw=raw,
                            kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
                            sigma_matrix=sigma, l_matrix=lmat, estimator_cov=cov)
