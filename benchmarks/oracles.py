"""Oracles written apart from tailproc.

Nothing here imports the package under test.  The series are plain Python
loops, the likelihood moment root comes from ``scipy.optimize.brentq`` on a
residual evaluated here, and the centering uses the three-term tail and
quantile formulas of the paper written out again.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


def phi_double_loop(coeffs, gamma: float, r: float) -> tuple[float, float, float, float]:
    """Coefficient norm and phi_1..phi_3 by a double loop over lag pairs."""
    c = [abs(float(v)) for v in coeffs]
    p = 1.0 / gamma
    norm = math.fsum(v**p for v in c if v > 0)
    s1, s2, s3 = [], [], []
    for j in range(1, len(c)):
        for i in range(len(c) - j):
            lo, hi = min(c[i], c[i + j]), max(c[i], c[i + j])
            if lo > 0:
                s1.append(lo**p)
                s2.append(hi ** (r / gamma) / lo ** ((r - 1.0) / gamma))
                s3.append(lo**p * math.log(hi / lo))
    return norm, math.fsum(s1) / norm, math.fsum(s2) / norm, math.fsum(s3) / norm


def power_sum(coeffs, u: float) -> float:
    """``C_u = sum c_j**u`` over the positive coefficients."""
    return math.fsum(float(v) ** u for v in coeffs if v > 0)


def pareto_moments(alpha: float, variance: float | None = None) -> tuple[float, float]:
    """Mean and variance of the Pareto law ``P(Z > z) = z**-alpha`` on [1, inf).

    ``variance``, when given, replaces the variance, so that the formulas
    below can also be evaluated as a program using another variance would.
    """
    s2 = alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0)) if variance is None else variance
    return alpha / (alpha - 1.0), s2


def tail_coefficients(alpha: float, coeffs, variance: float | None = None) -> tuple[float, float, float]:
    """``(ct1, ct2, ct3)`` of ``P(X > t) ~ ct1 t^-a + ct2 t^(-a-1) + ct3 t^(-a-2)``."""
    mu, s2 = pareto_moments(alpha, variance)
    c1, c2 = power_sum(coeffs, 1.0), power_sum(coeffs, 2.0)
    ca, ca1, ca2 = (power_sum(coeffs, alpha + d) for d in (0.0, 1.0, 2.0))
    ct2 = alpha * mu * (c1 * ca - ca1)
    ct3 = alpha * (alpha + 1.0) / 2.0 * (
        (c2 * ca - ca2) * s2 + (c1 * c1 * ca - 2.0 * c1 * ca1 + ca2) * mu * mu)
    return ca, ct2, ct3


def quantile_coefficients(alpha: float, ct) -> tuple[float, float, float]:
    """``(a1, a2, a3)`` of ``b(x) = a1 x^(1/a) + a2 + a3 x^(-1/a)``, the inverse of the tail."""
    ct1, ct2, ct3 = ct
    a1 = ct1 ** (1.0 / alpha)
    a2 = ct2 / (alpha * ct1)
    a3 = -ct1 ** (-1.0 / alpha - 2.0) * ((1.0 + alpha) * ct2**2 / (2.0 * alpha) - ct1 * ct3) / alpha
    return a1, a2, a3


def centering_scale(alpha: float, coeffs, n: int, k: int, variance: float | None = None) -> float:
    """``gamma * b(n/k)`` from the three-term quantile expansion."""
    a1, a2, a3 = quantile_coefficients(alpha, tail_coefficients(alpha, coeffs, variance))
    x = n / k
    return (a1 * x ** (1.0 / alpha) + a2 + a3 * x ** (-1.0 / alpha)) / alpha


def moment_residuals(excesses, gamma: float, sigma: float, r: float) -> tuple[float, float]:
    """Residuals of the two likelihood moment equations at ``(gamma, sigma)``.

    ``mean log(1 + gamma/sigma Y) - gamma`` and
    ``mean (1 + gamma/sigma Y)^(r/gamma) - 1/(1 - r)``.
    """
    b = gamma / sigma
    logs = [math.log1p(b * float(y)) for y in excesses]
    m = len(logs)
    eq1 = math.fsum(logs) / m - gamma
    eq2 = math.fsum(math.exp(r / gamma * v) for v in logs) / m - 1.0 / (1.0 - r)
    return eq1, eq2


def _reduced_gap(b: float, y: np.ndarray, r: float) -> float:
    logs = np.log1p(b * y)
    gamma_b = math.fsum(logs) / y.size
    return math.fsum(np.exp(r / gamma_b * logs)) / y.size - 1.0 / (1.0 - r)


def lme_brentq(excesses, r: float) -> tuple[float, float]:
    """``(gamma, sigma)`` from the smallest sign change of the reduced equation.

    ``b = gamma/sigma`` is bracketed by doubling from ``2**-45 / mean(Y)``
    and refined by ``brentq``; ``gamma = mean log(1 + b Y)``.
    """
    y = np.asarray(excesses, dtype=float)
    b = 2.0**-45 / float(np.mean(y))
    gap = _reduced_gap(b, y, r)
    for _ in range(90):
        nxt = 2.0 * b
        gap_next = _reduced_gap(nxt, y, r)
        if (gap < 0.0) != (gap_next < 0.0):
            root = brentq(_reduced_gap, b, nxt, args=(y, r), xtol=1e-300, rtol=1e-15)
            gamma = math.fsum(np.log1p(root * y)) / y.size
            return gamma, gamma / root
        b, gap = nxt, gap_next
    raise ArithmeticError("no sign change of the reduced moment equation")


def gpd_quantile(u, gamma: float, sigma: float) -> np.ndarray:
    """Generalized Pareto quantile ``sigma ((1 - u)^-gamma - 1) / gamma``."""
    return sigma * ((1.0 - np.asarray(u, dtype=float)) ** -gamma - 1.0) / gamma


def arma_coefficients(ar, ma, count: int) -> list[float]:
    """First ``count`` coefficients of ``c_j = theta_j + sum_i phi_i c_{j-i}``."""
    c = [1.0]
    for j in range(1, count):
        theta = ma[j - 1] if j <= len(ma) else 0.0
        c.append(theta + math.fsum(ar[i - 1] * c[j - i] for i in range(1, min(j, len(ar)) + 1)))
    return c


def arma_discarded_mass(ar, ma, order: int, power: float = 1.0) -> float:
    """``sum_{j > order} |c_j|**power``, summed until the terms underflow."""
    c = arma_coefficients(ar, ma, order + 1)
    tail = []
    j = order
    while True:
        j += 1
        theta = ma[j - 1] if j <= len(ma) else 0.0
        c.append(theta + math.fsum(ar[i - 1] * c[j - i] for i in range(1, min(j, len(ar)) + 1)))
        term = abs(c[-1]) ** power
        tail.append(term)
        if j > order + len(ar) + len(ma) + 50 and max(abs(v) for v in c[-len(ar) - 1:]) < 1e-300:
            return math.fsum(tail)
