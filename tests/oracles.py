"""Independent oracles used by the tests.

Everything here is deliberately written without reusing the library's
vectorized code paths: plain Python loops for the series, quadrature for the
convolution tail, a scalar root finder for the quantile inversion, and a
fine scan plus bisection for the likelihood moment root.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize


def phi_bruteforce(coeffs, gamma, r):
    """Coefficient norm and the three dependence series by nested loops."""
    c = [abs(v) for v in coeffs]
    norm = sum(v ** (1.0 / gamma) for v in c if v > 0)
    s1 = s2 = s3 = 0.0
    for j in range(1, len(c)):
        for i in range(0, len(c) - j):
            lo = min(c[i], c[i + j])
            hi = max(c[i], c[i + j])
            if lo > 0:
                s1 += lo ** (1.0 / gamma)
                s2 += hi ** (r / gamma) / lo ** ((r - 1.0) / gamma)
                s3 += lo ** (1.0 / gamma) * math.log(hi / lo)
    return norm, s1 / norm, s2 / norm, s3 / norm


def kappas_expanded(gamma, r, phi1, phi2, phi3):
    """kappa_1..kappa_3 as the paper writes them, expanded term by term.

    The library derives the same limits from its raw limits; these closed
    forms are the independent reference.
    """
    g, p1, p2, p3 = gamma, phi1, phi2, phi3
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


def linearization_expanded(gamma, r):
    """L = -J**-1 written out entry by entry.

    The library takes the same matrix from its Jacobian limit by the 2x2
    adjugate; this closed form is the independent reference.
    """
    g = gamma
    return np.array([
        [-(1.0 - r) * (1.0 + g) / (g * r), (1.0 - r) ** 2 * (1.0 + g - r) / r**2],
        [(1.0 + g) / (g * r), -(1.0 - r) ** 2 * (1.0 + g - r) / r**2],
    ])


def convolution_tail(t, c0, c1, alpha):
    """P(c0*Z0 + c1*Z1 > t) for independent Pareto(alpha) variables on [1, inf).

    Conditions on Z1 = z: the inner probability is ((t - c1*z)/c0)**-alpha
    while the argument stays above the support point, and 1 beyond it.
    """
    cut = (t - c0) / c1
    if cut <= 1.0:
        return 1.0

    def integrand(z):
        return ((t - c1 * z) / c0) ** -alpha * alpha * z ** (-alpha - 1.0)

    value, _ = integrate.quad(integrand, 1.0, cut, epsabs=1e-16, epsrel=1e-12,
                              limit=500)
    return value + cut**-alpha


def invert_three_term_tail(x, ct, alpha):
    """Solve ct1*b**-alpha + ct2*b**(-alpha-1) + ct3*b**(-alpha-2) = 1/x for b."""
    ct1, ct2, ct3 = ct

    def gap(b):
        return b**-alpha * (ct1 + ct2 / b + ct3 / b**2) - 1.0 / x

    lo, hi = 1.0, 10.0
    while gap(hi) > 0:
        hi *= 10.0
    return optimize.brentq(gap, lo, hi, xtol=1e-12, rtol=1e-14)


def moment_gap_plain(b, excesses, r):
    """Reduced moment gap and implied shape at b, as the plain expression.

    ``mean(exp((r / g) * log1p(b y))) - 1/(1 - r)`` with
    ``g = mean(log1p(b y))``, both means by ``ndarray.mean``.
    """
    logs = np.log1p(b * np.asarray(excesses, dtype=float))
    gamma_b = float(logs.mean())
    return float(np.exp((r / gamma_b) * logs).mean()) - 1.0 / (1.0 - r), gamma_b


def lme_root_scan(excesses, r, points_per_decade=40):
    """Smallest root b of the reduced likelihood moment equation.

    Scans ``b * mean(excesses)`` geometrically over ``[1e-12, 1e300]`` for the
    first sign change of ``mean((1 + b y)**(r / g(b))) - 1/(1 - r)`` with
    ``g(b) = mean(log(1 + b y))``, then bisects until the bracket stops
    shrinking.  Returns None when the scan finds no sign change.
    """
    y = np.asarray(excesses, dtype=float)
    m = y.size
    scale = math.fsum(y) / m

    def gap(b):
        logs = np.log1p(b * y)
        g = math.fsum(logs) / m
        return math.fsum(np.exp(logs * (r / g))) / m - 1.0 / (1.0 - r)

    grid = [10.0 ** (i / points_per_decade - 12.0) / scale
            for i in range(312 * points_per_decade + 1)]
    lo_negative = gap(grid[0]) < 0.0
    for lo, hi in zip(grid, grid[1:]):
        hi_negative = gap(hi) < 0.0
        if hi_negative != lo_negative:
            break
        lo_negative = hi_negative
    else:
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (gap(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid


def tail_sum_limits(coeffs, gamma, r):
    """The six raw limits of ``asymptotics.raw_limits`` from the tail-process formula.

    ``t(f, g) = sum_h sum_j int_0^inf f(|c_j| z) g(|c_{j+h}| z) alpha z**(-alpha-1) dz
    / sum_j |c_j|**alpha`` with ``f_I = 1{x>1}``, ``f_1 = log x 1{x>1}`` and
    ``f_2 = (1 - x**(r/gamma)) 1{x>1}``: one big jump drives each cluster.  Every
    ordered pair of nonzero coefficients (a, b) is integrated by quadrature in
    ``u = z**-alpha``, over ``(0, min(a, b)**alpha]`` where both arguments exceed 1.
    """
    alpha = 1.0 / gamma
    c = [abs(v) for v in coeffs if v != 0.0]
    f_i = lambda a, u: 1.0
    f_1 = lambda a, u: math.log(a) - gamma * math.log(u)
    f_2 = lambda a, u: 1.0 - a ** (r / gamma) * u**-r

    def t(f, g):
        terms = [integrate.quad(lambda u: f(a, u) * g(b, u), 0.0, min(a, b) ** alpha,
                                epsabs=0.0, epsrel=1e-13, limit=200)[0]
                 for a in c for b in c]
        return math.fsum(terms) / math.fsum(v**alpha for v in c)

    return {"t1": t(f_1, f_1), "t2": t(f_2, f_2), "tI": t(f_i, f_i),
            "t12": t(f_1, f_2), "t1I": t(f_1, f_i), "t2I": t(f_2, f_i)}
