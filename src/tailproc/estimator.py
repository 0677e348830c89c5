"""Generalized Pareto utilities, threshold excesses, and likelihood moment fitting.

The fitted pair (shape, scale) solves the two-equation system

    mean log(1 + (shape/scale) * Y_j)            = shape
    mean (1 + (shape/scale) * Y_j)^(r/shape)     = 1 / (1 - r)

over the top-k excesses Y_j, for a fixed tuning exponent r < 0.  Substituting
the first equation into the second reduces the system to a scalar root
problem in b = shape/scale.  It is solved for the scale-free root
t = b * mean(Y) on the excesses divided by their mean: a geometric bracket
search from t = 1 followed by Brent's method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "GpdParams",
    "ExcessSample",
    "LmeEstimate",
    "LmeSolverError",
    "top_k_excesses",
    "lme_fit",
]

G_TOLERANCE = 1e-10  # accepted residual of the moment equation
ROOT_RTOL = 1e-12    # relative tolerance of the root t
T_WINDOW = (1e-12, 1e12)  # search window for t = b * mean excess
BRACKET_STEP = 8.0   # geometric step of the bracket search from t = 1


class LmeSolverError(RuntimeError):
    """The scalar moment equation has no admissible root for this sample.

    ``reason`` classifies the failure: ``"degenerate"`` (fewer than two
    distinct positive excesses), ``"no_sign_change"`` (the moment gap keeps
    one sign over the search window) or ``"residual"`` (the located root
    misses the residual gate).
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"no LME solution found: {detail}")
        self.reason = reason
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.reason, self.detail)


@dataclass(frozen=True)
class GpdParams:
    """Generalized Pareto parameters, heavy-tailed branch (gamma > 0)."""

    gamma: float
    sigma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def cdf(self, x):
        """``1 - (1 + gamma*x/sigma)**(-1/gamma)`` for x >= 0."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("x must be >= 0")
        out = -np.expm1(-np.log1p(self.gamma * x / self.sigma) / self.gamma)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        """Exact inverse of ``cdf`` on 0 <= p < 1."""
        p = np.asarray(p, dtype=float)
        if np.any((p < 0) | (p >= 1)):
            raise ValueError("p must lie in [0, 1)")
        out = self.sigma * np.expm1(-self.gamma * np.log1p(-p)) / self.gamma
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExcessSample:
    """Top-k excesses over the (k+1)th largest absolute observation.

    ``excesses`` is sorted non-increasing; with continuous data every entry is
    positive and exactly k absolute values exceed ``threshold``.
    """

    excesses: np.ndarray
    threshold: float
    k: int
    n: int

    def __post_init__(self):
        exc = np.array(self.excesses, dtype=float)
        object.__setattr__(self, "excesses", exc)
        exc.setflags(write=False)
        if exc.size != self.k:
            raise ValueError("excess count must equal k")
        if not np.all(np.isfinite(exc)):
            raise ValueError("excesses must be finite")
        if np.any(exc < 0):
            raise ValueError("excesses must be non-negative")
        if np.any(np.diff(exc) > 0):
            raise ValueError("excesses must be sorted non-increasing")
        if self.k + 1 > self.n:
            raise ValueError("k too large for the sample size")

    @classmethod
    def from_excesses(cls, excesses) -> "ExcessSample":
        """Wrap pre-computed excesses (threshold taken as 0)."""
        exc = np.sort(np.asarray(excesses, dtype=float))[::-1].copy()
        return cls(excesses=exc, threshold=0.0, k=exc.size, n=exc.size + 1)


@dataclass(frozen=True)
class LmeEstimate:
    """Fitted (shape, scale) with solver diagnostics.

    ``gamma_hat`` equals the mean of ``log(1 + b_hat * Y_j)`` by construction
    and ``sigma_hat = gamma_hat / b_hat``; ``residual`` is the final absolute
    value of the moment equation at ``b_hat``.
    """

    gamma_hat: float
    sigma_hat: float
    b_hat: float
    residual: float
    iterations: int
    r: float


def top_k_excesses(series, k: int) -> ExcessSample:
    """Extract the k largest absolute-value excesses of a series.

    The threshold is the (k+1)th largest absolute value.  Ties at the
    threshold are handled deterministically: the returned excess multiset is
    the one produced by breaking ties in original index order, which always
    contains ``count(|x| > threshold)`` positive values padded with zeros.
    """
    a = np.abs(np.asarray(series, dtype=float).ravel())
    n = a.size
    if k < 1:
        raise ValueError("k must be >= 1")
    if k + 1 > n:
        raise ValueError("k too large for the sample size")
    part = np.partition(a, n - k - 1)
    threshold = float(part[n - k - 1])
    excesses = np.sort(part[n - k :])[::-1] - threshold
    return ExcessSample(excesses=excesses, threshold=threshold, k=k, n=n)


def _moment_gap(b: float, excesses: np.ndarray, r: float) -> tuple[float, float]:
    """Value of the reduced moment equation and the implied shape at b."""
    logs = np.log1p(b * excesses)
    gamma_b = float(logs.mean())
    gap = float(np.exp((r / gamma_b) * logs).mean()) - 1.0 / (1.0 - r)
    return gap, gamma_b


def lme_fit(sample: ExcessSample, r: float) -> LmeEstimate:
    """Likelihood moment fit of (shape, scale) to threshold excesses.

    Parameters
    ----------
    sample : ExcessSample
        At least two distinct positive excesses.
    r : float
        Tuning exponent, must be negative.

    Returns
    -------
    LmeEstimate
        Root of the reduced moment equation with residual below 1e-10.  The
        root is found in ``t = b * mean_excess`` on the excesses divided by
        their mean: from ``t = 1`` the search steps by a factor of 8 toward
        the sign change, within ``[1e-12, 1e12]``, and Brent's method refines
        the bracket to relative tolerance 1e-12.  ``iterations`` counts the
        moment-gap evaluations, the final residual check included.

    Raises
    ------
    LmeSolverError
        With ``reason`` ``"degenerate"`` (for example all excesses equal),
        ``"no_sign_change"`` (no sign change in the window) or ``"residual"``
        (residual above 1e-10 at the root).
    """
    if r >= 0:
        raise ValueError("r must be negative")
    y = sample.excesses
    if sample.k < 2:
        raise ValueError("need at least two excesses")
    positive = y[y > 0]
    if positive.size < 2 or positive.max() == positive.min():
        raise LmeSolverError("degenerate", "excesses are degenerate")

    ybar = float(y.mean())
    z = y / ybar
    evaluations = 0

    def gap(t: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _moment_gap(t, z, r)[0]

    # For heavy-tailed excesses the gap is typically positive as t -> 0 and
    # tends to exp(r) - 1/(1 - r) < 0 as t -> inf, so the search steps up
    # from a non-negative gap and down from a negative one.
    t_lo, t_hi = T_WINDOW
    t_a = 1.0
    gap_a = gap(t_a)
    step = BRACKET_STEP if gap_a >= 0.0 else 1.0 / BRACKET_STEP
    while True:
        t_b = min(max(t_a * step, t_lo), t_hi)
        gap_b = gap(t_b)
        if (gap_b < 0.0) != (gap_a < 0.0):
            break
        if t_b in T_WINDOW:
            raise LmeSolverError("no_sign_change", "no sign change in bracket")
        t_a, gap_a = t_b, gap_b

    # Relative tolerance only: the root ranges over many decades.
    t_hat = brentq(gap, min(t_a, t_b), max(t_a, t_b),
                   xtol=np.finfo(float).tiny, rtol=ROOT_RTOL)
    b_hat = t_hat / ybar
    residual, gamma_hat = _moment_gap(b_hat, y, r)
    evaluations += 1
    if abs(residual) > G_TOLERANCE:
        raise LmeSolverError(
            "residual", f"residual {abs(residual):.3e} above tolerance")
    return LmeEstimate(gamma_hat=gamma_hat, sigma_hat=gamma_hat / b_hat,
                       b_hat=b_hat, residual=abs(residual),
                       iterations=evaluations, r=r)
