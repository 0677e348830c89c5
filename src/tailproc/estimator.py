"""Generalized Pareto utilities, threshold excesses, and likelihood moment fitting.

The fitted pair (shape, scale) solves the two-equation system

    mean log(1 + (shape/scale) * Y_j)            = shape
    mean (1 + (shape/scale) * Y_j)^(r/shape)     = 1 / (1 - r)

over the top-k excesses Y_j, for a fixed tuning exponent r < 0.  Substituting
the first equation into the second reduces the system to a scalar root
problem in b = shape/scale.  It is solved for the scale-free root
t = b * mean(Y) on the excesses divided by their mean: a geometric bracket
search from the probability-weighted-moment estimate of t (from t = 1 where
it does not exist) followed by Anderson-Björck regula falsi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .process import _overflow, _whole, _within

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
ROOT_XTOL = sys.float_info.min  # smallest normal double: t ranges over many decades
ROOT_MAX_ITER = 100  # regula falsi steps before the solve gives up
T_WINDOW = (1e-12, 1e300)  # search window for t = b * mean excess; keeps t * max(z) finite
BRACKET_STEP = 8.0   # geometric step of the bracket search after its first


class LmeSolverError(RuntimeError):
    """The scalar moment equation has no admissible root for this sample.

    ``reason`` classifies the failure: ``"degenerate"`` (fewer than two
    distinct positive excesses), ``"no_sign_change"`` (the moment gap keeps
    one sign over the search window) or ``"residual"`` (a gap not finite, no
    convergence, or a root not finite or above the residual gate).
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
        _within("gamma", self.gamma, 0, math.inf)
        _within("sigma", self.sigma, 0, math.inf)

    def cdf(self, x):
        """``1 - (1 + gamma*x/sigma)**(-1/gamma)`` for x >= 0."""
        x = np.asarray(x, dtype=float)
        if not np.all(x >= 0):
            raise ValueError("x must be >= 0")
        out = -np.expm1(-np.log1p(self.gamma * x / self.sigma) / self.gamma)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        """Exact inverse of ``cdf`` on 0 <= p < 1; ``OverflowError`` on a quantile
        that overflows a float."""
        p = np.asarray(p, dtype=float)
        if not np.all((p >= 0) & (p < 1)):
            raise ValueError("p must lie in [0, 1)")
        with _overflow(f"GPD quantile overflows at gamma={self.gamma!r}"):
            out = self.sigma * np.expm1(-self.gamma * np.log1p(-p)) / self.gamma
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExcessSample:
    """Top-k excesses over ``threshold`` (finite, >= 0), the (k+1)th largest absolute value.

    ``excesses`` is stored sorted non-increasing, read-only, and ``k`` is its length; with
    continuous data every entry is positive and exactly k absolute values exceed ``threshold``.
    """

    excesses: np.ndarray
    threshold: float

    def __post_init__(self):
        _within("threshold", self.threshold, 0, math.inf, low_in=True)
        exc = np.array(self.excesses, dtype=float)
        if exc.ndim != 1:
            raise ValueError("excesses must be one-dimensional")
        exc.sort()
        exc = exc[::-1].copy()
        object.__setattr__(self, "excesses", exc)
        exc.setflags(write=False)
        # The sort puts a NaN first and -inf last, so two comparisons check
        # a valid sample; only a bad one takes the passes that name its fault.
        if exc.size and not (exc[0] < math.inf and exc[-1] >= 0):
            if not np.all(np.isfinite(exc)):
                raise ValueError("excesses must be finite")
            raise ValueError("excesses must be non-negative")

    @property
    def k(self) -> int:
        return self.excesses.size

    @classmethod
    def from_excesses(cls, excesses) -> "ExcessSample":
        """Wrap pre-computed excesses, in any order (threshold taken as 0)."""
        return cls(excesses=excesses, threshold=0.0)


@dataclass(frozen=True)
class LmeEstimate:
    """Fitted (shape, scale) with solver diagnostics.

    ``gamma_hat`` equals the mean of ``log(1 + b_hat * Y_j)`` by construction
    and ``sigma_hat = gamma_hat / b_hat``; ``residual`` is the absolute value
    of the moment equation at the root ``t_hat = b_hat * mean(Y)``.  Both are
    those of the evaluation at ``t_hat`` on the excesses divided by their
    mean.
    """

    gamma_hat: float
    sigma_hat: float
    b_hat: float
    residual: float
    iterations: int


def top_k_excesses(series, k: int) -> ExcessSample:
    """Extract the k largest absolute-value excesses of a series.

    The threshold is the (k+1)th largest absolute value.  Ties at the
    threshold are handled deterministically: the returned excess multiset is
    the one produced by breaking ties in original index order, which always
    contains ``count(|x| > threshold)`` positive values padded with zeros.
    ``ExcessSample`` sorts them; subtracting the threshold first keeps the same bits.
    ``k`` must be an integer (``ValueError``).
    """
    a = np.abs(np.asarray(series, dtype=float).ravel())
    n = a.size
    k = _whole("k", k, 1)
    if k + 1 > n:
        raise ValueError("k too large for the sample size")
    part = np.partition(a, n - k - 1)
    threshold = float(part[n - k - 1])
    return ExcessSample(excesses=part[n - k :] - threshold, threshold=threshold)


def _moment_gap(b: float, excesses: np.ndarray, r: float) -> tuple[float, float]:
    """Value of the reduced moment equation and the implied shape at b."""
    # The same bits as the two ``.mean()`` of the plain expression, with the
    # power term computed in place on the log array.
    logs = np.log1p(b * excesses)
    gamma_b = float(np.add.reduce(logs) / logs.size)
    logs *= r / gamma_b
    np.exp(logs, out=logs)
    gap = float(np.add.reduce(logs) / logs.size) - 1.0 / (1.0 - r)
    return gap, gamma_b


def _bracketed_root(f, a: float, b: float) -> float:
    """Root of ``f`` in ``[a, b]``, for ``f(a)`` and ``f(b)`` of opposite signs, by
    Anderson-Björck regula falsi (BIT 13 (1973) 253) with Brent's minimum step and
    step-length rule: a secant step longer than the step two steps earlier (both start
    at ``|b - a|``) bisects instead, so a stale far end cannot stall the solve.

    Calls ``f`` at both ends first and returns a point where it called ``f``, within
    ``ROOT_XTOL + ROOT_RTOL * |t|`` of a sign change.  Raises ``LmeSolverError("residual")``
    on a value of ``f`` that is not finite and after ``ROOT_MAX_ITER`` steps.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    last = before_last = abs(b - a)  # lengths of the last two steps
    for _ in range(ROOT_MAX_ITER):
        if not (math.isfinite(fa) and math.isfinite(fb)):
            raise LmeSolverError("residual", f"moment gap {fa}, {fb} at t = {a}, {b}")
        delta = (ROOT_XTOL + ROOT_RTOL * abs(b)) / 2.0
        if fb == 0.0 or abs(b - a) <= 2.0 * delta:
            return b
        c = b - fb * (b - a) / (fb - fa)
        if abs(c - b) < delta:
            c = b + math.copysign(delta, a - b)
        elif not min(a, b) < c < max(a, b) or abs(c - b) > before_last:
            c = 0.5 * (a + b)
        last, before_last = abs(c - b), last
        fc = f(c)
        if (fc < 0.0) == (fb < 0.0):
            m = 1.0 - fc / fb
            fa *= m if m > 0.0 else 0.5
        else:
            a, fa = b, fb
        b, fb = c, fc
    raise LmeSolverError("residual", f"no convergence in {ROOT_MAX_ITER} regula falsi steps")


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
        their mean.  The search starts at the probability-weighted-moment
        estimate of t (Hosking and Wallis 1987), or at ``t = 1`` where that
        estimate is not positive, as for shape at or above one.  It steps
        toward the sign change, first by a factor of ``1 + 4/sqrt(k)`` and
        then by 8, within ``[1e-12, 1e300]``, and Anderson-Björck regula
        falsi refines the bracket to relative tolerance 1e-12.  It is written
        here because importing ``scipy.optimize`` takes a process holding
        numpy and this package from 32 to 76 MB of peak memory, in 0.5 s.
        One cache of moment gaps by t serves the bracket search and the root
        step, which finds its bracket ends there.  ``iterations`` counts the
        distinct evaluations, and the residual and ``gamma_hat`` are those of
        the evaluation at the root.

    Raises
    ------
    LmeSolverError
        With ``reason`` ``"degenerate"`` (for example all excesses equal),
        ``"no_sign_change"`` (no sign change in the window) or ``"residual"``
        (a moment gap or the residual not finite, residual above 1e-10,
        ``b_hat`` not finite, or no convergence in 100 regula falsi steps).
    """
    _within("r", r, -math.inf, 0)
    y = sample.excesses
    if sample.k < 2:
        raise ValueError("need at least two excesses")
    # Sorted non-increasing, so the positive excesses are the first m.
    m = int(np.count_nonzero(y > 0))
    if m < 2 or y[0] == y[m - 1]:
        raise LmeSolverError("degenerate", "excesses are degenerate")

    # The excesses are first divided by the largest power of two at most
    # max(y[0], 1): their sum stays finite, and the division is exact (bar
    # excesses 2**1022 times below the largest), so a finite sum keeps its bits.
    scale = math.ldexp(1.0, max(math.frexp(y[0])[1] - 1, 0))
    z = y / scale
    zbar = float(z.mean())
    z /= zbar
    ybar = zbar * scale
    evaluations = {}

    def gap(t: float) -> float:
        if t not in evaluations:
            evaluations[t] = _moment_gap(t, z, r)
        return evaluations[t][0]

    # Start at the probability-weighted-moment estimate of t (Hosking and
    # Wallis 1987): with z sorted non-increasing, 1 - p = (i + 0.35) / k is
    # the plotting position of z[i], and t_pwm = mean(z) / (2 a1) - 2 with
    # mean(z) one.  It exists for shape below one; otherwise start at t = 1.
    # For heavy-tailed excesses the gap is typically positive as t -> 0 and
    # tends to exp(r) - 1/(1 - r) < 0 as t -> inf, so the search steps up
    # from a non-negative gap and down from a negative one: first by a factor
    # of 1 + 4/sqrt(k), the scale of the start's error, then by 8.
    k = sample.k
    t_lo, t_hi = T_WINDOW
    a1 = float(np.dot(np.arange(0.35, k), z)) / k**2
    t_pwm = 1.0 / (2.0 * a1) - 2.0
    t_a = min(max(t_pwm, t_lo), t_hi) if t_pwm > 0.0 else 1.0
    up = gap(t_a) >= 0.0
    step = 1.0 + 4.0 / math.sqrt(k)
    while True:
        t_b = min(max(t_a * step if up else t_a / step, t_lo), t_hi)
        if (gap(t_b) < 0.0) != (gap(t_a) < 0.0):
            break
        if t_b in T_WINDOW:
            raise LmeSolverError("no_sign_change", "no sign change in bracket")
        t_a, step = t_b, BRACKET_STEP

    # The root step returns a point it has evaluated, so the residual and
    # the shape at the root are those of that evaluation.
    t_hat = _bracketed_root(gap, min(t_a, t_b), max(t_a, t_b))
    residual, gamma_hat = evaluations[t_hat]
    b_hat = t_hat / ybar
    if not np.isfinite(b_hat):
        raise LmeSolverError("residual", f"b_hat {b_hat} is not finite")
    if not abs(residual) <= G_TOLERANCE:
        raise LmeSolverError(
            "residual", f"residual {abs(residual):.3e} above tolerance")
    return LmeEstimate(gamma_hat=gamma_hat, sigma_hat=gamma_hat / b_hat,
                       b_hat=b_hat, residual=abs(residual),
                       iterations=len(evaluations))
