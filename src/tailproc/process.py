"""Heavy-tailed innovations, moving-average coefficients, and linear process simulation.

The process model is a causal finite-order moving average
``X_t = sum_j c_j Z_{t-j}`` whose iid innovations have an exact Pareto tail.
Infinite-order (ARMA) coefficient sequences enter through a certified
geometric-decay truncation, so every simulation is an exact finite filter.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, field

import numpy as np

__all__ = [
    "InnovationModel",
    "CoefficientSequence",
    "SimulatedPath",
    "philox_stream",
    "arma_to_ma",
    "decay_certificate",
    "pairwise_dependence_sum",
    "apply_filter",
    "simulate",
]


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Distinct streams are statistically independent and may be consumed in any
    order, which keeps parallel replications deterministic.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class InnovationModel:
    """Innovation law with exact power-law tails of index ``alpha``.

    ``one_sided_pareto`` is supported on [1, inf) with survival function
    ``z**-alpha``.  ``two_sided_pareto`` puts the same magnitude law on both
    signs with weights ``(pi1, pi2)``.  The tail index of the process is
    ``gamma = 1/alpha``.
    """

    kind: str = "one_sided_pareto"
    alpha: float = 3.0
    pi1: float = 0.5
    pi2: float = 0.5

    def __post_init__(self):
        if self.kind not in ("one_sided_pareto", "two_sided_pareto"):
            raise ValueError(f"unknown innovation kind: {self.kind!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.kind == "two_sided_pareto":
            if self.pi1 < 0 or self.pi2 < 0:
                raise ValueError("tail weights must be non-negative")
            if abs(self.pi1 + self.pi2 - 1.0) > 1e-12:
                raise ValueError("tail weights must sum to one")

    @property
    def gamma(self) -> float:
        return 1.0 / self.alpha

    def from_uniform(self, u):
        """Inverse-transform map from a uniform draw to a magnitude.

        ``Z = u**(-1/alpha)``, so ``u`` plays the role of the survival
        probability and the exact tail ``P(Z > z) = z**-alpha`` holds.
        """
        return np.asarray(u, dtype=float) ** (-1.0 / self.alpha)

    def sample(self, count: int, seed: int, stream: int = 0) -> np.ndarray:
        """Draw ``count`` iid innovations by inverse transform only.

        Uniforms are mapped through ``from_uniform``; the two-sided model uses
        a second uniform block for the sign, never rejection, so output is
        reproducible bit for bit across platforms.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = philox_stream(seed, stream)
        # 1 - U lies in (0, 1], keeping magnitudes finite.
        magnitudes = self.from_uniform(1.0 - rng.random(count))
        if self.kind == "one_sided_pareto":
            return magnitudes
        signs = np.where(rng.random(count) < self.pi1, 1.0, -1.0)
        return signs * magnitudes

    def moments(self) -> tuple[float, float]:
        """Mean and variance of a one-sided Pareto innovation.

        Returns ``(alpha/(alpha-1), alpha/((alpha-1)(alpha-2)))``, requiring
        ``alpha > 2`` so both exist.
        """
        if self.kind != "one_sided_pareto":
            raise ValueError("moments require the one-sided Pareto model")
        if self.alpha <= 2:
            raise ValueError("moment does not exist for alpha <= 2")
        a = self.alpha
        return a / (a - 1.0), a / ((a - 1.0) * (a - 2.0))


@dataclass(frozen=True)
class CoefficientSequence:
    """Finite moving-average coefficients with a geometric-decay certificate.

    ``truncation_error_bound`` bounds the absolute coefficient mass discarded
    by an ARMA truncation (zero for explicitly given sequences).  ``decay_u``
    is the geometric rate backing the certificate ``|c_j| < A * u**-j``; for
    ARMA-derived sequences it is the square root of the smallest
    autoregressive root modulus.
    """

    coeffs: tuple[float, ...]
    truncation_error_bound: float = 0.0
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    decay_u: float | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        arr = np.asarray(self.coeffs)
        if arr.size == 0 or not np.any(arr != 0.0):
            raise ValueError("degenerate coefficients: all zero")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        if self.truncation_error_bound < 0:
            raise ValueError("truncation_error_bound must be >= 0")

    @property
    def order(self) -> int:
        """Largest lag J carrying a stored coefficient."""
        return len(self.coeffs) - 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def power_sum(self, u: float) -> float:
        """``sum_j |c_j|**u`` over the nonzero coefficients.

        Raises ``OverflowError`` when the sum is not a finite float.
        """
        arr = np.abs(self.as_array())
        with np.errstate(over="ignore"):
            total = float(np.sum(arr[arr > 0] ** u))
        if not math.isfinite(total):
            raise OverflowError(f"power sum of |c_j|**{u!r} overflows")
        return total


@dataclass(frozen=True)
class SimulatedPath:
    """Simulated path with the seed and a fingerprint of its configuration."""

    values: np.ndarray
    seed: int
    stream: int
    fingerprint: str

    def __post_init__(self):
        self.values.setflags(write=False)


def _ar_roots(ar: np.ndarray) -> np.ndarray:
    """Roots of 1 - ar_1 z - ... - ar_p z^p."""
    return np.roots(np.concatenate((-ar[::-1], [1.0])))


def arma_to_ma(ar, ma, tol: float = 1e-12) -> CoefficientSequence:
    """Certified moving-average expansion of a causal ARMA recursion.

    Parameters
    ----------
    ar : sequence of float
        Autoregressive coefficients ``(phi_1, ..., phi_p)`` of
        ``X_t - phi_1 X_{t-1} - ... = Z_t + theta_1 Z_{t-1} + ...``.
    ma : sequence of float
        Moving-average coefficients ``(theta_1, ..., theta_q)``.
    tol : float
        Bound required of the discarded coefficient mass ``sum_{j>J} |c_j|``.

    Returns
    -------
    CoefficientSequence
        Truncated at the smallest lag whose certified geometric tail bound is
        below ``tol``; the bound and the decay rate are stored.

    Raises
    ------
    ValueError
        If the autoregressive polynomial has a root of modulus <= 1 ("not
        causal") or ``tol`` is not positive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ar = np.asarray(ar, dtype=float).ravel()
    ma = np.asarray(ma, dtype=float).ravel()
    p, q = ar.size, ma.size

    if p == 0:
        coeffs = np.concatenate(([1.0], ma))
        return CoefficientSequence(tuple(coeffs), ar=tuple(ar), ma=tuple(ma))

    modulus = float(np.min(np.abs(_ar_roots(ar))))
    if modulus <= 1.0 + 1e-12:
        raise ValueError("not causal: autoregressive root on or inside the unit circle")

    # c_j = theta_j + sum_i phi_i c_{j-i}.  Certify at u = sqrt(modulus),
    # strictly inside (1, modulus): A = sup |c_j| u^j is then finite, for
    # repeated roots too, and the geometric remainder A u^{-J} / (u - 1)
    # certifies the discarded mass.  u^j overflows long before |c_j| u^j
    # does, so A is tracked in logs.  The sup is declared stable once it has
    # not grown for `window` lags.
    u = math.sqrt(modulus)
    log_u = math.log(u)
    window = 20
    max_terms = 200_000
    coeffs = [1.0]
    log_amp = 0.0
    last_growth = 0
    j = 0
    while True:
        j += 1
        if j > max_terms:
            raise ValueError("truncation did not converge; root too close to the unit circle")
        theta_j = ma[j - 1] if j <= q else 0.0
        c_j = theta_j + float(np.dot(ar[: min(j, p)], coeffs[-1 : -min(j, p) - 1 : -1]))
        coeffs.append(c_j)
        scaled = math.log(abs(c_j)) + j * log_u if c_j != 0.0 else -math.inf
        if scaled > log_amp:
            log_amp = scaled
            last_growth = j
        if j < max(p, q) + window or j - last_growth < window:
            continue
        bound = math.exp(log_amp - j * log_u) * (1.0 + 1e-9) / (u - 1.0)
        if bound < tol:
            return CoefficientSequence(tuple(coeffs), truncation_error_bound=bound,
                                       ar=tuple(ar), ma=tuple(ma), decay_u=u)


def decay_certificate(coeffs: CoefficientSequence, u: float | None = None) -> tuple[float, float]:
    """Certified pair (A, u) with ``|c_j| < A * u**-j`` at every stored lag.

    ``u`` defaults to the stored ARMA decay rate when available and
    otherwise to ``2**min(1, 256/J)`` for a sequence of order J: any value
    above 1 certifies a finite sequence, and this one keeps ``u**J`` finite.
    ``A`` is the smallest constant keeping the inequality strict.
    """
    arr = coeffs.as_array()
    if u is None:
        u = coeffs.decay_u or 2.0 ** min(1.0, 256.0 / max(coeffs.order, 1))
    if not u > 1.0:
        raise ValueError("u must exceed 1")
    j = np.arange(arr.size)
    a_min = float(np.max(np.abs(arr) * u**j))
    return float(a_min * (1.0 + 1e-12) + np.finfo(float).tiny), float(u)


def lag_pairs(coeffs: CoefficientSequence):
    """Yield ``(lo, hi)`` for every lag ``j >= 1`` with a nonzero pair.

    ``lo`` and ``hi`` are the elementwise min and max of ``|c_i|`` and
    ``|c_{i+j}|`` over the indices i where both are nonzero; lags without
    such a pair are skipped.
    """
    arr = np.abs(coeffs.as_array())
    for j in range(1, arr.size):
        lead, lag = arr[:-j], arr[j:]
        both = (lead > 0) & (lag > 0)
        if np.any(both):
            yield np.minimum(lead[both], lag[both]), np.maximum(lead[both], lag[both])


def pairwise_dependence_sum(coeffs: CoefficientSequence, gamma: float) -> float:
    """Cross-lag summability diagnostic of the coefficient sequence.

    Computes ``sum_{j>=1} sum_{i>=0} (|c_i| ^ |c_{i+j}|)^(1/gamma) *
    log(max/min)`` over pairs with both coefficients nonzero, by direct double
    summation over the stored support.  Finite sequences always give a finite
    value; it is reported so the magnitude of serial dependence can be judged.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    total = 0.0
    for lo, hi in lag_pairs(coeffs):
        total += float(np.sum(lo ** (1.0 / gamma) * np.log(hi / lo)))
    return total


def apply_filter(coeffs: CoefficientSequence, innovations) -> np.ndarray:
    """Exact moving-average filter ``X_t = sum_j c_j Z_{t-j}``.

    ``innovations`` supplies ``n + J`` values ``Z_{1-J}, ..., Z_n`` and the
    result has length ``n``.
    """
    z = np.asarray(innovations, dtype=float)
    c = coeffs.as_array()
    j = c.size - 1
    if z.size <= j:
        raise ValueError("need more innovations than the filter order")
    if j == 0:
        return c[0] * z
    return np.convolve(z, c)[j : z.size]


def simulate(coeffs: CoefficientSequence, model: InnovationModel, n: int,
             seed: int, stream: int = 0) -> SimulatedPath:
    """Simulate ``n`` values of the stationary moving average.

    Draws ``n + J`` innovations from the keyed stream and applies the exact
    finite filter, so the path is stationary by construction and bit-identical
    for identical ``(seed, stream)`` and configuration.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = model.sample(n + coeffs.order, seed, stream)
    values = apply_filter(coeffs, z)
    return SimulatedPath(values=values, seed=seed, stream=stream,
                         fingerprint=config_fingerprint(coeffs, model, n))


def config_fingerprint(coeffs: CoefficientSequence, model: InnovationModel, n: int) -> str:
    """Stable hash of (coefficients, innovation model, length)."""
    payload = repr((coeffs.coeffs, *astuple(model), int(n)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
