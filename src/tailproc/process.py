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
    "apply_filter",
    "simulate",
]

TRUNCATION_TOL = 1e-12  # bound on the coefficient mass an ARMA truncation discards


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Distinct streams are statistically independent and may be consumed in any
    order, which keeps parallel replications deterministic.  Both must lie in
    ``[0, 2**64)``.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must lie in [0, 2**64)")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class InnovationModel:
    """Innovation law with exact power-law tails of index ``alpha``.

    The magnitude ``|Z|`` is Pareto on [1, inf) with survival function
    ``z**-alpha``, and ``Z`` is positive with probability ``pi1``, so
    ``P(Z > z) = pi1 * z**-alpha`` and ``P(Z < -z) = (1 - pi1) * z**-alpha``.
    The default ``pi1 = 1`` is the one-sided Pareto law.  The tail index of
    the process is ``gamma = 1/alpha``.
    """

    alpha: float = 3.0
    pi1: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 <= self.pi1 <= 1:
            raise ValueError("pi1 must lie in [0, 1]")

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

        Uniforms are mapped through ``from_uniform``; a model with ``pi1 < 1``
        draws a second uniform block for the sign, never rejection, so output
        is reproducible bit for bit across platforms.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = philox_stream(seed, stream)
        # 1 - U lies in (0, 1], keeping magnitudes finite.
        magnitudes = self.from_uniform(1.0 - rng.random(count))
        if self.pi1 == 1.0:
            return magnitudes
        signs = np.where(rng.random(count) < self.pi1, 1.0, -1.0)
        return signs * magnitudes


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

        Raises ``OverflowError`` on a sum that is not finite, ``ArithmeticError`` on a zero one.
        """
        arr = np.abs(self.as_array())
        with np.errstate(over="ignore"):
            total = float(np.sum(arr[arr > 0] ** u))
        if not math.isfinite(total):
            raise OverflowError(f"power sum of |c_j|**{u!r} overflows")
        if total == 0.0:
            raise ArithmeticError(f"power sum of |c_j|**{u!r} underflows to zero")
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


def arma_to_ma(ar, ma) -> CoefficientSequence:
    """Certified moving-average expansion of a causal ARMA recursion.

    Parameters
    ----------
    ar : sequence of float
        Autoregressive coefficients ``(phi_1, ..., phi_p)`` of
        ``X_t - phi_1 X_{t-1} - ... = Z_t + theta_1 Z_{t-1} + ...``.
    ma : sequence of float
        Moving-average coefficients ``(theta_1, ..., theta_q)``.

    Returns
    -------
    CoefficientSequence
        Truncated at the smallest lag whose certified geometric bound on the
        discarded mass ``sum_{j>J} |c_j|`` is below ``TRUNCATION_TOL``; the
        bound and the decay rate are stored.

    Raises
    ------
    ValueError
        If the autoregressive polynomial has a root of modulus <= 1 ("not
        causal").
    """
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
        if bound < TRUNCATION_TOL:
            return CoefficientSequence(tuple(coeffs), truncation_error_bound=bound,
                                       ar=tuple(ar), ma=tuple(ma), decay_u=u)


def decay_certificate(coeffs: CoefficientSequence) -> tuple[float, float]:
    """Certified pair (A, u) with ``|c_j| < A * u**-j`` at every stored lag.

    ``u`` is the stored ARMA decay rate when available and otherwise
    ``2**min(1, 256/J)`` for a sequence of order J: any value above 1
    certifies a finite sequence, and this one keeps ``u**J`` finite.
    ``A`` is the smallest constant keeping the inequality strict.

    Raises ``OverflowError`` when ``A`` is not a finite float.
    """
    arr = coeffs.as_array()
    u = coeffs.decay_u or 2.0 ** min(1.0, 256.0 / max(coeffs.order, 1))
    j = np.arange(arr.size)
    with np.errstate(over="ignore", invalid="ignore"):
        a_min = float(np.max(np.abs(arr) * u**j))
    a_cert = a_min * (1.0 + 1e-12) + float(np.finfo(float).tiny)
    if not math.isfinite(a_cert):
        raise OverflowError(f"decay certificate A of |c_j| * {u!r}**j overflows")
    return a_cert, float(u)


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
