"""Heavy-tailed innovations, moving-average coefficients, and linear process simulation.

The process model is a causal finite-order moving average
``X_t = sum_j c_j Z_{t-j}`` whose iid innovations have an exact Pareto tail.
Infinite-order (ARMA) coefficient sequences enter through a certified
geometric-decay truncation, so every simulation is an exact finite filter.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass, field

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
_CUT_SLACK = 1e-9  # relative slack of word_cut's survival: the inverse transform's rounding


def _whole(name: str, value, low: int | None = None) -> int:
    """``operator.index(value)``; a bool or any other non-integer, or one below
    ``low``, raises ``ValueError``."""
    try:
        if not isinstance(value, bool):
            value = operator.index(value)
            if low is not None and value < low:
                raise ValueError(f"{name} must be >= {low}")
            return value
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _within(name: str, value: float, low: float, high: float, *,
            low_in: bool = False, high_in: bool = False) -> None:
    """Refuse a ``value`` outside the interval from ``low`` to ``high``, NaN, None and
    other values that compare with no float included, with ``ValueError``;
    ``low_in`` and ``high_in`` put that end in the interval."""
    try:
        inside = ((low <= value if low_in else low < value)
                  and (value <= high if high_in else value < high))
    except TypeError:
        inside = False
    if not inside:
        raise ValueError(f"{name} must lie in {'[' if low_in else '('}{low}, "
                         f"{high}{']' if high_in else ')'}")


@contextlib.contextmanager
def _overflow(message: str):
    """Run the block with numpy raising on overflow and division by zero; an
    ``OverflowError`` (a float's ``**``, an int past the float range) or a
    ``FloatingPointError`` from it leaves as ``OverflowError(message)``."""
    try:
        with np.errstate(over="raise", divide="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise OverflowError(message) from None


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """Philox key of two integers in ``[0, 2**64)``; other values raise ``ValueError``."""
    key = [_whole("seed", seed), _whole("stream", stream)]
    for name, value in zip(("seed", "stream"), key):
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must lie in [0, 2**64)")
    return np.array(key, dtype=np.uint64)


def _raw_cut(survival: float) -> int:
    """Smallest Philox word ``raw`` whose ``1 - U`` lies below ``survival``.

    ``Generator.random`` gives ``U = (raw >> 11) * 2**-53``, so
    ``1 - U = (2**53 - (raw >> 11)) * 2**-53`` exactly, and
    ``1 - U < survival`` holds exactly when ``raw >= _raw_cut(survival)``.
    A cut of ``2**64`` or more flags no word; a survival above 1 flags all.
    """
    return max(2**53 + 1 - math.ceil(survival * 2.0**53), 0) << 11


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Distinct streams are statistically independent and may be consumed in any
    order, which keeps parallel replications deterministic.  Both must be
    integers in ``[0, 2**64)``.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


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
        _within("alpha", self.alpha, 0, math.inf)
        _within("pi1", self.pi1, 0, 1, low_in=True, high_in=True)

    @property
    def gamma(self) -> float:
        return 1.0 / self.alpha

    def from_uniform(self, u):
        """Inverse-transform map from a uniform draw to a magnitude.

        ``Z = u**(-1/alpha)``, so ``u`` plays the role of the survival
        probability and the exact tail ``P(Z > z) = z**-alpha`` holds.
        A ``u`` outside (0, 1] raises ``ValueError``, an overflow ``OverflowError``.
        """
        u = np.asarray(u, dtype=float)
        if u.size and not (u.min() > 0.0 and u.max() <= 1.0):
            raise ValueError("u must lie in (0, 1]")
        with _overflow(f"innovation magnitude overflows at alpha={self.alpha!r}"):
            return u ** (-1.0 / self.alpha)

    def from_words(self, words):
        """``from_uniform(1 - U)`` of raw generator words, with ``U = (raw >> 11) * 2**-53``
        as ``Generator.random`` makes it; ``1 - U`` lies in (0, 1]."""
        return self.from_uniform(1.0 - (words >> 11) * 2.0**-53)

    def word_cut(self, z: float) -> int:
        """Smallest raw word whose ``from_words`` magnitude can exceed ``z``: 0, every
        word, for ``z <= 1``, and ``2**64`` or more when no magnitude can."""
        _within("z", z, -math.inf, math.inf)
        return _raw_cut(z ** -self.alpha * (1.0 + _CUT_SLACK)) if z > 1.0 else 0

    def sample(self, count: int, seed: int, stream: int = 0) -> np.ndarray:
        """Draw ``count`` iid innovations by inverse transform only.

        The stream's words are mapped through ``from_words``; a model with
        ``pi1 < 1`` draws a uniform block for the sign after them, never
        rejection, so output is reproducible bit for bit across platforms.
        """
        _whole("count", count, 1)
        rng = philox_stream(seed, stream)
        magnitudes = self.from_words(rng.bit_generator.random_raw(count))
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
        _within("truncation_error_bound", self.truncation_error_bound, 0, math.inf, low_in=True)
        if self.decay_u is not None:
            _within("decay_u", self.decay_u, 1, math.inf)

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
        _within("u", u, 0, math.inf)
        arr = np.abs(self.as_array())
        with _overflow(f"power sum of |c_j|**{u!r} overflows"):
            total = float(np.sum(arr[arr > 0] ** u))
        if total == 0.0:
            raise ArithmeticError(f"power sum of |c_j|**{u!r} underflows to zero")
        return total


@dataclass(frozen=True)
class SimulatedPath:
    """Simulated path; ``values`` is read-only."""

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


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

    # The smallest root modulus of 1 - ar_1 z - ... - ar_p z^p.
    modulus = float(np.min(np.abs(np.roots(np.concatenate((-ar[::-1], [1.0]))))))
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
    with _overflow(f"decay certificate A of |c_j| * {u!r}**j overflows"):
        a_cert = np.max(np.abs(arr) * u**j) * (1.0 + 1e-12) + np.finfo(float).tiny
    return float(a_cert), float(u)


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
    for identical ``(seed, stream)`` and configuration.  A draw that overflows,
    as heavy tails do at a small ``alpha``, or a filter of the finite draws
    that overflows raises ``OverflowError``.
    """
    n = _whole("n", n, 1)
    values = apply_filter(coeffs, model.sample(n + coeffs.order, seed, stream))
    # np.convolve ignores numpy's error state, so _overflow cannot see this overflow.
    if not np.all(np.isfinite(values)):
        raise OverflowError("simulated path overflows: the filter of these coefficients "
                            "is not finite on the finite draws")
    return SimulatedPath(values=values)
