"""Monte Carlo validation of the bivariate normal limit of the fitted pair.

Each replication simulates a path, extracts the top-k excesses, fits the
likelihood moment estimator, and standardizes the result as
``(sqrt(k) (gamma_hat - gamma), sqrt(k) (sigma_hat / sigma(n/k) - 1))`` with
``sigma(n/k) = gamma * b(n/k)`` taken from the three-term quantile expansion.
The empirical moments and normality diagnostics of the standardized pairs are
compared against the closed-form covariance.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import asymptotics, second_order
from .estimator import ExcessSample, GpdParams, LmeSolverError, lme_fit, top_k_excesses
from .process import CoefficientSequence, InnovationModel, apply_filter, philox_stream

__all__ = [
    "ExperimentConfig",
    "ReplicationRecord",
    "NormalityDiagnostics",
    "ValidationReport",
    "sigma_nk",
    "run_replication",
    "run_experiment",
    "empirical_cov",
    "normality_diagnostics",
]

FAILURE_FRACTION_LIMIT = 0.05
MIN_RECORDS_FOR_DIAGNOSTICS = 50
# Relative slack on the bound |X_t| <= C * z_c of an output with no flagged
# innovation: it absorbs the rounding of the inverse transform, of the
# filter's J + 1 products and of C itself.
_BOUND_MARGIN = 1e-9
# Outputs of a series replication one block filters at a time.  A multiple
# of 4, Philox's output width, so each block starts on a counter step and is
# drawn from its own generator.
_BLOCK_WORDS = 2**17


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Full description of one validation experiment.

    ``sampling`` is ``"series"`` for the simulated linear process pipeline or
    ``"gpd_direct"`` for iid draws from the exact limit distribution (a
    control mode that bypasses the series and its threshold step).

    ``k=None`` takes k from the growth rule at ``theta``.  ``centering``, the
    quantile expansion behind ``scale`` (``sigma_nk``, which divides sigma_hat)
    and the second-order rates, is None for ``"gpd_direct"`` (scale 1).  A
    ``"series"`` config builds one tail expansion, which gives both the
    centering and the growth rule's case; a ``"gpd_direct"`` config takes
    the case from ``second_tail_vanishes``, so it needs no ``alpha > 2``.
    """

    coeffs: CoefficientSequence
    model: InnovationModel
    n: int
    k: int | None = None
    r: float
    replications: int
    master_seed: int
    worker_count_hint: int = 1
    sampling: str = "series"
    theta: float = 0.9
    centering: second_order.QuantileExpansion | None = field(
        init=False, repr=False, compare=False, default=None)
    scale: float = field(init=False, repr=False, compare=False, default=1.0)

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        texp = None
        if self.sampling == "series":
            # The quantile expansion exists for one-sided Pareto innovations
            # with non-negative coefficients.
            if self.model.pi1 != 1.0:
                raise ValueError("scale unavailable: supply a quantile expansion "
                                 "(needs the one-sided Pareto model)")
            texp = second_order.tail_expansion(self.model.alpha, self.coeffs)
            object.__setattr__(self, "centering", second_order.quantile_expansion(texp))
        elif self.sampling != "gpd_direct":
            raise ValueError(f"unknown sampling mode: {self.sampling!r}")
        if self.k is None:
            c2_zero = texp.c2_is_zero if texp else second_order.second_tail_vanishes(
                self.model.alpha, self.coeffs)
            object.__setattr__(self, "k", second_order.choose_k(
                self.n, self.theta, self.model.alpha, c2_zero))
        if self.k + 1 > self.n:
            raise ValueError("k + 1 must not exceed n")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not -math.inf < self.r < 0:
            raise ValueError("r must be negative and finite")
        if self.worker_count_hint < 1:
            raise ValueError("worker_count_hint must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must lie in [0, 2**64)")
        if self.centering is not None:
            object.__setattr__(self, "scale", sigma_nk(self.centering, self.gamma,
                                                       self.n, self.k))

    @classmethod
    def create(cls, **kwargs) -> "ExperimentConfig":
        """Build a config by keyword, as the class itself does."""
        return cls(**kwargs)

    @property
    def gamma(self) -> float:
        return self.model.gamma


@dataclass(frozen=True)
class ReplicationRecord:
    """One replication's fit and its standardized coordinates."""

    index: int
    gamma_hat: float
    sigma_hat: float
    z1: float
    z2: float
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


CSV_HEADER = [f.name for f in fields(ReplicationRecord)]


@dataclass(frozen=True)
class NormalityDiagnostics:
    """Distribution checks of the standardized pairs against the limit law."""

    ks_statistics: tuple[float, float]
    ks_p_values: tuple[float, float]
    mahalanobis_ks_statistic: float
    mahalanobis_ks_p_value: float


@dataclass(frozen=True)
class ValidationReport:
    """Aggregated comparison of the experiment against the normal limit."""

    config: ExperimentConfig
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    theoretical_cov: np.ndarray
    relative_deviation: np.ndarray
    diagnostics: NormalityDiagnostics | None
    rate_2erv: float
    rate_2rv: float
    failure_count: int
    flags: tuple[str, ...]
    elapsed_seconds: float

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "config": {
                "coeffs": list(cfg.coeffs.coeffs),
                "innovation": asdict(cfg.model),
                "n": cfg.n, "k": cfg.k, "r": cfg.r,
                "replications": cfg.replications,
                "master_seed": cfg.master_seed,
                "sampling": cfg.sampling,
                "theta": cfg.theta,
            },
            "empirical_mean": self.empirical_mean.tolist(),
            "empirical_cov": self.empirical_cov.tolist(),
            "theoretical_cov": self.theoretical_cov.tolist(),
            "relative_deviation": self.relative_deviation.tolist(),
            "diagnostics": asdict(self.diagnostics) if self.diagnostics else None,
            "second_order_rates": {"rate_2erv": self.rate_2erv,
                                   "rate_2rv": self.rate_2rv},
            "failure_count": self.failure_count,
            "flags": list(self.flags),
            "elapsed_seconds": self.elapsed_seconds,
        }


def sigma_nk(qexp: second_order.QuantileExpansion | None, gamma: float,
             n: int, k: int) -> float:
    """Centering scale ``gamma * b(n/k)`` from the quantile expansion."""
    if qexp is None:
        raise ValueError("scale unavailable: supply a quantile expansion")
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    return float(gamma * qexp.b(n / k))


def _raw_cut(survival: float) -> int:
    """Smallest Philox word ``raw`` whose ``1 - U`` lies below ``survival``.

    ``Generator.random`` gives ``U = (raw >> 11) * 2**-53``, so
    ``1 - U = (2**53 - (raw >> 11)) * 2**-53`` exactly, and
    ``1 - U < survival`` holds exactly when ``raw >= _raw_cut(survival)``.
    A cut of ``2**64`` or more flags no word; a survival above 1 flags all.
    """
    return max(2**53 + 1 - math.ceil(survival * 2.0**53), 0) << 11


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (``taskset`` and cpusets shrink it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _runs(points: np.ndarray, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last point of each run of sorted ``points`` whose steps are
    at most ``gap``."""
    wide = points[1:] - points[:-1] > gap
    return (np.concatenate((points[:1], points[1:][wide])),
            np.concatenate((points[:-1][wide], points[-1:])))


def _ranges(first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The ranges ``[first_i, stop_i)``, concatenated."""
    lengths = stop - first
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(first - offsets, lengths)


def _filter_block(coeffs: CoefficientSequence, model: InnovationModel,
                  key: np.ndarray, lo: int, n: int, cut: int) -> np.ndarray:
    """The outputs in ``[lo, hi)``, ``hi = min(lo + _BLOCK_WORDS, n)``, that
    read a word at or above ``cut``, in order.

    Draws the words ``[lo, hi + J)`` those outputs read, from the generator
    started at counter step ``lo // 4`` (each step gives 4 words).
    """
    order = coeffs.order
    size = min(lo + _BLOCK_WORDS, n) - lo
    raw = np.random.Philox(counter=lo // 4, key=key).random_raw(size + order)
    flags = np.flatnonzero(raw >= cut)
    if not flags.size:
        return np.empty(0)
    first, last = _runs(flags, order + 1)
    first = np.maximum(first - order, 0)
    stop = np.minimum(last, size - 1) + order + 1
    # The 1 - U of InnovationModel.sample, bit for bit.
    w = 1.0 - (raw[_ranges(first, stop)] >> 11) * 2.0**-53
    x = apply_filter(coeffs, model.from_uniform(w))
    if order:
        run = np.repeat(np.arange(first.size), stop - first)
        x = x[run[:-order] == run[order:]]
    return x


def _series_sample(coeffs: CoefficientSequence, model: InnovationModel, n: int,
                   seed: int, stream: int, k: int) -> ExcessSample:
    """``top_k_excesses(simulate(coeffs, model, n, seed, stream).values, k)``
    with the filter evaluated only next to large innovations.

    Output t reads the innovations ``[t, t + J]`` of the stream's ``n + J``
    raw Philox words.  The outputs are split into blocks of
    ``_BLOCK_WORDS``, filtered in order in the caller's thread; each block
    draws the words its outputs read from its own generator started at the
    block's counter, so memory is one block's words and flags (9 bytes per
    word), not 9 bytes per sample.  A block flags its innovations above
    ``z_c`` by an integer comparison of the words with ``_raw_cut``; flagged
    innovation i reaches the outputs ``[i - J, i]``, and runs of flags
    closer than J + 2 share one segment of outputs.  Only the segments'
    words become the ``1 - U`` doubles of ``InnovationModel.sample``, and
    ``apply_filter`` over the block's concatenated segments keeps only the
    outputs whose window lies inside one segment, each the same dot product
    as on the full path.

    With ``C = sum_j |c_j|``, an output whose innovations all stay at or
    below ``z_c`` has ``|X_t| <= C * z_c``, so once more than k evaluated
    outputs exceed ``C * z_c`` they hold the top k + 1 of the path.  The
    start ``z_c`` puts about 4(k + 1) innovations above ``C * z_c / max_j
    |c_j|``; while the test fails, ``z_c`` is halved and the blocks are
    drawn again, at worst keeping the whole path.  The sample is
    bit-identical to the full path's.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    c_abs = np.abs(coeffs.as_array())
    c_sum = float(np.sum(c_abs))
    z_c = (float(np.max(c_abs)) / c_sum
           * (4.0 * (k + 1) / (n + coeffs.order)) ** -model.gamma)
    while True:
        # Z = (1 - U)**-gamma exceeds z_c when 1 - U < z_c**-alpha; every
        # Z >= 1 can exceed a z_c <= 1.
        survival = z_c ** -model.alpha * (1.0 + _BOUND_MARGIN) if z_c > 1.0 else 2.0
        cut = _raw_cut(survival)
        x = np.concatenate([_filter_block(coeffs, model, key, lo, n, cut)
                            for lo in range(0, n, _BLOCK_WORDS)])
        bound = c_sum * z_c * (1.0 + _BOUND_MARGIN)
        if x.size == n or np.count_nonzero(np.abs(x) > bound) > k:
            return top_k_excesses(x, k)
        z_c /= 2.0


def run_replication(config: ExperimentConfig, index: int) -> ReplicationRecord:
    """Simulate, fit, and standardize one replication.

    The random stream is keyed by ``(master_seed, index)``, so the record is a
    pure function of ``(config, index)`` and independent of scheduling.
    Solver failures are recorded in ``status`` rather than raised.

    A series replication's sample is bit-identical to ``top_k_excesses`` of
    the full ``simulate`` path, and it holds one block of memory, not the
    path (see ``_series_sample``).  It runs in the caller's thread and starts
    none.
    """
    if config.sampling == "gpd_direct":
        rng = philox_stream(config.master_seed, index)
        limit = GpdParams(gamma=config.gamma, sigma=1.0)
        sample = ExcessSample.from_excesses(limit.quantile(rng.random(config.k)))
    else:
        sample = _series_sample(config.coeffs, config.model, config.n,
                                config.master_seed, index, config.k)
    try:
        fit = lme_fit(sample, config.r)
    except LmeSolverError:
        return ReplicationRecord(index=index, gamma_hat=float("nan"),
                                 sigma_hat=float("nan"), z1=float("nan"),
                                 z2=float("nan"), status="no_solution")
    sk = np.sqrt(config.k)
    return ReplicationRecord(
        index=index, gamma_hat=fit.gamma_hat, sigma_hat=fit.sigma_hat,
        z1=float(sk * (fit.gamma_hat - config.gamma)),
        z2=float(sk * (fit.sigma_hat / config.scale - 1.0)),
        status="ok")


def empirical_cov(pairs) -> np.ndarray:
    """Unbiased sample covariance of standardized pairs (rows)."""
    z = np.asarray(pairs, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError("pairs must have shape (m, 2)")
    if z.shape[0] < 2:
        raise ValueError("need at least two records")
    return np.cov(z, rowvar=False)


def _inverse_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if np.any(eigvals <= 0):
        raise ValueError("theoretical covariance must be positive definite")
    return eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T


def _ks_uniform(cdf_values: np.ndarray) -> tuple[float, float]:
    """Kolmogorov-Smirnov distance of cdf values from uniform, asymptotic p-value."""
    from scipy import special

    u = np.sort(cdf_values)
    m = u.size
    grid = np.arange(1, m + 1) / m
    d = float(max(np.max(grid - u), np.max(u - grid + 1.0 / m)))
    return d, float(special.kolmogorov(np.sqrt(m) * d))


def normality_diagnostics(pairs, theoretical: np.ndarray) -> NormalityDiagnostics:
    """Whitened marginal KS tests and a chi-square check of squared norms.

    Pairs are whitened by the inverse symmetric square root of the
    theoretical covariance; each whitened coordinate is tested against the
    standard normal and the squared Mahalanobis norms, the squared norms of
    the whitened pairs, against chi-square with two degrees of freedom, all
    with asymptotic p-values.
    """
    from scipy import special

    z = np.asarray(pairs, dtype=float)
    if z.shape[0] < MIN_RECORDS_FOR_DIAGNOSTICS:
        raise ValueError(f"need at least {MIN_RECORDS_FOR_DIAGNOSTICS} records")
    whitener = _inverse_sqrt(np.asarray(theoretical, dtype=float))
    white = z @ whitener.T
    ks = [_ks_uniform(special.ndtr(white[:, j])) for j in range(2)]
    mahal = np.einsum("ij,ij->i", white, white)
    mahal_d, mahal_p = _ks_uniform(special.chdtr(2, mahal))
    return NormalityDiagnostics(
        ks_statistics=(ks[0][0], ks[1][0]), ks_p_values=(ks[0][1], ks[1][1]),
        mahalanobis_ks_statistic=mahal_d, mahalanobis_ks_p_value=mahal_p)


def run_experiment(config: ExperimentConfig, csv_path=None, json_path=None) -> ValidationReport:
    """Run all replications and compare against the theoretical covariance.

    Replications execute independently, each on one thread, and are
    aggregated in index order, so the report is bit-identical for a fixed
    config regardless of worker count.  They run on a process pool of
    ``min(worker_count_hint, replications, usable_cpus())`` workers when that
    is more than one, else on a thread pool of ``min(usable_cpus(),
    replications, blocks)`` workers, else in a plain loop that starts no
    thread and loads no ``concurrent.futures``.  A series replication has one
    block per ``_BLOCK_WORDS`` outputs; a ``gpd_direct`` one counts as one
    block (its GIL-bound solver gains nothing from threads).  The theory is
    ``asymptotics.estimator_cov`` at ``coeffs``, or at ``(1,)`` for the iid
    draws of ``gpd_direct``, whose ``coeffs`` must still have a finite norm.
    A replication that raises cancels those not yet started, and every
    worker has ended before the exception leaves here.  A running
    replication holds one block of memory.  A replication loads numpy only;
    SciPy (``scipy.special``) loads for the normality diagnostics, which need
    ``MIN_RECORDS_FOR_DIAGNOSTICS`` good records.  Optionally writes the
    per-replication records as CSV and the report as JSON.
    """
    started = time.perf_counter()
    # The closed form first: its numerical failures cost no replication or file.
    # gpd_direct draws are iid, so their theory is the one-coefficient limit;
    # their coefficients' norm must still exist, as a series run's must.
    coeffs = config.coeffs
    if config.sampling == "gpd_direct":
        asymptotics.coefficient_norm(coeffs, config.gamma)
        coeffs = CoefficientSequence((1.0,))
    theory = asymptotics.estimator_cov(config.gamma, config.r, coeffs).estimator_cov
    # Open the outputs before the run, so that a bad path fails at once.
    for path in (csv_path, json_path):
        if path is not None:
            open(path, "a").close()
    indices = range(config.replications)
    replicate = functools.partial(run_replication, config)
    cpus = usable_cpus()
    blocks = 1 if config.sampling == "gpd_direct" else len(
        range(0, config.n, _BLOCK_WORDS))
    processes = min(config.worker_count_hint, config.replications, cpus)
    threads = min(cpus, config.replications, blocks)
    if processes > 1 or threads > 1:
        from concurrent import futures

        executor, workers = ((futures.ProcessPoolExecutor, processes) if processes > 1
                             else (futures.ThreadPoolExecutor, threads))
        # ThreadPoolExecutor.map ignores chunksize.
        chunk = max(1, config.replications // (workers * 8))
        with executor(max_workers=workers) as pool:
            records = list(pool.map(replicate, indices, chunksize=chunk))
    else:
        records = list(map(replicate, indices))

    good = np.array([[rec.z1, rec.z2] for rec in records if rec.ok], dtype=float)
    failure_count = config.replications - good.shape[0]
    flags: list[str] = []
    if failure_count > FAILURE_FRACTION_LIMIT * config.replications:
        flags.append("unreliable")

    if good.shape[0] >= 2:
        mean = good.mean(axis=0)
        cov = empirical_cov(good)
        rel = (cov - theory) / np.abs(theory)
    else:
        flags.append("insufficient replications")
        mean = np.full(2, np.nan)
        cov = np.full((2, 2), np.nan)
        rel = np.full((2, 2), np.nan)

    diagnostics = None
    if good.shape[0] >= MIN_RECORDS_FOR_DIAGNOSTICS:
        diagnostics = normality_diagnostics(good, theory)

    rate_2erv, rate_2rv = (0.0, 0.0) if config.centering is None else (
        second_order.second_order_rates(config.n, config.k, config.centering))

    report = ValidationReport(
        config=config, empirical_mean=mean, empirical_cov=cov,
        theoretical_cov=theory, relative_deviation=rel,
        diagnostics=diagnostics, rate_2erv=float(rate_2erv),
        rate_2rv=float(rate_2rv), failure_count=failure_count,
        flags=tuple(flags), elapsed_seconds=time.perf_counter() - started)

    if csv_path is not None:
        write_records_csv(records, csv_path)
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
    return report


def write_records_csv(records, path) -> None:
    """Write per-replication records, one column per ``ReplicationRecord`` field."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows([getattr(rec, name) for name in CSV_HEADER] for rec in records)
