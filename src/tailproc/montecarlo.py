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
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np
from scipy import special

from . import asymptotics, second_order
from .estimator import ExcessSample, GpdParams, LmeSolverError, lme_fit, top_k_excesses
from .process import CoefficientSequence, InnovationModel, philox_stream, simulate

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one validation experiment.

    ``sampling`` is ``"series"`` for the simulated linear process pipeline or
    ``"gpd_direct"`` for iid draws from the exact limit distribution (a
    control mode that bypasses the series and its threshold step).

    ``centering`` is the quantile expansion behind the centering scale and
    the second-order rates, built once per config; it is None for
    ``"gpd_direct"``, whose scale is 1.
    """

    coeffs: CoefficientSequence
    model: InnovationModel
    n: int
    k: int
    r: float
    replications: int
    master_seed: int
    worker_count_hint: int = 1
    sampling: str = "series"
    theta: float | None = None
    centering: second_order.QuantileExpansion | None = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.k + 1 > self.n:
            raise ValueError("k + 1 must not exceed n")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.r >= 0:
            raise ValueError("r must be negative")
        if self.worker_count_hint < 1:
            raise ValueError("worker_count_hint must be >= 1")
        if self.sampling not in ("series", "gpd_direct"):
            raise ValueError(f"unknown sampling mode: {self.sampling!r}")
        if self.sampling == "series":
            # The quantile expansion exists for one-sided Pareto innovations
            # with non-negative coefficients.
            if self.model.kind != "one_sided_pareto":
                raise ValueError("scale unavailable: supply a quantile expansion "
                                 "(needs the one-sided Pareto model)")
            texp = second_order.tail_expansion(self.model.alpha, self.coeffs)
            object.__setattr__(self, "centering", second_order.quantile_expansion(texp))

    @classmethod
    def create(cls, coeffs: CoefficientSequence, model: InnovationModel, n: int,
               r: float, replications: int, master_seed: int,
               k: int | None = None, theta: float = 0.9,
               worker_count_hint: int = 1, sampling: str = "series") -> "ExperimentConfig":
        """Build a config, deriving k from the growth rule when not given."""
        if k is None:
            texp = second_order.tail_expansion(model.alpha, coeffs)
            k = second_order.choose_k(n, theta, model.alpha, texp.c2_is_zero)
        return cls(coeffs=coeffs, model=model, n=n, k=k, r=r,
                   replications=replications, master_seed=master_seed,
                   worker_count_hint=worker_count_hint, sampling=sampling,
                   theta=theta)

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


def run_replication(config: ExperimentConfig, index: int) -> ReplicationRecord:
    """Simulate, fit, and standardize one replication.

    The random stream is keyed by ``(master_seed, index)``, so the record is a
    pure function of ``(config, index)`` and independent of scheduling.
    Solver failures are recorded in ``status`` rather than raised.
    """
    scale = 1.0 if config.centering is None else sigma_nk(
        config.centering, config.gamma, config.n, config.k)
    if config.sampling == "gpd_direct":
        rng = philox_stream(config.master_seed, index)
        limit = GpdParams(gamma=config.gamma, sigma=1.0)
        sample = ExcessSample.from_excesses(limit.quantile(rng.random(config.k)))
    else:
        path = simulate(config.coeffs, config.model, config.n,
                        config.master_seed, stream=index)
        sample = top_k_excesses(path.values, config.k)
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
        z2=float(sk * (fit.sigma_hat / scale - 1.0)),
        status="ok")


def _replicate_task(args: tuple[ExperimentConfig, int]) -> ReplicationRecord:
    return run_replication(*args)


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
    u = np.sort(cdf_values)
    m = u.size
    grid = np.arange(1, m + 1) / m
    d = float(max(np.max(grid - u), np.max(u - grid + 1.0 / m)))
    return d, float(special.kolmogorov(np.sqrt(m) * d))


def normality_diagnostics(pairs, theoretical: np.ndarray) -> NormalityDiagnostics:
    """Whitened marginal KS tests and a chi-square check of squared norms.

    Pairs are whitened by the inverse symmetric square root of the
    theoretical covariance; each whitened coordinate is tested against the
    standard normal and the squared Mahalanobis norms against chi-square with
    two degrees of freedom, all with asymptotic p-values.
    """
    z = np.asarray(pairs, dtype=float)
    if z.shape[0] < MIN_RECORDS_FOR_DIAGNOSTICS:
        raise ValueError(f"need at least {MIN_RECORDS_FOR_DIAGNOSTICS} records")
    whitener = _inverse_sqrt(np.asarray(theoretical, dtype=float))
    white = z @ whitener.T
    ks = [_ks_uniform(special.ndtr(white[:, j])) for j in range(2)]
    mahal = np.einsum("ij,jk,ik->i", z, np.linalg.inv(theoretical), z)
    mahal_d, mahal_p = _ks_uniform(special.chdtr(2, mahal))
    return NormalityDiagnostics(
        ks_statistics=(ks[0][0], ks[1][0]), ks_p_values=(ks[0][1], ks[1][1]),
        mahalanobis_ks_statistic=mahal_d, mahalanobis_ks_p_value=mahal_p)


def run_experiment(config: ExperimentConfig, csv_path=None, json_path=None) -> ValidationReport:
    """Run all replications and compare against the theoretical covariance.

    Replications execute independently and are aggregated in index order, so
    the report is bit-identical for a fixed config regardless of worker
    count.  They run in ``min(worker_count_hint, replications, cpu count)``
    processes when that is more than one, and serially otherwise.
    Optionally writes the per-replication records as CSV and the report as
    JSON.
    """
    started = time.perf_counter()
    indices = range(config.replications)
    workers = min(config.worker_count_hint, config.replications,
                  os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, config.replications // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_replicate_task,
                                    [(config, i) for i in indices],
                                    chunksize=chunk))
    else:
        records = [run_replication(config, i) for i in indices]
    records.sort(key=lambda rec: rec.index)

    good = np.array([[rec.z1, rec.z2] for rec in records if rec.ok], dtype=float)
    failure_count = config.replications - good.shape[0]

    theory = asymptotics.estimator_cov(config.gamma, config.r,
                                       config.coeffs).estimator_cov
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

    if config.centering is None:
        rate_2erv = rate_2rv = 0.0
    else:
        rate_2erv, rate_2rv = second_order.second_order_rates(
            config.n, config.k, config.centering)

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
        writer.writerows(astuple(rec) for rec in records)
