"""Checks of a run's outputs against the oracles and properties of the method.

Replications are recomputed serially through tailproc's public functions and
compared bit for bit; fits, excesses and closed-form outputs are compared with
``oracles``, which shares no code with tailproc.  Nothing is compared with a
stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

import oracles
import workloads
from tailproc import (
    ExcessSample,
    GpdParams,
    arma_to_ma,
    estimator_cov,
    philox_stream,
    simulate,
    top_k_excesses,
)
from tailproc import montecarlo as mc

RESIDUAL_GATE = 1e-10   # the solver's own acceptance gate on the moment equation
ROOT_RTOL = 1e-9        # fitted pair against the brentq root
WITNESS_RTOL = 1e-9     # closed-form outputs against the oracles
Z_ATOL = 1e-9           # z1, z2 against the oracle centering
MEAN_SE = 5.0           # fit_gpd: panel means within this many standard errors
BAND_MIN_RECORDS = 350  # mc_ma1_*: covariance band needs this many ok records

# Faults a closed-form call may show; any other failure makes the run incorrect.
OVERFLOW = "exception OverflowError (arma_to_ma overflow)"
DECAY = "decay certificate not finite or violated"
VARIANCE = "witness (ii)/(iii) uses the innovation variance alpha/((alpha-1)(alpha-2))"
EXIT_NUMERICAL = "exit code 2"  # fault (a) once mapped to the CLI's numerical-failure code


def fault_c_variance(alpha: float) -> float:
    """The Pareto innovation variance tailproc uses (fault (c)); the true one is
    ``alpha/((alpha-1)**2 (alpha-2))``."""
    return alpha / ((alpha - 1.0) * (alpha - 2.0))


class Verdict:
    """Problems that make a run incorrect, and diagnostics that do not."""

    def __init__(self):
        self.problems: list[str] = []
        self.info: dict = {}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Replications (mc_* and fit_*)


def _check_replication(verdict: Verdict, inputs, rec: list) -> float | None:
    """Check one record; return z2's deviation from the correct oracle centering."""
    round_index, batch, index, gamma_hat, sigma_hat, z1, z2, status = rec
    config = workloads.batch_config(inputs, batch)
    where = f"batch {batch} index {index}"

    serial = mc.run_replication(config, index)
    got = [float(v).hex() for v in (gamma_hat, sigma_hat, z1, z2)] + [status]
    want = [float(v).hex() for v in (serial.gamma_hat, serial.sigma_hat, serial.z1, serial.z2)]
    verdict.require(got == want + [serial.status], f"{where}: record differs from serial run_replication")

    k = config.k
    if config.sampling == "series":
        values = simulate(config.coeffs, config.model, config.n, config.master_seed, stream=index).values
        excesses = top_k_excesses(values, k).excesses
        ordered = np.sort(np.abs(values))
        verdict.require(np.array_equal(excesses, ordered[-k:][::-1] - ordered[-k - 1]),
                        f"{where}: excesses differ from a full-sort top-k")
        del values, ordered
    else:
        u = philox_stream(config.master_seed, index).random(k)
        own = np.random.Generator(np.random.Philox(key=np.array([config.master_seed, index],
                                                                dtype=np.uint64))).random(k)
        verdict.require(np.array_equal(u, own), f"{where}: uniforms differ from a Philox stream")
        quantiles = GpdParams(gamma=config.gamma, sigma=1.0).quantile(u)
        verdict.require(np.allclose(quantiles, oracles.gpd_quantile(own, config.gamma, 1.0),
                                    rtol=1e-12, atol=1e-13), f"{where}: GPD quantiles differ")
        excesses = ExcessSample.from_excesses(quantiles).excesses

    if status != "ok":
        try:
            oracles.lme_brentq(excesses, config.r)
            verdict.info.setdefault("no_solution_with_root", []).append(where)
        except ArithmeticError:
            pass
        return None

    eq1, eq2 = oracles.moment_residuals(excesses, gamma_hat, sigma_hat, config.r)
    verdict.require(abs(eq1) <= RESIDUAL_GATE and abs(eq2) <= RESIDUAL_GATE,
                    f"{where}: moment residuals {eq1:.2e}, {eq2:.2e} above {RESIDUAL_GATE}")
    try:
        root = oracles.lme_brentq(excesses, config.r)
        verdict.require(_close(gamma_hat, root[0], ROOT_RTOL) and _close(sigma_hat, root[1], ROOT_RTOL),
                        f"{where}: fit ({gamma_hat!r}, {sigma_hat!r}) is not the brentq root {root}")
    except ArithmeticError:
        verdict.require(False, f"{where}: brentq finds no root for a fitted sample")

    sk = math.sqrt(k)
    verdict.require(_close(z1, sk * (gamma_hat - config.gamma), 0.0, Z_ATOL), f"{where}: z1 centering")
    if config.sampling != "series":
        verdict.require(_close(z2, sk * (sigma_hat - 1.0), 0.0, Z_ATOL), f"{where}: z2 centering")
        return None
    # Fault (c) shifts every z2 alike, so z2 is gated against the oracle
    # centering evaluated with tailproc's variance, and its distance to the
    # correct centering is reported.
    alpha, coeffs = config.model.alpha, config.coeffs.coeffs
    scale_c = oracles.centering_scale(alpha, coeffs, config.n, k, variance=fault_c_variance(alpha))
    verdict.require(_close(z2, sk * (sigma_hat / scale_c - 1.0), 0.0, Z_ATOL),
                    f"{where}: z2 is not sqrt(k)(sigma_hat/scale - 1) with the oracle scale "
                    f"under fault (c)")
    return z2 - sk * (sigma_hat / oracles.centering_scale(alpha, coeffs, config.n, k) - 1.0)


def _fields(rec: list) -> tuple:
    return (rec[1], rec[2], rec[7], *(float(v).hex() for v in rec[3:7]))


def check_experiment(inputs, records: list[list], seed: int, panel: bool) -> Verdict:
    """Check the records of a run.

    ``panel`` says the records hold whole rounds over the workload's panel:
    every round must then repeat round 0 bit for bit, and round 0 is held to
    the method's statistical properties.  ``checked`` ok records, drawn with
    the seed, and every failed one are recomputed against the oracles.
    """
    verdict = Verdict()
    for rec in records:
        verdict.require(rec[7] in ("ok", "no_solution"), f"unknown status {rec[7]!r}")
    first = sorted(_fields(rec) for rec in records if rec[0] == 0)
    rounds = max(rec[0] for rec in records) + 1
    for j in range(1, rounds):
        verdict.require(sorted(_fields(rec) for rec in records if rec[0] == j) == first,
                        f"round {j} records differ from round 0")
    panel_records = [rec for rec in records if rec[0] == 0]
    ok = [rec for rec in panel_records if rec[7] == "ok"]
    verdict.require(all(math.isfinite(v) for rec in ok for v in rec[3:7]), "non-finite ok record")
    verdict.require(len(ok) >= 1, "no replication succeeded")
    verdict.info["no_solution"] = [f"batch {rec[1]} index {rec[2]}" for rec in panel_records
                                   if rec[7] != "ok"]

    sample = random.Random(seed).sample(ok, min(inputs.workload.checked, len(ok)))
    deviations = []
    for rec in sample + [rec for rec in panel_records if rec[7] != "ok"]:
        dev = _check_replication(verdict, inputs, rec)
        if dev is not None:
            deviations.append(abs(dev))
    if deviations:
        verdict.info["z2_oracle_centering_deviation_max"] = max(deviations)
    if not panel:
        return verdict

    config = inputs.config
    if config.sampling == "series":
        verdict.require(len(ok) >= BAND_MIN_RECORDS,
                        f"{len(ok)} ok records, fewer than the {BAND_MIN_RECORDS} the band needs")
        theory = estimator_cov(config.gamma, config.r, config.coeffs)
        norm, p1, p2, p3 = oracles.phi_double_loop(config.coeffs.coeffs, config.gamma, config.r)
        phi = theory.phi
        verdict.require(all(_close(a, b, WITNESS_RTOL, 1e-12) for a, b in
                            ((phi.norm_c, norm), (phi.phi1, p1), (phi.phi2, p2), (phi.phi3, p3))),
                        "phi constants differ from the double loop")
        emp = mc.empirical_cov(np.array([rec[5:7] for rec in ok]))
        theo = theory.estimator_cov
        for j in (0, 1):
            verdict.require(abs(emp[j, j] - theo[j, j]) <= 0.30 * theo[j, j],
                            f"variance {j}: empirical {emp[j, j]:.3f} outside 30% of {theo[j, j]:.3f}")
        verdict.require(np.sign(emp[0, 1]) == np.sign(theo[0, 1])
                        and abs(emp[0, 1] - theo[0, 1]) <= 0.50 * abs(theo[0, 1]),
                        f"covariance: empirical {emp[0, 1]:.3f} outside 50% of {theo[0, 1]:.3f}")
        verdict.info["empirical_cov"] = emp.tolist()
    else:
        for column, truth, label in ((3, config.gamma, "gamma_hat"), (4, 1.0, "sigma_hat")):
            values = np.array([rec[column] for rec in ok])
            se = values.std(ddof=1) / math.sqrt(values.size)
            verdict.require(abs(values.mean() - truth) <= MEAN_SE * se,
                            f"mean {label} {values.mean():.5f} not within {MEAN_SE} SE ({se:.2e}) of {truth}")
    return verdict


# ---------------------------------------------------------------------------
# Closed-form calls


def _coefficients(arma, argv) -> tuple[list[float], object]:
    """Stored coefficients of a call's model and the tailproc sequence behind them."""
    if arma is None:
        values = [float(v) for v in argv[-1].split(",")]
        return values, None
    seq = arma_to_ma(*arma)
    return list(seq.coeffs), seq


def _check_arma(verdict: Verdict, label: str, arma, seq) -> None:
    ar, ma = arma
    recursion = oracles.arma_coefficients(ar, ma, len(seq.coeffs))
    verdict.require(all(_close(a, b, 1e-12, 1e-300) for a, b in zip(seq.coeffs, recursion)),
                    f"{label}: coefficients differ from the ARMA recursion")
    discarded = oracles.arma_discarded_mass(ar, ma, seq.order)
    verdict.require(discarded <= seq.truncation_error_bound,
                    f"{label}: discarded mass {discarded:.3e} above the stored bound "
                    f"{seq.truncation_error_bound:.3e}")


def _cov_reasons(payload: dict, coeffs: list[float], seq) -> list[str]:
    reasons = []
    gamma, r = payload["gamma"], payload["r"]
    if len(coeffs) - 1 <= 1000:
        norm, p1, p2, p3 = oracles.phi_double_loop(coeffs, gamma, r)
        for key, want in (("norm_c", norm), ("phi1", p1), ("phi2", p2), ("phi3", p3)):
            if not _close(payload[key], want, WITNESS_RTOL, 1e-12):
                reasons.append(f"{key} {payload[key]!r} differs from the double loop {want!r}")
    cov = np.array(payload["estimator_cov"], dtype=float)
    if not (np.all(np.isfinite(cov)) and np.array_equal(cov, cov.T) and np.all(np.linalg.eigvalsh(cov) > 0)):
        reasons.append("covariance not symmetric positive definite")
    if seq is not None:
        tail = oracles.arma_discarded_mass(seq.ar, seq.ma, seq.order, power=1.0 / gamma)
        if not tail <= payload["truncation_error"]:
            reasons.append(f"discarded norm mass {tail:.3e} above truncation_error")
    return reasons


def _witnesses_match(witness: dict, alpha: float, coeffs: list[float], variance: float | None) -> bool:
    """The (ii) and (iii) witnesses against the three-term formulas at ``variance``."""
    mu, s2 = oracles.pareto_moments(alpha, variance)
    c = lambda u: oracles.power_sum(coeffs, u)
    var_term = (c(2.0) * c(alpha) - c(alpha + 2.0)) * s2
    mean_term = (c(1.0) ** 2 * c(alpha) - 2.0 * c(1.0) * c(alpha + 1.0) + c(alpha + 2.0)) * mu**2
    ct1, ct2, ct3 = oracles.tail_coefficients(alpha, coeffs, variance)
    lhs, rhs = (1.0 + alpha) * ct2**2 / (2.0 * alpha), ct1 * ct3
    scale_ii = abs(var_term) + abs(mean_term) + 1e-300
    scale_iii = abs(lhs) + abs(rhs) + 1e-300
    return (abs(witness["(ii)"]["variance_term"] - var_term) <= WITNESS_RTOL * scale_ii
            and abs(witness["(ii)"]["mean_term"] - mean_term) <= WITNESS_RTOL * scale_ii
            and abs(witness["(iii)"]["lhs"] - lhs) <= WITNESS_RTOL * scale_iii
            and abs(witness["(iii)"]["rhs"] - rhs) <= WITNESS_RTOL * scale_iii)


def _check_reasons(payload: dict, coeffs: list[float]) -> list[str]:
    reasons = []
    alpha = payload["alpha"]
    if payload["coeffs"] != coeffs:
        reasons.append("reported coefficients differ from the model")
    witness = {c["name"]: c["witness"] for c in payload["checks"]}
    a_cert, u_cert = witness["geometric_decay"]["A"], witness["geometric_decay"]["u"]
    if not (math.isfinite(a_cert) and a_cert > 0 and u_cert > 1 and all(
            c == 0 or math.log(abs(c)) < math.log(a_cert) - j * math.log(u_cert)
            for j, c in enumerate(coeffs))):
        reasons.append(DECAY)
    eta = witness["(i)"]["eta"]
    if not _close(witness["(i)"]["C_eta"], oracles.power_sum(coeffs, eta), WITNESS_RTOL):
        reasons.append("witness (i) C_eta differs from the power sum")
    matches = [_witnesses_match(witness, alpha, coeffs, variance)
               for variance in (None, fault_c_variance(alpha))]
    if not matches[0]:
        reasons.append(VARIANCE if matches[1] else
                       "witness (ii)/(iii) disagrees with the oracle under either variance")
    return reasons


def check_closed_form(inputs, result: dict) -> tuple[Verdict, dict[str, list[str]]]:
    """Verify round 0 of every call; later rounds must repeat it byte for byte.

    Returns the verdict and, per failed call, the reasons it failed.
    """
    verdict = Verdict()
    first = result["digests"][0]
    for j, digests in enumerate(result["digests"]):
        verdict.require(digests == first, f"round {j} output differs from round 0")

    failures: dict[str, list[str]] = {}
    for (label, argv, arma), output in zip(inputs.ops, result["outputs"]):
        if output["error"] is not None:
            failures[label] = [f"exception {output['error']}" + (
                " (arma_to_ma overflow)" if output["error"] == "OverflowError" else "")]
            continue
        if output["code"] != 0:
            failures[label] = [f"exit code {output['code']}"]
            continue
        coeffs, seq = _coefficients(arma, argv)
        if seq is not None:
            _check_arma(verdict, label, arma, seq)
        payload = json.loads(output["stdout"])
        reasons = _cov_reasons(payload, coeffs, seq) if argv[0] == "cov" else _check_reasons(payload, coeffs)
        if reasons:
            failures[label] = reasons

    for label, reasons in failures.items():
        allowed = {VARIANCE} if label.startswith("check ") else set()
        if label.endswith("J=3000") and label.startswith("check "):
            allowed.add(DECAY)
        if label.endswith("ar 0.9"):
            allowed |= {OVERFLOW, EXIT_NUMERICAL}
        verdict.require(set(reasons) <= allowed, f"{label}: unexpected failure {reasons}")
    return verdict, failures
