"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line per criterion (sub-checks for the statistical
runs), so a full run documents exactly which guarantees hold.  Criteria 6 and
7 are end-to-end statistical checks of the normal limit; the headline
dependent run reports its second-order rates alongside because they bound the
finite-sample bias the tolerances must absorb.
"""

import time

import numpy as np
import pytest

from oracles import convolution_tail, kappas_expanded, phi_bruteforce
from tailproc import asymptotics
from tailproc import montecarlo as mc
from tailproc.asymptotics import (
    PhiConstants,
    estimator_cov,
    jacobian_limit,
    linearization_matrix,
    phi_constants,
    raw_limits,
)
from tailproc.cli import main
from tailproc.estimator import ExcessSample, GpdParams, lme_fit
from tailproc.process import CoefficientSequence, InnovationModel, philox_stream
from tailproc.second_order import tail_expansion

MASTER_SEED = 20260808


def report_line(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_phi_series_matches_bruteforce():
    started = time.perf_counter()
    rng = philox_stream(MASTER_SEED, 1)
    worst = 0.0
    for _ in range(20):
        support = int(rng.integers(2, 11))
        coeffs = np.round(rng.uniform(-1.0, 1.0, support), 3)
        if not np.any(coeffs != 0.0):
            coeffs[0] = 1.0
        seq = CoefficientSequence(tuple(coeffs))
        for gamma in (0.25, 0.5, 1.0, 2.0):
            for r in (-0.3, -1.0, -2.0):
                phi = phi_constants(seq, gamma, r)
                norm, p1, p2, p3 = phi_bruteforce(coeffs, gamma, r)
                worst = max(worst, abs(phi.norm_c - norm), abs(phi.phi1 - p1),
                            abs(phi.phi2 - p2), abs(phi.phi3 - p3))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 1.0
    report_line(1, ok, f"worst dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_kappa_identities_on_grid():
    started = time.perf_counter()
    phi_grid = np.linspace(0.0, 1.0, 5)
    worst = 0.0
    for g in np.linspace(0.2, 2.0, 10):
        for r in np.linspace(-2.0, -0.1, 10):
            for p1 in phi_grid:
                for p2 in phi_grid:
                    for p3 in phi_grid:
                        phi = PhiConstants(norm_c=1.0, phi1=p1, phi2=p2, phi3=p3)
                        got = asymptotics._centered(raw_limits(g, r, phi))
                        ref = kappas_expanded(g, r, p1, p2, p3)
                        worst = max(worst, *(abs(x - y) for x, y in zip(got, ref)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    report_line(2, ok, f"worst dev {worst:.2e} on 12500 points, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_iid_closed_forms():
    seq = CoefficientSequence((1.0,))
    worst_kappa = 0.0
    worst_inverse = 0.0
    for g in np.arange(0.2, 2.01, 0.2):
        for r in np.arange(-2.0, -0.049, 0.1):
            rep = estimator_cov(g, r, seq)
            closed = g**2 * (2 * g**2 + 2 * g + 1) / (g + 1) ** 2
            worst_kappa = max(worst_kappa, abs(rep.kappa1 - closed))
            prod = linearization_matrix(g, r) @ (-jacobian_limit(g, r))
            worst_inverse = max(worst_inverse, np.abs(prod - np.eye(2)).max())
    ok = worst_kappa <= 1e-12 and worst_inverse <= 1e-12
    report_line(3, ok, f"kappa1 dev {worst_kappa:.2e}, inverse dev {worst_inverse:.2e}")
    assert worst_kappa <= 1e-12
    assert worst_inverse <= 1e-12


def test_criterion_4_tail_expansion_quadrature():
    started = time.perf_counter()
    texp = tail_expansion(3.0, CoefficientSequence((1.0, 0.5)))
    assert texp.c_tilde == pytest.approx((1.125, 2.8125, 8.4375), abs=1e-12)
    truth = convolution_tail(100.0, 1.0, 0.5, 3.0)
    rel = abs(float(texp.survival(100.0)) - truth) / truth
    elapsed = time.perf_counter() - started
    ok = rel <= 1e-3 and elapsed < 5.0
    report_line(4, ok, f"relative dev {rel:.2e} at t=100, {elapsed:.2f}s")
    assert rel <= 1e-3
    assert elapsed < 5.0


def test_criterion_5_lme_quantile_grid_smoke():
    started = time.perf_counter()
    k = 10**5
    p = (np.arange(k) + 0.5) / k
    sample = ExcessSample.from_excesses(GpdParams(0.5, 1.0).quantile(p))
    fit = lme_fit(sample, r=-1.0)
    elapsed = time.perf_counter() - started
    gamma_dev = abs(fit.gamma_hat - 0.5)
    sigma_dev = abs(fit.sigma_hat - 1.0)
    ok = gamma_dev <= 0.005 and sigma_dev <= 0.01 and elapsed < 1.0
    report_line(5, ok, f"|dgamma| {gamma_dev:.2e}, |dsigma| {sigma_dev:.2e}, {elapsed:.2f}s")
    assert gamma_dev <= 0.005
    assert sigma_dev <= 0.01
    assert elapsed < 1.0


def _clt_checks(report):
    mean = report.empirical_mean
    emp = report.empirical_cov
    theo = report.theoretical_cov
    checks = []
    for j in (0, 1):
        checks.append((f"mean[{j}] within +-0.15", abs(mean[j]) <= 0.15,
                       f"{mean[j]:+.4f}"))
    for j in (0, 1):
        rel = (emp[j, j] - theo[j, j]) / theo[j, j]
        checks.append((f"var[{j}] within 30%", abs(rel) <= 0.30,
                       f"emp {emp[j, j]:.3f} theo {theo[j, j]:.3f} rel {rel:+.3f}"))
    checks.append(("off-diagonal sign agreement",
                   bool(np.sign(emp[0, 1]) == np.sign(theo[0, 1])),
                   f"emp {emp[0, 1]:+.3f} theo {theo[0, 1]:+.3f}"))
    rel_off = (emp[0, 1] - theo[0, 1]) / abs(theo[0, 1])
    checks.append(("off-diagonal within 50%", abs(rel_off) <= 0.50,
                   f"rel {rel_off:+.3f}"))
    for j in (0, 1):
        p_value = report.diagnostics.ks_p_values[j]
        checks.append((f"whitened KS p[{j}] > 0.01", p_value > 0.01,
                       f"p {p_value:.4f}"))
    checks.append(("failure fraction <= 5%", "unreliable" not in report.flags,
                   f"{report.failure_count} of {report.config.replications}"))
    return checks


def _run_clt_criterion(number, coeffs, k_expected):
    config = mc.ExperimentConfig(
        coeffs=coeffs, model=InnovationModel(alpha=3.0), n=10**6, r=-0.5,
        replications=1000, master_seed=MASTER_SEED, theta=0.9)
    assert config.k == k_expected
    started = time.perf_counter()
    report = mc.run_experiment(config)
    elapsed = time.perf_counter() - started
    checks = _clt_checks(report)
    checks.append(("runtime < 600s", elapsed < 600.0, f"{elapsed:.0f}s"))
    ok = all(passed for _, passed, _ in checks)
    report_line(number, ok,
                f"k={config.k}, rates 2erv {report.rate_2erv:.3f} / "
                f"2rv {report.rate_2rv:.3f}")
    for label, passed, detail in checks:
        print(f"    {'PASS' if passed else 'FAIL'}  {label}: {detail}")
    failed = [label for label, passed, _ in checks if not passed]
    assert not failed, f"criterion {number} sub-checks failed: {failed}"


def test_criterion_6_clt_validation_dependent():
    """Headline dependent-process run at the growth-rule excess count.

    The scaled tail-function rate at (n=1e6, k=144) is about 1.45, printed
    alongside: it bounds the residual mean bias the +-0.15 tolerance must
    absorb, so this criterion documents where the normal approximation is
    centered well and where it is not yet.
    """
    _run_clt_criterion(6, CoefficientSequence((1.0, 0.5)), k_expected=144)


def test_criterion_7_clt_validation_iid_control():
    _run_clt_criterion(7, CoefficientSequence((1.0,)), k_expected=1218)


def test_criterion_8_condition_checker(capsys):
    import json

    started = time.perf_counter()
    code_iid = main(["check", "--alpha", "3", "--coeffs", "1"])
    out_iid = capsys.readouterr().out
    code_dep = main(["check", "--alpha", "3", "--coeffs", "1,0.5"])
    out_dep = capsys.readouterr().out
    elapsed = time.perf_counter() - started

    iid = json.loads(out_iid)
    dep = json.loads(out_dep)
    witness = {c["name"]: c["witness"] for c in dep["checks"]}
    checks = [
        code_iid == 0 and iid["verdict"] is False,
        iid["failing"] == ["(ii)", "(iii)"],
        code_dep == 0 and dep["verdict"] is True,
        abs(witness["(i)"]["eta"] - 0.45) < 1e-12,
        abs(witness["(i)"]["C_eta"] - 1.73204) < 5e-6,
        abs(witness["(iii)"]["value"] - (-4.21875)) < 1e-12,
        elapsed < 0.1,
    ]
    ok = all(checks)
    with capsys.disabled():
        report_line(8, ok, f"failing={iid['failing']}, eta=0.45, "
                           f"C_eta={witness['(i)']['C_eta']:.5f}, {elapsed * 1000:.0f}ms")
    assert ok, checks
