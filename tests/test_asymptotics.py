import itertools
import math
import re
import warnings

import numpy as np
import pytest

from oracles import kappas_expanded, linearization_expanded, phi_bruteforce, tail_sum_limits
from tailproc import asymptotics
from tailproc.asymptotics import (
    PhiConstants,
    coefficient_norm,
    estimator_cov,
    jacobian_limit,
    linearization_matrix,
    pairwise_dependence_sum,
    phi_constants,
    raw_limits,
)
from tailproc.process import CoefficientSequence, arma_to_ma, philox_stream

GAMMA_GRID = np.arange(0.2, 2.01, 0.2)
R_GRID = np.arange(-2.0, -0.049, 0.1)
# The failure-class grid of the closed form: 900 cells from r near 0 to r near
# -inf and from a tiny to a huge gamma.
WIDE_GAMMAS = (1e-3, 0.05, 0.2, 1.0 / 3.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
WIDE_RS = (-1e-300, -1e-100, -1e-16, -1e-12, -1e-6, -1e-3, -0.5, -1.0, -10.0, -1e3, -1e6,
           -1e12, -1e30, -1e100, -1e300)
WIDE_COEFFS = ((1.0,), (1.0, 0.5), (1.0, 0.9, 0.3), (1.0, 1.0), (1.0, 1e-3), (2.0, 3.0))


def phi_at(phi1, phi2, phi3):
    return PhiConstants(norm_c=1.0, phi1=phi1, phi2=phi2, phi3=phi3)


class TestCoefficientNorm:
    def test_single_unit_coefficient(self):
        value, err = coefficient_norm(CoefficientSequence((1.0,)), gamma=0.7)
        assert value == 1.0 and err == 0.0

    def test_two_terms(self):
        value, _ = coefficient_norm(CoefficientSequence((1.0, 0.5)), gamma=1.0 / 3.0)
        assert value == pytest.approx(1.125, abs=1e-15)

    def test_geometric_sequence_with_truncation(self):
        seq = arma_to_ma([0.5], [])
        value, err = coefficient_norm(seq, gamma=1.0)
        assert value == pytest.approx(2.0, abs=1e-11)
        assert 0.0 < err < 1e-11
        assert abs(value - 2.0) <= err + 1e-15

    def test_gamma_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            coefficient_norm(CoefficientSequence((1.0,)), gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            coefficient_norm(CoefficientSequence((1.0, 0.5)), gamma=float("inf"))

    def test_overflow_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows"):
                coefficient_norm(CoefficientSequence((1e200, 1.0)), gamma=0.25)

    def test_truncation_bound_at_extreme_gamma(self):
        # The bound A**p u**(-p (J+1)) / (1 - u**-p) raised a bare errno from
        # A**p at gamma 0.001 and divided by zero at gamma 1e20.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, err = coefficient_norm(arma_to_ma([0.5], [1.0]), gamma=0.001)
            assert err == 0.0
            seq = arma_to_ma([0.5], [])
            value, err = coefficient_norm(seq, gamma=1e20)
        # At p = 1e-20 the base's power rounds to 1, so the bound is 1 / (p log u).
        assert value == seq.order + 1
        assert err == pytest.approx(1e20 / math.log(seq.decay_u), rel=1e-12)


class TestPhiConstants:
    def test_single_coefficient_all_zero(self):
        phi = phi_constants(CoefficientSequence((1.0,)), gamma=0.5, r=-1.0)
        assert (phi.phi1, phi.phi2, phi.phi3) == (0.0, 0.0, 0.0)

    def test_hand_values_small_gamma(self):
        phi = phi_constants(CoefficientSequence((1.0, 0.5)), gamma=1.0 / 3.0, r=-0.5)
        assert phi.norm_c == pytest.approx(1.125, abs=1e-15)
        assert phi.phi1 == pytest.approx(0.125 / 1.125, abs=1e-15)
        assert phi.phi2 == pytest.approx(2.0**-4.5 / 1.125, rel=1e-12)
        assert phi.phi3 == pytest.approx(0.125 * np.log(2.0) / 1.125, rel=1e-12)

    def test_hand_values_unit_gamma(self):
        phi = phi_constants(CoefficientSequence((1.0, 0.5)), gamma=1.0, r=-1.0)
        assert phi.phi1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert phi.phi2 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert phi.phi3 == pytest.approx(np.log(2.0) / 3.0, rel=1e-14)

    def test_matches_bruteforce_on_random_sequences(self):
        rng = philox_stream(99)
        for trial in range(20):
            support = int(rng.integers(2, 11))
            coeffs = np.round(rng.uniform(-1.0, 1.0, support), 3)
            if not np.any(coeffs != 0.0):
                coeffs[0] = 1.0
            seq = CoefficientSequence(tuple(coeffs))
            for gamma in (0.25, 0.5, 1.0, 2.0):
                for r in (-0.3, -1.0, -2.0):
                    phi = phi_constants(seq, gamma, r)
                    norm, p1, p2, p3 = phi_bruteforce(coeffs, gamma, r)
                    assert phi.norm_c == pytest.approx(norm, abs=1e-10)
                    assert phi.phi1 == pytest.approx(p1, abs=1e-10)
                    assert phi.phi2 == pytest.approx(p2, abs=1e-10)
                    assert phi.phi3 == pytest.approx(p3, abs=1e-10)

    def test_phi2_of_tiny_coefficients_does_not_overflow(self):
        # Written as max**(r/gamma) / min**((r-1)/gamma), both powers of the
        # (1e-40, 1e-40) pair overflow; the only pair that counts gives 1e-160.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = phi_constants(CoefficientSequence((1.0, 1e-40, 1e-40)),
                                gamma=0.25, r=-2.0)
        assert phi.phi2 == pytest.approx(1e-160, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match=r"^r must lie in \(-inf, 0\)$"):
            phi_constants(CoefficientSequence((1.0,)), gamma=1.0, r=0.5)

    def test_phi3_of_a_ratio_past_the_float_range(self):
        # log(hi / lo) overflowed at 1 / 1e-320, and 0 * inf made phi3 nan.
        coeffs = CoefficientSequence((1.0, 1e-320))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = phi_constants(coeffs, gamma=0.5, r=-1.0)
            flat = phi_constants(coeffs, gamma=100.0, r=-1.0)
        assert tiny.phi3 == 0.0
        w = 1e-320 ** 0.01
        assert flat.phi3 == pytest.approx(-w * math.log(1e-320) / (1.0 + w), rel=1e-12)
        assert flat.phi3 == pytest.approx(0.465, abs=1e-3)

    @pytest.mark.parametrize("coeffs", [
        CoefficientSequence((1.0, 0.5)),
        CoefficientSequence(tuple(0.99**j for j in range(301))),
        arma_to_ma([0.5], []),
    ], ids=["ma1", "geometric_j300", "ar1"])
    def test_pairwise_dependence_sum_is_norm_times_phi3(self, coeffs):
        # Both come from one loop over lag pairs, so the nested-loop oracle
        # is the independent reference.
        for gamma in (1.0 / 3.0, 1.0):
            expected = pairwise_dependence_sum(coeffs, gamma)
            norm, _, _, p3 = phi_bruteforce(coeffs.coeffs, gamma, -1.0)
            assert expected == pytest.approx(norm * p3, rel=1e-12)
            for r in (-0.5, -2.0):
                phi = phi_constants(coeffs, gamma, r)
                assert phi.norm_c * phi.phi3 == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("gamma", [1e-4, 5e-324])
    def test_pairwise_dependence_sum_overflow_is_named(self, gamma):
        # It returned inf after a RuntimeWarning: overflow in the power at 1e-4, an
        # invalid product at 5e-324, where phi_constants named the norm's overflow.
        with pytest.raises(OverflowError, match=re.escape(
                f"pairwise dependence sum overflows at gamma={gamma!r}")):
            pairwise_dependence_sum(CoefficientSequence((2.0, 3.0)), gamma)

    @pytest.mark.parametrize("cube", [2e306, 4e306])
    def test_lag_pair_total_past_the_float_range_is_named(self, cube):
        # Each lag's sum is finite, but their Python float total was not: at 2e306
        # phi_constants returned phi1 = phi2 = inf with no warning, and at 4e306
        # pairwise_dependence_sum returned inf; estimator_cov named kappas (nan, nan, nan).
        m = cube ** (1.0 / 3.0)
        coeffs = CoefficientSequence([m, m * math.exp(-1.0 / 3.0)] * 20)
        message = re.escape(f"pairwise dependence sum overflows at gamma={1.0 / 3.0!r}")
        for call in (lambda: phi_constants(coeffs, 1.0 / 3.0, -0.5),
                     lambda: pairwise_dependence_sum(coeffs, 1.0 / 3.0),
                     lambda: estimator_cov(1.0 / 3.0, -0.5, coeffs)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match=f"^{message}$"):
                    call()


class TestRawLimits:
    def test_zero_phi_t1_and_tI(self):
        raw = raw_limits(0.5, -1.0, phi_at(0.0, 0.0, 0.0))
        assert raw.t1 == pytest.approx(0.5, abs=1e-15)
        assert raw.tI == 1.0

    def test_zero_phi_t2(self):
        raw = raw_limits(0.5, -1.0, phi_at(0.0, 0.0, 0.0))
        assert raw.t2 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_centering_weights(self):
        raw = raw_limits(1.0, -1.0, phi_at(0.0, 0.0, 0.0))
        assert raw.beta1p == 0.5
        assert raw.beta2p == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("gamma,r", [(1.0 / 3.0, -0.5), (1.0, -2.0)])
    @pytest.mark.parametrize("coeffs", [
        (1.0,), (1.0, 0.5), (1.0, 0.5, 0.25, 0.9), tuple(0.5**j for j in range(12))])
    def test_match_the_tail_process_formula(self, coeffs, gamma, r):
        # The oracle integrates each lag pair's tail-process term and never
        # forms phi_1..phi_3, so it checks the phi algebra of raw_limits.
        raw = raw_limits(gamma, r, phi_constants(CoefficientSequence(coeffs), gamma, r))
        for name, want in tail_sum_limits(coeffs, gamma, r).items():
            assert getattr(raw, name) == pytest.approx(want, rel=1e-12), name

    @pytest.mark.parametrize("gamma,r", [(1.0 / 3.0, -0.5), (1.0, -2.0), (0.5, -1.0)])
    def test_tail_process_formula_iid_values(self, gamma, r):
        got = tail_sum_limits((1.0,), gamma, r)
        want = {"tI": 1.0, "t1": 2.0 * gamma**2, "t1I": gamma, "t2I": -r / (1.0 - r)}
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-12), name


class TestKappas:
    def test_zero_phi_kappa1(self):
        k1, _, _ = asymptotics._centered(raw_limits(0.5, -1.0, phi_at(0.0, 0.0, 0.0)))
        assert k1 == pytest.approx(0.25 * 2.5 / 2.25, abs=1e-15)

    def test_zero_phi_kappa2(self):
        _, k2, _ = asymptotics._centered(raw_limits(1.0, -1.0, phi_at(0.0, 0.0, 0.0)))
        assert k2 == pytest.approx((4.0 + 2.0) / 54.0, abs=1e-15)

    @staticmethod
    def _worst_against_expanded(gammas, rs, phi_grid):
        """Worst absolute and relative deviation of kappa from the paper's
        expanded forms over a (gamma, r, phi1, phi2, phi3) grid."""
        worst_abs = worst_rel = 0.0
        for g in gammas:
            for r in rs:
                for p1, p2, p3 in itertools.product(phi_grid, repeat=3):
                    got = asymptotics._centered(raw_limits(g, r, phi_at(p1, p2, p3)))
                    for k, ref in zip(got, kappas_expanded(g, r, p1, p2, p3)):
                        worst_abs = max(worst_abs, abs(k - ref))
                        worst_rel = max(worst_rel, abs(k - ref) / abs(ref))
        return worst_abs, worst_rel

    def test_identities_on_dense_grid(self):
        worst_abs, _ = self._worst_against_expanded(
            np.linspace(0.2, 2.0, 10), np.linspace(-2.0, -0.1, 10),
            np.linspace(0.0, 1.0, 5))
        assert worst_abs <= 1e-12

    def test_expanded_forms_on_wide_grid(self):
        _, worst_rel = self._worst_against_expanded(
            np.geomspace(0.05, 5.0, 9), -np.geomspace(20.0, 0.01, 9),
            np.linspace(0.0, 10.0, 5))
        assert worst_rel <= 1e-12


class TestMatrices:
    def test_linearization_hand_values(self):
        np.testing.assert_allclose(linearization_matrix(1.0, -1.0),
                                   [[4.0, 12.0], [-2.0, -12.0]], atol=1e-14)

    def test_linearization_matches_expanded_form(self):
        for g in GAMMA_GRID:
            for r in R_GRID:
                ref = linearization_expanded(g, r)
                rel = np.abs(linearization_matrix(g, r) - ref) / np.abs(ref)
                assert rel.max() <= 1e-13

    def test_linearization_inverts_negated_jacobian(self):
        for g in GAMMA_GRID:
            for r in R_GRID:
                lmat = linearization_matrix(g, r)
                prod = lmat @ (-jacobian_limit(g, r))
                assert np.abs(prod - np.eye(2)).max() <= 1e-12
                assert abs(np.linalg.det(lmat)) > 1e-12

    @pytest.mark.parametrize("function,gamma,r,message", [
        (jacobian_limit, 0.5, -1e300, "Jacobian limit overflows at gamma=0.5, r=-1e+300"),
        (linearization_matrix, 0.5, -1e300,
         "Jacobian limit overflows at gamma=0.5, r=-1e+300"),
        (linearization_matrix, 1e-320, -1.0,
         "linearization matrix overflows at gamma=1e-320, r=-1.0"),
        (linearization_matrix, 0.5, -1e-20,
         "linearization matrix overflows at gamma=0.5, r=-1e-20"),
    ])
    def test_overflow_is_named(self, function, gamma, r, message):
        # (1 - r)**2 raised a bare errno, and L at a subnormal det, or at a
        # det rounded to zero, was inf with a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                function(gamma, r)
        assert str(info.value) == message

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            linearization_matrix(0.0, -1.0)
        with pytest.raises(ValueError):
            jacobian_limit(1.0, 0.0)


class TestEstimatorCov:
    def test_iid_kappa1_closed_form_on_grid(self):
        seq = CoefficientSequence((1.0,))
        for g in GAMMA_GRID:
            report = estimator_cov(g, -1.0, seq)
            expected = g**2 * (2 * g**2 + 2 * g + 1) / (g + 1) ** 2
            assert abs(report.kappa1 - expected) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.1, 1.0 / 3.0, 0.5, 1.0, 2.0])
    def test_iid_at_r_minus_gamma_is_the_gpd_mle_cov(self, gamma):
        # At r = -gamma the iid LME covariance is the GPD MLE's (de Haan and
        # Ferreira 2006, Thm 3.4.2); checks the whole L S L^T chain.
        report = estimator_cov(gamma, -gamma, CoefficientSequence((1.0,)))
        a = 1.0 + gamma
        np.testing.assert_allclose(report.estimator_cov,
                                   [[a**2, -a], [-a, 1.0 + a**2]], rtol=1e-12, atol=0)

    def test_iid_entry_composed_by_hand(self):
        # gamma = 0.5, r = -1: kappa = (5/18, 7/75, 17/120),
        # L = [[6, 10], [-3, -10]], so the (1,1) entry is
        # 36*k1 - 120*k3 + 100*k2 = 10 - 17 + 28/3 = 7/3.
        report = estimator_cov(0.5, -1.0, CoefficientSequence((1.0,)))
        k1 = 0.25 * 2.5 / 2.25
        k2 = 3.5 / 37.5
        k3 = 0.5 * 4.25 / 15.0
        assert report.kappa2 == pytest.approx(k2, abs=1e-15)
        assert report.kappa3 == pytest.approx(k3, abs=1e-15)
        expected_11 = 36.0 * k1 - 120.0 * k3 + 100.0 * k2
        assert report.estimator_cov[0, 0] == pytest.approx(expected_11, rel=1e-13)
        np.testing.assert_allclose(report.l_matrix, [[6.0, 10.0], [-3.0, -10.0]],
                                   atol=1e-14)

    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 0.5), (1.0, -0.4, 0.2),
                                        (0.3, 1.0, 0.3)])
    def test_psd_across_grid(self, coeffs):
        seq = CoefficientSequence(coeffs)
        for g in GAMMA_GRID[::2]:
            for r in R_GRID[::4]:
                report = estimator_cov(g, r, seq)
                assert np.linalg.eigvalsh(report.sigma_matrix).min() >= -1e-10
                assert np.linalg.eigvalsh(report.estimator_cov).min() >= -1e-10
                np.testing.assert_array_equal(report.estimator_cov,
                                              report.estimator_cov.T)

    def test_coefficient_scaling_leaves_report_unchanged(self):
        a = estimator_cov(0.5, -0.7, CoefficientSequence((1.0, 0.5, 0.2)))
        b = estimator_cov(0.5, -0.7, CoefficientSequence((3.0, 1.5, 0.6)))
        np.testing.assert_allclose(b.estimator_cov, a.estimator_cov, rtol=1e-12)
        assert b.phi.phi1 == pytest.approx(a.phi.phi1, rel=1e-12)

    @pytest.mark.parametrize("r", [-1e-6, -1e-20, -1e-200])
    def test_cancellation_at_tiny_r_raises(self, r):
        # J's rows become parallel as r -> 0: at -1e-6 L S L^T came out with
        # negative variances, at -1e-20 infinite, at -1e-200 nan after warnings.
        # At |r| <= 1e-16 det rounds to zero, and L itself overflows.
        message = ("not finite and positive definite" if r == -1e-6
                   else f"^linearization matrix overflows at gamma=0.3333, r={r!r}$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=message):
                estimator_cov(0.3333, r, CoefficientSequence((1.0, 0.5)))

    def test_huge_gamma_names_the_kappas(self):
        # sigma_matrix's ValueError made a valid gamma a usage error.
        with pytest.raises(ArithmeticError,
                           match=r"kappas \(inf, .*\) are not finite at gamma=1e\+300, r=-1.0"):
            estimator_cov(1e300, -1.0, CoefficientSequence((1.0, 0.5)))

    def test_kappa2_rounded_below_zero_is_a_numerical_failure(self):
        # kappa2 computes to -2.2e-16 here, and sigma_matrix's input rule raised
        # ValueError("kappa2 must lie in [0, inf)"), a usage error.
        with pytest.raises(ArithmeticError, match=r"^covariance L S L\^T is not finite and "
                                                  r"positive definite at gamma=0.2, r=-1e\+100$"):
            estimator_cov(0.2, -1e100, CoefficientSequence((1.0, 0.5)))

    @pytest.mark.parametrize("coeffs", WIDE_COEFFS, ids=str)
    @pytest.mark.parametrize("gamma", WIDE_GAMMAS)
    def test_every_cell_returns_or_raises_arithmetic_error(self, gamma, coeffs):
        # 17 cells at r -1e30 and -1e100 raised ValueError on a kappa2 below zero.
        c = CoefficientSequence(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in WIDE_RS:
                try:
                    estimator_cov(gamma, r, c)
                except ArithmeticError:
                    pass
                except Exception as exc:
                    pytest.fail(f"r={r!r}: {exc!r}")

    def test_huge_r_overflow_is_named(self):
        # Python's float r**2 raised OverflowError(34, 'Numerical result out of range').
        with pytest.raises(OverflowError, match=r"raw limits overflow at gamma=0.5, r=-1e\+300"):
            estimator_cov(0.5, -1e300, CoefficientSequence((1.0, 0.5)))

    def test_report_key_order(self):
        report = estimator_cov(0.5, -1.0, CoefficientSequence((1.0, 0.5)))
        payload = report.to_dict()
        assert list(payload) == [
            "gamma", "r", "norm_c", "phi1", "phi2", "phi3", "truncation_error",
            "raw_limits", "kappa1", "kappa2", "kappa3", "sigma_matrix",
            "l_matrix", "estimator_cov"]
        assert list(payload["raw_limits"]) == [
            "t1", "t2", "tI", "t12", "t1I", "t2I", "beta1p", "beta2p"]

    def test_report_serializes(self):
        import json

        report = estimator_cov(0.5, -1.0, CoefficientSequence((1.0, 0.5)))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["kappa1"] == report.kappa1
        assert payload["raw_limits"]["tI"] == report.raw.tI
        assert len(payload["estimator_cov"]) == 2
