import warnings

import numpy as np
import pytest

from oracles import convolution_tail, invert_three_term_tail
from tailproc import second_order
from tailproc.process import CoefficientSequence, arma_to_ma
from tailproc.second_order import (
    ZERO_REL_TOL,
    check_conditions,
    choose_k,
    quantile_expansion,
    second_order_rates,
    second_tail_vanishes,
    tail_expansion,
)

IID = CoefficientSequence((1.0,))
DEP = CoefficientSequence((1.0, 0.5))


@pytest.fixture
def power_sum_exponents(monkeypatch):
    """Exponents of every ``CoefficientSequence.power_sum`` call, in call order."""
    exponents = []
    power_sum = CoefficientSequence.power_sum

    def counting(self, u):
        exponents.append(u)
        return power_sum(self, u)

    monkeypatch.setattr(CoefficientSequence, "power_sum", counting)
    return exponents


class TestPowerSum:
    def test_linear(self):
        assert DEP.power_sum(1.0) == 1.5

    def test_cubic(self):
        assert DEP.power_sum(3.0) == 1.125

    def test_fractional(self):
        assert DEP.power_sum(0.45) == pytest.approx(1.0 + 0.5**0.45, abs=1e-15)

    def test_overflow_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflows"):
                CoefficientSequence((1e200, 1.0)).power_sum(2.0)

    def test_underflow_to_zero_raises_naming_the_exponent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=r"\|c_j\|\*\*3\.0 underflows to zero"):
                CoefficientSequence((1e-200, 1e-200)).power_sum(3.0)
            # One term that underflows does not zero the sum.
            assert CoefficientSequence((1.0, 1e-200)).power_sum(3.0) == 1.0


class TestSecondTailVanishes:
    def test_one_nonzero_coefficient_vanishes(self):
        assert second_tail_vanishes(3.0, IID)
        assert second_tail_vanishes(3.7, CoefficientSequence((0.0, 2.5, 0.0)))
        assert not second_tail_vanishes(3.0, DEP)

    def test_needs_no_innovation_moments(self, power_sum_exponents):
        # alpha 1.5 has no innovation variance; negative coefficients enter by |c_j|.
        assert second_tail_vanishes(1.5, IID)
        assert not second_tail_vanishes(1.5, CoefficientSequence((1.0, -0.5)))
        assert power_sum_exponents == [1.0, 1.5, 2.5] * 2
        with pytest.raises(ValueError, match="alpha"):
            second_tail_vanishes(0.0, IID)
        with pytest.raises(ValueError, match="alpha"):
            second_tail_vanishes(float("nan"), DEP)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 4.5])
    @pytest.mark.parametrize("coeffs", [
        IID, DEP, CoefficientSequence((1.0, 0.8, 0.3)), CoefficientSequence((0.2, 1.0)),
        CoefficientSequence((1.0, 1.0)), CoefficientSequence((0.0, 3.0)),
        arma_to_ma([0.5], []), arma_to_ma([0.6], [0.4]), arma_to_ma([], [0.5]),
    ])
    def test_agrees_with_the_ct2_rule(self, alpha, coeffs):
        # The case as decided from ct2 itself, relative to ct1, ct2 and 1.
        ct1, ct2, _ = tail_expansion(alpha, coeffs).c_tilde
        by_ct2 = abs(ct2) <= ZERO_REL_TOL * max(abs(ct1), abs(ct2), 1.0)
        assert second_tail_vanishes(alpha, coeffs) == by_ct2
        assert tail_expansion(alpha, coeffs).c2_is_zero == by_ct2


class TestTailExpansion:
    def test_iid_degenerates_exactly(self):
        texp = tail_expansion(3.0, IID)
        assert texp.c_tilde == (1.0, 0.0, 0.0)
        assert texp.ct3_terms == (0.0, 0.0)
        assert texp.c2_is_zero

    def test_hand_values(self):
        texp = tail_expansion(3.0, DEP)
        assert texp.c_tilde[0] == pytest.approx(1.125, abs=1e-15)
        assert texp.c_tilde[1] == pytest.approx(2.8125, abs=1e-13)
        assert texp.c_tilde[2] == pytest.approx(8.4375, abs=1e-13)
        assert texp.ct3_terms == pytest.approx((0.5625, 0.84375), abs=1e-15)
        assert not texp.c2_is_zero

    def test_each_power_sum_evaluated_once(self, power_sum_exponents):
        tail_expansion(3.0, DEP)
        assert sorted(power_sum_exponents) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_alpha_must_exceed_two(self):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(2, inf\)$"):
            tail_expansion(2.0, DEP)

    def test_overflow_is_named(self):
        # Python's float ct2**2 raised OverflowError(34, 'Numerical result out of range').
        with pytest.raises(OverflowError, match="tail expansion's squares overflow at alpha=3.0"):
            tail_expansion(3.0, CoefficientSequence((1e60, 1e59)))

    def test_quadrature_oracle_at_t_100(self):
        texp = tail_expansion(3.0, DEP)
        truth = convolution_tail(100.0, 1.0, 0.5, 3.0)
        approx = float(texp.survival(100.0))
        assert abs(approx - truth) / truth <= 1e-3

    def test_quadrature_oracle_improves_with_t(self):
        texp = tail_expansion(3.0, DEP)
        errors = []
        for t in (50.0, 100.0, 200.0):
            truth = convolution_tail(t, 1.0, 0.5, 3.0)
            errors.append(abs(float(texp.survival(t)) - truth) / truth)
        assert errors[0] > errors[1] > errors[2]

    def test_quadrature_oracle_other_coefficients(self):
        seq = CoefficientSequence((1.0, 0.8))
        texp = tail_expansion(4.0, seq)
        truth = convolution_tail(80.0, 1.0, 0.8, 4.0)
        assert abs(float(texp.survival(80.0)) - truth) / truth <= 1e-3


class TestQuantileExpansion:
    def test_iid_is_pure_power(self):
        qexp = quantile_expansion(tail_expansion(3.0, IID))
        assert qexp.a == (1.0, 0.0, 0.0)
        assert qexp.tail.c2_is_zero
        assert float(qexp.b(1000.0)) == pytest.approx(10.0, rel=1e-15)

    def test_hand_values(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        a1, a2, a3 = qexp.a
        assert a1 == pytest.approx(1.125 ** (1.0 / 3.0), rel=1e-14)
        assert a2 == pytest.approx(2.8125 / 3.375, rel=1e-14)
        assert a3 == pytest.approx(1.0683330150425248, rel=1e-12)
        assert not qexp.tail.c2_is_zero

    def test_inversion_oracle(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        x = 1e6
        b_direct = invert_three_term_tail(x, qexp.tail.c_tilde, 3.0)
        assert abs(float(qexp.b(x)) - b_direct) / b_direct <= 1e-3


class TestSecondOrderRates:
    def test_iid_has_no_second_order_error(self):
        qexp = quantile_expansion(tail_expansion(3.0, IID))
        for n, k in ((10**4, 50), (10**6, 144)):
            assert second_order_rates(n, k, qexp) == (0.0, 0.0)

    def test_plug_in_values(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        rate_2erv, rate_2rv = second_order_rates(10**6, 144, qexp)
        a1, _, a3 = qexp.a
        x = 10**6 / 144
        assert rate_2erv == pytest.approx(12.0 * abs(2 * a3 / (3 * a1)) * x ** (-2 / 3),
                                          rel=1e-12)
        assert rate_2rv == pytest.approx(12.0 * 2.5 / float(qexp.b(x)), rel=1e-12)
        assert 0.0 < rate_2erv < 1.0
        # The tail-function rate is above one at this (n, k): the growth rule
        # satisfies the limit conditions but the bias is not yet negligible.
        assert rate_2rv > 1.0

    def test_rates_decrease_along_growth_rule(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        rates = []
        for n in (10**4, 10**5, 10**6):
            k = choose_k(n, 0.9, 3.0, False)
            rates.append(second_order_rates(n, k, qexp))
        assert rates[0][0] > rates[1][0] > rates[2][0]
        assert rates[0][1] > rates[1][1] > rates[2][1]

    def test_doubling_n_at_fixed_k_decreases_both(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        first = second_order_rates(10**5, 100, qexp)
        second = second_order_rates(2 * 10**5, 100, qexp)
        assert second[0] < first[0] and second[1] < first[1]

    def test_domain(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        with pytest.raises(ValueError):
            second_order_rates(100, 100, qexp)

    def test_n_past_the_float_range_is_named(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        with pytest.raises(OverflowError, match=r"^second-order rates overflow at n=10{400}, k=50$"):
            second_order_rates(10**400, 50, qexp)


class TestChooseK:
    def test_printed_examples(self):
        assert choose_k(10**5, 0.9, 3.0, False) == 63
        assert choose_k(10**6, 0.9, 3.0, False) == 144

    def test_zero_second_coefficient_branch(self):
        assert choose_k(10**6, 0.9, 3.0, True) == 1218

    def test_clamped_to_valid_range(self):
        assert choose_k(4, 0.1, 3.0, False) == 2
        assert 2 <= choose_k(10, 0.99, 2.5, False) <= 9

    def test_growth_window(self):
        # n / k**1.5 >= n**(1 - 3 theta/(2 + alpha)) must diverge.
        for theta in (0.5, 0.9, 0.99):
            for n in (10**3, 10**5, 10**7):
                k = choose_k(n, theta, 3.0, False)
                assert n / k**1.5 >= 0.9 * n ** (1.0 - 3.0 * theta / 5.0)

    def test_theta_domain(self):
        with pytest.raises(ValueError, match="theta"):
            choose_k(100, 1.0, 3.0, False)

    def test_theta_that_is_not_a_number_is_refused(self):
        with pytest.raises(ValueError, match=r"^theta must lie in \(0, 1\)$"):
            choose_k(100, None, 3.0, False)

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            choose_k(100, 0.9, float("nan"), False)

    def test_n_domain(self):
        with pytest.raises(ValueError, match="n must be >= 2"):
            choose_k(1, 0.9, 3.0, False)

    def test_n_past_the_float_range_is_named(self):
        # n**exponent raised Python's bare "int too large to convert to float".
        with pytest.raises(OverflowError, match=r"^growth rule overflows at n=10{400}$"):
            choose_k(10**400, 0.9, 3.0, False)


class TestCheckConditions:
    def test_iid_fails_exactly_the_two_nonzero_conditions(self):
        report = check_conditions(3.0, IID)
        assert report.failing == ["(ii)", "(iii)"]
        assert report.verdict is False

    def test_dependent_case_passes_with_witnesses(self):
        report = check_conditions(3.0, DEP, xi=0.9)
        assert report.verdict is True
        by_name = {c.name: c for c in report.checks}
        assert by_name["(i)"].witness["eta"] == pytest.approx(0.45, abs=1e-15)
        assert by_name["(i)"].witness["C_eta"] == pytest.approx(1.73204, abs=5e-6)
        assert by_name["(iii)"].witness["value"] == pytest.approx(-4.21875, abs=1e-12)

    def test_equal_coefficients_pass_variance_condition(self):
        report = check_conditions(3.0, CoefficientSequence((1.0, 1.0)))
        by_name = {c.name: c for c in report.checks}
        assert by_name["(ii)"].passed
        assert by_name["(ii)"].witness["value"] == pytest.approx(7.5, abs=1e-12)

    @pytest.mark.parametrize("alpha,coeffs", [(3.0, (1.0, 0.5)), (4.5, (1.0, 0.8, 0.3)),
                                              (2.5, (0.2, 1.0))])
    def test_condition_ii_is_the_ct3_bracket(self, alpha, coeffs):
        seq = CoefficientSequence(coeffs)
        by_name = {c.name: c for c in check_conditions(alpha, seq).checks}
        witness = by_name["(ii)"].witness
        texp = tail_expansion(alpha, seq)
        assert (witness["variance_term"], witness["mean_term"]) == texp.ct3_terms
        assert witness["value"] == sum(texp.ct3_terms)
        assert texp.c_tilde[2] == 0.5 * alpha * (alpha + 1.0) * witness["value"]

    @pytest.mark.parametrize("alpha,coeffs", [(3.0, (1.0, 0.5)), (4.5, (1.0, 0.8, 0.3)),
                                              (2.5, (0.2, 1.0))])
    def test_condition_iii_and_a3_share_the_inversion_bracket(self, alpha, coeffs):
        seq = CoefficientSequence(coeffs)
        by_name = {c.name: c for c in check_conditions(alpha, seq).checks}
        witness = by_name["(iii)"].witness
        texp = tail_expansion(alpha, seq)
        ct1, ct2, ct3 = texp.c_tilde
        lhs, rhs = texp.inversion_terms
        assert (lhs, rhs) == ((1.0 + alpha) * ct2**2 / (2.0 * alpha), ct1 * ct3)
        assert (witness["lhs"], witness["rhs"], witness["value"]) == (lhs, rhs, lhs - rhs)
        a3 = quantile_expansion(texp).a[2]
        assert a3 == -(ct1 ** (-1.0 / alpha - 2.0) * (lhs - rhs) / alpha)

    def test_builds_one_tail_expansion(self, monkeypatch, power_sum_exponents):
        builds = []

        def counting(*args):
            builds.append(args)
            return tail_expansion(*args)

        monkeypatch.setattr(second_order, "tail_expansion", counting)
        check_conditions(3.0, DEP, xi=0.9)
        assert len(builds) == 1
        assert sorted(power_sum_exponents) == pytest.approx([0.45, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_checks_the_signs_once(self, monkeypatch):
        # The sign check lives in tail_expansion alone: check_conditions
        # rejects negative coefficients from inside its one build.
        builds = []

        def counting(*args):
            builds.append(args)
            return tail_expansion(*args)

        monkeypatch.setattr(second_order, "tail_expansion", counting)
        negative = CoefficientSequence((1.0, -0.5))
        for build in (tail_expansion, check_conditions):
            with pytest.raises(ValueError, match="non-negative"):
                build(3.0, negative)
        assert builds == [(3.0, negative)]

    def test_condition_i_holds_by_construction(self):
        report = check_conditions(3.0, DEP)
        row = {c.name: c for c in report.checks}["(i)"]
        assert row.passed and "power_sum raises" in row.note
        assert report.coeffs is DEP.coeffs

    def test_report_serializes(self):
        import json

        payload = json.loads(json.dumps(check_conditions(3.0, DEP).to_dict()))
        assert payload["verdict"] is True
        assert payload["failing"] == []

    def test_xi_domain(self):
        with pytest.raises(ValueError, match="xi"):
            check_conditions(3.0, DEP, xi=1.0)
