import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.stats import genpareto

from oracles import lme_root_scan, moment_gap_plain
from tailproc import estimator
from tailproc.estimator import (
    ExcessSample,
    GpdParams,
    LmeSolverError,
    lme_fit,
    top_k_excesses,
)
from tailproc.process import CoefficientSequence, InnovationModel, philox_stream, simulate


def quantile_grid_sample(gamma, sigma, k):
    """Excesses at the midpoint probability grid of the limit law."""
    p = (np.arange(k) + 0.5) / k
    return ExcessSample.from_excesses(GpdParams(gamma, sigma).quantile(p))


class TestGpd:
    def test_quantile_values(self):
        assert GpdParams(1.0, 1.0).quantile(0.5) == pytest.approx(1.0, abs=1e-15)
        assert GpdParams(0.5, 1.0).quantile(0.9375) == pytest.approx(6.0, rel=1e-13)

    def test_quantile_domain(self):
        with pytest.raises(ValueError, match="p must lie"):
            GpdParams(1.0, 1.0).quantile(1.0)
        with pytest.raises(ValueError, match="p must lie"):
            GpdParams(1.0, 1.0).quantile(-0.01)

    def test_nan_rejected(self):
        gpd = GpdParams(1.0 / 3.0, 1.0)
        for p in (np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="p must lie"):
                gpd.quantile(p)

    def test_overflowing_quantile_raises(self):
        # At gamma 1000, p 0.9 overflows expm1; it warned and returned inf.
        gpd = GpdParams(1000.0, 1.0)
        assert math.isfinite(gpd.quantile(0.1))
        for p in (0.9, [0.1, 0.9]):
            with pytest.raises(OverflowError, match="GPD quantile overflows"):
                gpd.quantile(p)

    def test_round_trip_grid(self):
        params = GpdParams(0.5, 2.0)
        for p in np.arange(0.1, 0.95, 0.1):
            assert genpareto.cdf(params.quantile(p), 0.5, scale=2.0) == pytest.approx(
                p, abs=1e-12)

    @given(gamma=st.floats(min_value=0.05, max_value=3.0),
           sigma=st.floats(min_value=0.1, max_value=10.0),
           p=st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, gamma, sigma, p):
        x = GpdParams(gamma, sigma).quantile(p)
        assert genpareto.cdf(x, gamma, scale=sigma) == pytest.approx(p, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GpdParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GpdParams(0.5, 0.0)
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=r"^gamma must lie in \(0, inf\)$"):
                GpdParams(value, 1.0)
            with pytest.raises(ValueError, match=r"^sigma must lie in \(0, inf\)$"):
                GpdParams(0.5, value)


class TestTopKExcesses:
    def test_hand_ordering(self):
        sample = top_k_excesses([5.0, -1.0, 4.0, 2.0, -3.0], 2)
        assert sample.threshold == 3.0
        np.testing.assert_array_equal(sample.excesses, [2.0, 1.0])
        assert sample.k == 2

    def test_increasing_series(self):
        sample = top_k_excesses([1.0, 2.0, 3.0], 2)
        assert sample.threshold == 1.0
        np.testing.assert_array_equal(sample.excesses, [2.0, 1.0])

    def test_k_equals_n_minus_one_uses_min(self):
        series = [5.0, -1.0, 4.0, 2.0, -3.0]
        sample = top_k_excesses(series, 4)
        assert sample.threshold == 1.0

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k must be <= 1"):
            top_k_excesses([1.0, 2.0], 2)

    @pytest.mark.parametrize("k", [5.0, True, np.float64(2.0)])
    def test_k_must_be_an_integer(self, k):
        # 5.0 raised np.partition's TypeError and True gave a k = 1 sample.
        series = np.arange(10.0)
        with pytest.raises(ValueError, match="k must be an integer"):
            top_k_excesses(series, k)
        assert top_k_excesses(series, np.int64(5)).k == 5

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            top_k_excesses([1.0, 2.0, 3.0], 0)

    def test_exceedance_count(self):
        rng = philox_stream(0)
        series = rng.standard_normal(500)
        sample = top_k_excesses(series, 50)
        assert np.sum(np.abs(series) > sample.threshold) == 50

    def test_sample_validation(self):
        given = np.array([1.0, 2.0])
        sample = ExcessSample(excesses=given, threshold=0.0)
        np.testing.assert_array_equal(sample.excesses, [2.0, 1.0])
        np.testing.assert_array_equal(given, [1.0, 2.0])  # sorted as a copy
        assert not sample.excesses.flags.writeable
        for not_a_sequence in (1.0, [[2.0, 1.0]]):
            with pytest.raises(ValueError, match="one-dimensional"):
                ExcessSample(excesses=np.array(not_a_sequence), threshold=0.0)
        with pytest.raises(ValueError, match=r"excesses must lie in \[0, inf\)"):
            ExcessSample(excesses=np.array([1.0, -2.0]), threshold=0.0)
        for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [np.nan, -1.0]):
            with pytest.raises(ValueError, match=r"excesses must lie in \[0, inf\)"):
                ExcessSample(excesses=np.array(bad), threshold=0.0)

    @pytest.mark.parametrize("threshold", [np.nan, -1.0, np.inf])
    def test_threshold_must_be_finite_and_non_negative(self, threshold):
        with pytest.raises(ValueError, match=r"^threshold must lie in \[0, inf\)$"):
            ExcessSample(excesses=[1.0, 2.0], threshold=threshold)

    def test_shuffled_sample_is_the_sorted_one(self):
        y = GpdParams(0.5, 1.0).quantile(philox_stream(7).random(1000))
        ordered = ExcessSample.from_excesses(np.sort(y)[::-1])
        shuffled = ExcessSample(excesses=np.random.default_rng(7).permutation(y),
                                threshold=0.0)
        assert shuffled.excesses.tobytes() == ordered.excesses.tobytes()
        assert lme_fit(shuffled, -1.0) == lme_fit(ordered, -1.0)

    def test_series_holding_nan_rejected(self):
        with pytest.raises(ValueError, match=r"excesses must lie in \[0, inf\)"):
            top_k_excesses([5.0, np.nan, 4.0, 2.0, -3.0], 2)


class TestLmeFit:
    def test_quantile_grid_recovery(self):
        sample = quantile_grid_sample(0.5, 1.0, 10**4)
        fit = lme_fit(sample, r=-1.0)
        assert abs(fit.gamma_hat - 0.5) <= 0.01
        assert abs(fit.sigma_hat - 1.0) <= 0.02

    def test_system_holds_at_estimate(self):
        sample = quantile_grid_sample(0.5, 1.0, 5000)
        fit = lme_fit(sample, r=-0.5)
        # First equation holds by construction, second within the residual.
        gamma_direct = np.log1p(fit.b_hat * sample.excesses).mean()
        assert fit.gamma_hat == pytest.approx(gamma_direct, abs=1e-15)
        assert fit.residual <= 1e-10
        assert fit.sigma_hat == pytest.approx(fit.gamma_hat / fit.b_hat, rel=1e-15)

    def test_constant_excesses_have_no_solution(self):
        sample = ExcessSample.from_excesses(np.full(100, 2.5))
        with pytest.raises(LmeSolverError, match="no LME solution found") as info:
            lme_fit(sample, r=-1.0)
        assert info.value.reason == "degenerate"
        clone = pickle.loads(pickle.dumps(info.value))
        assert (clone.reason, str(clone)) == ("degenerate", str(info.value))

    def test_residual_gate_failure_is_classified(self, monkeypatch):
        monkeypatch.setattr(estimator, "G_TOLERANCE", -1.0)
        with pytest.raises(LmeSolverError, match="no LME solution found") as info:
            lme_fit(quantile_grid_sample(0.5, 1.0, 100), r=-1.0)
        assert info.value.reason == "residual"

    @pytest.mark.parametrize("source,k,stream", [
        ("gpd", 144, 0), ("gpd", 144, 1), ("gpd", 144, 2),
        ("gpd", 10**4, 0), ("gpd", 10**4, 1),
        ("ma1", 144, 0), ("ma1", 144, 1), ("ma1", 1000, 2),
    ])
    def test_root_matches_reference_scan(self, source, k, stream):
        if source == "gpd":
            rng = philox_stream(2024, stream)
            sample = ExcessSample.from_excesses(
                GpdParams(1.0 / 3.0, 1.0).quantile(rng.random(k)))
        else:
            path = simulate(CoefficientSequence((1.0, 0.5)), InnovationModel(alpha=3.0),
                            10**5, 2024, stream=stream)
            sample = top_k_excesses(path.values, k)
        fit = lme_fit(sample, r=-0.5)
        reference = lme_root_scan(sample.excesses, -0.5)
        assert fit.b_hat == pytest.approx(reference, rel=1e-9)
        assert fit.iterations <= 30

    @pytest.mark.parametrize("gamma", [5.0, 8.0, 12.0, 20.0])
    def test_large_shape_root_above_1e12_matches_reference_scan(self, gamma):
        # The scale-free root t = b * mean excess of these grids lies above
        # 1e12, beyond the search window's former upper end.
        sample = quantile_grid_sample(gamma, 1.0, 1000)
        fit = lme_fit(sample, r=-1.0)
        assert fit.b_hat * sample.excesses.mean() > 1e12
        assert fit.b_hat == pytest.approx(lme_root_scan(sample.excesses, -1.0), rel=1e-9)
        assert abs(fit.gamma_hat - gamma) <= 0.02 * gamma

    def test_overflowing_b_hat_is_a_residual_failure(self):
        # Excesses scaled into the subnormal range: t_hat / mean excess
        # overflows, and the fit fails instead of returning inf and nan.
        sample = ExcessSample.from_excesses(
            quantile_grid_sample(1.0 / 3.0, 1.0, 200).excesses * 1e-310)
        with pytest.raises(LmeSolverError) as info:
            lme_fit(sample, r=-1.0)
        assert info.value.reason == "residual"

    def test_nan_residual_fails_the_gate(self, monkeypatch):
        sample = quantile_grid_sample(0.5, 1.0, 100)
        moment_gap = estimator._moment_gap

        def nan_at_root(b, z, r):
            assert z is not sample.excesses
            gap, gamma_b = moment_gap(b, z, r)
            return (float("nan") if abs(gap) <= estimator.G_TOLERANCE else gap), gamma_b

        monkeypatch.setattr(estimator, "_moment_gap", nan_at_root)
        with pytest.raises(LmeSolverError) as info:
            lme_fit(sample, r=-1.0)
        assert info.value.reason == "residual"

    def test_r_must_be_negative(self):
        sample = quantile_grid_sample(0.5, 1.0, 100)
        with pytest.raises(ValueError, match=r"^r must lie in \(-inf, 0\)$"):
            lme_fit(sample, r=0.0)

    def test_scale_equivariance_power_of_two_is_exact(self):
        rng = philox_stream(31)
        base = ExcessSample.from_excesses(GpdParams(0.4, 1.0).quantile(rng.random(2000)))
        scaled = ExcessSample.from_excesses(4.0 * base.excesses)
        fit0 = lme_fit(base, r=-1.0)
        fit1 = lme_fit(scaled, r=-1.0)
        assert fit1.gamma_hat == fit0.gamma_hat
        assert fit1.sigma_hat == 4.0 * fit0.sigma_hat

    def test_scale_equivariance_at_an_overflowing_sum(self):
        # The excesses' sum overflows, but not their mean.
        rng = philox_stream(31)
        base = ExcessSample.from_excesses(GpdParams(0.4, 1.0).quantile(rng.random(2000)))
        scaled = ExcessSample.from_excesses(2.0**1015 * base.excesses)
        with pytest.raises(OverflowError):
            math.fsum(scaled.excesses)
        fit0 = lme_fit(base, r=-1.0)
        fit1 = lme_fit(scaled, r=-1.0)
        assert fit1.gamma_hat == fit0.gamma_hat
        assert fit1.sigma_hat == 2.0**1015 * fit0.sigma_hat

    def test_start_at_pwm_estimate_bounds_evaluations(self):
        # About six evaluations: the start, one step of 1 + 4/sqrt(k) across
        # the root, and the regula falsi steps.
        iterations = [
            lme_fit(ExcessSample.from_excesses(
                GpdParams(1.0 / 3.0, 1.0).quantile(philox_stream(15, i).random(10**4))),
                r=-0.5).iterations
            for i in range(40)]
        assert np.median(iterations) <= 7
        assert max(iterations) <= 9

    def test_start_at_one_without_pwm_estimate(self, monkeypatch):
        # A light sample of shape 0.1 whose PWM estimate of t is negative.
        sample = ExcessSample.from_excesses(
            GpdParams(0.1, 1.0).quantile(philox_stream(35).random(20)))
        z = sample.excesses / sample.excesses.mean()
        a1 = np.dot(np.arange(sample.k) + 0.35, z) / sample.k**2
        assert 1.0 / (2.0 * a1) - 2.0 <= 0.0
        calls = []
        moment_gap = estimator._moment_gap
        monkeypatch.setattr(estimator, "_moment_gap",
                            lambda t, z, r: calls.append(t) or moment_gap(t, z, r))
        fit = lme_fit(sample, r=-0.5)
        assert calls[0] == 1.0
        assert fit.b_hat == pytest.approx(lme_root_scan(sample.excesses, -0.5), rel=1e-9)

    @given(lam=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_equivariance_property(self, lam):
        rng = philox_stream(32)
        base = ExcessSample.from_excesses(GpdParams(0.6, 2.0).quantile(rng.random(500)))
        scaled = ExcessSample.from_excesses(lam * base.excesses)
        fit0 = lme_fit(base, r=-0.5)
        fit1 = lme_fit(scaled, r=-0.5)
        assert fit1.gamma_hat == pytest.approx(fit0.gamma_hat, rel=1e-9)
        assert fit1.sigma_hat == pytest.approx(lam * fit0.sigma_hat, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("r", [-0.5, -1.0, -2.0])
    def test_consistency_on_iid_limit_samples(self, gamma, r):
        k = 10**5
        rng = philox_stream(1000 + int(10 * gamma))
        sample = ExcessSample.from_excesses(GpdParams(gamma, 1.0).quantile(rng.random(k)))
        fit = lme_fit(sample, r)
        assert abs(fit.gamma_hat - gamma) <= 5.0 * (1.0 + gamma) / np.sqrt(k)

    def test_requires_two_excesses(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            lme_fit(ExcessSample.from_excesses([1.0]), r=-1.0)


class TestMomentGap:
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 3000),
           gamma=st.floats(min_value=0.05, max_value=5.0),
           log_t=st.floats(min_value=-12.0, max_value=12.0),
           r=st.floats(min_value=-5.0, max_value=-0.01))
    @settings(max_examples=200, deadline=None)
    def test_equals_plain_expression_bit_for_bit(self, seed, k, gamma, log_t, r):
        y = GpdParams(gamma, 1.0).quantile(np.random.default_rng(seed).random(k))
        b = 10.0 ** log_t / float(y.mean())
        assert estimator._moment_gap(b, y, r) == moment_gap_plain(b, y, r)

    @pytest.mark.parametrize("gamma", [0.1, 1.0 / 3.0, 1.0, 3.0])
    @pytest.mark.parametrize("r", [-0.5, -2.0])
    def test_fit_never_repeats_an_evaluation(self, monkeypatch, gamma, r):
        calls = []
        moment_gap = estimator._moment_gap

        def spy(t, z, r):
            calls.append((t, z, moment_gap(t, z, r)))
            return calls[-1][2]

        monkeypatch.setattr(estimator, "_moment_gap", spy)
        sample = quantile_grid_sample(gamma, 2.0, 500)
        fit = lme_fit(sample, r)
        assert fit.iterations == len(calls)
        # Every call is a distinct t on the excesses scaled to mean one, and
        # the fit is read off the call at the root: b_hat = t_hat / mean excess.
        ts = [t for t, z, result in calls]
        assert len(set(ts)) == len(ts)
        assert all(z is calls[0][1] and z is not sample.excesses for t, z, result in calls)
        ybar = float(sample.excesses.mean())
        [(gap, gamma_b)] = [result for t, z, result in calls if t / ybar == fit.b_hat]
        assert (fit.residual, fit.gamma_hat) == (abs(gap), gamma_b)


def root_points(f, a, b):
    """Root and evaluation points of ``estimator._bracketed_root``."""
    points = []

    def recording(x):
        points.append(x)
        return f(x)

    return estimator._bracketed_root(recording, a, b), points


def scipy_root_evaluations(f, a, b):
    """Root and number of evaluations of ``scipy.optimize.brentq`` at the
    tolerances of ``lme_fit``."""
    root, info = optimize.brentq(f, a, b, xtol=estimator.ROOT_XTOL, rtol=estimator.ROOT_RTOL,
                                 maxiter=estimator.ROOT_MAX_ITER, full_output=True)
    return root, info.function_calls


def within_root_tolerance(x, root):
    return abs(x - root) <= 2.0 * (estimator.ROOT_XTOL + estimator.ROOT_RTOL * abs(root))


class TestBrentq:
    """The bracketed root step against ``scipy.optimize.brentq``."""

    def test_matches_scipy_on_moment_gaps(self, monkeypatch):
        brackets = []
        bracketed_root = estimator._bracketed_root

        def spy(f, a, b):
            brackets.append((f, a, b))
            return bracketed_root(f, a, b)

        monkeypatch.setattr(estimator, "_bracketed_root", spy)
        rng = np.random.default_rng(20070601)
        for gamma in (0.1, 1.0 / 3.0, 1.0, 3.0):
            for r in (-0.25, -1.0, -3.0):
                for k in (30, 300, 3000):
                    y = GpdParams(gamma, 1.0).quantile(rng.random(k))
                    try:
                        lme_fit(ExcessSample.from_excesses(y), r)
                    except LmeSolverError as exc:
                        assert exc.reason == "no_sign_change"  # never reaches the root step
        monkeypatch.undo()
        assert len(brackets) == 34
        evaluations = scipy_evaluations = 0
        for f, a, b in brackets:
            root, points = root_points(f, a, b)
            scipy_root, calls = scipy_root_evaluations(f, a, b)
            assert root in points
            assert within_root_tolerance(root, scipy_root)
            evaluations += len(points)
            scipy_evaluations += calls
        assert evaluations <= scipy_evaluations

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: (x * x - 2.0) * x - 5.0, 2.0, 3.0),  # Wallis's cubic
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x - 1.0, 1.0, 2.0),                  # root at the lower end
        (lambda x: x * x - 4.0, 0.0, 2.0),              # root at the upper end
        (lambda x: math.log(x) - math.log(3e299), 1e299, 8e299),  # near the window's top
    ])
    def test_matches_scipy_on_textbook_functions(self, f, a, b):
        root, points = root_points(f, a, b)
        scipy_root, calls = scipy_root_evaluations(f, a, b)
        assert root in points and points[:2] == [a, b]
        assert within_root_tolerance(root, scipy_root)
        # Brent's minimum step: without it, Wallis's cubic takes 34 evaluations.
        assert len(points) <= calls + 1
        if f(a) == 0.0 or f(b) == 0.0:
            assert points == [a, b] and f(root) == 0.0

    @given(log_lo=st.floats(min_value=math.log(1e-12), max_value=math.log(1e300 / 8.0)),
           ratio=st.floats(min_value=1.0 + 1e-9, max_value=8.0),
           at=st.floats(min_value=0.0, max_value=1.0),
           power=st.floats(min_value=0.1, max_value=10.0),
           sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=300, deadline=None)
    # Without Brent's step-length rule, (x/2.25)**10 - 1 on [1, 6] stalls:
    # the far end moves about 1% per cycle and the step runs out of steps.
    @example(log_lo=0.0, ratio=6.0, at=0.25, power=10.0, sign=1.0)
    def test_stops_at_a_sign_change_of_any_monotone_function(self, log_lo, ratio, at, power, sign):
        a = math.exp(log_lo)
        b = a * ratio
        t = min(max(a + at * (b - a), a), b)
        f = lambda x: sign * ((x / t) ** power - 1.0)
        x, points = root_points(f, a, b)
        assert x in points
        assert len(points) <= estimator.ROOT_MAX_ITER + 2
        width = 2.0 * (estimator.ROOT_XTOL + estimator.ROOT_RTOL * abs(x))
        assert f(x) == 0.0 or f(max(x - width, a)) * f(min(x + width, b)) <= 0.0

    @pytest.mark.parametrize("fa", [-1.0, math.nan])
    def test_non_finite_gap_is_a_residual_failure(self, fa):
        # A NaN at the lower end, or inside a bracket with finite ends.
        f = lambda x: fa if x == 0.0 else 1.0 if x == 1.0 else math.nan
        with pytest.raises(LmeSolverError) as info:
            estimator._bracketed_root(f, 0.0, 1.0)
        assert info.value.reason == "residual"

    def test_no_convergence_is_a_residual_failure(self, monkeypatch):
        # Wallis's cubic needs more than three steps.
        calls = []

        def cubic(x):
            calls.append(x)
            return (x * x - 2.0) * x - 5.0

        monkeypatch.setattr(estimator, "ROOT_MAX_ITER", 3)
        with pytest.raises(LmeSolverError, match="3 regula falsi steps") as info:
            estimator._bracketed_root(cubic, 2.0, 3.0)
        assert info.value.reason == "residual"
        assert len(calls) == estimator.ROOT_MAX_ITER + 2  # the two ends first
