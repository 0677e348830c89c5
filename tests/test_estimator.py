import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lme_root_scan
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
    def test_cdf_values(self):
        assert GpdParams(1.0, 1.0).cdf(1.0) == pytest.approx(0.5, abs=1e-15)
        assert GpdParams(0.5, 2.0).cdf(0.0) == 0.0
        assert GpdParams(0.5, 1.0).cdf(6.0) == pytest.approx(0.9375, abs=1e-15)

    def test_cdf_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be"):
            GpdParams(1.0, 1.0).cdf(-0.1)

    def test_quantile_values(self):
        assert GpdParams(1.0, 1.0).quantile(0.5) == pytest.approx(1.0, abs=1e-15)
        assert GpdParams(0.5, 1.0).quantile(0.9375) == pytest.approx(6.0, rel=1e-13)

    def test_quantile_domain(self):
        with pytest.raises(ValueError, match="p must lie"):
            GpdParams(1.0, 1.0).quantile(1.0)
        with pytest.raises(ValueError, match="p must lie"):
            GpdParams(1.0, 1.0).quantile(-0.01)

    def test_round_trip_grid(self):
        params = GpdParams(0.5, 2.0)
        for p in np.arange(0.1, 0.95, 0.1):
            assert params.cdf(params.quantile(p)) == pytest.approx(p, abs=1e-12)

    @given(gamma=st.floats(min_value=0.05, max_value=3.0),
           sigma=st.floats(min_value=0.1, max_value=10.0),
           p=st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, gamma, sigma, p):
        params = GpdParams(gamma, sigma)
        assert params.cdf(params.quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GpdParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GpdParams(0.5, 0.0)


class TestTopKExcesses:
    def test_hand_ordering(self):
        sample = top_k_excesses([5.0, -1.0, 4.0, 2.0, -3.0], 2)
        assert sample.threshold == 3.0
        np.testing.assert_array_equal(sample.excesses, [2.0, 1.0])
        assert (sample.k, sample.n) == (2, 5)

    def test_increasing_series(self):
        sample = top_k_excesses([1.0, 2.0, 3.0], 2)
        assert sample.threshold == 1.0
        np.testing.assert_array_equal(sample.excesses, [2.0, 1.0])

    def test_k_equals_n_minus_one_uses_min(self):
        series = [5.0, -1.0, 4.0, 2.0, -3.0]
        sample = top_k_excesses(series, 4)
        assert sample.threshold == 1.0

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k too large"):
            top_k_excesses([1.0, 2.0], 2)

    def test_exceedance_count(self):
        rng = philox_stream(0)
        series = rng.standard_normal(500)
        sample = top_k_excesses(series, 50)
        assert np.sum(np.abs(series) > sample.threshold) == 50

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            ExcessSample(excesses=np.array([1.0, 2.0]), threshold=0.0, k=2, n=3)
        with pytest.raises(ValueError, match="non-negative"):
            ExcessSample(excesses=np.array([1.0, -2.0]), threshold=0.0, k=2, n=3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ExcessSample(excesses=np.array([bad, 1.0]), threshold=0.0, k=2, n=3)

    def test_series_holding_nan_rejected(self):
        with pytest.raises(ValueError, match="excesses must be finite"):
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

    def test_r_must_be_negative(self):
        sample = quantile_grid_sample(0.5, 1.0, 100)
        with pytest.raises(ValueError, match="r must be negative"):
            lme_fit(sample, r=0.0)

    def test_scale_equivariance_power_of_two_is_exact(self):
        rng = philox_stream(31)
        base = ExcessSample.from_excesses(GpdParams(0.4, 1.0).quantile(rng.random(2000)))
        scaled = ExcessSample.from_excesses(4.0 * base.excesses)
        fit0 = lme_fit(base, r=-1.0)
        fit1 = lme_fit(scaled, r=-1.0)
        assert fit1.gamma_hat == fit0.gamma_hat
        assert fit1.sigma_hat == 4.0 * fit0.sigma_hat

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
        with pytest.raises(ValueError, match="at least two"):
            lme_fit(ExcessSample.from_excesses([1.0]), r=-1.0)
