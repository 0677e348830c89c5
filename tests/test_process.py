import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailproc.asymptotics import pairwise_dependence_sum
from tailproc.process import (
    TRUNCATION_TOL,
    CoefficientSequence,
    InnovationModel,
    arma_to_ma,
    apply_filter,
    decay_certificate,
    _raw_cut,
    philox_stream,
    simulate,
)


class TestInnovationModel:
    def test_from_uniform_inverse_identity(self):
        model = InnovationModel(alpha=3.0)
        assert model.from_uniform(0.125) == pytest.approx(2.0, abs=1e-15)

    def test_from_uniform_support_endpoint(self):
        model = InnovationModel(alpha=3.0)
        assert model.from_uniform(1.0) == 1.0

    @pytest.mark.parametrize("u", [-0.5, 0.0, 1.5, np.nan, [0.5, np.nan]])
    def test_uniform_outside_the_unit_interval_rejected(self, u):
        # -0.5 and nan gave nan, 1.5 a magnitude below 1, and 0.0 warned
        # before its OverflowError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"u must lie in \(0, 1\]"):
                InnovationModel(alpha=3.0).from_uniform(u)

    @pytest.mark.parametrize("pi1", [1.0, 0.5])
    def test_overflowing_draw_raises(self, pi1):
        # Returned [1.1e5, 1.2e120, 2.0e51, inf] after a RuntimeWarning.
        model = InnovationModel(alpha=1e-3, pi1=pi1)
        with pytest.raises(OverflowError, match="innovation magnitude overflows at alpha=0.001"):
            model.sample(4, seed=0)
        with pytest.raises(OverflowError, match="innovation magnitude overflows"):
            model.from_uniform([0.5, 1e-300])

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            InnovationModel(alpha=3.0).sample(0, seed=1)

    def test_sample_exact_tail_fraction(self):
        # P(Z > 10) = 1e-3 exactly; binomial three-sigma band around it.
        model = InnovationModel(alpha=3.0)
        draws = model.sample(10**6, seed=2024)
        fraction = np.mean(draws > 10.0)
        assert abs(fraction - 1e-3) <= 3.0 * np.sqrt(1e-3 / 10**6)

    def test_sample_kolmogorov_distance(self):
        model = InnovationModel(alpha=3.0)
        draws = np.sort(model.sample(10**6, seed=7))
        n = draws.size
        cdf = 1.0 - draws**-3.0
        grid = np.arange(1, n + 1) / n
        distance = max(np.max(grid - cdf), np.max(cdf - grid + 1.0 / n))
        assert distance <= 3.0 * 2.0 / np.sqrt(n)

    def test_sample_support_and_finiteness(self):
        model = InnovationModel(alpha=0.5)
        draws = model.sample(10**4, seed=1)
        assert np.all(np.isfinite(draws))
        assert np.all(draws >= 1.0)

    def test_two_sided_sign_weights(self):
        model = InnovationModel(alpha=3.0, pi1=0.7)
        draws = model.sample(10**5, seed=5)
        positive = np.mean(draws > 0)
        assert abs(positive - 0.7) <= 3.0 * np.sqrt(0.7 * 0.3 / 10**5)
        assert np.all(np.abs(draws) >= 1.0)

    def test_right_tail_weight_must_be_a_probability(self):
        for pi1 in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError, match="pi1 must lie in"):
                InnovationModel(alpha=2.0, pi1=pi1)

    @pytest.mark.parametrize("pi1,digest", [(1.0, "838fd9369b3dd905"),
                                            (0.3, "7f147f54743ffe6b")])
    def test_sample_streams_are_pinned(self, pi1, digest):
        # The one-sided stream is the magnitudes alone; pi1 < 1 draws the
        # sign block after them.
        draws = InnovationModel(alpha=3.0, pi1=pi1).sample(1000, seed=5, stream=2)
        assert hashlib.sha256(draws.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("pi1", [1.0, 0.3])
    def test_sample_is_from_words_of_the_stream(self, pi1):
        model = InnovationModel(alpha=3.0, pi1=pi1)
        words = philox_stream(5, 2).bit_generator.random_raw(1000)
        magnitudes = np.abs(model.sample(1000, seed=5, stream=2))
        assert magnitudes.tobytes() == model.from_words(words).tobytes()

    @pytest.mark.parametrize("count", [10.0, True, np.float64(3.0)])
    def test_count_must_be_an_integer(self, count):
        # 10.0 and True raised numpy's TypeError.
        with pytest.raises(ValueError, match="count must be an integer"):
            InnovationModel(alpha=3.0).sample(count, seed=1)
        assert InnovationModel(alpha=3.0).sample(np.int64(3), seed=1).size == 3


@st.composite
def law_and_words(draw):
    """An alpha in (2, 20], raw words around one magnitude, and a z at or next to it."""
    model = InnovationModel(alpha=draw(st.floats(min_value=2.0, max_value=20.0,
                                                 exclude_min=True)))
    top = draw(st.integers(min_value=0, max_value=2**53 - 1))
    m = float(model.from_words(np.uint64(top << 11)))
    z = draw(st.sampled_from([m, float(np.nextafter(m, 0.0)), float(np.nextafter(m, np.inf))]))
    low = draw(st.integers(min_value=0, max_value=2**11 - 1))
    words = [(t << 11) | low for t in (top - 1, top, top + 1) if 0 <= t < 2**53]
    return model, z, np.array(words, dtype=np.uint64)


class TestWordCut:
    """``InnovationModel.word_cut`` flags every word whose magnitude exceeds z."""

    @given(law_and_words())
    @settings(max_examples=500, deadline=None)
    @example((InnovationModel(alpha=3.0), 2.0**(53 / 3), np.array([2**64 - 1], dtype=np.uint64)))
    @example((InnovationModel(alpha=20.0), 1.0, np.array([0, 2**11 - 1], dtype=np.uint64)))
    def test_no_word_above_z_is_missed(self, case):
        model, z, words = case
        above = model.from_words(words) > z
        assert np.all(words[above] >= model.word_cut(z))

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 20.0])
    def test_edges(self, alpha):
        model = InnovationModel(alpha=alpha)
        # Every magnitude is at least 1, so z <= 1 flags every word.
        for z in (1.0, 0.5, float(np.nextafter(1.0, 0.0))):
            assert model.word_cut(z) == 0
        # A survival below 2**-53 lies below every 1 - U: no word is flagged.
        z = 2.0 ** (54 / alpha)
        assert z ** -alpha * (1.0 + 1e-9) < 2.0**-53
        assert model.word_cut(z) >= 2**64
        assert float(model.from_words(np.uint64(2**64 - 1))) < z

    def test_level_that_is_not_a_number_is_refused(self):
        # word_cut(nan) returned 0, which flags every word.
        with pytest.raises(ValueError, match=r"^z must lie in \(-inf, inf\)$"):
            InnovationModel(alpha=3.0).word_cut(np.nan)


class TestCoefficientSequence:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            CoefficientSequence((0.0, 0.0))

    def test_order(self):
        assert CoefficientSequence((1.0, 0.5)).order == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match=r"^coefficients must lie in \(-inf, inf\)$"):
            CoefficientSequence((1.0, float("nan")))

    def test_negative_truncation_bound_rejected(self):
        with pytest.raises(ValueError, match=r"^truncation_error_bound must lie in \[0, inf\)$"):
            CoefficientSequence((1.0,), truncation_error_bound=-1e-15)

    @pytest.mark.parametrize("decay_u", [0.5, 1.0])
    def test_decay_rate_at_or_below_one_rejected(self, decay_u):
        # decay_u 0.5 made coefficient_norm((1, 0.5), 1/3) return a truncation
        # error of -9.14, and 1.0 an overflow of its truncation bound.
        with pytest.raises(ValueError, match=r"^decay_u must lie in \(1, inf\)$"):
            CoefficientSequence((1.0, 0.5), truncation_error_bound=1e-13, decay_u=decay_u)

    @pytest.mark.parametrize("u", [0.0, -1.0])
    def test_power_sum_exponent_must_be_positive(self, u):
        # The nan and infinite exponents are FLOAT_PARAMETERS rows.
        with pytest.raises(ValueError, match=r"^u must lie in \(0, inf\)$"):
            CoefficientSequence((2.0, 0.5)).power_sum(u)


class TestArmaToMa:
    def test_ar1_closed_form(self):
        seq = arma_to_ma([0.5], [])
        assert seq.order == 83
        expected = 0.5 ** np.arange(84)
        np.testing.assert_allclose(seq.as_array(), expected, rtol=1e-14)
        assert 0.0 < seq.truncation_error_bound < 1e-12

    def test_pure_ma_is_exact(self):
        seq = arma_to_ma([], [0.5])
        assert seq.coeffs == (1.0, 0.5)
        assert seq.truncation_error_bound == 0.0

    def test_unit_root_not_causal(self):
        with pytest.raises(ValueError, match="not causal"):
            arma_to_ma([1.0], [])

    def test_truncation_term_limit(self):
        # Causal, but the certificate needs far more than 200,000 terms.
        with pytest.raises(ValueError, match="truncation did not converge"):
            arma_to_ma([1.0 - 1e-9], [])

    def test_explosive_root_not_causal(self):
        with pytest.raises(ValueError, match="not causal"):
            arma_to_ma([1.5], [])

    def test_truncation_certificate_covers_next_terms(self):
        # Recompute the next 20 coefficients from the recursion; each must
        # stay below the reported bound on the whole discarded mass.
        ar, ma = [0.5, 0.2], [0.3]
        seq = arma_to_ma(ar, ma)
        c = list(seq.coeffs)
        for _ in range(20):
            nxt = ar[0] * c[-1] + ar[1] * c[-2]
            c.append(nxt)
            assert abs(nxt) < seq.truncation_error_bound
        # And the summed continuation stays below the bound too.
        assert sum(abs(v) for v in c[seq.order + 1 :]) < seq.truncation_error_bound

    @pytest.mark.parametrize("ar,ma", [([0.9], []), ([0.8], []), ([0.99], []),
                                       ([0.9], [0.4]), ([1.0, -0.25], [])])
    def test_roots_near_unit_circle_and_repeated_roots(self, ar, ma):
        # Certified at sqrt(min |root|), inside (1, min |root|): no overflow
        # of u**j, and a finite sup for the repeated root of (1, -0.25).
        seq = arma_to_ma(ar, ma)
        assert seq.truncation_error_bound < TRUNCATION_TOL
        c = list(seq.coeffs)
        for _ in range(20):
            j = len(c)
            theta = ma[j - 1] if j <= len(ma) else 0.0
            c.append(theta + sum(phi * c[j - 1 - i] for i, phi in enumerate(ar)))
            assert abs(c[-1]) < seq.truncation_error_bound

    def test_arma11_matches_direct_recursion(self):
        seq = arma_to_ma([0.6], [0.4])
        expected = [1.0, 1.0]
        while len(expected) <= seq.order:
            expected.append(0.6 * expected[-1])
        np.testing.assert_allclose(seq.as_array(), expected, rtol=1e-13)


class TestDecayCertificate:
    def test_finite_sequence_default_u(self):
        a_cert, u_cert = decay_certificate(CoefficientSequence((1.0, 0.5)))
        assert u_cert == 2.0
        assert a_cert == pytest.approx(1.0, rel=1e-9)
        coeffs = np.array([1.0, 0.5])
        assert np.all(np.abs(coeffs) < a_cert * u_cert ** -np.arange(2))

    def test_geometric_sequence(self):
        seq = arma_to_ma([0.5], [])
        a_cert, u_cert = decay_certificate(seq)
        assert u_cert == np.sqrt(2.0)
        assert a_cert == pytest.approx(1.0, rel=1e-9)

    def test_strict_inequality_everywhere(self):
        seq = CoefficientSequence((0.1, 0.0, 5.0, -2.0))
        a_cert, u_cert = decay_certificate(seq)
        j = np.arange(4)
        assert np.all(np.abs(seq.as_array()) < a_cert * u_cert**-j)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError, match="decay certificate"):
            decay_certificate(CoefficientSequence((1e308, 1e308)))


class TestPairwiseDependenceSum:
    def test_single_pair(self):
        value = pairwise_dependence_sum(CoefficientSequence((1.0, 0.5)), gamma=1.0)
        assert value == pytest.approx(0.5 * np.log(2.0), rel=1e-14)

    def test_single_coefficient_is_zero(self):
        assert pairwise_dependence_sum(CoefficientSequence((1.0,)), gamma=1.0) == 0.0

    def test_equal_coefficients_kill_log(self):
        assert pairwise_dependence_sum(CoefficientSequence((1.0, 1.0)), gamma=1.0) == 0.0

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            pairwise_dependence_sum(CoefficientSequence((1.0,)), gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            pairwise_dependence_sum(CoefficientSequence((1.0, 0.5)), gamma=float("nan"))

    @given(scale=st.floats(min_value=0.05, max_value=20.0),
           gamma=st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_law(self, scale, gamma):
        # Scaling every coefficient by s multiplies the sum by s**(1/gamma).
        base = CoefficientSequence((1.0, 0.5, 0.25))
        scaled = CoefficientSequence(tuple(scale * c for c in base.coeffs))
        left = pairwise_dependence_sum(scaled, gamma)
        right = scale ** (1.0 / gamma) * pairwise_dependence_sum(base, gamma)
        assert left == pytest.approx(right, rel=1e-9)


class TestSimulate:
    def test_identity_filter_is_innovation_passthrough(self):
        # A one-coefficient filter scales the innovations, bit for bit.
        model = InnovationModel(alpha=3.0)
        z = model.sample(100, seed=9)
        for c0 in (1.0, 0.7, -2.5):
            path = simulate(CoefficientSequence((c0,)), model, 100, seed=9)
            np.testing.assert_array_equal(path.values, c0 * z)

    def test_hand_convolution(self):
        coeffs = CoefficientSequence((1.0, 0.5))
        np.testing.assert_array_equal(apply_filter(coeffs, [1.0, 2.0, 4.0]),
                                      [2.5, 5.0])

    def test_filter_needs_more_innovations_than_its_order(self):
        with pytest.raises(ValueError, match="^innovations must be >= 3$"):
            apply_filter(CoefficientSequence((1.0, 0.5, 0.25)), [1.0, 2.0])

    def test_same_seed_bit_identical(self):
        coeffs = CoefficientSequence((1.0, 0.5))
        model = InnovationModel(alpha=3.0)
        first = simulate(coeffs, model, 500, seed=42)
        second = simulate(coeffs, model, 500, seed=42)
        np.testing.assert_array_equal(first.values, second.values)

    def test_streams_differ(self):
        coeffs = CoefficientSequence((1.0,))
        model = InnovationModel(alpha=3.0)
        a = simulate(coeffs, model, 100, seed=42, stream=0)
        b = simulate(coeffs, model, 100, seed=42, stream=1)
        assert not np.array_equal(a.values, b.values)

    def test_length_and_finiteness(self):
        path = simulate(CoefficientSequence((1.0, 0.5, 0.25)),
                        InnovationModel(alpha=2.5), 777, seed=3)
        assert path.values.size == 777
        assert np.all(np.isfinite(path.values))

    @given(exponent=st.integers(min_value=-3, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_filter_linearity_power_of_two(self, exponent):
        # Multiplication by a power of two is exact, so the scaled filter
        # output must match the scaled path bit for bit.
        lam = 2.0**exponent
        model = InnovationModel(alpha=3.0)
        base = CoefficientSequence((1.0, 0.5))
        scaled = CoefficientSequence((lam, 0.5 * lam))
        a = simulate(base, model, 200, seed=11)
        b = simulate(scaled, model, 200, seed=11)
        np.testing.assert_array_equal(b.values, lam * a.values)

    def test_values_read_only(self):
        path = simulate(CoefficientSequence((1.0,)), InnovationModel(alpha=3.0),
                        10, seed=0)
        with pytest.raises(ValueError):
            path.values[0] = 0.0

    @pytest.mark.parametrize("seed", [2.0, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate(CoefficientSequence((1.0,)), InnovationModel(alpha=3.0), 10, seed=seed)

    @pytest.mark.parametrize("n", [100.0, True, np.float64(4.0)])
    def test_n_must_be_an_integer(self, n):
        # 100.0 raised numpy's TypeError and True gave a one-value path.
        with pytest.raises(ValueError, match="n must be an integer"):
            simulate(CoefficientSequence((1.0, 0.5)), InnovationModel(alpha=3.0), n, seed=1)
        assert simulate(CoefficientSequence((1.0, 0.5)), InnovationModel(alpha=3.0),
                        np.int64(4), seed=1).values.size == 4

    @pytest.mark.parametrize("pi1", [1.0, 0.5])
    def test_overflowing_path_raises(self, pi1):
        # At alpha 1e-3 most innovations overflow to inf, and two-sided ones
        # made nan; the draw refuses them before they reach a path, unwarned.
        with pytest.raises(OverflowError, match="innovation magnitude overflows"):
            simulate(CoefficientSequence((1.0, 0.5)),
                     InnovationModel(alpha=1e-3, pi1=pi1), 40, seed=0)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be"):
            simulate(CoefficientSequence((1.0,)), InnovationModel(alpha=3.0),
                     0, seed=0)


def test_philox_stream_deterministic_and_keyed():
    a = philox_stream(1, 2).random(4)
    b = philox_stream(1, 2).random(4)
    c = philox_stream(1, 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed,stream", [
    (1.5, 0), (True, 0), (0, 2.0), (0, np.True_), ("1", 0), (None, 0), (np.array(1.5), 0)])
def test_philox_stream_refuses_non_integers(seed, stream):
    # 1.5 and True once drew seed 1's stream.
    with pytest.raises(ValueError, match="must be an integer"):
        philox_stream(seed, stream)


@pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_philox_stream_refuses_values_outside_64_bits(seed, stream):
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
        philox_stream(seed, stream)


def test_philox_stream_takes_numpy_integers():
    want = philox_stream(2**64 - 1, 3).random(4)
    got = philox_stream(np.uint64(2**64 - 1), np.int64(3)).random(4)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed,stream", [
    (0, 0), (1, 2), (2016, 7), (20260808, 0), (2**32, 1000), (2**64 - 1, 2**64 - 1),
])
def test_philox_doubles_are_shifted_raw_words(seed, stream):
    # InnovationModel.from_words relies on these two identities to give the
    # magnitudes of 1 - Generator.random, bit for bit.
    m = 4099
    uniforms = philox_stream(seed, stream).random(m)
    top = philox_stream(seed, stream).bit_generator.random_raw(m) >> 11
    assert uniforms.tobytes() == (top * 2.0**-53).tobytes(), (
        "Generator.random is no longer (raw >> 11) * 2**-53 for Philox")
    assert (1.0 - uniforms).tobytes() == ((2**53 - top) * 2.0**-53).tobytes(), (
        "1 - Generator.random is no longer (2**53 - (raw >> 11)) * 2**-53")


@st.composite
def words_and_survival(draw):
    """Raw words around one ``1 - U`` value and a survival at or near it."""
    top = draw(st.integers(min_value=0, max_value=2**53 - 1))
    w = (2**53 - top) * 2.0**-53
    survival = draw(st.one_of(
        st.sampled_from([w, float(np.nextafter(w, 0.0)), float(np.nextafter(w, 2.0))]),
        st.floats(min_value=0.0, max_value=2.0**-53),
        st.floats(min_value=1.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0)))
    low = draw(st.integers(min_value=0, max_value=2**11 - 1))
    words = [(t << 11) | low for t in (top - 1, top, top + 1) if 0 <= t < 2**53]
    return words, survival


class TestRawCut:
    """``raw >= _raw_cut(s)`` against the float test ``1 - U < s``."""

    @given(words_and_survival())
    @settings(max_examples=500, deadline=None)
    @example(([2**64 - 1], 2.0**-53))
    @example(([2**64 - 1], 0.0))
    @example(([0, 2**11 - 1], 1.0))
    @example(([0, 2**64 - 1], 2.0))
    @example(([2**63], 0.5))
    @example(([2**63 - 1], 0.5))
    def test_matches_float_test(self, case):
        words, survival = case
        uniform_complement = [1.0 - (raw >> 11) * 2.0**-53 for raw in words]
        flags = np.array(words, dtype=np.uint64) >= _raw_cut(survival)
        assert flags.tolist() == [w < survival for w in uniform_complement]

    def test_edge_cuts(self):
        # No 1 - U lies below 2**-53, and every one lies below a survival above 1.
        assert _raw_cut(0.0) >= 2**64
        assert _raw_cut(2.0**-53) >= 2**64
        assert _raw_cut(float(np.nextafter(2.0**-53, 1.0))) == (2**53 - 1) << 11
        assert _raw_cut(1.0) == 1 << 11
        assert _raw_cut(float(np.nextafter(1.0, 2.0))) == 0
        assert _raw_cut(2.0) == 0
