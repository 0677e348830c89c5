import concurrent.futures
import csv
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import tailproc
from tailproc import montecarlo as mc
from tailproc import second_order
from tailproc.asymptotics import estimator_cov
from tailproc.estimator import LmeSolverError, lme_fit, top_k_excesses
from tailproc.process import (CoefficientSequence, InnovationModel, apply_filter,
                              arma_to_ma, philox_stream, simulate)
from tailproc.second_order import quantile_expansion, tail_expansion

IID = CoefficientSequence((1.0,))
DEP = CoefficientSequence((1.0, 0.5))
MODEL = InnovationModel(alpha=3.0)
ACCEPTANCE_SEED = 20260808   # MASTER_SEED of tests/test_acceptance.py


def small_config(**overrides):
    base = dict(coeffs=IID, model=MODEL, n=4000, k=60, r=-1.0,
                replications=40, master_seed=17)
    base.update(overrides)
    return mc.ExperimentConfig(**base)


class TestSigmaNk:
    def test_iid_closed_form(self):
        qexp = quantile_expansion(tail_expansion(3.0, IID))
        assert mc.sigma_nk(qexp, 1.0 / 3.0, 10**6, 10**3) == pytest.approx(10.0 / 3.0,
                                                                           rel=1e-14)

    def test_dependent_plug_in(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        a1, a2, a3 = qexp.a
        expected = (a1 * 10.0 ** (4.0 / 3.0) + a2 + a3 * 10.0 ** (-4.0 / 3.0)) / 3.0
        assert mc.sigma_nk(qexp, 1.0 / 3.0, 10**5, 10) == pytest.approx(expected,
                                                                        rel=1e-14)

    def test_monotone_in_ratio(self):
        qexp = quantile_expansion(tail_expansion(3.0, DEP))
        values = [mc.sigma_nk(qexp, 1.0 / 3.0, n, 100) for n in (10**4, 10**5, 10**6)]
        assert values[0] < values[1] < values[2]

    def test_missing_expansion(self):
        with pytest.raises(ValueError, match="scale unavailable"):
            mc.sigma_nk(None, 0.5, 1000, 10)


class TestConfig:
    def test_k_at_least_two_below_n(self):
        with pytest.raises(ValueError, match="k"):
            small_config(n=50, k=50)

    def test_r_negative(self):
        with pytest.raises(ValueError, match="r must be negative"):
            small_config(r=0.5)

    def test_replications_positive(self):
        with pytest.raises(ValueError, match="replications"):
            small_config(replications=0)

    def test_rule_based_k(self):
        cfg = mc.ExperimentConfig.create(coeffs=DEP, model=MODEL, n=10**6,
                                         r=-0.5, replications=1, master_seed=0,
                                         theta=0.9)
        assert cfg.k == 144
        cfg_iid = mc.ExperimentConfig.create(coeffs=IID, model=MODEL, n=10**6,
                                             r=-0.5, replications=1,
                                             master_seed=0, theta=0.9)
        assert cfg_iid.k == 1218

    def test_k_none_takes_the_growth_rule(self):
        cfg = small_config(coeffs=DEP, n=10**6, k=None, theta=0.9)
        assert cfg.k == 144
        assert cfg == mc.ExperimentConfig.create(
            coeffs=DEP, model=MODEL, n=10**6, r=-1.0, replications=40, master_seed=17)
        for k in (None, 50):
            with pytest.raises(ValueError, match="theta"):
                small_config(k=k, theta=1.5)

    @pytest.mark.parametrize("coeffs,c2_zero", [(IID, True), (DEP, False)])
    def test_gpd_direct_growth_rule_below_alpha_two(self, coeffs, c2_zero):
        cfg = small_config(coeffs=coeffs, model=InnovationModel(alpha=1.5), k=None,
                           theta=0.9, sampling="gpd_direct")
        assert cfg.k == second_order.choose_k(4000, 0.9, 1.5, c2_zero)
        assert cfg.centering is None

    def test_series_mode_requires_one_sided(self):
        two_sided = InnovationModel(alpha=3.0, pi1=0.5)
        with pytest.raises(ValueError, match="scale unavailable"):
            small_config(model=two_sided)

    def test_gpd_direct_has_no_centering(self):
        two_sided = InnovationModel(alpha=3.0, pi1=0.5)
        cfg = small_config(model=two_sided, sampling="gpd_direct")
        assert cfg.centering is None and cfg.scale == 1.0

    def test_replace_rebuilds_centering(self):
        cfg = small_config(coeffs=DEP)
        for changes in ({"n": 9000}, {"coeffs": CoefficientSequence((1.0, 0.8))}):
            replaced = dataclasses.replace(cfg, **changes)
            fresh = small_config(**{"coeffs": DEP, **changes})
            assert replaced.centering == fresh.centering
            assert (mc.sigma_nk(replaced.centering, cfg.gamma, replaced.n, replaced.k)
                    == mc.sigma_nk(fresh.centering, cfg.gamma, fresh.n, fresh.k))
            assert replaced.scale == fresh.scale == mc.sigma_nk(
                fresh.centering, cfg.gamma, fresh.n, fresh.k)
            assert replaced.scale != cfg.scale
        assert dataclasses.replace(cfg, coeffs=IID).centering != cfg.centering
        assert dataclasses.replace(cfg, sampling="gpd_direct").scale == 1.0

    def test_centering_survives_pickling(self):
        cfg = small_config(coeffs=DEP)
        restored = pickle.loads(pickle.dumps(cfg))
        assert restored == cfg
        assert restored.centering == cfg.centering
        assert restored.scale == cfg.scale == mc.sigma_nk(cfg.centering, cfg.gamma,
                                                          cfg.n, cfg.k)
        assert mc.run_replication(restored, 3) == mc.run_replication(cfg, 3)


class TestRunReplication:
    def test_deterministic(self):
        cfg = small_config()
        a = mc.run_replication(cfg, 3)
        b = mc.run_replication(cfg, 3)
        assert a == b

    def test_indices_give_distinct_records(self):
        cfg = small_config()
        assert mc.run_replication(cfg, 0) != mc.run_replication(cfg, 1)

    def test_failure_recorded_not_raised(self):
        cfg = small_config(n=2000, k=10, r=-0.5, master_seed=1)
        records = [mc.run_replication(cfg, i) for i in range(40)]
        statuses = {rec.status for rec in records}
        assert statuses == {"ok", "no_solution"}
        failed = [rec for rec in records if not rec.ok]
        assert all(np.isnan(rec.z1) for rec in failed)

    def test_no_sign_change_replication(self):
        # Replication 5 of this MA(1) panel batch has no root of the moment
        # equation: the gap is negative over the whole search window.
        cfg = mc.ExperimentConfig(coeffs=DEP, model=MODEL, n=10**6, k=144,
                                  r=-0.5, replications=10,
                                  master_seed=(1606 << 20) + 8)
        assert mc.run_replication(cfg, 5).status == "no_solution"
        sample = mc._series_sample(DEP, MODEL, cfg.n, cfg.master_seed, 5, cfg.k)
        assert_same_sample(sample, full_path_sample(DEP, MODEL, cfg.n,
                                                    cfg.master_seed, 5, cfg.k))
        with pytest.raises(LmeSolverError, match="no LME solution found") as info:
            lme_fit(sample, cfg.r)
        assert info.value.reason == "no_sign_change"

    def test_gpd_direct_mean_near_zero(self):
        # iid control straight from the limit law: the standardized shape
        # coordinate has mean within 0.1 at this replication count.
        cfg = mc.ExperimentConfig(coeffs=IID, model=MODEL, n=10**6, k=10**4,
                                  r=-1.0, replications=2000, master_seed=77,
                                  worker_count_hint=2, sampling="gpd_direct")
        report = mc.run_experiment(cfg)
        assert report.failure_count == 0
        assert abs(report.empirical_mean[0]) <= 0.1
        assert abs(report.empirical_mean[1]) <= 0.1


def full_path_sample(coeffs, model, n, seed, stream, k):
    return top_k_excesses(simulate(coeffs, model, n, seed, stream).values, k)


def assert_same_sample(got, want):
    assert got.excesses.tobytes() == want.excesses.tobytes()
    assert (got.threshold, got.k) == (want.threshold, want.k)


coefficient = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=2.0),
                        st.floats(min_value=-2.0, max_value=-0.01))


@st.composite
def kernel_inputs(draw):
    coeffs = draw(st.lists(coefficient, min_size=1, max_size=7)
                  .filter(lambda c: any(c)))
    n = draw(st.integers(min_value=4, max_value=5000))
    return (tuple(coeffs), draw(st.floats(min_value=2.1, max_value=6.0)), n,
            draw(st.integers(min_value=2, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=2**32)),
            draw(st.integers(min_value=0, max_value=1000)))


class TestSeriesSample:
    """The candidate-only kernel against the full path, bit for bit."""

    @given(kernel_inputs())
    @settings(max_examples=200, deadline=None)
    @example(((1.0, 0.0, 0.0, 0.5), 3.0, 5000, 2, 7, 0))
    @example(((0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 1.0), 5.5, 40, 39, 1, 2))
    def test_matches_full_path(self, inputs):
        coeffs, alpha, n, k, seed, stream = inputs
        seq, model = CoefficientSequence(coeffs), InnovationModel(alpha=alpha)
        assert_same_sample(mc._series_sample(seq, model, n, seed, stream, k),
                           full_path_sample(seq, model, n, seed, stream, k))

    @pytest.mark.parametrize("coeffs,n,seed,stream,k,sizes", [
        # Too few candidates above the bound: halve once.
        (IID, 200, 1036, 0, 2, [2, 100]),
        # Halving flags every innovation: the whole path.
        (IID, 90, 3347, 0, 2, [2, 90]),
        # 4(k + 1) exceeds the innovation count, so the first z_c is below 1.
        (DEP, 50, 3, 4, 20, [51]),
    ])
    def test_retry_branches(self, monkeypatch, coeffs, n, seed, stream, k, sizes):
        seen = []

        def counting(seq, innovations):
            seen.append(len(innovations))
            return apply_filter(seq, innovations)

        monkeypatch.setattr(mc, "apply_filter", counting)
        sample = mc._series_sample(coeffs, MODEL, n, seed, stream, k)
        assert seen == sizes
        assert_same_sample(sample, full_path_sample(coeffs, MODEL, n, seed, stream, k))

    def test_long_filter_seeds(self):
        ar = arma_to_ma([0.5], [])
        assert ar.order == 83
        for index in range(3):
            assert_same_sample(mc._series_sample(ar, MODEL, 10**6, 2016, index, 144),
                               full_path_sample(ar, MODEL, 10**6, 2016, index, 144))

    @pytest.mark.parametrize("coeffs,k", [(DEP, 144), (IID, 1218)])
    def test_acceptance_seeds(self, coeffs, k):
        # The first replications of criteria 6 and 7.
        for index in range(3):
            assert_same_sample(
                mc._series_sample(coeffs, MODEL, 10**6, ACCEPTANCE_SEED, index, k),
                full_path_sample(coeffs, MODEL, 10**6, ACCEPTANCE_SEED, index, k))

    def test_peak_memory_per_sample(self):
        # A replication holds one block of words (8 bytes each) and its flag
        # mask (1 byte each) at a time; the windows add well under 1 MB.
        # The budget does not grow with n.
        budget = mc._BLOCK_WORDS * 9 + 2**20
        for n in (10**6, 4 * 10**6):
            cfg = mc.ExperimentConfig(coeffs=DEP, model=MODEL, n=n, k=144,
                                      r=-0.5, replications=1, master_seed=5)
            mc.run_replication(cfg, 0)
            tracemalloc.start()
            try:
                mc.run_replication(cfg, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= budget, (n, peak, budget)


@pytest.mark.usefixtures("blocks")
class TestBlockEdges:
    """Blocks of a few words, against the full path."""

    @pytest.fixture(params=[4, 8, 64])
    def blocks(self, request, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_WORDS", request.param)
        drawn = []
        filter_block = mc._filter_block

        def recording(coeffs, model, key, lo, n, cut):
            drawn.append((lo, min(lo + request.param, n), cut))
            return filter_block(coeffs, model, key, lo, n, cut)

        monkeypatch.setattr(mc, "_filter_block", recording)
        return request.param, drawn

    @pytest.mark.parametrize("coeffs,n,k", [
        (DEP, 2000, 40),
        (CoefficientSequence((0.2, 1.0, 0.0, 0.7, 0.0, 0.1, 0.4)), 3000, 30),
        # n + J = 4002 is not a multiple of 4.
        (DEP, 4001, 12),
    ])
    def test_windows_straddle_block_edges(self, blocks, coeffs, n, k):
        size, drawn = blocks
        order = coeffs.order
        for stream in range(3):
            drawn.clear()
            assert_same_sample(mc._series_sample(coeffs, MODEL, n, 11, stream, k),
                               full_path_sample(coeffs, MODEL, n, 11, stream, k))
            assert len(drawn) >= -(-n // size)
            # Some block reads a flagged word in its J-word tail [hi, hi + J),
            # which the next block reads too.
            words = np.random.Philox(key=np.array([11, stream], dtype=np.uint64)
                                     ).random_raw(n + order)
            assert any(np.any(words[hi:hi + order] >= cut)
                       for lo, hi, cut in drawn if hi < n)

    def test_order_longer_than_block(self, blocks):
        ar = arma_to_ma([0.5], [])
        assert ar.order == 83 > blocks[0]
        for stream in range(2):
            assert_same_sample(mc._series_sample(ar, MODEL, 3000, 2016, stream, 20),
                               full_path_sample(ar, MODEL, 3000, 2016, stream, 20))

    # The cases of TestSeriesSample.test_retry_branches, one pass per size
    # there.  apply_filter runs once per block here, so only passes count.
    @pytest.mark.parametrize("coeffs,n,seed,stream,k,sizes", [
        (IID, 200, 1036, 0, 2, [2, 100]),
        (IID, 90, 3347, 0, 2, [2, 90]),
        (DEP, 50, 3, 4, 20, [51]),
    ])
    def test_retry_branches(self, blocks, coeffs, n, seed, stream, k, sizes):
        size, drawn = blocks
        sample = mc._series_sample(coeffs, MODEL, n, seed, stream, k)
        assert len({cut for _, _, cut in drawn}) == len(sizes)
        assert len(drawn) == len(sizes) * -(-n // size)
        assert_same_sample(sample, full_path_sample(coeffs, MODEL, n, seed, stream, k))


def count_starts(monkeypatch):
    """The threads started from here on, by ``Thread.start`` calls."""
    starts = []
    start = threading.Thread.start

    def counting(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return starts


def assert_threads_bounded(starts, bound):
    """At most ``bound`` threads were started, and none is still running."""
    assert len(starts) <= bound
    assert not any(thread.is_alive() for thread in starts)


class ReplicationFailure(Exception):
    pass


class TestReplicationThreads:
    def test_block_failure_reaches_caller(self, monkeypatch):
        # A serial run on three threads (4 blocks) whose replication 5 raises.
        monkeypatch.setattr(mc, "_BLOCK_WORDS", 1024)
        monkeypatch.setattr(mc, "usable_cpus", lambda: 3)
        replicate = mc.run_replication

        def failing(config, index):
            if index == 5:
                raise ReplicationFailure(index)
            return replicate(config, index)

        monkeypatch.setattr(mc, "run_replication", failing)
        starts = count_starts(monkeypatch)
        with pytest.raises(ReplicationFailure) as caught:
            mc.run_experiment(small_config(replications=12))
        assert caught.value.args == (5,)
        assert starts
        assert_threads_bounded(starts, 3)

    def test_replications_in_flight_are_bounded(self, monkeypatch):
        # 12 replications of 4 blocks on 3 CPUs: at most 3 run at once.  Each
        # sleeps a little, so that a wider pool would show.
        monkeypatch.setattr(mc, "_BLOCK_WORDS", 1024)
        monkeypatch.setattr(mc, "usable_cpus", lambda: 3)
        replicate = mc.run_replication
        lock = threading.Lock()
        running = [0]
        seen = []

        def counted(config, index):
            with lock:
                running[0] += 1
                seen.append(running[0])
            try:
                time.sleep(0.005)
                return replicate(config, index)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(mc, "run_replication", counted)
        starts = count_starts(monkeypatch)
        mc.run_experiment(small_config(replications=12))
        assert len(seen) == 12
        assert 1 <= max(seen) <= 3
        assert_threads_bounded(starts, 3)

    def test_pooled_run_starts_no_helper_threads(self, monkeypatch):
        # The pool's tasks run here, as they would in a worker process.
        monkeypatch.setattr(mc, "_BLOCK_WORDS", 1024)
        monkeypatch.setattr(mc, "usable_cpus", lambda: 2)

        class InlinePool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        starts = count_starts(monkeypatch)
        mc.run_experiment(small_config(coeffs=DEP, replications=4, worker_count_hint=2))
        assert starts == []


def test_usable_cpus_follows_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert mc.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
        assert mc.usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert mc.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert mc.usable_cpus() == 1


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
        flags = np.array(words, dtype=np.uint64) >= mc._raw_cut(survival)
        assert flags.tolist() == [w < survival for w in uniform_complement]

    def test_edge_cuts(self):
        # No 1 - U lies below 2**-53, and every one lies below a survival above 1.
        assert mc._raw_cut(0.0) >= 2**64
        assert mc._raw_cut(2.0**-53) >= 2**64
        assert mc._raw_cut(float(np.nextafter(2.0**-53, 1.0))) == (2**53 - 1) << 11
        assert mc._raw_cut(1.0) == 1 << 11
        assert mc._raw_cut(float(np.nextafter(1.0, 2.0))) == 0
        assert mc._raw_cut(2.0) == 0


class TestEmpiricalCov:
    def test_hand_example(self):
        np.testing.assert_allclose(mc.empirical_cov([(0.0, 0.0), (2.0, 2.0)]),
                                   [[2.0, 2.0], [2.0, 2.0]], atol=1e-15)

    def test_identical_records_zero(self):
        np.testing.assert_array_equal(mc.empirical_cov([(1.0, 2.0)] * 5),
                                      np.zeros((2, 2)))

    def test_symmetric(self):
        rng = philox_stream(8)
        z = rng.standard_normal((100, 2))
        cov = mc.empirical_cov(z)
        np.testing.assert_array_equal(cov, cov.T)

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="at least two"):
            mc.empirical_cov([(1.0, 1.0)])


class TestNormalityDiagnostics:
    THEORY = np.array([[2.0, -0.8], [-0.8, 1.5]])

    def test_self_consistency_on_synthetic_normals(self):
        for seed in (1, 2, 3):
            rng = philox_stream(seed, 123)
            z = rng.multivariate_normal([0.0, 0.0], self.THEORY, size=5000)
            diag = mc.normality_diagnostics(z, self.THEORY)
            assert diag.ks_p_values[0] > 0.01
            assert diag.ks_p_values[1] > 0.01
            assert diag.mahalanobis_ks_p_value > 0.001

    def test_degenerate_records(self):
        diag = mc.normality_diagnostics(np.zeros((200, 2)), np.eye(2))
        assert diag.ks_statistics[0] == pytest.approx(0.5, abs=1e-12)
        assert diag.ks_p_values[0] < 1e-6

    def test_identity_whitening_is_noop(self):
        rng = philox_stream(9)
        z = rng.standard_normal((500, 2))
        diag = mc.normality_diagnostics(z, np.eye(2))
        direct = [stats.kstest(z[:, j], "norm").statistic for j in range(2)]
        assert diag.ks_statistics[0] == pytest.approx(direct[0], abs=1e-12)
        assert diag.ks_statistics[1] == pytest.approx(direct[1], abs=1e-12)

    def test_matches_scipy_stats_bit_for_bit(self):
        rng = philox_stream(11)
        z = rng.multivariate_normal([0.3, -0.2], self.THEORY, size=400)
        eigvals, eigvecs = np.linalg.eigh(self.THEORY)
        white = z @ (eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T).T
        mahal = np.einsum("ij,jk,ik->i", z, np.linalg.inv(self.THEORY), z)

        def ks(cdf_values):
            u = np.sort(cdf_values)
            m = u.size
            grid = np.arange(1, m + 1) / m
            d = float(max(np.max(grid - u), np.max(u - grid + 1.0 / m)))
            return d, float(stats.kstwobign.sf(np.sqrt(m) * d))

        (d0, p0), (d1, p1) = (ks(stats.norm.cdf(white[:, j])) for j in range(2))
        dm, pm = ks(stats.chi2(2).cdf(mahal))
        assert mc.normality_diagnostics(z, self.THEORY) == mc.NormalityDiagnostics(
            ks_statistics=(d0, d1), ks_p_values=(p0, p1),
            mahalanobis_ks_statistic=dm, mahalanobis_ks_p_value=pm)

    def test_whitening_normalizes_covariance(self):
        rng = philox_stream(10)
        z = rng.multivariate_normal([0.0, 0.0], self.THEORY, size=10**4)
        eigvals, eigvecs = np.linalg.eigh(self.THEORY)
        whitener = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T
        white_cov = np.cov((z @ whitener.T), rowvar=False)
        assert np.abs(white_cov - np.eye(2)).max() <= 0.05

    def test_singular_theory_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            mc.normality_diagnostics(np.zeros((100, 2)), np.zeros((2, 2)))

    def test_minimum_record_count(self):
        with pytest.raises(ValueError, match="at least 50"):
            mc.normality_diagnostics(np.zeros((10, 2)), np.eye(2))


class TestRunExperiment:
    def test_report_identical_across_worker_counts(self, monkeypatch):
        serial = mc.run_experiment(small_config(worker_count_hint=1))
        parallel = mc.run_experiment(small_config(worker_count_hint=2))
        # Serial again, on three threads: 4 blocks of 1024 outputs each.
        monkeypatch.setattr(mc, "usable_cpus", lambda: 3)
        monkeypatch.setattr(mc, "_BLOCK_WORDS", 1024)
        starts = count_starts(monkeypatch)
        threaded = mc.run_experiment(small_config(worker_count_hint=1))
        assert starts
        assert_threads_bounded(starts, 3)
        for other in (parallel, threaded):
            np.testing.assert_array_equal(serial.empirical_mean, other.empirical_mean)
            np.testing.assert_array_equal(serial.empirical_cov, other.empirical_cov)
            assert serial.failure_count == other.failure_count
            assert serial.diagnostics == other.diagnostics

    def test_theoretical_matches_asymptotics_module(self):
        # gpd_direct draws are iid whatever the coefficients, so their
        # theory is the one-coefficient limit.
        expected = estimator_cov(1.0 / 3.0, -1.0, IID).estimator_cov
        for config in (small_config(), small_config(coeffs=DEP, sampling="gpd_direct")):
            report = mc.run_experiment(config)
            np.testing.assert_array_equal(report.theoretical_cov, expected)

    def test_unreliable_flag_on_excess_failures(self):
        cfg = small_config(n=2000, k=10, r=-0.5, master_seed=1)
        report = mc.run_experiment(cfg)
        assert report.failure_count > 2
        assert "unreliable" in report.flags

    def test_single_replication_flagged(self):
        report = mc.run_experiment(small_config(replications=1))
        assert "insufficient replications" in report.flags
        assert np.isnan(report.empirical_cov).all()

    def test_iid_series_rates_are_zero(self):
        report = mc.run_experiment(small_config(replications=5))
        assert report.rate_2erv == 0.0 and report.rate_2rv == 0.0

    def test_dependent_series_rates_reported(self):
        cfg = mc.ExperimentConfig(coeffs=DEP, model=MODEL, n=4000, k=40, r=-0.5,
                                  replications=5, master_seed=2)
        report = mc.run_experiment(cfg)
        assert report.rate_2erv > 0.0 and report.rate_2rv > 0.0

    def test_csv_and_json_outputs(self, tmp_path):
        csv_path = tmp_path / "records.csv"
        json_path = tmp_path / "report.json"
        report = mc.run_experiment(small_config(replications=10),
                                   csv_path=csv_path, json_path=json_path)
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "gamma_hat", "sigma_hat", "z1", "z2", "status"]
        assert len(rows) == 11
        ok_rows = [row for row in rows[1:] if row[5] == "ok"]
        record = next(rec for rec in
                      (mc.run_replication(small_config(replications=10), i)
                       for i in range(10)) if rec.ok)
        matching = next(row for row in ok_rows if int(row[0]) == record.index)
        assert float(matching[1]) == record.gamma_hat

        payload = json.loads(json_path.read_text())
        for key in ("config", "empirical_mean", "empirical_cov",
                    "theoretical_cov", "relative_deviation", "diagnostics",
                    "second_order_rates", "failure_count", "flags",
                    "elapsed_seconds"):
            assert key in payload
        assert payload["config"]["master_seed"] == 17

    def test_diagnostics_skipped_below_minimum(self):
        report = mc.run_experiment(small_config(replications=10))
        assert report.diagnostics is None


# expected: (pool sizes, thread bound).  A serial run of n 500 in blocks of
# 128 outputs starts at most min(cpus, replications, 4) threads, and none
# when that is 1; a pool's tasks start none.
@pytest.mark.parametrize("hint,replications,cpus,expected", [
    (8, 3, 4, ([3], 0)), (8, 6, 4, ([4], 0)), (2, 6, 4, ([2], 0)),
    (8, 6, 1, ([], 0)), (8, 6, None, ([], 0)), (1, 6, 4, ([], 4)),
    (1, 2, 4, ([], 2)), (1, 6, 8, ([], 4)), (1, 6, 2, ([], 2)),
])
def test_pool_size_is_bounded(monkeypatch, hint, replications, cpus, expected):
    sizes = []

    class SerialPool:
        """Records the pool size and runs the tasks in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    if cpus is None:
        # No affinity set and no CPU count: one CPU.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    else:
        monkeypatch.setattr(mc, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(mc, "_BLOCK_WORDS", 128)
    starts = count_starts(monkeypatch)
    mc.run_experiment(small_config(n=500, k=20, replications=replications,
                                   worker_count_hint=hint))
    pool_sizes, bound = expected
    assert sizes == pool_sizes
    assert bool(starts) == (bound > 0)
    assert_threads_bounded(starts, bound)


def test_gpd_direct_serial_run_starts_no_threads(monkeypatch):
    # One block per replication, whatever n: the solver holds the GIL.
    monkeypatch.setattr(mc, "usable_cpus", lambda: 4)
    monkeypatch.setattr(mc, "_BLOCK_WORDS", 128)
    starts = count_starts(monkeypatch)
    mc.run_experiment(small_config(n=500, k=20, replications=6,
                                   sampling="gpd_direct"))
    assert starts == []


IMPORT_PATH_SCRIPT = """
import contextlib, io, json, os, sys
import numpy as np
import tailproc
from tailproc import cli, montecarlo
scipy_modules = lambda: sorted(name for name in sys.modules if name.startswith("scipy"))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["cov", "--gamma", "0.5", "--ar", "0.6"]),
             cli.main(["check", "--alpha", "3", "--coeffs", "1,0.5"]),
             cli.main(["simulate", "--coeffs", "1,0.5", "--n", "50"])]
loaded = [scipy_modules()]
sample = tailproc.ExcessSample.from_excesses(
    tailproc.GpdParams(0.5, 1.0).quantile(np.linspace(0.05, 0.95, 40)))
tailproc.lme_fit(sample, -1.0)
loaded.append(scipy_modules())
# Fewer records than the normality diagnostics need, on a pool of two.
montecarlo.usable_cpus = lambda: 2
config = montecarlo.ExperimentConfig.create(
    coeffs=tailproc.CoefficientSequence((1.0, 0.5)), model=tailproc.InnovationModel(alpha=3.0),
    n=2000, k=40, r=-1.0, replications=montecarlo.MIN_RECORDS_FOR_DIAGNOSTICS - 1,
    master_seed=5, worker_count_hint=2)
report = montecarlo.run_experiment(config)
loaded.append(scipy_modules())
print(json.dumps([codes, loaded, report.diagnostics is None]))
"""


def run_fresh(script):
    """Run ``script`` in a fresh interpreter on this tailproc; its JSON output."""
    src = str(Path(tailproc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(done.stdout)


def test_import_path_leaves_scipy_unloaded():
    codes, loaded, no_diagnostics = run_fresh(IMPORT_PATH_SCRIPT)
    assert codes == [0, 0, 0]
    # After the commands, after lme_fit and after a pooled run_experiment.
    assert loaded == [[], [], []]
    assert no_diagnostics


SERIAL_PATH_SCRIPT = """
import contextlib, io, json, sys
import tailproc
from tailproc import cli, montecarlo
pool_modules = lambda: sorted(name for name in sys.modules
                              if name.startswith(("multiprocessing", "concurrent")))
loaded = [pool_modules()]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["cov", "--gamma", "0.5", "--ar", "0.6"]),
             cli.main(["check", "--alpha", "3", "--coeffs", "1,0.5"]),
             cli.main(["simulate", "--coeffs", "1,0.5", "--n", "50"])]
loaded.append(pool_modules())
config = montecarlo.ExperimentConfig.create(
    coeffs=tailproc.CoefficientSequence((1.0, 0.5)), model=tailproc.InnovationModel(alpha=3.0),
    n=2000, k=40, r=-1.0, replications=3, master_seed=5, worker_count_hint=1)
montecarlo.run_experiment(config)
loaded.append(pool_modules())
print(json.dumps([codes, loaded]))
"""


def test_serial_path_leaves_process_pool_unloaded():
    codes, loaded = run_fresh(SERIAL_PATH_SCRIPT)
    assert codes == [0, 0, 0]
    # No pool module (multiprocessing, concurrent.futures) after the import,
    # after the commands or after a serial run_experiment.
    assert loaded == [[], [], []]


def test_run_experiment_builds_tail_expansion_once(monkeypatch):
    builds = []

    def counting(*args):
        builds.append(args)
        return tail_expansion(*args)

    monkeypatch.setattr(second_order, "tail_expansion", counting)
    cfg = mc.ExperimentConfig.create(coeffs=DEP, model=MODEL, n=4000, r=-1.0,
                                     replications=20, master_seed=17)
    report = mc.run_experiment(cfg)
    assert report.rate_2rv > 0.0
    assert len(builds) == 1
    # A gpd_direct config builds none, also when k comes from the growth rule.
    small_config(k=None, theta=0.9, sampling="gpd_direct")
    small_config(sampling="gpd_direct")
    assert len(builds) == 1
