import csv
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import tailproc
from tailproc import montecarlo as mc
from tailproc import second_order
from tailproc.asymptotics import estimator_cov
from tailproc.estimator import LmeSolverError, lme_fit, top_k_excesses
from tailproc.process import CoefficientSequence, InnovationModel, philox_stream, simulate
from tailproc.second_order import quantile_expansion, tail_expansion

IID = CoefficientSequence((1.0,))
DEP = CoefficientSequence((1.0, 0.5))
MODEL = InnovationModel(alpha=3.0)


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

    def test_series_mode_requires_one_sided(self):
        two_sided = InnovationModel(kind="two_sided_pareto", alpha=3.0)
        with pytest.raises(ValueError, match="scale unavailable"):
            small_config(model=two_sided)

    def test_gpd_direct_has_no_centering(self):
        two_sided = InnovationModel(kind="two_sided_pareto", alpha=3.0)
        assert small_config(model=two_sided, sampling="gpd_direct").centering is None

    def test_replace_rebuilds_centering(self):
        cfg = small_config(coeffs=DEP)
        for changes in ({"n": 9000}, {"coeffs": CoefficientSequence((1.0, 0.8))}):
            replaced = dataclasses.replace(cfg, **changes)
            fresh = small_config(**{"coeffs": DEP, **changes})
            assert replaced.centering == fresh.centering
            assert (mc.sigma_nk(replaced.centering, cfg.gamma, replaced.n, replaced.k)
                    == mc.sigma_nk(fresh.centering, cfg.gamma, fresh.n, fresh.k))
        assert dataclasses.replace(cfg, coeffs=IID).centering != cfg.centering

    def test_centering_survives_pickling(self):
        cfg = small_config(coeffs=DEP)
        restored = pickle.loads(pickle.dumps(cfg))
        assert restored == cfg
        assert restored.centering == cfg.centering
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
        path = simulate(DEP, MODEL, cfg.n, cfg.master_seed, stream=5)
        with pytest.raises(LmeSolverError, match="no LME solution found") as info:
            lme_fit(top_k_excesses(path.values, cfg.k), cfg.r)
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
    def test_report_identical_across_worker_counts(self):
        serial = mc.run_experiment(small_config(worker_count_hint=1))
        parallel = mc.run_experiment(small_config(worker_count_hint=2))
        np.testing.assert_array_equal(serial.empirical_mean, parallel.empirical_mean)
        np.testing.assert_array_equal(serial.empirical_cov, parallel.empirical_cov)
        assert serial.failure_count == parallel.failure_count
        assert serial.diagnostics == parallel.diagnostics

    def test_theoretical_matches_asymptotics_module(self):
        report = mc.run_experiment(small_config())
        expected = estimator_cov(1.0 / 3.0, -1.0, IID).estimator_cov
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


@pytest.mark.parametrize("hint,replications,cpus,expected", [
    (8, 3, 4, [3]), (8, 6, 4, [4]), (2, 6, 4, [2]), (8, 6, 1, []),
    (8, 6, None, []), (1, 6, 4, []),
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

    monkeypatch.setattr(mc, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    mc.run_experiment(small_config(n=500, k=20, replications=replications,
                                   worker_count_hint=hint))
    assert sizes == expected


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(tailproc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, tailproc; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_run_experiment_builds_tail_expansion_at_most_twice(monkeypatch):
    builds = []

    def counting(*args):
        builds.append(args)
        return tail_expansion(*args)

    monkeypatch.setattr(second_order, "tail_expansion", counting)
    cfg = mc.ExperimentConfig.create(coeffs=DEP, model=MODEL, n=4000, r=-1.0,
                                     replications=20, master_seed=17)
    report = mc.run_experiment(cfg)
    assert report.rate_2rv > 0.0
    assert len(builds) <= 2
