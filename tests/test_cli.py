import dataclasses
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from tailproc import montecarlo
from tailproc.cli import CONFIG_KEYS, build_parser, main
from tailproc.estimator import GpdParams, lme_fit, top_k_excesses
from tailproc.process import CoefficientSequence, InnovationModel, simulate
from tailproc.second_order import choose_k


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCov:
    def test_iid_kappa1(self, capsys):
        code, out, _ = run_cli(capsys, "cov", "--gamma", "0.5", "--r", "-1",
                               "--coeffs", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa1"] == pytest.approx(0.2777777777777778, abs=1e-12)
        assert payload["phi1"] == 0.0

    def test_arma_coefficients(self, capsys):
        # c_j = 0.5**j and 1/gamma = 2, so the norm is sum 0.25**j = 4/3.
        code, out, _ = run_cli(capsys, "cov", "--gamma", "0.5", "--r", "-1",
                               "--ar", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["norm_c"] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_ar_root_near_unit_circle(self, capsys):
        # c_j = 0.9**j and 1/gamma = 2, so the norm is 1/(1 - 0.81).
        code, out, _ = run_cli(capsys, "cov", "--gamma", "0.5", "--r", "-1",
                               "--ar", "0.9")
        assert code == 0
        payload = json.loads(out)
        assert payload["norm_c"] == pytest.approx(1.0 / 0.19, abs=1e-10)

    def test_requires_coefficients(self, capsys):
        code, _, err = run_cli(capsys, "cov", "--gamma", "0.5", "--r", "-1")
        assert code == 1
        assert "coefficients required" in err

    def test_arithmetic_error_is_numerical_failure(self, capsys):
        code, out, err = run_cli(capsys, "check", "--alpha", "3", "--coeffs", "1e200,1")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_phi2_stays_finite_for_tiny_coefficients(self, capsys):
        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "cov", "--gamma", "0.25", "--r", "-2",
                                     "--coeffs", "1,1e-40,1e-40")
            assert run_cli(capsys, "cov", "--gamma", "0.25", "--r", "-2",
                           "--ar", "0.9")[0] == 0
        assert code == 0 and err == ""
        assert json.loads(out, parse_constant=reject)["phi2"] == pytest.approx(
            1e-160, rel=1e-12)

    def test_norm_overflow_is_numerical_failure(self, capsys):
        # The norm sum |c_j|**4 overflows; it used to print "norm_c": Infinity.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "cov", "--gamma", "0.25", "--r", "-1",
                                     "--coeffs", "1e200,1")
        assert code == 2
        assert out == ""
        assert err == "numerical failure: power sum of |c_j|**4.0 overflows\n"

    def test_domain_error_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "cov", "--gamma", "-0.5", "--r", "-1",
                             "--coeffs", "1")
        assert code == 1


class TestCheck:
    def test_iid_fails_two_conditions(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--alpha", "3", "--coeffs", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is False
        assert payload["failing"] == ["(ii)", "(iii)"]

    def test_dependent_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--alpha", "3",
                               "--coeffs", "1,0.5", "--xi", "0.9")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] is True
        witness = {c["name"]: c["witness"] for c in payload["checks"]}
        assert witness["(i)"]["eta"] == pytest.approx(0.45)
        assert witness["(i)"]["C_eta"] == pytest.approx(1.73204, abs=5e-6)

    def test_rows_and_conditions_holding_by_construction(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--alpha", "3", "--coeffs", "1,0.5")
        payload = json.loads(out)
        assert code == 0
        assert [c["name"] for c in payload["checks"]] == [
            "geometric_decay", "(i)", "(ii)", "(iii)"]
        assert payload["holds_by_construction"] == [
            "cross_lag_sum", "innovation_moment", "innovation_smoothness", "k_growth"]

    def test_long_sequence_certificate_is_finite(self, capsys):
        # With u = 2 the certificate of 0.99**j at J = 3000 overflows to inf,
        # which json.dumps writes as the non-JSON token Infinity.
        coeffs = 0.99 ** np.arange(3001)

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "check", "--alpha", "3", "--coeffs",
                                   ",".join(repr(float(c)) for c in coeffs))
        assert code == 0
        witness = {c["name"]: c["witness"]
                   for c in json.loads(out, parse_constant=reject)["checks"]}
        a_cert, u_cert = witness["geometric_decay"]["A"], witness["geometric_decay"]["u"]
        assert np.isfinite(a_cert) and u_cert > 1.0
        assert np.all(coeffs < a_cert * u_cert ** -np.arange(3001))


    def test_certificate_overflow_is_numerical_failure(self, capsys):
        # |c_1| * 2**1 overflows; it used to warn before the failure line.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "check", "--alpha", "3",
                                     "--coeffs", "1e308,1e308")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert len(err.splitlines()) == 1


UNDERFLOW_RUN = ["--coeffs", "1e-200", "--alpha", "3", "--r", "-0.5", "--n", "200",
                 "--k", "20", "--reps", "3", "--seed", "1", "--workers", "1"]


class TestPowerSumUnderflow:
    @pytest.mark.parametrize("argv", [
        ["cov", "--gamma", "0.3333", "--r", "-0.5", "--coeffs", "1e-200,1e-200"],
        ["check", "--alpha", "3", "--coeffs", "1e-200,1e-200"],
        ["validate", *UNDERFLOW_RUN, "--sampling", "gpd_direct"],
        ["validate", *UNDERFLOW_RUN, "--sampling", "series"],
    ], ids=" ".join)
    def test_is_a_numerical_failure_before_any_replication(self, capsys, monkeypatch,
                                                            tmp_path, argv):
        # Every |c_j|**u with u near 3 underflows; cov used to fail with a bare
        # division by zero, check to pass (i) and fail (ii) and (iii) on zero
        # witnesses, and validate only after every replication had run.
        calls = []
        monkeypatch.setattr(montecarlo, "run_replication", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / "run"))
        assert (code, out, calls, list(tmp_path.iterdir())) == (2, "", [], [])
        assert err.startswith("numerical failure: power sum of |c_j|**")
        assert err.rstrip().endswith("underflows to zero")
        assert len(err.splitlines()) == 1


class TestSimulateAndFit:
    def test_round_trip_matches_library(self, capsys, tmp_path):
        out_path = tmp_path / "path.csv"
        code, _, _ = run_cli(capsys, "simulate", "--coeffs", "1,0.5",
                             "--alpha", "3", "--n", "2000", "--seed", "3",
                             "--output", str(out_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "fit", "--input", str(out_path),
                               "--k", "100", "--r", "-1")
        assert code == 0
        payload = json.loads(out)

        coeffs = CoefficientSequence((1.0, 0.5))
        model = InnovationModel(alpha=3.0)
        direct = lme_fit(top_k_excesses(simulate(coeffs, model, 2000, 3).values,
                                        100), -1.0)
        assert payload["gamma_hat"] == direct.gamma_hat
        assert payload["sigma_hat"] == direct.sigma_hat

    def test_simulate_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--coeffs", "1", "--n", "5",
                               "--seed", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["values"]) == 5 and payload["seed"] == 1

    def test_pi1_sets_the_right_tail_weight(self, capsys):
        flags = ("simulate", "--coeffs", "1,0.5", "--n", "50", "--seed", "1")
        code, out, _ = run_cli(capsys, *flags, "--pi1", "0.2")
        assert code == 0
        path = simulate(CoefficientSequence((1.0, 0.5)), InnovationModel(alpha=3.0, pi1=0.2),
                        50, 1)
        assert out.splitlines() == ["value", *map(repr, path.values.tolist())]
        code, out, err = run_cli(capsys, *flags, "--two-sided")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --two-sided" in err

    def test_fit_excesses_quantile_grid(self, capsys, tmp_path):
        k = 10**4
        p = (np.arange(k) + 0.5) / k
        excesses = GpdParams(0.5, 1.0).quantile(p)
        path = tmp_path / "excesses.csv"
        path.write_text("value\n" + "\n".join(repr(float(v)) for v in excesses) + "\n")
        code, out, _ = run_cli(capsys, "fit", "--input", str(path),
                               "--k", str(k), "--r", "-1", "--excesses")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["gamma_hat"] - 0.5) <= 0.01
        assert abs(payload["sigma_hat"] - 1.0) <= 0.02

    def test_fit_numerical_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(["2.5"] * 50) + "\n")
        code, _, err = run_cli(capsys, "fit", "--input", str(path),
                               "--r", "-1", "--excesses")
        assert code == 2
        assert "no LME solution found" in err

    def test_fit_output_fields(self, capsys, tmp_path):
        data = GpdParams(0.5, 1.0).quantile((np.arange(200) + 0.5) / 200)
        path = tmp_path / "excesses.csv"
        path.write_text("\n".join(repr(float(v)) for v in data))
        code, out, _ = run_cli(capsys, "fit", "--input", str(path), "--excesses")
        assert code == 0
        assert list(json.loads(out)) == ["gamma_hat", "sigma_hat", "b_hat", "residual",
                                         "iterations", "r", "k", "threshold"]

    def test_fit_k_mismatch_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "exc.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        code, _, err = run_cli(capsys, "fit", "--input", str(path),
                               "--k", "5", "--r", "-1", "--excesses")
        assert code == 1 and "does not match" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flags", [["--excesses"], ["--k", "3"]])
    def test_fit_rejects_non_finite_data(self, capsys, tmp_path, value, flags):
        path = tmp_path / "data.csv"
        path.write_text(f"3.0\n{value}\n2.0\n1.0\n0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit", "--input", str(path),
                                     "--r", "-1", *flags)
        assert code == 1
        assert out == ""
        assert err == "error: excesses must be finite\n"

    def test_fit_overflowing_scale_is_numerical_failure(self, capsys, tmp_path):
        # Excesses of order 1e-310: b_hat = t_hat / mean excess overflows.
        data = GpdParams(1.0 / 3.0, 1.0).quantile((np.arange(200) + 0.5) / 200) * 1e-310
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join(repr(float(v)) for v in data) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit", "--input", str(path),
                                     "--r", "-1", "--excesses")
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: no LME solution found: b_hat")

    def test_header_and_comments_are_skipped(self, capsys, tmp_path):
        data = GpdParams(0.5, 1.0).quantile((np.arange(50) + 0.5) / 50)
        rows = [repr(float(v)) for v in data]
        plain, annotated = tmp_path / "plain.csv", tmp_path / "annotated.csv"
        plain.write_text("\n".join(rows) + "\n")
        annotated.write_text("# GPD grid\n\nvalue,label\n" + "\n".join(rows[:10])
                             + "\n  # midway\n" + "\n".join(rows[10:]) + "\n")
        outputs = [run_cli(capsys, "fit", "--input", str(path), "--excesses")
                   for path in (plain, annotated)]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text,line", [
        ("value\n1.5\n2.5\nfoo\n3.0\n", 4),
        ("1.5\nvalue\n2.5\n", 2),
        ("value\nheader\n1.5\n2.5\n", 2),
    ])
    def test_non_numeric_row_is_usage_error(self, capsys, tmp_path, text, line):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--excesses")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line {line} of {path} is not a number: ")

    def test_missing_input_file(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--input", "/nonexistent.csv",
                             "--k", "5", "--r", "-1")
        assert code == 1


class TestValidate:
    def test_config_file_run_with_outputs(self, capsys, tmp_path):
        cfg = {"coeffs": [1], "alpha": 3, "r": -1, "n": 4000, "k": 60,
               "reps": 30, "seed": 17, "workers": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        prefix = str(tmp_path / "out")
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg_path),
                               "--output", prefix)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["k"] == 60
        header = (tmp_path / "out.records.csv").read_text().splitlines()[0]
        assert header == "index,gamma_hat,sigma_hat,z1,z2,status"
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert report["empirical_mean"] == payload["empirical_mean"]

    def test_gpd_direct_below_alpha_two_takes_k_from_the_rule(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "alpha": 1.5, "sampling": "gpd_direct",
                                        "r": -1, "n": 4000, "reps": 4, "seed": 17,
                                        "workers": 1}))
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["k"] == choose_k(4000, 0.9, 1.5, True)
        assert payload["failure_count"] == 0

    def test_cli_flags_override_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "alpha": 3, "r": -1,
                                        "n": 4000, "k": 60, "reps": 30,
                                        "seed": 17, "workers": 1}))
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg_path),
                               "--reps", "12")
        assert code == 0
        assert json.loads(out)["config"]["replications"] == 12

    def test_both_coefficient_kinds_in_file_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "ar": [0.5], "alpha": 3,
                                        "r": -1, "n": 4000, "k": 60, "reps": 4,
                                        "seed": 17, "workers": 1}))
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert code == 1
        assert "not both" in err

    def test_coeffs_flag_replaces_arma_keys_of_file(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ar": [0.5], "alpha": 3, "r": -1,
                                        "n": 4000, "k": 60, "reps": 4,
                                        "seed": 17, "workers": 1}))
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg_path),
                               "--coeffs", "1,0.5")
        assert code == 0
        assert json.loads(out)["config"]["coeffs"] == [1.0, 0.5]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "bogus": True}))
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert code == 1
        assert "unknown config key: 'bogus'" in err

    @pytest.mark.parametrize("key", ["kind", "pi2"])
    def test_removed_model_keys_rejected(self, capsys, tmp_path, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "alpha": 3, key: 0.5}))
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert (code, err) == (1, f"error: unknown config key: {key!r}\n")

    @pytest.mark.parametrize("sampling,message", [("series", "scale unavailable"),
                                                  ("gpd_direct", None)])
    def test_right_tail_weight_from_file(self, capsys, tmp_path, sampling, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "alpha": 3, "pi1": 0.3,
                                        "sampling": sampling, "r": -1, "n": 4000,
                                        "k": 60, "reps": 4, "seed": 17, "workers": 1}))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        if message:
            assert (code, out) == (1, "") and err.startswith(f"error: {message}")
        else:
            assert code == 0
            assert json.loads(out)["config"]["innovation"] == {"alpha": 3.0, "pi1": 0.3}

    CONFIG_VALUES = {"coeffs": [1], "ar": [0.5], "ma": [0.4], "alpha": 3.5,
                     "pi1": 0.3, "r": -0.5, "n": 3000, "k": 50, "theta": 0.8,
                     "reps": 3, "seed": 5, "workers": 1, "sampling": "gpd_direct"}

    def test_config_values_cover_every_key(self):
        assert self.CONFIG_VALUES.keys() == CONFIG_KEYS.keys()

    @pytest.mark.parametrize("key", CONFIG_VALUES)
    def test_every_config_key_runs_or_fails_cleanly(self, capsys, tmp_path, key):
        # A key that reached ExperimentConfig as an unknown keyword would
        # raise a TypeError, which main does not catch.
        cfg = {"coeffs": [1], "alpha": 3, "r": -1, "n": 4000, "k": 60,
               "reps": 4, "seed": 17, "workers": 1, key: self.CONFIG_VALUES[key]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        if code == 0:
            assert json.loads(out)["failure_count"] <= cfg["reps"]
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("key,value,expected", [
        ("coeffs", 5, "a list of numbers"),
        ("alpha", {}, "a number"),
        ("n", [1000], "a number"),
        ("n", 2000.7, "a whole number"),
        ("k", 20.9, "a whole number"),
        ("reps", 3.9, "a whole number"),
        ("seed", 1.5, "a whole number"),
        ("workers", 1.2, "a whole number"),
        ("n", float("inf"), "a whole number"),
    ])
    def test_config_value_of_wrong_type_rejected(self, capsys, tmp_path, key,
                                                 value, expected):
        cfg = {"coeffs": [1], "alpha": 3, "r": -1, "n": 4000, "k": 60,
               "reps": 4, "seed": 17, "workers": 1, key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err == f"error: config key {key!r} must be {expected}\n"

    def test_integral_numbers_accepted_for_counts(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"coeffs": [1], "alpha": 3, "r": -1, "n": 4e3, '
                            '"k": 60.0, "reps": 4.0, "seed": 1.7e1, "workers": 1e0}')
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert code == 0
        config = json.loads(out)["config"]
        assert [config[key] for key in ("n", "k", "replications", "master_seed")] \
            == [4000, 60, 4, 17]

    def test_null_leaves_optional_keys_unset(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "ar": None, "alpha": 3,
                                        "r": -1, "n": 4000, "k": None, "reps": 4,
                                        "seed": 17, "workers": None}))
        code, _, _ = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert code == 0

    def test_zero_workers_rejected(self, capsys, tmp_path):
        cfg = {"coeffs": [1], "alpha": 3, "r": -1, "n": 4000, "k": 60,
               "reps": 4, "seed": 17}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "workers": 0}))
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert (code, err) == (1, "error: worker_count_hint must be >= 1\n")
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg_path),
                               "--workers", "0")
        assert (code, err) == (1, "error: worker_count_hint must be >= 1\n")

    def test_workers_default_to_usable_cpus(self, capsys, tmp_path, monkeypatch):
        hints = []

        def recording(config, **outputs):
            hints.append(config.worker_count_hint)
            return real(dataclasses.replace(config, worker_count_hint=1), **outputs)

        real = montecarlo.run_experiment
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
        monkeypatch.setattr(montecarlo, "run_experiment", recording)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "alpha": 3, "r": -1, "n": 4000,
                                        "k": 60, "reps": 4, "seed": 17}))
        code, _, _ = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert (code, hints) == (0, [3])

    def test_output_into_missing_directory_fails_before_the_run(self, capsys, tmp_path,
                                                                 monkeypatch):
        calls = []
        real = montecarlo.run_replication
        monkeypatch.setattr(montecarlo, "run_replication",
                            lambda *args: calls.append(args) or real(*args))
        code, out, err = run_cli(capsys, "validate", "--coeffs", "1", "--alpha", "3",
                                 "--r", "-1", "--n", "4000", "--k", "60", "--reps", "4",
                                 "--seed", "17", "--workers", "1",
                                 "--output", str(tmp_path / "missing" / "out"))
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("error:")

    def test_missing_required_key_named(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "alpha": 3, "r": -1,
                                        "n": 4000}))
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert code == 1
        assert "missing config key" in err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_is_usage_error(self, capsys, command, seed, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "run_replication", lambda *args: calls.append(args))
        extra = ["--r", "-1", "--k", "10", "--reps", "3", "--workers", "1"]
        code, out, err = run_cli(capsys, command, "--coeffs", "1,0.5", "--alpha", "3",
                                 "--n", "200", "--seed", seed,
                                 *(extra if command == "validate" else []))
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("error:") and "seed must lie in [0, 2**64)" in err


class TestUsage:
    def test_readme_command_lines_parse(self):
        # Parse only: a flag the CLI dropped must not live on in an example.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = [line for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
                 for line in block.splitlines() if line.startswith("tailproc ")]
        assert len(lines) >= 6
        for line in lines:
            try:
                build_parser().parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "cov", "--coeffs", "1")
        assert code == 1

    @pytest.mark.parametrize("argv,message", [
        (["cov", "--gamma", "0.5", "--r", "-5x", "--coeffs", "1"],
         "tailproc cov: error: argument --r: invalid float value: '-5x'"),
        (["cov", "--r", "-0.5", "--coeffs", "1"],
         "tailproc cov: error: the following arguments are required: --gamma"),
        (["bogus"], "tailproc: error: argument command: invalid choice: 'bogus'"),
    ], ids=["malformed_value", "missing_gamma", "unknown_command"])
    def test_usage_error_says_why(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        usage, error = err.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith("usage: tailproc")
        assert error.startswith(message)

    @pytest.mark.parametrize("argv", [
        ["cov", "--gamma", "0.5", "--coeffs", "1,0.5"],
        ["fit", "--input", "{excesses}", "--excesses"],
        ["validate", "--coeffs", "1", "--alpha", "3", "--n", "200", "--k", "20",
         "--reps", "3", "--seed", "1", "--workers", "1", "--sampling", "gpd_direct"],
    ], ids=lambda argv: argv[0])
    def test_negative_number_in_exponent_form(self, capsys, tmp_path, argv):
        # argparse's own pattern takes -5e-1 for an unknown option; _Parser
        # replaces that pattern, an argparse internal this test pins.
        excesses = tmp_path / "excesses.csv"
        grid = GpdParams(0.5, 1.0).quantile((np.arange(50) + 0.5) / 50)
        excesses.write_text("\n".join(repr(float(v)) for v in grid) + "\n")
        outputs = []
        for r in ("-5e-1", "-0.5"):
            code, out, err = run_cli(capsys, *(a.format(excesses=excesses) for a in argv),
                                     "--r", r)
            payload = json.loads(out)
            payload.pop("elapsed_seconds", None)
            outputs.append((code, json.dumps(payload), err))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    @pytest.mark.parametrize("command,flags", [
        ("simulate", ["--coeffs", "--alpha", "--n", "--seed", "--output",
                      "--format"]),
        ("fit", ["--input", "--k", "--r", "--excesses", "--output"]),
        ("cov", ["--gamma", "--r", "--coeffs", "--ar", "--ma"]),
        ("check", ["--alpha", "--coeffs", "--xi"]),
        ("validate", ["--config", "--n", "--k", "--theta", "--reps", "--seed",
                      "--workers", "--output"]),
    ])
    def test_help_lists_flags_with_defaults(self, capsys, command, flags):
        code = main([command, "--help"])
        assert code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
        assert "default" in out

    @pytest.mark.parametrize("argv", [
        ["cov", "--gamma", "0.5", "--r", "nan", "--coeffs", "1,0.5"],
        ["cov", "--gamma", "inf", "--coeffs", "1,0.5"],
        ["cov", "--gamma", "nan", "--coeffs", "1,0.5"],
        ["check", "--alpha", "nan", "--coeffs", "1,0.5"],
        ["check", "--alpha", "inf", "--coeffs", "1,0.5"],
        ["simulate", "--coeffs", "1", "--pi1", "nan", "--n", "5"],
        ["simulate", "--coeffs", "1", "--alpha", "inf", "--n", "5"],
        ["fit", "--input", "{series}", "--k", "2", "--r", "nan"],
        ["validate", "--coeffs", "1", "--alpha", "3", "--r", "nan", "--n", "200",
         "--k", "10", "--reps", "3", "--seed", "1", "--workers", "1"],
    ], ids=" ".join)
    def test_non_finite_parameters_rejected(self, capsys, tmp_path, argv):
        series = tmp_path / "series.csv"
        series.write_text("1\n2\n3\n5\n")
        code, out, err = run_cli(capsys, *(a.format(series=series) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
