import json
import warnings

import numpy as np
import pytest

from tailproc.cli import main
from tailproc.estimator import GpdParams, lme_fit, top_k_excesses
from tailproc.process import CoefficientSequence, InnovationModel, simulate


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

    @pytest.mark.parametrize("key,value,expected", [
        ("coeffs", 5, "a list of numbers"),
        ("alpha", {}, "a number"),
        ("n", [1000], "a number"),
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

    def test_missing_required_key_named(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"coeffs": [1], "alpha": 3, "r": -1,
                                        "n": 4000}))
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg_path))
        assert code == 1
        assert "missing config key" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "cov", "--coeffs", "1")
        assert code == 1

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
