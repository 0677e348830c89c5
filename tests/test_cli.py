import argparse
import ast
import builtins
import concurrent.futures
import dataclasses
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from test_montecarlo import InlinePool, use_inline_pool

from tailproc import cli, montecarlo
from tailproc.cli import build_parser, main
from tailproc.estimator import GpdParams, lme_fit, top_k_excesses
from tailproc.process import CoefficientSequence, InnovationModel, simulate
from tailproc.second_order import choose_k


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which JSON does not have."""
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def one_cpu(monkeypatch):
    """Keeps a gpd_direct run in a plain loop: the CLI sizes its process
    pool by the usable CPUs."""
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 1)


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

    def test_truncation_bound_at_extreme_gamma(self, capsys):
        # The ARMA truncation bound exited 2: at gamma 0.001 on "(34, 'Numerical
        # result out of range')", at gamma 1e20 on "float division by zero".
        code, out, err = run_cli(capsys, "cov", "--gamma", "0.001", "--r", "-0.5",
                                 "--ar", "0.5", "--ma", "1")
        assert (code, err) == (0, "")
        assert strict_json(out)["truncation_error"] == 0.0
        code, out, err = run_cli(capsys, "cov", "--gamma", "1e20", "--r", "-0.5", "--ar", "0.5")
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert report["norm_c"] == 84.0
        assert report["truncation_error"] == pytest.approx(2.885e20, rel=1e-3)
        code, _, err = run_cli(capsys, "validate", "--sampling", "gpd_direct", "--ar", "0.5",
                               "--ma", "1", "--alpha", "1000", "--r", "-0.5", "--n", "2000",
                               "--k", "40", "--reps", "2", "--seed", "1")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("command", [
        ("cov", "--gamma", "0.3333"),
        ("validate", "--alpha", "3", "--n", "2000", "--reps", "2", "--seed", "1")])
    @pytest.mark.parametrize("r", ["-1e-6", "-1e-20"])
    def test_tiny_r_is_numerical_failure(self, capsys, command, r):
        # cov printed negative variances at -1e-6 and Infinity at -1e-20, exit 0.
        # At -1e-20 the Jacobian's det rounds to zero, and L overflows.
        message = {"-1e-6": "covariance L S L^T is not finite",
                   "-1e-20": "linearization matrix overflows at gamma=0.333"}[r]
        code, out, err = run_cli(capsys, *command, "--r", r, "--coeffs", "1,0.5")
        assert (code, out) == (2, "")
        assert err.startswith(f"numerical failure: {message}")
        assert len(err.splitlines()) == 1

    def test_domain_error_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "cov", "--gamma", "-0.5", "--r", "-1",
                             "--coeffs", "1")
        assert code == 1

    def test_coefficient_ratio_past_the_float_range(self, capsys):
        # phi3's 1 / 1e-320 overflowed, and cov exited 1 on "kappas must be finite".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "cov", "--gamma", "0.5", "--r", "-1",
                                     "--coeffs", "1,1e-320")
        assert (code, err) == (0, "")
        assert json.loads(out)["phi3"] == 0.0

    @pytest.mark.parametrize("argv,message", [
        (["cov", "--gamma", "1e300", "--r", "-1"], "kappas (inf, "),
        (["cov", "--gamma", "0.5", "--r", "-1e300"],
         "raw limits overflow at gamma=0.5, r=-1e+300\n"),
        (["validate", "--alpha", "3", "--r", "-1e300", "--n", "2000", "--reps", "2",
          "--seed", "1"],
         "raw limits overflow at gamma=0.3333333333333333, r=-1e+300\n"),
        (["validate", "--alpha", "3", "--r", "-0.5", "--n", str(10**400), "--reps", "2",
          "--seed", "1"], f"growth rule overflows at n={10**400}\n"),
        (["validate", "--alpha", "3", "--r", "-0.5", "--n", str(10**400), "--k", "50",
          "--reps", "2", "--seed", "1"], f"centering scale overflows at n={10**400}, k=50\n"),
        (["check", "--alpha", "3", "--coeffs", "1,1e308"],
         "decay certificate A of |c_j| * 2.0**j overflows\n"),
    ], ids=["huge_gamma", "huge_r_cov", "huge_r_validate", "huge_n", "huge_n_explicit_k",
            "huge_coefficient"])
    def test_huge_parameter_is_named_numerical_failure(self, capsys, argv, message):
        # A huge gamma exited 1 as a usage error; a huge |r| printed a bare
        # "(34, 'Numerical result out of range')", and an n with no float
        # "int too large to convert to float" or "integer division result
        # too large for a float".
        # A row's own --coeffs comes later and wins.
        code, out, err = run_cli(capsys, argv[0], "--coeffs", "1,0.5", *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"numerical failure: {message}")
        assert len(err.splitlines()) == 1

    def test_subnormal_gamma_names_the_norm_exponent(self, capsys):
        # 1 / 5e-324 rounded to inf, and the message named the linearization matrix.
        code, out, err = run_cli(capsys, "cov", "--gamma", "5e-324", "--r", "-0.5",
                                 "--coeffs", "2")
        assert (code, out) == (2, "")
        assert err == ("numerical failure: coefficient norm's exponent 1/gamma "
                       "overflows at gamma=5e-324\n")


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "check", "--alpha", "3", "--coeffs",
                                   ",".join(repr(float(c)) for c in coeffs))
        assert code == 0
        witness = {c["name"]: c["witness"]
                   for c in strict_json(out)["checks"]}
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

    @pytest.mark.parametrize("command", [
        ["check", "--alpha", "3"],
        ["validate", "--alpha", "3", "--r", "-1", "--n", "1000", "--reps", "2",
         "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_tail_expansion_overflow_is_named(self, capsys, command):
        # ct2**2 overflowed as a bare "(34, 'Numerical result out of range')".
        code, out, err = run_cli(capsys, *command, "--coeffs", "1e60,1e59")
        assert (code, out) == (2, "")
        assert err == "numerical failure: tail expansion's squares overflow at alpha=3.0\n"


UNDERFLOW_RUN = ["--coeffs", "1e-200", "--alpha", "3", "--r", "-0.5", "--n", "200",
                 "--k", "20", "--reps", "3", "--seed", "1"]


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

    def test_simulate_has_no_format_flag(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--coeffs", "1", "--n", "5",
                                 "--seed", "1", "--format", "json")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --format json" in err

    @pytest.mark.parametrize("argv,message", [
        # simulate printed inf values after a RuntimeWarning, exit 0.
        (("simulate", "--coeffs", "1,0.5", "--n", "4", "--alpha", "1e-3"),
         "innovation magnitude overflows at alpha=0.001"),
        (("simulate", "--coeffs", "1,0.5", "--n", "4", "--alpha", "1e-300"),
         "innovation magnitude overflows at alpha=1e-300"),
        # validate warned twice from expm1 and exited 1 on the inf excesses.
        (("validate", "--coeffs", "1", "--alpha", "0.001", "--r", "-0.5", "--n", "2000",
          "--reps", "2", "--seed", "1", "--sampling", "gpd_direct", "--k", "50"),
         "GPD quantile overflows"),
        # Finite draws, but the filter overflows.
        (("simulate", "--coeffs", "1e308,1e308", "--n", "4"),
         "simulated path overflows: the filter of these coefficients"),
    ])
    @pytest.mark.usefixtures("one_cpu")
    def test_overflowing_draws_are_numerical_failures(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"numerical failure: {message}")
        assert len(err.splitlines()) == 1

    def test_unallocatable_path_is_a_resource_failure(self, capsys):
        # 2**59 doubles (4 EiB) fail to allocate on any 64-bit host; numpy's
        # MemoryError escaped main as a traceback.
        code, out, err = run_cli(capsys, "simulate", "--coeffs", "1", "--n", str(2**59))
        assert (code, out) == (1, "")
        assert err.startswith("error: Unable to allocate 4.00 EiB")
        assert len(err.splitlines()) == 1

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

    def test_byte_order_mark_is_not_a_header(self, capsys, tmp_path):
        # A first value after a UTF-8 byte-order mark was taken for a header:
        # k 199 and gamma_hat 0.2726 in place of k 200 and 0.3267.
        rows = "\n".join(repr(float(v)) for v in
                         GpdParams(1.0 / 3.0, 1.0).quantile((np.arange(200) + 0.5) / 200))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows + "\n")
        marked.write_text("\ufeff" + rows + "\n", encoding="utf-8")
        outputs = [run_cli(capsys, "fit", "--input", str(path), "--excesses", "--r", "-0.5")
                   for path in (plain, marked)]
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[1][1])
        assert payload["k"] == 200
        assert payload["gamma_hat"] == pytest.approx(0.3267, abs=5e-5)

    def test_empty_first_field_is_a_header_or_an_error(self, capsys, tmp_path):
        # A row such as ",7.0" is not blank: its first field is not a number.
        data = GpdParams(0.5, 1.0).quantile((np.arange(50) + 0.5) / 50)
        rows = [repr(float(v)) for v in data]
        plain, headed, broken = (tmp_path / f"{name}.csv" for name in ("plain", "headed", "broken"))
        plain.write_text("\n".join(rows) + "\n")
        headed.write_text(",label\n" + "\n".join(rows) + "\n")
        broken.write_text("value\n1.5\n,7.0\n2.5\n3.5\n0.5\n")
        outputs = [run_cli(capsys, "fit", "--input", str(path), "--excesses")
                   for path in (plain, headed)]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]
        code, out, err = run_cli(capsys, "fit", "--input", str(broken), "--excesses")
        assert (code, out, err) == (1, "", f"error: line 3 of {broken} is not a number: ''\n")

    def test_file_without_numbers_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# no data\n\nvalue\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(path), "--excesses")
        assert (code, out, err) == (1, "", f"error: no numeric data found in {path}\n")

    def test_raw_series_needs_k(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("3.0\n2.0\n1.0\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == "error: --k is required when fitting a raw series\n"

    def test_missing_input_file(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--input", "/nonexistent.csv",
                             "--k", "5", "--r", "-1")
        assert code == 1


VALIDATE_FLAGS = "--coeffs 1 --alpha 3 --r -1 --n 4000 --k 60 --reps 4 --seed 17"


def args_file(tmp_path, text, name="run.args"):
    """An argument file holding ``text``, as the ``@FILE`` argument naming it."""
    path = tmp_path / name
    path.write_text(text)
    return f"@{path}"


class TestValidate:
    def test_config_file_run_with_outputs(self, capsys, tmp_path):
        run = args_file(tmp_path, VALIDATE_FLAGS.replace("--reps 4", "--reps 30"))
        prefix = str(tmp_path / "out")
        code, out, _ = run_cli(capsys, "validate", run, "--output", prefix)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["k"] == 60
        header = (tmp_path / "out.records.csv").read_text().splitlines()[0]
        assert header == "index,gamma_hat,sigma_hat,z1,z2,status"
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert report["empirical_mean"] == payload["empirical_mean"]

    @pytest.mark.parametrize("flags", [
        "--coeffs 1,0.5 --alpha 3 --r -0.5 --n 4000 --reps 6 --seed 3",
        "--ar 0.5 --alpha 3 --r -0.5 --n 4000 --k 60 --reps 6 --seed 3 --sampling gpd_direct",
    ], ids=["series", "gpd_direct"])
    def test_argument_file_matches_command_line(self, capsys, tmp_path, flags):
        outputs = []
        for name, argv in (("line", flags.split()),
                           ("file", [args_file(tmp_path, flags.replace(" --", "\n--"))])):
            prefix = tmp_path / name
            code, out, err = run_cli(capsys, "validate", *argv, "--output", str(prefix))
            reports = [json.loads(text) for text in
                       (out, Path(f"{prefix}.report.json").read_text())]
            for report in reports:
                report.pop("elapsed_seconds")
            outputs.append((code, err, reports,
                            Path(f"{prefix}.records.csv").read_bytes()))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    @pytest.mark.usefixtures("one_cpu")
    def test_gpd_direct_below_alpha_two_takes_k_from_the_rule(self, capsys, tmp_path):
        run = args_file(tmp_path, "--coeffs 1 --alpha 1.5 --sampling gpd_direct\n"
                                  "--r -1 --n 4000 --reps 4 --seed 17\n")
        code, out, _ = run_cli(capsys, "validate", run)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["k"] == choose_k(4000, 0.9, 1.5, True)
        assert payload["failure_count"] == 0

    def test_cli_flags_override_config(self, capsys, tmp_path):
        # Later arguments win: a flag after the file overrides it, and one
        # before the file is overridden by it.
        run = args_file(tmp_path, VALIDATE_FLAGS)
        for argv, reps in (([run, "--reps", "12"], 12), (["--reps", "12", run], 4)):
            code, out, _ = run_cli(capsys, "validate", *argv)
            assert (code, json.loads(out)["config"]["replications"]) == (0, reps)

    def test_comments_and_exponent_form_in_file(self, capsys, tmp_path):
        # Any number of flags a line, # comments, and -5e-1 as on the command line.
        run = args_file(tmp_path, "# MA(1) control\n\n--coeffs 1,0.5 --alpha 3  # one-sided\n"
                                  "--r -5e-1\n  --n 2000 --k 40 --reps 3 --seed 1\n")
        outputs = []
        for argv in ([run], "--coeffs 1,0.5 --alpha 3 --r -0.5 --n 2000 --k 40 --reps 3 "
                            "--seed 1".split()):
            code, out, err = run_cli(capsys, "validate", *argv)
            payload = json.loads(out)
            payload.pop("elapsed_seconds")
            outputs.append((code, payload, err))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    def test_both_coefficient_kinds_in_file_rejected(self, capsys, tmp_path):
        run = args_file(tmp_path, VALIDATE_FLAGS + " --ar 0.5")
        code, _, err = run_cli(capsys, "validate", run)
        assert code == 1
        assert "not both" in err

    def test_file_arma_with_command_line_coeffs_rejected(self, capsys, tmp_path):
        # Both kinds are refused, whether each comes from the file or the command line.
        run = args_file(tmp_path, VALIDATE_FLAGS.replace("--coeffs 1", "--ar 0.5"))
        for argv in ([run, "--coeffs", "1,0.5"], ["--coeffs", "1,0.5", run]):
            code, out, err = run_cli(capsys, "validate", *argv)
            assert (code, out, err) == (1, "", "error: give either coeffs or ar/ma, not both\n")

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        run = args_file(tmp_path, VALIDATE_FLAGS + "\n--bogus 1\n")
        code, _, err = run_cli(capsys, "validate", run)
        assert code == 1
        assert err.endswith("error: unrecognized arguments: --bogus 1\n")

    @pytest.mark.parametrize("key", ["kind", "pi2"])
    def test_removed_model_keys_rejected(self, capsys, tmp_path, key):
        run = args_file(tmp_path, f"{VALIDATE_FLAGS} --{key} 0.5")
        code, out, err = run_cli(capsys, "validate", run)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: unrecognized arguments: --{key} 0.5\n")

    # pi1 is no validate flag, since no accepted run reads it: a series config
    # refuses any value but 1, and a gpd_direct run draws GPD(gamma) without it.
    @pytest.mark.parametrize("sampling,message", [("series", "scale unavailable"),
                                                  ("gpd_direct", None)])
    def test_right_tail_weight_from_file(self, capsys, tmp_path, sampling, message):
        run = args_file(tmp_path, f"{VALIDATE_FLAGS} --pi1 0.3 --sampling {sampling}")
        code, out, err = run_cli(capsys, "validate", run)
        assert (code, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --pi1 0.3\n")

        def config(pi1):
            return montecarlo.ExperimentConfig(
                coeffs=CoefficientSequence((1.0,)), model=InnovationModel(alpha=3.0, pi1=pi1),
                sampling=sampling, r=-1.0, n=4000, k=60, replications=4, master_seed=17)

        if message:
            with pytest.raises(ValueError, match=message):
                config(0.3)
        else:
            assert ([montecarlo.run_replication(config(0.3), i) for i in range(4)]
                    == [montecarlo.run_replication(config(1.0), i) for i in range(4)])

    CONFIG_VALUES = {"coeffs": "1", "ar": "0.5", "ma": "0.4", "alpha": "3.5",
                     "r": "-0.5", "n": "3000", "k": "50", "theta": "0.8",
                     "reps": "3", "seed": "5", "sampling": "gpd_direct"}
    # ExperimentConfig's field for each flag named otherwise.
    CONFIG_FIELDS = {"coeffs": "coeffs", "ar": "coeffs", "ma": "coeffs", "alpha": "model",
                     "reps": "replications", "seed": "master_seed"}

    @staticmethod
    def validate_flags():
        argv = ["validate", *"--alpha 3 --r -1 --n 10 --reps 1 --seed 1".split()]
        return vars(build_parser().parse_args(argv)).keys() - {"command", "func", "output"}

    def test_config_values_cover_every_key(self):
        assert self.CONFIG_VALUES.keys() == self.validate_flags()

    def test_every_flag_is_a_config_key(self):
        # Each flag is one ExperimentConfig field (the coefficient kinds
        # together one), and every field the caller sets has a flag but
        # worker_count_hint, which the CLI takes from the usable CPU set.
        fields = {f.name for f in dataclasses.fields(montecarlo.ExperimentConfig) if f.init}
        assert ({self.CONFIG_FIELDS.get(flag, flag) for flag in self.validate_flags()}
                == fields - {"worker_count_hint"})
        assert set(self.CONFIG_FIELDS) <= self.validate_flags()

    @pytest.mark.parametrize("key", CONFIG_VALUES)
    @pytest.mark.usefixtures("one_cpu")
    def test_every_config_key_runs_or_fails_cleanly(self, capsys, tmp_path, key):
        # A flag that reached ExperimentConfig as an unknown keyword would
        # raise a TypeError, which main does not catch.
        run = args_file(tmp_path, f"{VALIDATE_FLAGS}\n--{key} {self.CONFIG_VALUES[key]}\n")
        code, out, err = run_cli(capsys, "validate", run)
        if code == 0:
            assert json.loads(out)["failure_count"] <= 4
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--n", "4e3"), ("--k", "60.0"), ("--reps", "4.0"), ("--seed", "1.7e1")])
    def test_counts_must_be_integer_literals(self, capsys, tmp_path, flag, value):
        run = args_file(tmp_path, f"{VALIDATE_FLAGS} {flag} {value}")
        code, out, err = run_cli(capsys, "validate", run)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {flag}: invalid int value: '{value}'\n")

    def test_workers_flag_is_gone(self, capsys, tmp_path):
        # Narrow the usable CPU set with taskset instead.
        for argv in ([*VALIDATE_FLAGS.split(), "--workers", "1"],
                     [args_file(tmp_path, f"{VALIDATE_FLAGS}\n--workers 1\n")]):
            code, out, err = run_cli(capsys, "validate", *argv)
            assert (code, out) == (1, "")
            assert err.endswith("error: unrecognized arguments: --workers 1\n")
        assert main(["validate", "--help"]) == 0
        assert "--workers" not in capsys.readouterr().out

    def test_workers_default_to_usable_cpus(self, capsys, monkeypatch):
        # A gpd_direct run asks for min(reps, usable CPUs) processes.
        sizes = use_inline_pool(monkeypatch)
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
        for reps in (4, 2):
            flags = VALIDATE_FLAGS.replace("--reps 4", f"--reps {reps}").split()
            code, out, _ = run_cli(capsys, "validate", *flags, "--sampling", "gpd_direct")
            assert (code, json.loads(out)["failure_count"]) == (0, 0)
        assert sizes == [3, 2]

    def test_broken_pool_is_a_resource_failure(self, capsys, monkeypatch):
        # A worker that died, as by an OOM kill, left BrokenProcessPool, a
        # RuntimeError, to escape main as a traceback.
        class BrokenPool(InlinePool):
            def map(self, fn, iterable, chunksize=1):
                raise concurrent.futures.process.BrokenProcessPool("a worker died")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
        code, out, err = run_cli(capsys, "validate", *VALIDATE_FLAGS.split(),
                                 "--sampling", "gpd_direct")
        assert (code, out, err) == (1, "", "error: replication pool broke: a worker died\n")

    @pytest.mark.usefixtures("one_cpu")
    def test_huge_n_runs_gpd_direct_with_explicit_k(self, capsys):
        # The n with no float that a series run refuses (TestCov) leaves a
        # gpd_direct run, which reads no n / k, running.
        code, out, err = run_cli(capsys, "validate", "--coeffs", "1,0.5", "--alpha", "3",
                                 "--r", "-0.5", "--n", str(10**400), "--k", "50", "--reps", "2",
                                 "--seed", "1", "--sampling", "gpd_direct")
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["n"] == 10**400

    def test_output_into_missing_directory_fails_before_the_run(self, capsys, tmp_path,
                                                                 monkeypatch):
        calls = []
        real = montecarlo.run_replication
        monkeypatch.setattr(montecarlo, "run_replication",
                            lambda *args: calls.append(args) or real(*args))
        code, out, err = run_cli(capsys, "validate", "--coeffs", "1", "--alpha", "3",
                                 "--r", "-1", "--n", "4000", "--k", "60", "--reps", "4",
                                 "--seed", "17", "--output", str(tmp_path / "missing" / "out"))
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("error:")

    @pytest.mark.parametrize("reps,fails", [(1, False), (3, True)],
                             ids=["one_replication", "every_replication_fails"])
    def test_too_few_records_give_null_statistics(self, capsys, tmp_path, monkeypatch,
                                                  reps, fails):
        # The statistics of fewer than two records were printed as NaN.
        if fails:
            failed = montecarlo.ReplicationRecord(0, np.nan, np.nan, np.nan, np.nan,
                                                  "no_solution")
            monkeypatch.setattr(montecarlo, "run_replication", lambda *args: failed)
        prefix = tmp_path / "run"
        code, out, _ = run_cli(capsys, "validate", "--coeffs", "1,0.5", "--alpha", "3",
                               "--r", "-0.5", "--n", "2000", "--k", "40", "--reps",
                               str(reps), "--seed", "1", "--output", str(prefix))
        assert code == 0
        for payload in (strict_json(out), strict_json(Path(f"{prefix}.report.json").read_text())):
            assert payload["empirical_mean"] == [None, None]
            assert payload["empirical_cov"] == payload["relative_deviation"] == [[None, None]] * 2
            assert "insufficient replications" in payload["flags"]
            assert all(map(np.isfinite, payload["second_order_rates"].values()))

    def test_missing_argument_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", f"@{tmp_path / 'missing.args'}")
        assert (code, out) == (1, "")
        assert "No such file or directory" in err

    def test_missing_required_key_named(self, capsys, tmp_path):
        run = args_file(tmp_path, "--coeffs 1 --alpha 3 --r -1 --n 4000")
        code, out, err = run_cli(capsys, "validate", run)
        assert (code, out) == (1, "")
        assert err.endswith("error: the following arguments are required: --reps, --seed\n")

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_is_usage_error(self, capsys, command, seed, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "run_replication", lambda *args: calls.append(args))
        extra = ["--r", "-1", "--k", "10", "--reps", "3"]
        code, out, err = run_cli(capsys, command, "--coeffs", "1,0.5", "--alpha", "3",
                                 "--n", "200", "--seed", seed,
                                 *(extra if command == "validate" else []))
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("error:") and "seed must lie in [0, 2**64)" in err


def mapped_exceptions() -> tuple[type, ...]:
    """The classes that ``main``'s handlers around the subcommand map to an exit code."""
    main_def = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    run = next(node for node in ast.walk(main_def)
               if isinstance(node, ast.Try) and "args.func" in ast.unparse(node.body))
    names = [name for handler in run.handlers for name in
             (handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type])]
    return tuple(resolve(cli, ast.unparse(name)) for name in names)


def resolve(module, name):
    """``name`` as ``module`` sees it: its own global or a builtin."""
    return getattr(module, name) if hasattr(module, name) else getattr(builtins, name)


class TestUsage:
    def test_every_raised_class_has_an_exit_code(self):
        # A class that main does not map would reach the user as a traceback.
        mapped = mapped_exceptions()
        raised = {}
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            module = importlib.import_module(f"tailproc.{path.stem}")
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                    name = ast.unparse(node.exc.func)
                    raised[f"{path.name}:{node.lineno} {name}"] = resolve(module, name)
        assert {"ValueError", "OverflowError", "ArithmeticError", "LmeSolverError",
                "ChildProcessError"} <= {cls.__name__ for cls in raised.values()}
        assert [site for site, cls in raised.items() if not issubclass(cls, mapped)] == []

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

    @pytest.mark.parametrize("flag,value", [
        ("--coeffs", "1,,0.5"), ("--coeffs", "1,0.5,"), ("--ma", ""),
    ])
    def test_empty_coefficient_field_rejected(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "cov", "--gamma", "0.5", flag, value)
        assert (code, out) == (1, "")
        assert err == f"error: expected comma-separated numbers, got {value!r}\n"

    def test_module_help_exits_zero(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "tailproc.cli", "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: tailproc")

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
         "--reps", "3", "--seed", "1", "--sampling", "gpd_direct"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.usefixtures("one_cpu")
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
        ("simulate", ["--coeffs", "--alpha", "--n", "--seed", "--output"]),
        ("fit", ["--input", "--k", "--r", "--excesses", "--output"]),
        ("cov", ["--gamma", "--r", "--coeffs", "--ar", "--ma"]),
        ("check", ["--alpha", "--coeffs", "--xi"]),
        ("validate", ["--n", "--k", "--theta", "--reps", "--seed", "--sampling", "--output"]),
    ])
    def test_help_lists_flags_with_defaults(self, capsys, command, flags):
        code = main([command, "--help"])
        assert code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
        assert "default" in out

    def test_sampling_choices_are_the_library_modes(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        sampling = next(action for action in sub.choices["validate"]._actions
                        if action.dest == "sampling")
        assert tuple(sampling.choices) == montecarlo.SAMPLING_MODES

    @pytest.mark.parametrize("command", ["simulate", "fit", "cov", "check", "validate"])
    def test_help_shows_no_none_default(self, capsys, command):
        # validate's help read "(default: None)" after every flag.
        assert main([command, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "default: None" not in out
        if command == "validate":
            for fallback in ("the growth rule", "0.9", "series"):
                assert f"(default: {fallback})" in out

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
         "--k", "10", "--reps", "3", "--seed", "1"],
    ], ids=" ".join)
    def test_non_finite_parameters_rejected(self, capsys, tmp_path, argv):
        series = tmp_path / "series.csv"
        series.write_text("1\n2\n3\n5\n")
        code, out, err = run_cli(capsys, *(a.format(series=series) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
