"""Golden outputs: the bytes of two ``validate`` runs, sixteen ``cov`` and
``check`` calls, and a second slice of ``simulate`` and ``fit`` calls and of
calls that end in a numerical failure, pinned as sha256 digests.

Any change to a record, a report (``elapsed_seconds`` masked), a printed
number or a message of these calls fails here.  Updating a digest is an
output change, and is named in CHANGES.md.  The floating-point results depend
on numpy's kernels and the machine, so on another platform the test skips.
"""

import contextlib
import hashlib
import io
import platform
import re
from pathlib import Path

import numpy as np
import pytest
from test_cli import LAG_PAIRS

from tailproc import cli

PLATFORM = ("2.4.6", "x86_64")  # numpy version and platform.machine() of the digests

pytestmark = pytest.mark.skipif(
    (np.__version__, platform.machine()) != PLATFORM,
    reason=f"digests taken with numpy {PLATFORM[0]} on {PLATFORM[1]}, "
           f"not numpy {np.__version__} on {platform.machine()}")

VALIDATE = {
    "series": (["--coeffs", "1,0.5", "--alpha", "3", "--r", "-0.5", "--n", "300000",
                "--reps", "60", "--seed", "7"],
               "09d2efef071d004c2a445324626c751996d4d70d6706bbc62f333fdb006d0cbb",
               "f4b74c8ec7406b5b079db42f247901f7f2708680feef1911aef7367bebc4b15b"),
    "gpd_direct": (["--ar", "0.5", "--alpha", "3", "--r", "-0.5", "--n", "100000",
                    "--k", "400", "--reps", "60", "--seed", "7", "--sampling", "gpd_direct"],
                   "0774913522e812bab4e92ceb983fa7d02e0d512b5e6fe8ee8b2655754e702c73",
                   "b58e0ac9bcb07d915888a96563091c5c08d3316b89da32d3411a13a8d053da88"),
}


def explicit(order):
    return ["--coeffs", ",".join(repr(0.99**j) for j in range(order + 1))]


# The closed-form calls: cov at gamma 1/3, r -0.5 and check at alpha 3, xi 0.9
# of each model.  Every one exits 0 with empty stderr; a row holds the digests
# of the cov and the check stdout.
CLOSED_FORM = {
    "0.99^j J=300": (explicit(300),
                     "e098f5bdfd3c2bd52faf3486cf39732738b7ce913ce06b00838cbe8e0d2a1286",
                     "b4f45c1184188523530671141ac23c20f4ccd1f32b498663405fde872a8d0167"),
    "0.99^j J=1000": (explicit(1000),
                      "f2c6e8b8fc24252547c3d7ebec010173ee75c0f294414dc580d520fa01dfedcd",
                      "37e66d7bd11f6c611c9808afa1c88658e7c58938dc42d694728cfe4d8acd2616"),
    "0.99^j J=3000": (explicit(3000),
                      "d2176da6ca215946d6c4be78c1671d347b3822fd38edc5eda7e81049a1ff08cd",
                      "5858bfe1a850e29a8d5967dfdafb7efe314297da1f32de7ef815ff4fb9753f22"),
    "ARMA(1,1) ar 0.5 ma 0.4": (["--ar", "0.5", "--ma", "0.4"],
                                "ec97cc2de128bfe631c5933aecfa819694fc0c3ec6360c2a17172134e5922c01",
                                "3bbae54f0fbf93ecd15ee60a05ac5e40e86c58d4abe7f88a08081e788c61c2f5"),
    "AR(1) ar 0.6": (["--ar", "0.6"],
                     "66801ab010d1e0a821dd3536a5512c11de76f2626f236270179d3dbf248e1228",
                     "932eee815b433eab9133db13ef783ba365bd45eb63ef96bec4cf044688953256"),
    "ARMA(1,1) ar 0.7 ma 0.5": (["--ar", "0.7", "--ma", "0.5"],
                                "138251311924c0f93568e5ca6fc3ac34830fb9ded77b4f731400d16312b8bede",
                                "8acd7552d78eb27d1d3714302bfeae06b20910f020fd6944e21875bc4fcef1e1"),
    "AR(2) ar 0.5,0.2": (["--ar", "0.5,0.2"],
                         "c5a475ac4b478abce24991d8f114ef3e28fa9e868b20ce1710d5b2ef2ae2defb",
                         "b51246b5ec548bb38142b594435f13f5af7b75e5a9f3541ce21e48567ff72a43"),
    "AR(1) ar 0.9": (["--ar", "0.9"],
                     "486f0d4eccf5e2eede50ce3c2461c34a33e7ea3eb91761a983c41b2b8d48e0dc",
                     "d103fac9e4e549d91e6cb765337441b6ffcdad797694dab7bf16ab016ed24181"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", VALIDATE)
def test_validate_records_and_report(name, tmp_path):
    flags, records_digest, report_digest = VALIDATE[name]
    prefix = str(tmp_path / name)
    code, _, err = run(["validate", *flags, "--output", prefix])
    assert (code, err) == (0, "")
    report = Path(prefix + ".report.json").read_bytes()
    masked = re.sub(rb'"elapsed_seconds": [^\n]*', b'"elapsed_seconds": null', report)
    assert masked != report
    assert sha256(Path(prefix + ".records.csv").read_bytes()) == records_digest
    assert sha256(masked) == report_digest


@pytest.mark.parametrize("model", CLOSED_FORM)
def test_closed_form_calls(model):
    flags, cov_digest, check_digest = CLOSED_FORM[model]
    for argv, digest in ((["cov", "--gamma", repr(1.0 / 3.0), "--r", "-0.5", *flags], cov_digest),
                         (["check", "--alpha", "3.0", "--xi", "0.9", *flags], check_digest)):
        code, out, err = run(argv)
        assert (argv[0], code, err, sha256(out.encode())) == (argv[0], 0, "", digest)



def gpd_grid(gamma, k, factor=1.0):
    """Exact GPD(gamma, 1) quantiles at the k midpoints, times ``factor``, one a line."""
    return "".join(f"{(((j + 0.5) / k) ** -gamma - 1.0) / gamma * factor!r}\n" for j in range(k))


MA1 = ["--coeffs", "1,0.5", "--alpha", "3", "--n", "2000", "--seed", "3"]
# The input files of the fit calls; series.csv is the stdout of ``simulate`` with MA1.
INPUTS = {"excesses.csv": gpd_grid(0.5, 200), "flat.csv": "2.5\n" * 50,
          "tiny.csv": gpd_grid(1.0 / 3.0, 200, 1e-310)}

# simulate and fit calls that exit 0 with empty stderr: the argv ({dir} is the
# directory of INPUTS) and the stdout digest.
OUTPUTS = {
    "simulate MA(1)": (["simulate", *MA1],
                       "5eaba2ca50408cbb205d56f71f2b0a94625cc390e49645fc8c7fcca4b1c78743"),
    "simulate ARMA(1,1)": (["simulate", "--ar", "0.5", "--ma", "0.4", "--alpha", "2.5",
                            "--n", "1000", "--seed", "11"],
                           "f9d37b8d47bebb8ec19ab8d418bdc2077c1ee05d1865bc4a2074b41c93603451"),
    "simulate pi1 0.5": (["simulate", "--coeffs", "1,0.5", "--pi1", "0.5", "--n", "1000",
                          "--seed", "1"],
                         "39ff4557888feb8647035acc30b7cd1520cc48e32c523bb0e15541a8ad5ca345"),
    "fit series": (["fit", "--input", "{dir}/series.csv", "--k", "100", "--r", "-1"],
                   "ec8a9f034bbe33273159f1d58061b0965d26fddd4294ff4b98d3ff639d328628"),
    "fit excesses": (["fit", "--input", "{dir}/excesses.csv", "--excesses", "--r", "-0.5"],
                     "3d931a75cce476d8e56647aea7a1c893669d213a19639bbbbc5e46f16b76d1b6"),
}

RUN = ["--n", "2000", "--reps", "2", "--seed", "1"]
UNDERFLOW = ["--coeffs", "1e-200", "--alpha", "3", "--r", "-0.5", "--n", "200", "--k", "20",
             "--reps", "3", "--seed", "1"]
N = str(10**400)
# The numerical failures of tests/test_cli.py: each exits 2 with empty stdout and
# one stderr line, after "numerical failure: ".
FAILURES = {
    "fit degenerate": (["fit", "--input", "{dir}/flat.csv", "--excesses", "--r", "-1"],
                       "no LME solution found: excesses are degenerate"),
    "fit b_hat overflow": (["fit", "--input", "{dir}/tiny.csv", "--excesses", "--r", "-1"],
                           "no LME solution found: b_hat inf is not finite"),
    "check C_eta overflow": (["check", "--alpha", "3", "--coeffs", "1e200,1"],
                             "power sum of |c_j|**3.0 overflows"),
    "cov norm overflow": (["cov", "--gamma", "0.25", "--r", "-1", "--coeffs", "1e200,1"],
                          "power sum of |c_j|**4.0 overflows"),
    "cov r -1e-6": (["cov", "--gamma", "0.3333", "--r", "-1e-6", "--coeffs", "1,0.5"],
                    "covariance L S L^T is not finite and positive definite "
                    "at gamma=0.3333, r=-1e-06"),
    "cov r -1e-20": (["cov", "--gamma", "0.3333", "--r", "-1e-20", "--coeffs", "1,0.5"],
                     "linearization matrix overflows at gamma=0.3333, r=-1e-20"),
    "validate r -1e-6": (["validate", "--alpha", "3", *RUN, "--r", "-1e-6", "--coeffs", "1,0.5"],
                         "covariance L S L^T is not finite and positive definite "
                         "at gamma=0.3333333333333333, r=-1e-06"),
    "validate r -1e-20": (["validate", "--alpha", "3", *RUN, "--r", "-1e-20",
                           "--coeffs", "1,0.5"],
                          "linearization matrix overflows at gamma=0.3333333333333333, r=-1e-20"),
    "cov huge gamma": (["cov", "--coeffs", "1,0.5", "--gamma", "1e300", "--r", "-1"],
                       "kappas (inf, 0.6666666666666666, 1.4999999999999998e+300) are not "
                       "finite at gamma=1e+300, r=-1.0"),
    "cov huge r": (["cov", "--coeffs", "1,0.5", "--gamma", "0.5", "--r", "-1e300"],
                   "raw limits overflow at gamma=0.5, r=-1e+300"),
    "validate huge r": (["validate", "--coeffs", "1,0.5", "--alpha", "3", "--r", "-1e300", *RUN],
                        "raw limits overflow at gamma=0.3333333333333333, r=-1e+300"),
    "validate huge n": (["validate", "--coeffs", "1,0.5", "--alpha", "3", "--r", "-0.5",
                         "--n", N, "--reps", "2", "--seed", "1"],
                        f"growth rule overflows at n={N}"),
    "validate huge n explicit k": (["validate", "--coeffs", "1,0.5", "--alpha", "3", "--r", "-0.5",
                                    "--n", N, "--k", "50", "--reps", "2", "--seed", "1"],
                                   f"centering scale overflows at n={N}, k=50"),
    "cov subnormal gamma": (["cov", "--gamma", "5e-324", "--r", "-0.5", "--coeffs", "2"],
                            "coefficient norm's exponent 1/gamma overflows at gamma=5e-324"),
    "check certificate overflow": (["check", "--alpha", "3", "--coeffs", "1e308,1e308"],
                                   "decay certificate A of |c_j| * 2.0**j overflows"),
    "check tail expansion overflow": (["check", "--alpha", "3", "--coeffs", "1e60,1e59"],
                                      "tail expansion's squares overflow at alpha=3.0"),
    "validate tail expansion overflow": (["validate", "--alpha", "3", "--r", "-1", "--n", "1000",
                                          "--reps", "2", "--seed", "1", "--coeffs", "1e60,1e59"],
                                         "tail expansion's squares overflow at alpha=3.0"),
    "cov power sum underflow": (["cov", "--gamma", "0.3333", "--r", "-0.5",
                                 "--coeffs", "1e-200,1e-200"],
                                "power sum of |c_j|**3.0003000300030003 underflows to zero"),
    "check power sum underflow": (["check", "--alpha", "3", "--coeffs", "1e-200,1e-200"],
                                  "power sum of |c_j|**3.0 underflows to zero"),
    "validate gpd_direct power sum underflow": (["validate", *UNDERFLOW,
                                                 "--sampling", "gpd_direct"],
                                                "power sum of |c_j|**3.0 underflows to zero"),
    "validate series power sum underflow": (["validate", *UNDERFLOW, "--sampling", "series"],
                                            "power sum of |c_j|**3.0 underflows to zero"),
    "simulate alpha 1e-3": (["simulate", "--coeffs", "1,0.5", "--n", "4", "--alpha", "1e-3"],
                            "innovation magnitude overflows at alpha=0.001"),
    "simulate alpha 1e-300": (["simulate", "--coeffs", "1,0.5", "--n", "4", "--alpha", "1e-300"],
                              "innovation magnitude overflows at alpha=1e-300"),
    "validate GPD quantile overflow": (["validate", "--coeffs", "1", "--alpha", "0.001",
                                        "--r", "-0.5", *RUN, "--sampling", "gpd_direct",
                                        "--k", "50"],
                                       "GPD quantile overflows at gamma=1000.0"),
    "simulate filter overflow": (["simulate", "--coeffs", "1e308,1e308", "--n", "4"],
                                 "simulated path overflows: the filter of these coefficients "
                                 "is not finite on the finite draws"),
    "check tail expansion product overflow": (["check", "--alpha", "2e154", "--coeffs", "1,0.5"],
                                              "tail expansion's squares overflow at alpha=2e+154"),
    "check tail expansion nan": (["check", "--alpha", "1e300", "--coeffs", "1"],
                                 "tail expansion's squares overflow at alpha=1e+300"),
    "validate quantile expansion overflow": (["validate", "--coeffs", "1e-50", "--alpha", "3",
                                              "--r", "-0.5", "--n", "1000", "--reps", "2",
                                              "--seed", "1"],
                                             "quantile expansion overflows at alpha=3.0"),
    "cov lag-pair total overflow": (["cov", "--gamma", "0.3333333333333333", "--r", "-0.5",
                                     "--coeffs", LAG_PAIRS],
                                    "pairwise dependence sum overflows at "
                                    "gamma=0.3333333333333333"),
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """A directory holding the INPUTS files and series.csv; a gpd_direct run
    replicates in this process."""
    monkeypatch.setattr(cli.montecarlo, "usable_cpus", lambda: 1)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run(["simulate", *MA1])
    assert code == 0
    (tmp_path / "series.csv").write_text(out)
    return tmp_path


@pytest.mark.parametrize("name", OUTPUTS)
def test_outputs(name, inputs):
    argv, digest = OUTPUTS[name]
    code, out, err = run([arg.format(dir=inputs) for arg in argv])
    assert (code, err, sha256(out.encode())) == (0, "", digest)


@pytest.mark.parametrize("name", FAILURES)
def test_numerical_failures(name, inputs):
    argv, message = FAILURES[name]
    assert run([arg.format(dir=inputs) for arg in argv]) == (
        2, "", f"numerical failure: {message}\n")
