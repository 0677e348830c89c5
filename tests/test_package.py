import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import tailproc
from tailproc import asymptotics, estimator, montecarlo, process, second_order

MODULES = (process, estimator, asymptotics, second_order, montecarlo)

# The 42 kept top-level names of release 0.1.0 and __version__; ConditionCheck
# was not yet exported, and von_mises_ratio, kappas and coefficient_power_sum
# were removed after the release.
RELEASED_NAMES = {
    "CoefficientSequence", "InnovationModel", "SimulatedPath",
    "apply_filter", "arma_to_ma", "decay_certificate",
    "pairwise_dependence_sum", "philox_stream", "simulate",
    "GpdParams", "ExcessSample", "LmeEstimate", "LmeSolverError",
    "top_k_excesses", "lme_fit",
    "PhiConstants", "RawLimits", "CovarianceReport", "coefficient_norm",
    "phi_constants", "raw_limits", "sigma_matrix",
    "linearization_matrix", "jacobian_limit", "estimator_cov",
    "TailExpansion", "QuantileExpansion", "ConditionReport",
    "tail_expansion", "quantile_expansion",
    "second_order_rates", "choose_k", "check_conditions",
    "ExperimentConfig", "ReplicationRecord", "NormalityDiagnostics",
    "ValidationReport", "sigma_nk", "run_replication", "run_experiment",
    "empirical_cov", "normality_diagnostics",
    "__version__",
}


def test_all_is_the_union_of_the_module_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert tailproc.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves():
    for name in tailproc.__all__:
        assert getattr(tailproc, name) is not None
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tailproc, name) is getattr(module, name)


def test_released_names_are_kept():
    assert len(RELEASED_NAMES) == 43
    assert RELEASED_NAMES <= set(tailproc.__all__)
    assert "ConditionCheck" in tailproc.__all__


def test_oracles_do_not_import_tailproc():
    # The oracles are the independent references for the closed forms the
    # library derives, so none of them may be computed by the library.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "numpy" in modules
    assert not {name for name in modules if name and name.split(".")[0] == "tailproc"}


def test_csv_header_is_the_record_fields():
    assert montecarlo.CSV_HEADER == [f.name for f in fields(montecarlo.ReplicationRecord)]


BENCHMARK_SETUP = """
import pickle
import checks, run, worker, workloads
for name in workloads.WORKLOADS:
    inputs = workloads.build(name, 3)
    config = workloads.batch_config(inputs, 5)
    assert pickle.loads(pickle.dumps(config)) == config
"""


def test_benchmark_harness_imports():
    # The benchmark harness imports tailproc's public names and builds every
    # workload's configs; a name, keyword or field dropped or renamed fails
    # here instead of failing every benchmark workload.
    src = Path(tailproc.__file__).resolve().parents[1]
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), str(benchmarks), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", BENCHMARK_SETUP],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
