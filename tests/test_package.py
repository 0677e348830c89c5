import ast
import inspect
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import tailproc
from tailproc import asymptotics, estimator, montecarlo, process, second_order

MODULES = (process, estimator, asymptotics, second_order, montecarlo)

# The 41 kept top-level names of release 0.1.0 and __version__; ConditionCheck
# was not yet exported, and von_mises_ratio, kappas, coefficient_power_sum and
# sigma_matrix were removed after the release.
RELEASED_NAMES = {
    "CoefficientSequence", "InnovationModel", "SimulatedPath",
    "apply_filter", "arma_to_ma", "decay_certificate",
    "pairwise_dependence_sum", "philox_stream", "simulate",
    "GpdParams", "ExcessSample", "LmeEstimate", "LmeSolverError",
    "top_k_excesses", "lme_fit",
    "PhiConstants", "RawLimits", "CovarianceReport", "coefficient_norm",
    "phi_constants", "raw_limits",
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
    assert len(RELEASED_NAMES) == 42
    assert RELEASED_NAMES <= set(tailproc.__all__)
    assert "ConditionCheck" in tailproc.__all__


def top_level_imports(path):
    """Top-level modules a file imports absolutely, function-level imports included."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    modules = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 0}
    return {name.split(".")[0] for name in modules}


def test_oracles_do_not_import_tailproc():
    # The oracles are the independent references for the closed forms the
    # library derives, so none of them may be computed by the library.
    modules = top_level_imports(Path(__file__).parent / "oracles.py")
    assert "numpy" in modules
    assert "tailproc" not in modules


def test_library_imports_numpy_and_the_standard_library_only():
    modules = set().union(*map(top_level_imports, Path(tailproc.__file__).parent.glob("*.py")))
    assert modules - sys.stdlib_module_names <= {"numpy", "tailproc"}


def overflow_sites(path):
    """``(function, name)`` of each ``except OverflowError`` or ``except
    FloatingPointError`` handler and each ``errstate`` call in a file."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                sites.extend((function, c.id) for c in caught if isinstance(c, ast.Name)
                             and c.id in ("OverflowError", "FloatingPointError"))
            if isinstance(child, ast.Call) and "errstate" in (getattr(child.func, "attr", None),
                                                             getattr(child.func, "id", None)):
                sites.append((function, "errstate"))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(path.read_text()), None)
    return [(path.name, *site) for site in sites]


def test_overflow_rule_is_stated_once():
    # process._overflow alone sets numpy's error state and renames an overflow.
    # estimator_cov ignores numpy's errors because its failure, a covariance
    # that is not finite or not positive definite, is an ArithmeticError.
    sites = [site for path in sorted(Path(tailproc.__file__).parent.glob("*.py"))
             for site in overflow_sites(path)]
    assert sorted(sites) == [("asymptotics.py", "estimator_cov", "errstate"),
                             ("process.py", "_overflow", "FloatingPointError"),
                             ("process.py", "_overflow", "OverflowError"),
                             ("process.py", "_overflow", "errstate")]


def domain_message_sites(path):
    """``(file, function)`` of each ``raise`` in a file whose message states an
    interval (``must lie in``), a bound of a count (``must be >=``, ``must be <=``)
    or one of the wordings those replaced."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                text = "".join(c.value for c in ast.walk(child.exc)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if re.search(r"must lie in|must be [<>]=|\bneed\b|too large|"
                             r"must not exceed|must be finite|must be non-negative", text):
                    sites.append((path.name, function))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_domain_rule_is_stated_once():
    # process._within states every interval, of a scalar or an array, and
    # process._whole every bound of a count; _philox_key checks the two integers
    # of a Philox key.
    sites = [site for path in sorted(Path(tailproc.__file__).parent.glob("*.py"))
             for site in domain_message_sites(path)]
    assert sorted(sites) == [("process.py", "_philox_key"), ("process.py", "_whole"),
                             ("process.py", "_whole"), ("process.py", "_within")]


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]


C = process.CoefficientSequence((1.0, 0.5))
MODEL = process.InnovationModel(alpha=3.0)
EXCESSES = estimator.ExcessSample.from_excesses(np.linspace(0.1, 3.0, 50))
PHI = asymptotics.phi_constants(C, 0.5, -1.0)
# One call per float parameter of the public constructors, functions and methods;
# test_every_float_parameter_has_a_row keeps the table complete.
FLOAT_PARAMETERS = {
    "InnovationModel.alpha": lambda x: process.InnovationModel(alpha=x),
    "InnovationModel.pi1": lambda x: process.InnovationModel(pi1=x),
    "InnovationModel.word_cut.z": lambda x: MODEL.word_cut(x),
    "CoefficientSequence.truncation_error_bound":
        lambda x: process.CoefficientSequence(C.coeffs, truncation_error_bound=x),
    "CoefficientSequence.decay_u": lambda x: process.CoefficientSequence(C.coeffs, decay_u=x),
    "CoefficientSequence.power_sum.u": lambda x: C.power_sum(x),
    "GpdParams.gamma": lambda x: estimator.GpdParams(gamma=x, sigma=1.0),
    "GpdParams.sigma": lambda x: estimator.GpdParams(gamma=0.5, sigma=x),
    "ExcessSample.threshold": lambda x: estimator.ExcessSample(np.ones(3), threshold=x),
    "lme_fit.r": lambda x: estimator.lme_fit(EXCESSES, x),
    "coefficient_norm.gamma": lambda x: asymptotics.coefficient_norm(C, x),
    "phi_constants.gamma": lambda x: asymptotics.phi_constants(C, x, -1.0),
    "phi_constants.r": lambda x: asymptotics.phi_constants(C, 0.5, x),
    "pairwise_dependence_sum.gamma": lambda x: asymptotics.pairwise_dependence_sum(C, x),
    "raw_limits.gamma": lambda x: asymptotics.raw_limits(x, -1.0, PHI),
    "raw_limits.r": lambda x: asymptotics.raw_limits(0.5, x, PHI),
    "jacobian_limit.gamma": lambda x: asymptotics.jacobian_limit(x, -1.0),
    "jacobian_limit.r": lambda x: asymptotics.jacobian_limit(0.5, x),
    "linearization_matrix.gamma": lambda x: asymptotics.linearization_matrix(x, -1.0),
    "linearization_matrix.r": lambda x: asymptotics.linearization_matrix(0.5, x),
    "estimator_cov.gamma": lambda x: asymptotics.estimator_cov(x, -1.0, C),
    "estimator_cov.r": lambda x: asymptotics.estimator_cov(0.5, x, C),
    "second_tail_vanishes.alpha": lambda x: second_order.second_tail_vanishes(x, C),
    "tail_expansion.alpha": lambda x: second_order.tail_expansion(x, C),
    "choose_k.theta": lambda x: second_order.choose_k(1000, x, 3.0, False),
    "choose_k.alpha": lambda x: second_order.choose_k(1000, 0.9, x, False),
    "check_conditions.alpha": lambda x: second_order.check_conditions(x, C),
    "check_conditions.xi": lambda x: second_order.check_conditions(3.0, C, xi=x),
    "ExperimentConfig.r": lambda x: montecarlo.ExperimentConfig(
        coeffs=C, model=MODEL, n=1000, k=20, r=x, replications=2, master_seed=1),
    "ExperimentConfig.theta": lambda x: montecarlo.ExperimentConfig(
        coeffs=C, model=MODEL, n=1000, r=-1.0, theta=x, replications=2, master_seed=1),
    "sigma_nk.gamma": lambda x: montecarlo.sigma_nk(
        second_order.quantile_expansion(second_order.tail_expansion(3.0, C)), x, 1000, 20),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_PARAMETERS)
def test_float_parameters_refuse_nan_and_infinity(name, value):
    # tail_expansion(inf) gave c_tilde (1, nan, nan), sigma_matrix(nan, ...) a
    # nan matrix, and a nan truncation bound a truncation_error of 0.0833.
    with pytest.raises(ValueError):
        FLOAT_PARAMETERS[name](value)


# Dataclasses whose fields are results, not parameters.
RESULT_RECORDS = {"SimulatedPath", "LmeEstimate", "PhiConstants", "RawLimits",
                  "CovarianceReport", "TailExpansion", "QuantileExpansion", "ConditionCheck",
                  "ConditionReport", "ReplicationRecord", "NormalityDiagnostics",
                  "ValidationReport"}


def float_parameters():
    """``function.name``, ``Class.method.name`` and ``Class.field`` of every scalar
    parameter annotated ``float`` or ``float | None`` in the public names."""
    floats = ("float", "float | None")
    found = set()

    def signature(prefix, function):
        found.update(prefix + p.name for p in inspect.signature(function).parameters.values()
                     if p.annotation in floats)

    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                signature(f"{name}.", obj)
            elif inspect.isclass(obj):
                if is_dataclass(obj) and name not in RESULT_RECORDS:
                    found.update(f"{name}.{f.name}" for f in fields(obj)
                                 if f.init and f.type in floats)
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        signature(f"{name}.{attr}.", member)
    return found


def test_every_float_parameter_has_a_row():
    missing = sorted(float_parameters() - set(FLOAT_PARAMETERS))
    assert not missing, f"FLOAT_PARAMETERS has no row for {missing}"
    assert sorted(set(FLOAT_PARAMETERS) - float_parameters()) == []


CONFIG = dict(coeffs=C, model=MODEL, n=1000, k=2, r=-1.0, replications=1, master_seed=0)
# One call per count or seed parameter, with the smallest value it accepts.
INTEGER_PARAMETERS = {
    "top_k_excesses.k": (1, lambda x: estimator.top_k_excesses(np.arange(10.0), x)),
    "InnovationModel.sample.count": (1, lambda x: MODEL.sample(x, seed=1)),
    "simulate.n": (1, lambda x: process.simulate(C, MODEL, x, seed=1)),
    "choose_k.n": (2, lambda x: second_order.choose_k(x, 0.9, 3.0, False)),
    "ExperimentConfig.n": (3, lambda x: montecarlo.ExperimentConfig(**{**CONFIG, "n": x})),
    "ExperimentConfig.k": (2, lambda x: montecarlo.ExperimentConfig(**{**CONFIG, "k": x})),
    "ExperimentConfig.replications":
        (1, lambda x: montecarlo.ExperimentConfig(**{**CONFIG, "replications": x})),
    "ExperimentConfig.worker_count_hint":
        (1, lambda x: montecarlo.ExperimentConfig(**{**CONFIG, "worker_count_hint": x})),
    "ExperimentConfig.master_seed":
        (0, lambda x: montecarlo.ExperimentConfig(**{**CONFIG, "master_seed": x})),
    "philox_stream.seed": (0, lambda x: process.philox_stream(x)),
    "philox_stream.stream": (0, lambda x: process.philox_stream(1, x)),
}


@pytest.mark.parametrize("name", INTEGER_PARAMETERS)
def test_integer_parameters_refuse_bools_fractions_and_values_below_the_minimum(name):
    low, call = INTEGER_PARAMETERS[name]
    call(low)
    # A negative master_seed meets the Philox key's range, which names it seed, as
    # validate --seed does.
    named = "seed" if name == "ExperimentConfig.master_seed" else name.rsplit(".", 1)[1]
    for value in (True, 2.5, low - 1):
        with pytest.raises(ValueError, match=rf"(\b|_){named}\b"):
            call(value)


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
