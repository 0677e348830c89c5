from dataclasses import fields

import tailproc
from tailproc import asymptotics, estimator, montecarlo, process, second_order

MODULES = (process, estimator, asymptotics, second_order, montecarlo)

# The 44 kept top-level names of release 0.1.0 and __version__; ConditionCheck
# was not yet exported, and von_mises_ratio was removed after the release.
RELEASED_NAMES = {
    "CoefficientSequence", "InnovationModel", "SimulatedPath",
    "apply_filter", "arma_to_ma", "decay_certificate",
    "pairwise_dependence_sum", "philox_stream", "simulate",
    "GpdParams", "ExcessSample", "LmeEstimate", "LmeSolverError",
    "top_k_excesses", "lme_fit",
    "PhiConstants", "RawLimits", "CovarianceReport", "coefficient_norm",
    "phi_constants", "raw_limits", "kappas", "sigma_matrix",
    "linearization_matrix", "jacobian_limit", "estimator_cov",
    "TailExpansion", "QuantileExpansion", "ConditionReport",
    "coefficient_power_sum", "tail_expansion", "quantile_expansion",
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
    assert len(RELEASED_NAMES) == 45
    assert RELEASED_NAMES <= set(tailproc.__all__)
    assert "ConditionCheck" in tailproc.__all__


def test_csv_header_is_the_record_fields():
    assert montecarlo.CSV_HEADER == [f.name for f in fields(montecarlo.ReplicationRecord)]
