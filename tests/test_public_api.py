"""The public surface: `belldyn.__all__` resolves, and removed names stay removed."""

import importlib
import inspect

import pytest

import belldyn
import belldyn.cli

#: module -> names it no longer defines, as listed under "Removed names" in README
REMOVED = {
    "belldyn.tomography": ("ProjectorSetting", "STANDARD_SETTINGS", "error_bars"),
    "belldyn.correlations": ("CorrelationSet", "correlations_from_spectrum",
                             "total_mutual_information_bell", "closest_classical_bell",
                             "kappa_correlation", "correlations_from_kappas",
                             "bell_diagonal_state", "BELL_KETS"),
    "belldyn.dephasing": ("kappa_multi_gaussian", "SingleGaussian", "SampledSpectrum",
                          "kappa_numeric", "MIN_SAMPLES_PER_PERIOD", "LAMBDA0", "SweepConfig"),
    "belldyn.cli": ("to_sweep_config",),
    "belldyn.errors": ("SingularSystemError", "EmptyRecordError", "UnderResolvedGridError",
                       "NormalizationError", "CountsRangeError", "OracleInputError"),
    "belldyn.oracle": ("GridSpec", "SimplexGridSpec", "closest_product_state"),
    "belldyn.qstate": ("dephase_in_product_basis", "partial_trace", "bloch_projectors",
                       "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "relative_entropy",
                       "von_neumann_entropy", "SUPPORT_EIGENVALUE_TOL", "SUPPORT_WEIGHT_TOL"),
}


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(belldyn.__all__) == len(set(belldyn.__all__))
    for name in belldyn.__all__:
        assert getattr(belldyn, name) is not None, name


def test_removed_names_are_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(module_name)
        for name in names:
            with pytest.raises(AttributeError):
                getattr(belldyn, name)
            assert not hasattr(module, name), f"{module_name}.{name}"
    assert not hasattr(belldyn.TomographyRecord, "settings")
    # --step and --seed are applied to the config before `run`
    assert list(inspect.signature(belldyn.cli.run).parameters) == ["config", "out_dir"]
