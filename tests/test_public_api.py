"""The public surface: `belldyn.__all__` resolves, removed names stay removed, and the
modules import one another in layers."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import belldyn
import belldyn.cli
import belldyn.config

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

#: module -> names gone from it since `belldyn.config` took them over (the presets are
#: `config.PRESETS`); `belldyn.ExperimentConfig` still resolves, so these are not in REMOVED
MOVED = {
    "belldyn.dephasing": ("ExperimentConfig", "MAX_SWEEP_POINTS"),
    "belldyn.tomography": ("TomographySettings",),
    "belldyn.cli": ("preset_config", "PRESET_NAMES"),
}

SOURCE = Path(belldyn.__file__).parent


def _package_imports(path: Path) -> set[str]:
    """The sibling modules that one source file imports with `from .x import` or `from . import x`."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update([node.module] if node.module else (a.name for a in node.names))
    return imported


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
    assert not hasattr(belldyn.ExperimentConfig, "spectra")  # dephasing.spectra(config)
    # --step and --seed are applied to the config before `run`
    assert list(inspect.signature(belldyn.cli.run).parameters) == ["config", "out_dir"]


def test_moved_names_are_gone_from_their_old_modules():
    for module_name, names in MOVED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
    assert belldyn.ExperimentConfig is belldyn.config.ExperimentConfig


def test_config_is_the_bottom_layer_and_only_cli_imports_cli():
    imports = {path.stem: _package_imports(path) for path in SOURCE.glob("*.py")}
    assert imports["config"] == {"errors"}
    assert not imports["dephasing"] & {"tomography", "cli"}
    assert [name for name, modules in imports.items() if "cli" in modules] == []
