"""The public surface: `belldyn.__all__` resolves, removed names stay removed, the
modules import one another in layers, every exception class lives in `belldyn.errors`,
and every belldyn name the benchmark and its tests use or trace resolves."""

import ast
import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import belldyn
import belldyn.cli
import belldyn.config
import belldyn.tomography

#: module -> names it no longer defines, as listed under "Removed names" in README
REMOVED = {
    "belldyn.tomography": ("ProjectorSetting", "STANDARD_SETTINGS", "error_bars", "record_to_csv", "KET",
                           "state_quantities", "bootstrap"),
    "belldyn.correlations": ("CorrelationSet", "correlations_from_spectrum",
                             "total_mutual_information_bell", "closest_classical_bell",
                             "kappa_correlation", "correlations_from_kappas",
                             "bell_diagonal_state", "BELL_KETS"),
    "belldyn.dephasing": ("kappa_multi_gaussian", "SingleGaussian", "SampledSpectrum",
                          "kappa_numeric", "MIN_SAMPLES_PER_PERIOD", "LAMBDA0", "SweepConfig",
                          "GaussianComponent", "kappa_gaussian", "find_crossing"),
    "belldyn.cli": ("to_sweep_config", "write_landmarks", "_UsageError"),
    "belldyn.config": ("_real_array",),
    "belldyn.errors": ("SingularSystemError", "EmptyRecordError", "UnderResolvedGridError",
                       "NormalizationError", "CountsRangeError", "OracleInputError",
                       "NonHermitianError", "InvalidSpectrumError", "InvalidKappaError",
                       "CrossingNotFoundError", "ScheduleError", "UnknownKeyError",
                       "MissingKeyError", "DephasingInputError"),
    "belldyn.oracle": ("GridSpec", "SimplexGridSpec", "closest_product_state"),
    "belldyn.qstate": ("dephase_in_product_basis", "partial_trace", "bloch_projectors",
                       "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "relative_entropy",
                       "von_neumann_entropy", "SUPPORT_EIGENVALUE_TOL", "SUPPORT_WEIGHT_TOL",
                       "PAULIS"),
}

#: `belldyn.__all__`: the names that callers outside the package use
PUBLIC = [
    "ExperimentConfig", "TomographyRecord", "bell_correlations",
    "bell_eigenvalues_from_kappas", "classical_correlation_bell", "eigenvalues_sorted", "evolve_state",
    "oracle_classical_correlation", "oracle_quantum_correlation", "oracle_ree_bell",
    "quantum_correlation_bell", "reconstruct", "ree_bell", "simulate_counts", "sweep",
]

#: module -> names the package no longer exports, since no caller outside the package uses
#: them; each stays in its module
UNEXPORTED = {
    "belldyn.dephasing": ("SPEED_OF_LIGHT", "angular_frequency", "sigma_from_fwhm", "effective_retardation",
                          "MultiGaussian"),
    "belldyn.tomography": ("STANDARD_PROJECTORS",),
    "belldyn.qstate": ("validate_state", "validate_bell_spectrum"),
}

#: module -> names gone from it since another module took them over: `belldyn.config` the
#: configs and presets (`config.PRESETS`), `belldyn.dephasing` the landmark rules.
#: `belldyn.ExperimentConfig` and `belldyn.cli.landmarks_from_series` still resolve, so
#: these are not in REMOVED
MOVED = {
    "belldyn.dephasing": ("ExperimentConfig", "MAX_SWEEP_POINTS"),
    "belldyn.tomography": ("TomographySettings",),
    "belldyn.cli": ("preset_config", "PRESET_NAMES", "Q_REVIVAL_THRESHOLD", "PLATEAU_TOL",
                    "_first_local_min"),
}

SOURCE = Path(belldyn.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
#: the benchmark's files that call into belldyn
PERFBENCH = [Path(__file__).resolve().parents[1] / "perfbench" / name
             for name in ("workloads.py", "run.py", "worker.py")]
#: the benchmark's own tests, which also call into belldyn (the float wrappers among others)
PERFBENCH_TESTS = Path(__file__).resolve().parents[1] / "perfbench" / "tests" / "test_perfbench.py"
#: the names those tests use that are already gone from belldyn; no other may join them
STALE_TEST_NAMES = {"belldyn.dephasing.eigenvalues_sorted"}
#: the tracer that wraps belldyn's functions for the benchmark's per-layer metrics
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
#: the tracer targets whose functions or classes are already gone from belldyn; the
#: tracer reports them absent, and no other target may join them
STALE_TARGETS = {
    "belldyn.cli.series_from_points",
    "belldyn.dephasing.SingleGaussian.kappa",
    "belldyn.dephasing.SampledSpectrum.kappa",
    "belldyn.correlations.correlations_from_spectrum",
    "belldyn.tomography.minimize",
    "belldyn.tomography.error_bars",
}


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


def test_all_is_the_names_callers_use():
    assert sorted(belldyn.__all__) == PUBLIC
    counts = re.findall(r"`belldyn\.__all__` holds the (\d+) names", README.read_text(encoding="utf-8"))
    assert counts == [str(len(PUBLIC))]
    for module_name, names in UNEXPORTED.items():
        module = importlib.import_module(module_name)
        for name in names:
            with pytest.raises(AttributeError):
                getattr(belldyn, name)
            assert hasattr(module, name), f"{module_name}.{name}"


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
    # every row's seed words come from tomo.seed and the kappas' shape, not from the caller
    assert list(inspect.signature(belldyn.tomography.simulate_dephased).parameters) == [
        "kappa_a", "kappa_b", "tomo"]


def test_moved_names_are_gone_from_their_old_modules():
    for module_name, names in MOVED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
    assert belldyn.ExperimentConfig is belldyn.config.ExperimentConfig
    assert belldyn.cli.landmarks_from_series is belldyn.dephasing.landmarks_from_series


def test_config_is_the_bottom_layer_and_only_cli_imports_cli():
    imports = {path.stem: _package_imports(path) for path in SOURCE.glob("*.py")}
    assert imports["config"] == {"errors"}
    assert not imports["dephasing"] & {"tomography", "cli"}
    assert [name for name, modules in imports.items() if "cli" in modules] == []


def _private_names_of_other_modules(source: str) -> list[str]:
    """The `_`-prefixed names of belldyn modules that one module's source imports or looks up:
    `from .x import _y`, and `x._y` where `from . import x` bound x."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("belldyn")):
            private += [f"{node.module or '.'}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            name = _dotted(node)
            if name and (name.split(".")[0] in modules or name.startswith("belldyn.")):
                private.append(name)
    return private


def test_cli_uses_no_private_name_of_another_module():
    # cli only parses, reads, formats and writes: what it needs of the layers below is public
    assert _private_names_of_other_modules((SOURCE / "cli.py").read_text(encoding="utf-8")) == []
    # the check sees both forms of use
    assert _private_names_of_other_modules(
        "from . import tomography\nfrom .config import _holds\ntomography._draw(1)\n"
        "import belldyn.qstate\nbelldyn.qstate._checked_eigenvalues(1)\n") == [
        "config._holds", "tomography._draw", "belldyn.qstate._checked_eigenvalues"]


def _exception_classes(path: Path) -> list[str]:
    """The classes one source file defines whose bases name `Exception` or a `...Error`."""
    return [node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)]


def _raised_names(path: Path) -> set[str]:
    """The names that one source file's `raise` statements raise: `raise X(...)`, `raise X` or `raise m.X`."""
    raised = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(ast.unparse(exc).rpartition(".")[2])
    return raised


def test_errors_is_the_one_module_that_defines_exception_classes():
    # each class is a distinction a caller makes: exit 1 (ConfigError) or exit 2 for `main`
    defined = {path.stem: _exception_classes(path) for path in SOURCE.glob("*.py")}
    classes = defined.pop("errors")
    assert classes == ["BelldynError", "InvalidStateError", "NonConvergenceError",
                       "TomographyInputError", "ConfigError", "ParseError"]
    assert {stem: names for stem, names in defined.items() if names} == {}
    # and each but the base class is raised somewhere in the package
    raised = set().union(*(_raised_names(path) for path in SOURCE.glob("*.py")))
    assert [name for name in classes[1:] if name not in raised] == []


def _stale_references(text: str) -> list[str]:
    """The references of text to a REMOVED name: `module.name`, with or without `belldyn.` in front,
    and the bare name in backticks, unless text says it lives in a test file (`name` in `tests/...`)."""
    stale = []
    for module_name, names in REMOVED.items():
        for name in names:
            qualified = rf"(?<![\w.])(?:belldyn\.)?{module_name.split('.')[-1]}\.{name}\b"
            bare = rf"`{name}\b(?![\w.])(?!` in `tests/)"
            stale += [match.group() for match in re.finditer(f"{qualified}|{bare}", text)]
    return stale


def test_every_removed_name_is_listed_in_the_readme():
    text = README.read_text(encoding="utf-8")
    start = text.index("\nRemoved names")
    end = text.index("\n\n", start + 1)
    paragraph = text[start:end]
    # a name is listed as `name`, `module.name` or `Class.name`
    listed = {token.rpartition(".")[2] for token in re.findall(r"`([\w.]+)`", paragraph)}
    assert [name for names in REMOVED.values() for name in names if name not in listed] == []
    # and only there: elsewhere the README names no removed name by its module or in backticks
    assert _stale_references(text[:start] + text[end:]) == []
    assert _stale_references("`tomography._bootstrap`, `correlations_from_kappas` in `tests/reference.py`") == []
    assert _stale_references("`belldyn.tomography.bootstrap`, tomography.bootstrap, `bootstrap(`") == [
        "belldyn.tomography.bootstrap", "tomography.bootstrap", "`bootstrap"]


def test_readme_library_example_runs():
    # the one python block of README's Library section, run as a user would paste it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], "README.md", "exec"), {})
    lines = printed.getvalue().splitlines()
    assert lines[2] == "101 1"
    assert lines[-1].endswith(" True")  # C stays frozen after the sudden transition on fig2a


def _dotted(node) -> str | None:
    """`a.b.c` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def _belldyn_names(source: str) -> set[str]:
    """The dotted belldyn names that Python source imports or looks up, also in `-c` code."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(_dotted(node))
        elif isinstance(node, (ast.List, ast.Tuple)):
            for flag, code in zip(node.elts, node.elts[1:]):
                if (isinstance(flag, ast.Constant) and flag.value == "-c"
                        and isinstance(code, ast.Constant)):
                    names |= _belldyn_names(code.value)
    return {name for name in names if name and name.split(".")[0] == "belldyn"}


def _resolves(name: str) -> bool:
    """Whether a dotted belldyn name is an attribute or a module, part by part."""
    parts = name.split(".")
    target = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        try:
            target = (getattr(target, part) if hasattr(target, part)
                      else importlib.import_module(".".join(parts[:depth])))
        except ModuleNotFoundError:
            return False
    return True


def test_every_belldyn_name_the_benchmark_uses_resolves():
    # the benchmark runs these files against the source; a moved name would fail
    # every one of its ops there, not here
    used = set().union(*(_belldyn_names(path.read_text(encoding="utf-8")) for path in PERFBENCH))
    assert {"belldyn.cli.main", "belldyn.reconstruct", "belldyn.oracle_ree_bell"} <= used
    assert [name for name in sorted(used) if not _resolves(name)] == []
    # its tests call more of belldyn, the float wrappers among them
    tested = _belldyn_names(PERFBENCH_TESTS.read_text(encoding="utf-8"))
    assert tested and {name for name in tested if not _resolves(name)} <= STALE_TEST_NAMES


def _tracer_targets() -> dict:
    """The tracer's TARGETS, span name -> (module, attribute paths), read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_tracer_target_resolves_but_the_stale_ones():
    # a target that does not resolve is reported absent, not failed, so a moved
    # function would silently drop its per-layer metrics from every run
    unresolved = set()
    for module_name, paths in _tracer_targets().values():
        module = importlib.import_module(module_name)
        for path in paths:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # the tracer patches a class attribute only where the class itself defines it
            found = owner is not None and (attr in vars(owner) if owner_name else hasattr(owner, attr))
            if not found:
                unresolved.add(f"{module_name}.{path}")
    assert unresolved <= STALE_TARGETS
