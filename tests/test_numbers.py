"""One rule for what counts as numbers at every checking entry point (`config._numbers`)."""

import re
from fractions import Fraction

import numpy as np
import pytest

from belldyn.config import ExperimentConfig, validate_echo_points
from belldyn.correlations import bell_correlations, bell_eigenvalues_from_kappas
from belldyn.dephasing import evolve_state
from belldyn.errors import ConfigError, InvalidStateError, TomographyInputError
from belldyn.oracle import oracle_classical_correlation, oracle_quantum_correlation, oracle_ree_bell
from belldyn.qstate import eigenvalues_sorted, shannon_bits, validate_bell_spectrum, validate_state
from belldyn.tomography import TomographyRecord, simulate_counts

_CONFIG = dict(name="t", x_a=1.0, filter_a_fwhm_nm=3.0, spectrum_b=((1.0, 780.0, 0.85),), x_b_max=10.0, step=1.0)
_STATE = evolve_state(0.5, 0.25).real.tolist()  # a real state, so that Fraction entries can give it
_SPECTRUM = [0.5, 0.25, 0.125, 0.125]

#: name -> (entry point, its error, a valid value as nested lists, whether its values must be real)
ENTRY_POINTS = {
    "kappa/bell_eigenvalues_from_kappas": (lambda v: bell_eigenvalues_from_kappas(v, 0.5), InvalidStateError,
                                           [0.25, 0.5], False),
    "kappa/evolve_state": (lambda v: evolve_state(v, 0.5), InvalidStateError, 0.25, False),
    "counts/TomographyRecord": (lambda v: TomographyRecord(v).counts, TomographyInputError, [100.0] * 16, True),
    "state/validate_state": (validate_state, InvalidStateError, _STATE, False),
    "state/eigenvalues_sorted": (eigenvalues_sorted, InvalidStateError, _STATE, False),
    "state/oracle_quantum_correlation": (oracle_quantum_correlation, InvalidStateError, _STATE, False),
    "state/oracle_classical_correlation": (oracle_classical_correlation, InvalidStateError, _STATE, False),
    "state/simulate_counts": (lambda v: simulate_counts(v, 100, 0).counts, InvalidStateError, _STATE, False),
    "spectrum/validate_bell_spectrum": (validate_bell_spectrum, InvalidStateError, _SPECTRUM, True),
    "spectrum/bell_correlations": (bell_correlations, InvalidStateError, _SPECTRUM, True),
    "spectrum/oracle_ree_bell": (oracle_ree_bell, InvalidStateError, _SPECTRUM, True),
    "probabilities/shannon_bits": (shannon_bits, InvalidStateError, [0.5, 0.25, 0.25], True),
    "config/validate_echo_points": (validate_echo_points, ConfigError, [10.0, 20.0], True),
    "config/echo_points": (lambda v: ExperimentConfig(**{**_CONFIG, "echo_points": v}).echo_points, ConfigError,
                           [10.0, 20.0], True),
    "config/spectrum_b": (lambda v: ExperimentConfig(**{**_CONFIG, "spectrum_b": v}).spectrum_b, ConfigError,
                          [[1.0, 780.0, 0.85]], True),
    "seed/simulate_counts": (lambda v: simulate_counts(np.eye(4) / 4.0, 100, v).counts, TomographyInputError,
                             [3, 4], True),
}


def _leaves(value, convert):
    """value with convert applied to each number of its nested lists."""
    return [_leaves(v, convert) for v in value] if isinstance(value, list) else convert(value)


def _first(value, replace):
    """value with its first number replaced by replace(number)."""
    if not isinstance(value, list):
        return replace(value)
    return [_first(value[0], replace), *value[1:]]


def _bad_inputs(good, real):
    """The inputs that are not numbers, by kind, built from a valid value."""
    flat = np.ravel(good).tolist()
    yield "numeric text", _leaves(good, str)
    yield "other text", "x"
    yield "bytes", _leaves(good, lambda v: str(v).encode())
    yield "ragged", [flat, flat[:-1]] if len(flat) > 1 else [flat, []]
    if not isinstance(flat[0], int):  # an integer seed word is exact at any size
        yield "int beyond the float range", _first(good, lambda v: 10**400)
    if real:
        yield "complex", _first(good, lambda v: complex(v, 1.0))


#: inputs that the checks before this rule let through, or ended in numpy's bare errors
REGRESSIONS = [
    ("spectrum/bell_correlations", "numeric text", ["0.5", "0.5", "0", "0"]),
    ("spectrum/oracle_ree_bell", "numeric text", ["0.5", "0.5", "0", "0"]),
    ("state/eigenvalues_sorted", "numeric text", np.eye(4).astype(str).tolist()),
    ("spectrum/validate_bell_spectrum", "ragged", [[0.5, 0.5, 0.0, 0.0], [1.0]]),
    ("state/simulate_counts", "other text", "x"),
    ("kappa/evolve_state", "int beyond the float range", 10**400),
    ("seed/simulate_counts", "bytes", b"3"),
    ("config/validate_echo_points", "bytes", b"\x01\x02"),
    ("config/spectrum_b", "bytes", [b"\x01\x01\x01"]),
]

CASES = [(name, f"{kind} (regression)", bad) for name, kind, bad in REGRESSIONS]
CASES += [(name, kind, bad) for name, (_, _, good, real) in ENTRY_POINTS.items() for kind, bad in _bad_inputs(good, real)]


@pytest.mark.parametrize("name, kind, bad", CASES, ids=[f"{name}-{kind}" for name, kind, _ in CASES])
def test_an_input_that_is_not_numbers_raises_the_documented_error_showing_it(name, kind, bad):
    call, error, _, _ = ENTRY_POINTS[name]
    with pytest.raises(error, match=re.escape(repr(bad))):
        call(bad)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_fraction_inputs_give_the_results_of_equal_floats(name):
    call, _, good, _ = ENTRY_POINTS[name]
    np.testing.assert_equal(call(_leaves(good, Fraction)), call(good))
