import math

import numpy as np
import pytest

from belldyn import oracle, qstate
from belldyn.correlations import bell_correlations
from belldyn.errors import InvalidStateError
from belldyn.qstate import (
    eigenvalues_sorted,
    shannon_bits,
    validate_bell_spectrum,
    validate_state,
)
from belldyn.dephasing import evolve_state
from belldyn.tomography import simulate_counts

from conftest import random_density_matrix

# independent high-precision evaluations, frozen
S_INITIAL_SPECTRUM = 0.714872622780333  # -sum p log2 p at {0.8035, 0.1965, 0, 0}


def test_entropy_pure_spectrum():
    assert shannon_bits(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_entropy_maximally_mixed_spectrum():
    assert shannon_bits(np.array([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)


def test_entropy_initial_state_spectrum():
    spectrum = np.array([0.8035, 0.1965, 0.0, 0.0])
    assert shannon_bits(spectrum) == pytest.approx(S_INITIAL_SPECTRUM, abs=1e-12)


def test_entropy_bounds():
    # the spectra of random states have entropy between 0 and log2 of the dimension
    rng = np.random.default_rng(4)
    for _ in range(20):
        assert 0.0 <= shannon_bits(np.linalg.eigvalsh(random_density_matrix(rng, dim=4))) <= 2.0
        assert 0.0 <= shannon_bits(np.linalg.eigvalsh(random_density_matrix(rng, dim=2))) <= 1.0


def test_validate_state_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.1
    with pytest.raises(InvalidStateError, match="not Hermitian within 1e-12"):
        validate_state(bad)


def test_validate_state_rejects_bad_trace():
    with pytest.raises(InvalidStateError):
        validate_state(np.eye(4, dtype=complex) / 2.0)


def test_validate_state_rejects_negative_eigenvalue():
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvalidStateError):
        validate_state(bad)


def test_validate_state_returns_the_matrix_and_its_unclipped_eigenvalues():
    # the check's own eigensolve, handed back so that a caller needs no second one
    rho = random_density_matrix(np.random.default_rng(5))
    checked, w = validate_state(rho.real)
    assert checked.dtype == complex
    np.testing.assert_array_equal(checked, rho.real)
    np.testing.assert_array_equal(w, np.linalg.eigvalsh(rho.real.astype(complex)))
    # roundoff above the floor stays negative, in ascending order
    w = validate_state(np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]))[1]
    np.testing.assert_array_equal(w, [-5e-11, 0.0, 0.0, 1.0 + 5e-11])


def test_the_state_check_gives_the_bits_of_numpys_public_eigvalsh(monkeypatch):
    # the check calls the LAPACK gufunc behind np.linalg.eigvalsh directly; a numpy whose gufunc
    # stopped matching the wrapper would fail here by name, on pure, near-pure and mixed states
    rng = np.random.default_rng(44)
    phases = np.exp(2j * np.pi * rng.uniform(size=(6, 2)))
    states = [evolve_state(1.0, 1.0), evolve_state(1.0, -1.0)]  # pure
    states += [evolve_state(*(rng.uniform(0.95, 1.0, 2) * p)) for p in phases]  # near-pure, |kappa| >= 0.95
    states += [random_density_matrix(rng, rank=rank) for rank in (1, 2, 3, 4, 4)]  # pure to mixed
    calls = []
    eigvalsh = qstate._eigvalsh

    def recording(matrix, signature):
        calls.append(eigvalsh(matrix, signature=signature))
        return calls[-1]

    monkeypatch.setattr(qstate, "_eigvalsh", recording)
    for rho in states:
        w = validate_state(rho)[1]
        assert len(calls) == 1 and calls.pop() is w  # the check's one eigensolve is the direct call
        public = np.linalg.eigvalsh(rho)
        assert w.dtype == public.dtype and w.tobytes() == public.tobytes()


def test_a_spectrum_lapack_cannot_compute_fails_the_state_check(monkeypatch):
    # the direct gufunc gives NaN where np.linalg.eigvalsh would raise LinAlgError; NaN fails
    # the floor test, so such a state is rejected where it enters, not passed on
    rho = evolve_state(0.607, 0.385)
    monkeypatch.setattr(qstate, "_eigvalsh", lambda matrix, signature: np.full(matrix.shape[:-1], math.nan))
    oracle._minimizing_basis.cache_clear()
    with pytest.raises(InvalidStateError, match="below the"):
        simulate_counts(rho, 10**4, 0)
    with pytest.raises(InvalidStateError, match="below the"):
        oracle.oracle_quantum_correlation(rho)
    with pytest.raises(InvalidStateError, match="below the"):
        eigenvalues_sorted(np.stack([rho, rho]))


def test_eigenvalues_sorted_mixed():
    np.testing.assert_allclose(eigenvalues_sorted(np.eye(4) / 4.0), [0.25] * 4, atol=1e-12)


def test_eigenvalues_sorted_pure_dephased_endpoint():
    np.testing.assert_allclose(
        eigenvalues_sorted(evolve_state(1.0, 1.0)), [1.0, 0.0, 0.0, 0.0], atol=1e-12
    )


def test_eigenvalues_sorted_partial_dephasing():
    lams = eigenvalues_sorted(evolve_state(0.607, 0.385))
    np.testing.assert_allclose(
        lams, [0.55642375, 0.24707625, 0.13607625, 0.06042375], atol=1e-12
    )


def test_eigenvalues_sorted_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = eigenvalues_sorted(random_density_matrix(rng))
        assert abs(w.sum() - 1.0) < 1e-10
        assert np.all(np.diff(w) <= 0.0)


def test_eigenvalues_sorted_clips_tiny_negatives():
    w = eigenvalues_sorted(np.diag([1.0 + 5e-11, 5e-11, 0.0, -5e-11]).astype(complex))
    assert w.min() == 0.0
    assert abs(w.sum() - 1.0) < 1e-12


def test_eigenvalues_sorted_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[2, 0] = 1e-3
    with pytest.raises(InvalidStateError, match="not Hermitian within 1e-12"):
        eigenvalues_sorted(bad)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_eigenvalues_sorted_rejects_a_non_finite_entry(bad):
    # an infinite pair matches its conjugate transpose within any tolerance, so
    # only a finiteness check keeps it from the eigensolver
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3] = rho[3, 0] = bad
    with pytest.raises(InvalidStateError, match="non-finite"):
        eigenvalues_sorted(rho)
    with pytest.raises(InvalidStateError, match="non-finite"):
        eigenvalues_sorted(np.stack([np.eye(4) / 4.0, rho]))


def test_eigenvalues_sorted_of_an_empty_stack_is_an_empty_stack():
    w = eigenvalues_sorted(np.empty((0, 4, 4)))
    assert w.shape == (0, 4)


def test_validate_state_checks_the_spectrum_before_the_trace():
    # the one check: a matrix with no positive eigenvalue fails on its spectrum,
    # also where its trace is off too
    with pytest.raises(InvalidStateError, match="eigenvalues sum to zero"):
        validate_state(np.zeros((4, 4)))
    with pytest.raises(InvalidStateError, match="below the"):
        validate_state(np.diag([2.0, -0.5, 0.0, 0.0]))


def test_validate_bell_spectrum_requires_order():
    with pytest.raises(InvalidStateError, match="not sorted non-increasing"):
        validate_bell_spectrum([0.2, 0.5, 0.2, 0.1])


def test_validate_bell_spectrum_requires_normalization():
    with pytest.raises(InvalidStateError, match="not summing to 1 within 1e-12"):
        validate_bell_spectrum([0.5, 0.3, 0.1, 0.2])


def test_shape_checks_reject_what_is_not_a_spectrum_or_a_square_matrix():
    with pytest.raises(InvalidStateError, match=r"^expected 4 eigenvalues, got shape \(3,\)$"):
        bell_correlations(np.ones(3) / 3)
    with pytest.raises(InvalidStateError, match=r"^expected 4 eigenvalues, got shape \(\)$"):
        validate_bell_spectrum(1.0)
    with pytest.raises(InvalidStateError, match=r"^expected a square matrix, got shape \(4, 3\)$"):
        eigenvalues_sorted(np.ones((4, 3)))
    with pytest.raises(InvalidStateError, match=r"^expected a square matrix, got shape \(4,\)$"):
        eigenvalues_sorted(np.ones(4))
