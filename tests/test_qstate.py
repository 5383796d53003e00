import numpy as np
import pytest

from belldyn.errors import InvalidStateError
from belldyn.qstate import (
    eigenvalues_sorted,
    shannon_bits,
    validate_bell_spectrum,
    validate_state,
)
from belldyn.dephasing import evolve_state

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


def test_validate_bell_spectrum_requires_order():
    with pytest.raises(InvalidStateError, match="not sorted non-increasing"):
        validate_bell_spectrum([0.2, 0.5, 0.2, 0.1])


def test_validate_bell_spectrum_requires_normalization():
    with pytest.raises(InvalidStateError, match="not summing to 1 within 1e-12"):
        validate_bell_spectrum([0.5, 0.3, 0.1, 0.2])


def test_shannon_bits_vectorized():
    p = np.array([[0.5, 0.25], [0.5, 0.25], [0.0, 0.25], [0.0, 0.25]])
    np.testing.assert_allclose(shannon_bits(p, axis=0), [1.0, 2.0], atol=1e-12)
