"""Input checks, spectra and entropies of two-qubit density matrices.

States are 4x4 complex numpy arrays in the canonical polarization basis
{|HH>, |HV>, |VH>, |VV>}; a Bell-diagonal state is given by its four sorted
eigenvalues. Entropies are Shannon entropies of probability vectors, in bits.
Every function here is pure; nothing is mutated in place.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidStateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
#: the LAPACK gufunc behind np.linalg.eigvalsh, called directly by the state check and the estimator
#: (same routine and dtype, so the same bits, without the wrapper's per-call cost); an eigensolve
#: LAPACK fails on gives NaN, not LinAlgError, and each caller rejects a NaN spectrum
_eigvalsh = _umath_linalg.eigvalsh_lo


def shannon_bits(p: np.ndarray) -> float:
    """Shannon entropy -sum p log2 p of one probability vector, with 0 log 0 = 0.

    Negative roundoff is clipped to zero before taking logs.
    """
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum()


def validate_state(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix as complex and its ascending eigenvalues, unclipped; InvalidStateError unless
    a 4x4 state: `eigenvalues_sorted`'s checks and trace 1."""
    rho = np.asarray(matrix, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"expected a two-qubit (4x4) state, got shape {rho.shape}")
    w = _checked_eigenvalues(rho)
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidStateError(f"trace {tr} deviates from 1 beyond 1e-12")
    return rho, w


def validate_bell_spectrum(lambdas) -> np.ndarray:
    """Validate non-increasing probability 4-vectors and return them as a float array.

    The spectra lie along the last axis (shape (4,) or (..., 4)). Entries may
    dip to -1e-10 from roundoff; they are clipped to zero. Each sum must be 1
    within 1e-12 and each ordering non-increasing; NaN fails every check.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] != 4:
        raise InvalidStateError(f"expected 4 eigenvalues, got shape {lam.shape}")
    for bad, what in (
        (~np.all((lam >= EIGENVALUE_FLOOR) & (lam <= 1.0 + 1e-12), axis=-1), "outside [0, 1]"),
        (~(np.abs(lam.sum(axis=-1) - 1.0) <= 1e-12), "not summing to 1 within 1e-12"),
        (np.any(np.diff(lam, axis=-1) > 1e-12, axis=-1), "not sorted non-increasing"),
    ):
        if np.any(bad):
            raise InvalidStateError(f"eigenvalues {what}: {lam[bad][0]}")
    return np.clip(lam, 0.0, 1.0)


def _checked_eigenvalues(state) -> np.ndarray:
    """The ascending eigenvalues of a matrix or stack that passes `eigenvalues_sorted`'s checks."""
    rho = np.asarray(state, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise InvalidStateError(f"expected a square matrix, got shape {rho.shape}")
    if np.count_nonzero(np.isfinite(rho)) < rho.size:
        raise InvalidStateError("matrix has a non-finite entry")
    if not np.maximum.reduce(np.abs(rho - rho.conj().swapaxes(-1, -2)), axis=None, initial=0.0) <= HERMITICITY_TOL:
        raise InvalidStateError("matrix is not Hermitian within 1e-12")
    w = _eigvalsh(rho, signature="D->d")
    lowest = np.minimum.reduce(w, axis=None, initial=0.0)
    if not lowest >= EIGENVALUE_FLOOR:  # NaN too: a spectrum LAPACK failed on
        raise InvalidStateError(f"eigenvalue {lowest} below the {EIGENVALUE_FLOOR} floor")
    if np.count_nonzero(np.maximum.reduce(w, axis=-1, initial=0.0) <= 0.0):  # no positive eigenvalue: a zero sum once clipped
        raise InvalidStateError("eigenvalues sum to zero")
    return w


def eigenvalues_sorted(state) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of each of a stack, non-increasing.

    The eigenvalues lie along the last axis. Negative values above the -1e-10
    floor are clipped to zero and each vector renormalized to unit sum; a
    non-finite entry, an entry of rho - rho^H beyond 1e-12, values below the
    floor (or NaN, from an eigensolve LAPACK failed on) or a zero sum raise
    InvalidStateError. An empty stack gives an empty stack of vectors. No run
    path calls it: `simulate_counts` and the oracles check a state with
    `validate_state`, which shares these checks (`_checked_eigenvalues`).
    """
    w = np.clip(_checked_eigenvalues(state)[..., ::-1], 0.0, None)
    return w / w.sum(axis=-1, keepdims=True)
