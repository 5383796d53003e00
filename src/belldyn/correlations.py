"""Analytic correlation measures for Bell-diagonal two-qubit states.

All measures are relative-entropy distances in bits: quantum correlation is
the distance to the closest classical state, classical correlation the
distance from that state to the closest product state, total mutual
information the distance to the product of the marginals, and the
entanglement measure the distance to the closest separable state. For
Bell-diagonal states every one of these has a closed form in the four
eigenvalues, and `bell_eigenvalues_from_kappas` gives those from the two
decoherence parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError
from .qstate import shannon_bits, validate_bell_spectrum

KAPPA_TOL = 1e-9


def _kappa_modulus(kappa, name):
    """|kappa| clipped to 1; InvalidStateError naming `name` if NaN or above 1 + KAPPA_TOL."""
    k = np.abs(np.asarray(kappa))
    if not np.all(k <= 1.0 + KAPPA_TOL):
        raise InvalidStateError(f"|{name}| must be at most 1, got {np.max(k)}")
    return np.minimum(k, 1.0)


def bell_correlations(spectra):
    """Total, classical, quantum and entanglement correlations (I, C, Q, REE) in bits.

    `spectra` holds sorted spectra along its last axis; each result has the
    leading shape, a numpy float64 for one spectrum. With chi the closest
    classical spectrum and l1 the largest eigenvalue: I = 2 - S(rho),
    C = 2 - S(chi), Q = S(chi) - S(rho), and REE = 1 - H(l1, 1 - l1) for
    l1 > 1/2, else zero (the state is separable).
    """
    lam = validate_bell_spectrum(spectra)
    chi = np.repeat((lam[..., 0::2] + lam[..., 1::2]) / 2.0, 2, axis=-1)
    l1 = lam[..., 0]
    zero = np.zeros_like(l1)
    binary = np.stack([l1, 1.0 - l1, zero, zero], axis=-1)
    s_rho, s_chi, h_l1 = shannon_bits(np.stack([lam, chi, binary]), axis=-1)
    # [()] makes the 0-d result of one spectrum a scalar, as the other three are
    ree = np.where(l1 > 0.5, np.maximum(1.0 - h_l1, 0.0), 0.0)[()]
    return 2.0 - s_rho, 2.0 - s_chi, np.maximum(s_chi - s_rho, 0.0), ree


def quantum_correlation_bell(spectrum) -> float:
    """Quantum correlation S(chi) - S(rho) of a Bell-diagonal spectrum."""
    return float(bell_correlations(spectrum)[2])


def classical_correlation_bell(spectrum) -> float:
    """Classical correlation 2 - S(chi); the closest product state is maximally mixed."""
    return float(bell_correlations(spectrum)[1])


def ree_bell(spectrum) -> float:
    """Relative entropy of entanglement of a Bell-diagonal spectrum.

    1 - H(l1, 1 - l1) for largest eigenvalue l1 > 1/2, zero otherwise.
    """
    return float(bell_correlations(spectrum)[3])


def bell_eigenvalues_from_kappas(kappa_a, kappa_b) -> np.ndarray:
    """Sorted eigenvalues (1 +/- |kappa_a|)(1 +/- |kappa_b|)/4 of the dephased state.

    The parameters broadcast; the eigenvalues, largest first, fill a new last axis.
    """
    ka = _kappa_modulus(kappa_a, "kappa_a")
    kb = _kappa_modulus(kappa_b, "kappa_b")
    hi, lo = np.maximum(ka, kb), np.minimum(ka, kb)
    return 0.25 * np.stack(
        [(1.0 + ka) * (1.0 + kb), (1.0 + hi) * (1.0 - lo), (1.0 - hi) * (1.0 + lo),
         (1.0 - ka) * (1.0 - kb)],
        axis=-1,
    )
