"""Analytic correlation measures for Bell-diagonal two-qubit states.

All measures are relative-entropy distances in bits: quantum correlation is
the distance to the closest classical state, classical correlation the
distance from that state to the closest product state, total mutual
information the distance to the product of the marginals, and the
entanglement measure the distance to the closest separable state. For
Bell-diagonal states every one of these has a closed form in the four
eigenvalues, and the quantum/classical pair reduces to a piecewise expression
in the two decoherence parameters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidKappaError
from .qstate import shannon_bits, validate_bell_spectrum

KAPPA_TOL = 1e-9

# Bell kets as columns: (|HH>+|VV>)/sqrt2, (|HH>-|VV>)/sqrt2,
# (|HV>+|VH>)/sqrt2, (|HV>-|VH>)/sqrt2
BELL_KETS = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
    dtype=complex,
) / math.sqrt(2.0)


def _kappa_modulus(kappa, name):
    """|kappa| clipped to 1; InvalidKappaError naming `name` if NaN or above 1 + KAPPA_TOL."""
    k = np.abs(np.asarray(kappa))
    if not np.all(k <= 1.0 + KAPPA_TOL):
        raise InvalidKappaError(f"|{name}| must be at most 1, got {np.max(k)}")
    return np.minimum(k, 1.0)


def kappa_correlation(kappa) -> float:
    """(1/2)(1+k)log2(1+k) + (1/2)(1-k)log2(1-k) at k = |kappa|.

    This is the common kernel of the quantum and classical branches; the
    k -> 1 endpoint uses the 0 log 0 = 0 convention and evaluates to 1.
    """
    k = float(_kappa_modulus(kappa, "kappa"))
    out = 0.5 * (1.0 + k) * math.log2(1.0 + k)
    if k < 1.0:
        out += 0.5 * (1.0 - k) * math.log2(1.0 - k)
    return out


def bell_correlations(spectra):
    """Total, classical, quantum and entanglement correlations (I, C, Q, REE) in bits.

    `spectra` holds sorted spectra along its last axis; each result has the
    leading shape. With chi the closest classical spectrum and l1 the largest
    eigenvalue: I = 2 - S(rho), C = 2 - S(chi), Q = S(chi) - S(rho), and
    REE = 1 - H(l1, 1 - l1) for l1 > 1/2, else zero (the state is separable).
    """
    lam = validate_bell_spectrum(spectra)
    chi = np.repeat((lam[..., 0::2] + lam[..., 1::2]) / 2.0, 2, axis=-1)
    l1 = lam[..., 0]
    zero = np.zeros_like(l1)
    binary = np.stack([l1, 1.0 - l1, zero, zero], axis=-1)
    s_rho, s_chi, h_l1 = shannon_bits(np.stack([lam, chi, binary]), axis=-1)
    ree = np.where(l1 > 0.5, np.maximum(1.0 - h_l1, 0.0), 0.0)
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


def correlations_from_kappas(kappa_a, kappa_b) -> tuple[float, float, float, float]:
    """(I, C, Q, REE) in bits from the two decoherence parameters, in `bell_correlations`' order.

    This is the paper's piecewise form, independent of the spectrum route:
    the quantum branch depends on min(|kappa_a|, |kappa_b|) and the classical
    branch on the max; the two coincide when the moduli are equal. Complex
    inputs contribute through their moduli only.
    """
    ka = float(_kappa_modulus(kappa_a, "kappa_a"))
    kb = float(_kappa_modulus(kappa_b, "kappa_b"))
    quantum = kappa_correlation(min(ka, kb))
    classical = kappa_correlation(max(ka, kb))
    ree = ree_bell(bell_eigenvalues_from_kappas(ka, kb))
    return quantum + classical, classical, quantum, ree


def bell_diagonal_state(spectrum) -> np.ndarray:
    """4x4 density matrix diagonal in the Bell basis with the given spectrum."""
    lam = validate_bell_spectrum(spectrum)
    return (BELL_KETS * lam) @ BELL_KETS.conj().T
