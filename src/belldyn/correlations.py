"""Analytic correlation measures for Bell-diagonal two-qubit states.

All measures are relative-entropy distances in bits: quantum correlation is
the distance to the closest classical state, classical correlation the
distance from that state to the closest product state, total mutual
information the distance to the product of the marginals, and the
entanglement measure the distance to the closest separable state. For
Bell-diagonal states each is a sum of pair relative entropies in the four
eigenvalues (`bell_correlations`), and `bell_eigenvalues_from_kappas` gives
those from the two decoherence parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError
from .qstate import validate_bell_spectrum

KAPPA_TOL = 1e-9


def _kappa_modulus(kappa, name):
    """|kappa| clipped to 1; InvalidStateError naming `name` if NaN or above 1 + KAPPA_TOL."""
    k = np.abs(np.asarray(kappa))
    if not np.all(k <= 1.0 + KAPPA_TOL):
        raise InvalidStateError(f"|{name}| must be at most 1, got {np.max(k)}")
    return np.minimum(k, 1.0)


def _pair_bits(a, b):
    """(a + b)(1 - h(a / (a + b))) bits, h the binary entropy: the relative entropy of
    weights a, b >= 0 to their average. As (a + b)(d atanh d + log1p(-d^2) / 2) / ln 2,
    d = |a - b| / (a + b), it does not cancel as d -> 0; d = 1 gives a + b, a + b = 0 gives 0."""
    total = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(a - b) / total
        bits = total * (d * np.arctanh(d) + 0.5 * np.log1p(-d * d)) / np.log(2.0)
    return np.where(d < 1.0, bits, total)


def bell_correlations(spectra):
    """Total, classical, quantum and entanglement correlations (I, C, Q, REE) in bits.

    `spectra` holds sorted spectra along its last axis; each result has the leading
    shape, a numpy float64 for one spectrum. With pair = `_pair_bits` and chi the
    closest classical spectrum: C = pair(l1 + l2, l3 + l4) = 2 - S(chi),
    Q = pair(l1, l2) + pair(l3, l4) = S(chi) - S(rho), I = C + Q = 2 - S(rho), and
    REE = pair(l1, 1 - l1) = 1 - H(l1, 1 - l1) for l1 > 1/2, else zero (separable).
    """
    l1, l2, l3, l4 = np.moveaxis(validate_bell_spectrum(spectra), -1, 0)
    classical, q12, q34, ree = _pair_bits(np.stack([l1 + l2, l1, l3, l1]),
                                          np.stack([l3 + l4, l2, l4, 1.0 - l1]))
    quantum = q12 + q34
    # [()] makes the 0-d result of one spectrum a scalar, as the other three are
    return classical + quantum, classical, quantum, np.where(l1 > 0.5, ree, 0.0)[()]


def quantum_correlation_bell(spectrum) -> float:
    """Quantum correlation S(chi) - S(rho) of a Bell-diagonal spectrum."""
    return float(bell_correlations(spectrum)[2])


def classical_correlation_bell(spectrum) -> float:
    """Classical correlation 2 - S(chi); the closest product state is maximally mixed."""
    return float(bell_correlations(spectrum)[1])


def ree_bell(spectrum) -> float:
    """Relative entropy of entanglement of a Bell-diagonal spectrum: pair(l1, 1 - l1)
    = 1 - H(l1, 1 - l1) for largest eigenvalue l1 > 1/2, zero otherwise."""
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
