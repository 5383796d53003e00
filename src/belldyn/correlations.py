"""Analytic correlation measures for Bell-diagonal two-qubit states.

All measures are relative-entropy distances in bits: quantum correlation is
the distance to the closest classical state, classical correlation the
distance from that state to the closest product state, total mutual
information the distance to the product of the marginals, and the
entanglement measure the distance to the closest separable state. One kernel,
`_bits`, gives them all, from a spectrum (`bell_correlations`) or, on the
dephased family, from the two |kappa| (`dephasing.sweep`);
`bell_eigenvalues_from_kappas` gives the spectrum from the two parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError
from .qstate import validate_bell_spectrum

KAPPA_TOL = 1e-9


def _checked_kappa(kappa, name):
    """The one rule for a decoherence parameter: (kappa, |kappa|) as complex and float arrays,
    a modulus in (1, 1 + KAPPA_TOL] clipped to 1 with the phase kept (the modulus to exactly 1);
    InvalidStateError naming `name` if not numbers (text too, which numpy would parse), NaN or above
    1 + KAPPA_TOL."""
    try:
        k = np.asarray(kappa)
        if k.dtype.kind in "US" or k.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in k.flat):
            raise TypeError
        k = k.astype(complex, copy=False)
    except (TypeError, ValueError):  # "x", a ragged list: numpy's message names no parameter
        raise InvalidStateError(f"{name} must be a number or an array of numbers, got {kappa!r}") from None
    modulus = np.abs(k)
    if not (modulus <= 1.0).all():  # NaN too
        if not (modulus <= 1.0 + KAPPA_TOL).all():
            raise InvalidStateError(f"|{name}| must be at most 1, got {np.max(modulus)}")
        k, modulus = k / np.maximum(modulus, 1.0), np.minimum(modulus, 1.0)
    return k, modulus


def _checked_pair(kappa_a, kappa_b):
    """`_checked_kappa` of both kappas, broadcast together: kappa_a, kappa_b, |kappa_a|, |kappa_b|;
    InvalidStateError naming both shapes if they do not broadcast."""
    (ka, ma), (kb, mb) = _checked_kappa(kappa_a, "kappa_a"), _checked_kappa(kappa_b, "kappa_b")
    try:
        return np.broadcast_arrays(ka, kb, ma, mb)
    except ValueError:  # numpy's message names neither kappa
        raise InvalidStateError(f"kappa_a and kappa_b must broadcast together, got shapes {ka.shape} and "
                                f"{kb.shape}") from None


def _bits(d):
    """1 - h((1 + d) / 2) bits, h the binary entropy, as (d atanh d + log1p(-d^2) / 2) / ln 2,
    which does not cancel as d -> 0; 1 for d >= 1, and 0 for d <= 0 or NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        bits = (d * np.arctanh(d) + 0.5 * np.log1p(-d * d)) / np.log(2.0)
    return np.where(d >= 1.0, 1.0, np.where(d > 0.0, bits, 0.0))


def bell_correlations(spectra):
    """Total, classical, quantum and entanglement correlations (I, C, Q, REE) in bits.

    `spectra` holds sorted spectra along its last axis; each result has the leading
    shape, a numpy float64 for one spectrum. With pair(a, b) = (a + b) `_bits`(|a - b| /
    (a + b)), the relative entropy of weights a, b to their average, and chi the closest
    classical spectrum: C = pair(l1 + l2, l3 + l4) = 2 - S(chi), Q = pair(l1, l2) +
    pair(l3, l4) = S(chi) - S(rho), I = C + Q = 2 - S(rho), and REE = pair(l1, 1 - l1)
    = `_bits`(2 l1 - 1) = 1 - H(l1, 1 - l1) for l1 > 1/2, else zero (separable).
    """
    return unchecked_bell_correlations(validate_bell_spectrum(spectra))


def unchecked_bell_correlations(spectra):
    """`bell_correlations` of spectra that need no check: each a probability vector, non-increasing."""
    l1, l2, l3, l4 = np.moveaxis(spectra, -1, 0)
    a, b = np.stack([l1 + l2, l1, l3]), np.stack([l3 + l4, l2, l4])
    with np.errstate(invalid="ignore"):  # a + b = 0 gives d = NaN, so zero bits
        classical, q12, q34 = (a + b) * _bits(np.abs(a - b) / (a + b))
    quantum = q12 + q34
    # [()] makes the 0-d result of one spectrum a scalar, as the other three are
    return classical + quantum, classical, quantum, _bits(2.0 * l1 - 1.0)[()]


def quantum_correlation_bell(spectrum) -> float:
    """Quantum correlation S(chi) - S(rho) of a Bell-diagonal spectrum."""
    return float(bell_correlations(spectrum)[2])


def classical_correlation_bell(spectrum) -> float:
    """Classical correlation 2 - S(chi); the closest product state is maximally mixed."""
    return float(bell_correlations(spectrum)[1])


def ree_bell(spectrum) -> float:
    """Relative entropy of entanglement 1 - H(l1, 1 - l1) for l1 > 1/2, zero otherwise."""
    return float(bell_correlations(spectrum)[3])


def bell_eigenvalues_from_kappas(kappa_a, kappa_b) -> np.ndarray:
    """Sorted eigenvalues (1 +/- |kappa_a|)(1 +/- |kappa_b|)/4 of the dephased state.

    The parameters broadcast (InvalidStateError naming both shapes if they do not); the
    eigenvalues, largest first, fill a new last axis.
    """
    ka, kb = _checked_pair(kappa_a, kappa_b)[2:]
    hi, lo = np.maximum(ka, kb), np.minimum(ka, kb)
    return 0.25 * np.stack(
        [(1.0 + ka) * (1.0 + kb), (1.0 + hi) * (1.0 - lo), (1.0 - hi) * (1.0 + lo),
         (1.0 - ka) * (1.0 - kb)],
        axis=-1,
    )
