"""Independent reference forms that the tests compare belldyn's engine against.

The paper's piecewise expression of the correlations in the two decoherence
parameters, and the 4x4 Bell-diagonal density matrix of a spectrum. Neither
is on an engine path: a sweep goes through `bell_eigenvalues_from_kappas`
and `bell_correlations`.
"""

import math

import numpy as np

from belldyn.correlations import _kappa_modulus, bell_eigenvalues_from_kappas, ree_bell
from belldyn.qstate import validate_bell_spectrum

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
