"""Dephasing dynamics of classical and quantum correlations of two-qubit Bell-diagonal states.

The package simulates a two-photon polarization state dephased by
birefringent retardation, one arm filtered to a continuous Gaussian spectrum
and the other to a discrete multi-peaked one, and tracks the relative-entropy
correlation measures (total, classical, quantum, entanglement) along the
evolution: the sudden classical-to-quantum decoherence transition, the
non-Markovian revival, and polarization-exchange echoes. A brute-force
minimizer validates the closed forms, and a simulated tomography pipeline
reproduces statistical scatter and error bars.
"""

from .config import ExperimentConfig
from .correlations import (
    bell_correlations,
    bell_eigenvalues_from_kappas,
    classical_correlation_bell,
    quantum_correlation_bell,
    ree_bell,
)
from .dephasing import evolve_state, sweep
from .oracle import (
    oracle_classical_correlation,
    oracle_quantum_correlation,
    oracle_ree_bell,
)
from .qstate import eigenvalues_sorted
from .tomography import TomographyRecord, reconstruct, simulate_counts

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "TomographyRecord",
    "bell_correlations",
    "bell_eigenvalues_from_kappas",
    "classical_correlation_bell",
    "eigenvalues_sorted",
    "evolve_state",
    "oracle_classical_correlation",
    "oracle_quantum_correlation",
    "oracle_ree_bell",
    "quantum_correlation_bell",
    "reconstruct",
    "ree_bell",
    "simulate_counts",
    "sweep",
]
