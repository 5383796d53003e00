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
from .dephasing import (
    SPEED_OF_LIGHT,
    GaussianComponent,
    MultiGaussian,
    angular_frequency,
    effective_retardation,
    evolve_state,
    find_crossing,
    kappa_gaussian,
    sigma_from_fwhm,
    sweep,
)
from .oracle import (
    oracle_classical_correlation,
    oracle_quantum_correlation,
    oracle_ree_bell,
)
from .qstate import (
    eigenvalues_sorted,
    validate_bell_spectrum,
    validate_state,
)
from .tomography import (
    STANDARD_PROJECTORS,
    TomographyRecord,
    reconstruct,
    record_to_csv,
    simulate_counts,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "GaussianComponent",
    "MultiGaussian",
    "SPEED_OF_LIGHT",
    "STANDARD_PROJECTORS",
    "TomographyRecord",
    "angular_frequency",
    "bell_correlations",
    "bell_eigenvalues_from_kappas",
    "classical_correlation_bell",
    "effective_retardation",
    "eigenvalues_sorted",
    "evolve_state",
    "find_crossing",
    "kappa_gaussian",
    "oracle_classical_correlation",
    "oracle_quantum_correlation",
    "oracle_ree_bell",
    "quantum_correlation_bell",
    "reconstruct",
    "record_to_csv",
    "ree_bell",
    "sigma_from_fwhm",
    "simulate_counts",
    "sweep",
    "validate_bell_spectrum",
    "validate_state",
]
