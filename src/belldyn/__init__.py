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

from .correlations import (
    bell_correlations,
    bell_diagonal_state,
    bell_eigenvalues_from_kappas,
    classical_correlation_bell,
    correlations_from_kappas,
    kappa_correlation,
    quantum_correlation_bell,
    ree_bell,
)
from .dephasing import (
    LAMBDA0,
    SPEED_OF_LIGHT,
    GaussianComponent,
    MultiGaussian,
    SampledSpectrum,
    SingleGaussian,
    SweepConfig,
    angular_frequency,
    effective_retardation,
    evolve_state,
    find_crossing,
    kappa_gaussian,
    kappa_numeric,
    sigma_from_fwhm,
    sweep,
)
from .oracle import (
    GridSpec,
    SimplexGridSpec,
    closest_product_state,
    oracle_classical_correlation,
    oracle_quantum_correlation,
    oracle_ree_bell,
)
from .qstate import (
    dephase_in_product_basis,
    eigenvalues_sorted,
    partial_trace,
    relative_entropy,
    validate_bell_spectrum,
    validate_state,
    von_neumann_entropy,
)
from .tomography import (
    STANDARD_PROJECTORS,
    TomographyRecord,
    error_bars,
    reconstruct,
    record_to_csv,
    simulate_counts,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianComponent",
    "GridSpec",
    "LAMBDA0",
    "MultiGaussian",
    "SampledSpectrum",
    "SimplexGridSpec",
    "SingleGaussian",
    "SPEED_OF_LIGHT",
    "STANDARD_PROJECTORS",
    "SweepConfig",
    "TomographyRecord",
    "angular_frequency",
    "bell_correlations",
    "bell_diagonal_state",
    "bell_eigenvalues_from_kappas",
    "classical_correlation_bell",
    "closest_product_state",
    "correlations_from_kappas",
    "dephase_in_product_basis",
    "effective_retardation",
    "eigenvalues_sorted",
    "error_bars",
    "evolve_state",
    "find_crossing",
    "kappa_correlation",
    "kappa_gaussian",
    "kappa_numeric",
    "oracle_classical_correlation",
    "oracle_quantum_correlation",
    "oracle_ree_bell",
    "partial_trace",
    "quantum_correlation_bell",
    "reconstruct",
    "record_to_csv",
    "ree_bell",
    "relative_entropy",
    "sigma_from_fwhm",
    "simulate_counts",
    "sweep",
    "validate_bell_spectrum",
    "validate_state",
    "von_neumann_entropy",
]
