import math
from dataclasses import dataclass

import numpy as np
from hypothesis import settings

from belldyn.dephasing import SPEED_OF_LIGHT

# every property test draws the same examples on every run, and writes no example database into the checkout
settings.register_profile("belldyn", derandomize=True, database=None, deadline=None)
settings.load_profile("belldyn")


def random_density_matrix(rng, dim=4, rank=None):
    """Ginibre-ensemble random density matrix."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim=2):
    """Haar-distributed random unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_bell_spectrum(rng):
    """Sorted Dirichlet-distributed Bell-diagonal spectrum."""
    return np.sort(rng.dirichlet(np.ones(4)))[::-1]


def gaussian_density(omega, sigma, omega0):
    """Normalized Gaussian frequency density whose decoherence parameter is
    `MultiGaussian(np.array([(1.0, omega0, sigma)])).kappa`."""
    return (2.0 / (math.sqrt(math.pi) * sigma)) * np.exp(-4.0 * (omega - omega0) ** 2 / sigma**2)


def quadrature_kappa(x, omega, density):
    """Independent trapezoid evaluation of the decoherence integral of a sampled density.

    x may be a scalar or an array; the grid must resolve the phase exp(i x omega / c).
    """
    phase = np.multiply.outer(np.asarray(x, dtype=float) / SPEED_OF_LIGHT, omega)
    return np.trapezoid(density * np.exp(1j * phase), omega, axis=-1)


@dataclass(frozen=True, eq=False)
class QuadratureSpectrum:
    """A density sampled on an omega grid whose kappa is the trapezoid reference integral."""

    omega: np.ndarray
    density: np.ndarray

    def kappa(self, x):
        return quadrature_kappa(x, self.omega, self.density)
