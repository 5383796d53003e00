"""Photon-frequency spectra, decoherence parameters, and retardation sweeps.

A birefringent element of retardation x (optical path-length difference, in
meters) multiplies the polarization coherences of a photon by the decoherence
parameter kappa(x) = integral f(omega) exp(i x omega / c) domega over its
frequency density f. Every density is a Gaussian mixture, `MultiGaussian`, a
table of (amplitude, center, width) rows in rad/s: arm a's continuous filter
is one row and arm b's discrete multi-peaked spectrum several, and kappa is
the weighted sum of the rows' closed form `kappa_gaussian`. A polarization
exchange (sigma_x) inserted at some retardation flips the sign of subsequent
phase accrual, so later retardation unwinds earlier dephasing and produces
correlation echoes; a negative net retardation gives the conjugate kappa.

An `ExperimentConfig` (see `belldyn.config`) gives one experiment as the
paper does, lengths in units of the central wavelength lambda0 and spectra
in nm; `spectra` and `sweep` convert it to rad/s and meters. Every
decoherence parameter and the echo schedule accept an array of
retardations, so a sweep is one column computation over the whole x grid: the
two parameters give the Bell-diagonal eigenvalues and the correlation
measures in closed form. The 4x4 density matrix of `evolve_state` is not on
that path; it serves tomography and the cross-check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import _real_array, validate_echo_points
from .correlations import _kappa_modulus, bell_correlations, bell_eigenvalues_from_kappas
from .errors import DephasingInputError

if TYPE_CHECKING:
    from .config import ExperimentConfig

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def angular_frequency(wavelength: float) -> float:
    """Angular frequency 2 pi c / wavelength (rad/s) for a wavelength in meters."""
    return 2.0 * math.pi * SPEED_OF_LIGHT / wavelength


def sigma_from_fwhm(fwhm_wavelength: float, reference_wavelength: float) -> float:
    """Spectral width (rad/s) for a wavelength FWHM mapped linearly to frequency.

    The width entering exp[-(x/c)^2 sigma^2 / 16] is identified with
    2 pi c dlambda / lambda0^2, the frequency interval spanned by the
    wavelength FWHM at the reference wavelength.
    """
    return 2.0 * math.pi * SPEED_OF_LIGHT * fwhm_wavelength / reference_wavelength**2


def kappa_gaussian(x, sigma: float, omega0: float):
    """Decoherence parameter of a single Gaussian density.

    exp[-(x/c)^2 sigma^2 / 16 + i (x/c) omega0], so kappa(-x) = conj(kappa(x))
    and the modulus is monotone non-increasing in |x|. x may be a scalar or an
    array. Where the exponent overflows the value is its exact limit 0, whatever
    the phase; where only the phase overflows, DephasingInputError names the range.
    """
    x = np.asarray(x, dtype=float)
    u = x / SPEED_OF_LIGHT
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = -(u * sigma) ** 2 / 16.0
        phase = u * omega0
        kappa = np.exp(exponent + 1j * phase)
    undefined = (exponent > -math.inf) & ~np.isfinite(phase)
    if undefined.any():
        limit = SPEED_OF_LIGHT * (np.finfo(float).max / omega0)
        raise DephasingInputError(f"retardation {abs(x[undefined][0]):.6g} m is out of range: "
                                  f"the phase (x/c)*omega0 overflows beyond {limit:.6g} m")
    return np.where(exponent == -math.inf, 0j, kappa)[()]


@dataclass(frozen=True, eq=False)
class MultiGaussian:
    """Frequency density as a Gaussian mixture: a read-only (k, 3) float array of
    (amplitude, center, width) rows in rad/s, k >= 1, finite and positive, amplitudes
    summing to 1. kappa(-x) = conj(kappa(x)): a negative retardation gives the conjugate."""

    components: np.ndarray

    def __post_init__(self):
        rows = _real_array(self.components)
        if rows is None or rows.shape[1:] != (3,) or not len(rows):
            raise DephasingInputError(f"components must be rows of 3 numbers, got {self.components!r}")
        bad = np.flatnonzero(~((rows > 0.0) & (rows < math.inf)))  # NaN fails too
        if bad.size:
            name = ("amplitude", "center", "width")[bad[0] % 3]
            raise DephasingInputError(f"{name} must be finite and positive, got {rows.flat[bad[0]]}")
        total = sum(rows[:, 0].tolist())
        if abs(total - 1.0) > 1e-9:
            raise DephasingInputError(f"component amplitudes sum to {total}, not 1")
        rows.flags.writeable = False
        object.__setattr__(self, "components", rows)

    def kappa(self, x):
        return sum(w * kappa_gaussian(x, width, center) for w, center, width in self.components)


def effective_retardation(x, sigma_x_points):
    """Net signed phase-accrual length after the polarization-exchange schedule.

    Accrual starts at +1 per unit retardation from zero; every exchange point
    at or below x flips the sign of subsequent accrual. With one exchange at
    x_s the result is x below x_s and 2 x_s - x beyond it. x may be a scalar
    or an array.
    """
    pts = np.array((0.0, *validate_echo_points(sigma_x_points)))
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):  # NaN fails too
        raise DephasingInputError(f"retardation must be nonnegative, got {x.min()}")
    # from the k-th point (0 first) accrual has sign[k], after a net accrual of net[k]
    sign = (-1.0) ** np.arange(len(pts))
    net = np.concatenate(([0.0], np.cumsum(sign[:-1] * np.diff(pts))))
    k = np.searchsorted(pts, x, side="right") - 1
    return (net[k] + sign[k] * (x - pts[k]))[()]


def evolve_state(kappa_a: complex, kappa_b: complex) -> np.ndarray:
    """Density matrix of the dephased two-photon state in the canonical basis.

    Starting from the maximally entangled state (|HH>+|HV>+|VH>-|VV>)/2, the
    coherences pick up kappa_a and kappa_b factors from the two arms. The
    eigenvalues depend only on the moduli of the two parameters. A modulus up to
    1 + KAPPA_TOL is clipped to 1, phase kept, as bell_eigenvalues_from_kappas clips.
    """
    ka, kb = complex(kappa_a), complex(kappa_b)
    _kappa_modulus(ka, "kappa_a")
    _kappa_modulus(kb, "kappa_b")
    ka, kb = (k / abs(k) if abs(k) > 1.0 else k for k in (ka, kb))
    kac, kbc = ka.conjugate(), kb.conjugate()
    return 0.25 * np.array(
        [
            [1.0, kbc, kac, -kac * kbc],
            [kb, 1.0, kac * kb, -kac],
            [ka, ka * kbc, 1.0, -kbc],
            [-ka * kb, -ka, -kb, 1.0],
        ],
        dtype=complex,
    )


def spectra(config: ExperimentConfig) -> tuple[MultiGaussian, MultiGaussian]:
    """The frequency densities of arms a and b as Gaussian mixtures in rad/s.

    Arm a is one row, the filter_a_fwhm_nm filter centered on lambda0,
    and arm b one row per spectrum_b component. A center or width beyond the float
    range in rad/s ends in the range check of MultiGaussian.
    """
    lam0 = config.meters()[0]

    def mixture(components) -> MultiGaussian:
        weights, centers_nm, fwhms_nm = np.array(components, dtype=float).T
        with np.errstate(all="ignore"):
            return MultiGaussian(np.column_stack((weights, angular_frequency(centers_nm * 1e-9),
                                                  sigma_from_fwhm(fwhms_nm * 1e-9, lam0))))

    return mixture(((1.0, config.lambda0_nm, config.filter_a_fwhm_nm),)), mixture(config.spectrum_b)


def sweep(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Evaluate the dephasing dynamics over the arm-b retardation grid.

    The grid runs from 0 to x_b_max in steps of `step`, converted to meters.
    The echo schedule maps it to effective retardations, where the arm-b
    spectrum gives kappa_b; a negative effective retardation carries the
    conjugate phase. kappa_a is fixed by the arm-a spectrum at x_a. Returns a
    column table of equal-length 1-d arrays ordered by x_b: "x_b" (meters) and
    "x_over_lambda0", the complex "kappa_a" and "kappa_b" and their moduli
    "kappa_a_abs" and "kappa_b_abs", the sorted eigenvalues
    "lambda1".."lambda4", and the correlations "I", "C", "Q", "REE" in bits.
    """
    lam0, x_a, x_b_max, step, echo_points = config.meters()
    spectrum_a, spectrum_b = spectra(config)
    n_points = int(math.floor(x_b_max / step + 1e-9)) + 1
    x_b = np.arange(n_points) * step
    x_eff = effective_retardation(x_b, echo_points)
    kappa_b = spectrum_b.kappa(x_eff)
    kappa_a = np.full(n_points, spectrum_a.kappa(x_a), dtype=complex)
    lam = bell_eigenvalues_from_kappas(kappa_a, kappa_b)
    table = {"x_b": x_b, "x_over_lambda0": x_b / lam0, "kappa_a": kappa_a, "kappa_b": kappa_b,
             "kappa_a_abs": np.abs(kappa_a), "kappa_b_abs": np.abs(kappa_b)}
    table.update((f"lambda{j + 1}", lam[:, j]) for j in range(4))
    table.update(zip(("I", "C", "Q", "REE"), bell_correlations(lam)))
    return table


def find_crossing(x, y, level: float, *, rising: bool | None = None,
                  start: float | None = None, which: str = "first") -> float | None:
    """Interpolated x where the series y crosses `level`.

    rising=True keeps upward crossings only, rising=False downward only,
    None keeps both. `start` discards crossings at x below it; `which`
    selects the "first" or "last" match. None when no sample pair brackets
    the level.
    """
    if which not in ("first", "last"):
        raise DephasingInputError(f"which must be 'first' or 'last', got {which!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DephasingInputError("x and y must be matching 1-d arrays")
    y0, y1 = y[:-1], y[1:]
    up = (y0 < level) & (level <= y1)
    down = (y0 > level) & (level >= y1)
    i = np.flatnonzero({True: up, False: down, None: up | down}[rising])
    xc = x[i] + (level - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
    if start is not None:
        xc = xc[~(xc < start)]  # a NaN crossing is not below any start
    if not xc.size:
        return None
    return float(xc[0] if which == "first" else xc[-1])
