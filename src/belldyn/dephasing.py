"""Photon-frequency spectra, decoherence parameters, and retardation sweeps.

A birefringent element of retardation x (optical path-length difference, in
meters) multiplies the polarization coherences of a photon by the decoherence
parameter kappa(x) = integral f(omega) exp(i x omega / c) domega over its
frequency density f. Every density is a Gaussian mixture, `MultiGaussian`:
the continuous filter of arm a is one component and the discrete
multi-peaked spectrum of arm b several, and kappa is the weighted sum of the
components' closed form `kappa_gaussian`. A polarization exchange (sigma_x)
inserted at some retardation flips the sign of subsequent phase accrual, so
later retardation unwinds earlier dephasing and produces correlation echoes.

Every decoherence parameter and the echo schedule accept an array of
retardations, so a sweep is one column computation over the whole x grid: the
two parameters give the Bell-diagonal eigenvalues and the correlation
measures in closed form. The 4x4 density matrix of `evolve_state` is not on
that path; it serves tomography and the cross-check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correlations import _kappa_modulus, bell_correlations, bell_eigenvalues_from_kappas
from .errors import (
    ConfigError,
    CrossingNotFoundError,
    DephasingInputError,
    ScheduleError,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: default reporting wavelength, 0.78 um
LAMBDA0 = 0.78e-6

#: largest sweep grid; the presets use 401 points, and a grid beyond this is
#: taken for a mistyped step or range rather than allocated
MAX_SWEEP_POINTS = 100_000


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


@dataclass(frozen=True)
class GaussianComponent:
    """One Gaussian piece of a frequency density: weight, center and width in rad/s."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        for name in ("amplitude", "center", "width"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails too
                raise DephasingInputError(f"{name} must be finite and positive, got {value}")


def kappa_gaussian(x, sigma: float, omega0: float):
    """Decoherence parameter of a single Gaussian density.

    exp[-(x/c)^2 sigma^2 / 16 + i (x/c) omega0]; the modulus is monotone
    non-increasing in the retardation x. x may be a scalar or an array. Where
    the exponent overflows the value is its exact limit 0, whatever the phase;
    where only the phase overflows, DephasingInputError names the range.
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


@dataclass(frozen=True)
class MultiGaussian:
    """Frequency density as a sum of Gaussian components whose amplitudes sum to 1."""

    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        total = sum(c.amplitude for c in comps)
        if abs(total - 1.0) > 1e-9:
            raise DephasingInputError(f"component amplitudes sum to {total}, not 1")

    def kappa(self, x):
        return sum(c.amplitude * kappa_gaussian(x, c.width, c.center) for c in self.components)


def validate_echo_points(points) -> tuple[float, ...]:
    """The exchange schedule as floats; ScheduleError unless finite, nonnegative and increasing."""
    pts = tuple(float(p) for p in points)
    if any(not 0.0 <= p < math.inf for p in pts) or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ScheduleError(f"echo points must be finite, nonnegative and strictly increasing: {pts}")
    return pts


def effective_retardation(x, sigma_x_points):
    """Net signed phase-accrual length after the polarization-exchange schedule.

    Accrual starts at +1 per unit retardation from zero; every exchange point
    at or below x flips the sign of subsequent accrual. With one exchange at
    x_s the result is x below x_s and 2 x_s - x beyond it. x may be a scalar
    or an array.
    """
    pts = validate_echo_points(sigma_x_points)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DephasingInputError(f"retardation must be nonnegative, got {x.min()}")
    net = np.zeros_like(x)
    prev = np.zeros_like(x)
    sign = np.ones_like(x)
    for p in pts:
        hit = p <= x
        net = np.where(hit, net + sign * (p - prev), net)
        prev = np.where(hit, p, prev)
        sign = np.where(hit, -sign, sign)
    return (net + sign * (x - prev))[()]


def evolve_state(kappa_a: complex, kappa_b: complex) -> np.ndarray:
    """Density matrix of the dephased two-photon state in the canonical basis.

    Starting from the maximally entangled state (|HH>+|HV>+|VH>-|VV>)/2, the
    coherences pick up kappa_a and kappa_b factors from the two arms. The
    eigenvalues depend only on the moduli of the two parameters.
    """
    ka, kb = complex(kappa_a), complex(kappa_b)
    _kappa_modulus(ka, "kappa_a")
    _kappa_modulus(kb, "kappa_b")
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


@dataclass(frozen=True)
class SweepConfig:
    """Retardation sweep: fixed arm-a retardation, arm-b spectrum swept to x_b_max.

    All lengths in meters. echo_points lists the arm-b retardations at which a
    polarization exchange is applied, strictly increasing. Raises ConfigError
    for a non-finite or negative length, a step that is not positive, or a
    grid of more than MAX_SWEEP_POINTS points.
    """

    x_a: float
    spectrum_a: object
    spectrum_b: object
    x_b_max: float
    step: float
    echo_points: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("x_a", "x_b_max"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
        if not 0.0 < self.step < math.inf:
            raise ConfigError(f"step must be finite and positive, got {self.step}")
        # the grid has floor(x_b_max / step + 1e-9) + 1 points
        if not self.x_b_max / self.step + 1e-9 < MAX_SWEEP_POINTS:
            raise ConfigError(
                f"x_b_max / step = {self.x_b_max / self.step:.6g} gives more than "
                f"{MAX_SWEEP_POINTS} sweep points"
            )
        object.__setattr__(self, "echo_points", tuple(float(p) for p in self.echo_points))


def sweep(config: SweepConfig) -> dict[str, np.ndarray]:
    """Evaluate the dephasing dynamics over the arm-b retardation grid.

    The grid runs from 0 to x_b_max in steps of `step`. The echo schedule
    maps it to effective retardations, where the arm-b spectrum gives
    kappa_b; a negative effective retardation carries the conjugate phase.
    kappa_a is fixed by the arm-a spectrum at x_a. Returns a column table of
    equal-length 1-d arrays ordered by x_b: "x_b" (meters), the complex
    "kappa_a" and "kappa_b", the sorted eigenvalues "lambda1".."lambda4", and
    the correlations "I", "C", "Q", "REE" in bits.
    """
    n_points = int(math.floor(config.x_b_max / config.step + 1e-9)) + 1
    x_b = np.arange(n_points) * config.step
    x_eff = effective_retardation(x_b, config.echo_points)
    kappa_b = config.spectrum_b.kappa(np.abs(x_eff))
    kappa_b = np.where(x_eff < 0.0, np.conj(kappa_b), kappa_b)
    kappa_a = np.full(n_points, config.spectrum_a.kappa(config.x_a), dtype=complex)
    lam = bell_eigenvalues_from_kappas(kappa_a, kappa_b)
    table = {"x_b": x_b, "kappa_a": kappa_a, "kappa_b": kappa_b}
    table.update((f"lambda{j + 1}", lam[:, j]) for j in range(4))
    table.update(zip(("I", "C", "Q", "REE"), bell_correlations(lam)))
    return table


def find_crossing(x, y, level: float, *, rising: bool | None = None,
                  start: float | None = None, which: str = "first") -> float:
    """Interpolated x where the series y crosses `level`.

    rising=True keeps upward crossings only, rising=False downward only,
    None keeps both. `start` discards crossings at x below it; `which`
    selects the "first" or "last" match. Raises CrossingNotFoundError when
    no sample pair brackets the level.
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
        raise CrossingNotFoundError(f"series never crosses {level}")
    return float(xc[0] if which == "first" else xc[-1])
