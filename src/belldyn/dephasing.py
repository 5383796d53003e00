"""Photon-frequency spectra, decoherence parameters, and retardation sweeps.

A birefringent element of retardation x (optical path-length difference, in
meters) multiplies the polarization coherences of a photon by the decoherence
parameter kappa(x) = integral f(omega) exp(i x omega / c) domega over its
frequency density f. Every density is a Gaussian mixture, `MultiGaussian`, a
table of (amplitude, center, width) rows in rad/s: arm a's continuous filter
is one row and arm b's discrete multi-peaked spectrum several, and kappa is the
weighted sum of the rows' closed forms, in one broadcast. A polarization exchange
(sigma_x) inserted at some retardation flips the sign of subsequent phase
accrual, so later retardation unwinds earlier dephasing and produces
correlation echoes; a negative net retardation gives the conjugate kappa.

An `ExperimentConfig` (see `belldyn.config`) gives one experiment as the paper
does, lengths in units of the central wavelength lambda0 and spectra in nm;
`spectra` and `sweep` convert it to rad/s and meters and trust its checks, but for
two of values it does not compute: ConfigError for a spectrum beyond the float
range in rad/s (`spectra`) and for a phase that overflows on the grid
(`MultiGaussian.kappa`). Every decoherence parameter and the echo schedule accept
an array of retardations, so a sweep is one column computation over the whole x
grid: the two moduli give the Bell-diagonal eigenvalues, and C and Q are `_bits`
of the larger and the smaller one. The 4x4 density matrix of `evolve_state` is on
no run path: tests cross-check the closed forms and the tomography counts with it.

`landmarks_from_series` reads the paper's observables off that table, or off its
columns read back from a sweep.csv: the sudden transition, entanglement death and
revival, the quantum-correlation dip, revival peak and start, and the echo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import _grid_points
from .correlations import _bits, _checked_kappa, bell_eigenvalues_from_kappas
from .errors import ConfigError, InvalidStateError

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


@dataclass(frozen=True, eq=False)
class MultiGaussian:
    """Gaussian-mixture frequency density: a read-only (k, 3) float array of (amplitude, center,
    width) rows in rad/s from `spectra`'s checked config. kappa(-x) = conj(kappa(x))."""

    components: np.ndarray

    def kappa(self, x):
        """Sum over rows of amplitude * exp[-(x/c)^2 width^2 / 16 + i (x/c) center] at
        retardations x (m). A row whose exponent overflows adds its exact limit 0; where
        only a phase overflows, ConfigError names the retardation of the config's grid."""
        x = np.asarray(x, dtype=float)
        weight, center, width = self.components.T
        u = x[..., None] / SPEED_OF_LIGHT
        with np.errstate(over="ignore", invalid="ignore"):
            exponent = -(u * width) ** 2 / 16.0
            phase = u * center
            terms = np.exp(exponent + 1j * phase)
        undefined = ((exponent > -math.inf) & ~np.isfinite(phase)).any(axis=-1)
        if undefined.any():
            limit = SPEED_OF_LIGHT * (np.finfo(float).max / center.max())
            raise ConfigError(f"retardation {abs(x[undefined][0]):.6g} m is out of range: "
                              f"the phase (x/c)*omega0 overflows beyond {limit:.6g} m")
        return (weight * np.where(exponent == -math.inf, 0j, terms)).sum(axis=-1)[()]


def effective_retardation(x, sigma_x_points):
    """Net signed phase-accrual length after the polarization-exchange schedule.

    Accrual starts at +1 per unit retardation from zero; every exchange point at or
    below x flips the sign of subsequent accrual. With one exchange at x_s the result
    is x below x_s and 2 x_s - x beyond it. x (scalar or array) >= 0 and points that
    pass `config.validate_echo_points`, as `sweep`'s do, are assumed, not checked.
    """
    pts = np.array((0.0, *sigma_x_points))
    x = np.asarray(x, dtype=float)
    # from the k-th point (0 first) accrual has sign[k], after a net accrual of net[k]
    sign = (-1.0) ** np.arange(len(pts))
    net = np.concatenate(([0.0], np.cumsum(sign[:-1] * np.diff(pts))))
    k = np.searchsorted(pts, x, side="right") - 1
    return (net[k] + sign[k] * (x - pts[k]))[()]


def evolve_state(kappa_a: complex, kappa_b: complex) -> np.ndarray:
    """Density matrix of the dephased two-photon state in the canonical basis.

    Starting from the maximally entangled state (|HH>+|HV>+|VH>-|VV>)/2, the
    coherences pick up kappa_a and kappa_b factors from the two arms. The
    eigenvalues depend only on the moduli of the two parameters. Each kappa is
    one number, checked and clipped by `correlations._checked_kappa`, as on
    every route; InvalidStateError naming it otherwise.
    """
    ka, kb = _checked_kappa(kappa_a, "kappa_a")[0], _checked_kappa(kappa_b, "kappa_b")[0]
    for name, k in (("kappa_a", ka), ("kappa_b", kb)):
        if k.ndim:  # complex() takes only a 0-d array
            raise InvalidStateError(f"{name} must be one number, got shape {k.shape}")
    ka, kb = complex(ka), complex(kb)
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

    Arm a is one row, the filter_a_fwhm_nm filter centered on lambda0, and arm b
    one row per spectrum_b component; every width is 2 pi c FWHM / lambda0^2. The
    nm values of a checked config can still leave the float range in rad/s: a
    center or width that comes out 0, infinite or NaN raises ConfigError naming
    its config key, lambda0 for arm a's center and for a width that 1 nm of FWHM
    already takes out of range, filter_a for arm a's width, and the spectrum_b
    component otherwise.
    """
    lam0 = config.meters()[0]
    components = ((1.0, config.lambda0_nm, config.filter_a_fwhm_nm), *config.spectrum_b)
    weights, centers_nm, fwhms_nm = np.array(components, dtype=float).T
    with np.errstate(all="ignore"):
        rows = np.column_stack((weights, angular_frequency(centers_nm * 1e-9),
                                sigma_from_fwhm(fwhms_nm * 1e-9, lam0)))
        bad = np.flatnonzero(~((rows[:, 1:] > 0.0) & (rows[:, 1:] < math.inf)))  # NaN fails too
        per_nm_in_range = 0.0 < sigma_from_fwhm(1e-9, lam0) < math.inf
    if bad.size:
        row, column = divmod(int(bad[0]), 2)
        if column and not per_nm_in_range:
            key = "lambda0"
        elif row == 0:
            key = ("lambda0", "filter_a")[column]
        else:
            key = f"spectrum_b component {row}"
        raise ConfigError(f"{key} gives a {('center', 'width')[column]} of "
                          f"{rows[row, 1 + column]:g} rad/s, outside the float range")
    rows.flags.writeable = False
    return MultiGaussian(rows[:1]), MultiGaussian(rows[1:])


def sweep(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Evaluate the dephasing dynamics over the arm-b retardation grid.

    The grid runs from 0 to x_b_max in steps of `step`, converted to meters.
    The echo schedule maps it to effective retardations, where the arm-b
    spectrum gives kappa_b; a negative effective retardation carries the
    conjugate phase. kappa_a is fixed by the arm-a spectrum at x_a. Returns a
    column table of equal-length 1-d arrays ordered by x_b: "x_b" (meters) and
    "x_over_lambda0", the complex "kappa_a" and "kappa_b" and their moduli
    "kappa_a_abs" and "kappa_b_abs", the sorted eigenvalues "lambda1".."lambda4", and
    "I", "C", "Q" (from the two moduli) and "REE" (from lambda1) in bits.
    """
    lam0, x_a, x_b_max, step, echo_points = config.meters()
    spectrum_a, spectrum_b = spectra(config)
    n_points = _grid_points(x_b_max, step)
    x_b = np.arange(n_points) * step
    x_eff = effective_retardation(x_b, echo_points)
    kappa_b = spectrum_b.kappa(x_eff)
    kappa_a = np.full(n_points, spectrum_a.kappa(x_a), dtype=complex)
    lam = bell_eigenvalues_from_kappas(kappa_a, kappa_b)
    ka, kb = np.abs(kappa_a), np.abs(kappa_b)
    table = {"x_b": x_b, "x_over_lambda0": x_b / lam0, "kappa_a": kappa_a, "kappa_b": kappa_b,
             "kappa_a_abs": ka, "kappa_b_abs": kb}
    table.update((f"lambda{j + 1}", lam[:, j]) for j in range(4))
    classical, quantum = _bits(np.maximum(ka, kb)), _bits(np.minimum(ka, kb))
    table.update(I=classical + quantum, C=classical, Q=quantum, REE=_bits(2.0 * lam[:, 0] - 1.0))
    return table


#: threshold used for the quantum-correlation revival-start landmark
Q_REVIVAL_THRESHOLD = 0.005

#: Q values within this of the maximum count as one plateau; the revival peak
#: is the first plateau point, so roundoff cannot move it along the plateau
PLATEAU_TOL = 1e-9


def _crossing(x, y, level, rising, start=-math.inf, last=False):
    """Interpolated x where the column y crosses `level` upward (rising) or downward: the first
    crossing at or beyond `start`, or the last; None when no sample pair brackets the level."""
    y0, y1 = y[:-1], y[1:]
    i = np.flatnonzero((y0 < level) & (level <= y1) if rising else (y0 > level) & (level >= y1))
    xc = x[i] + (level - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
    xc = xc[~(xc < start)]  # a NaN crossing is not below any start
    return float(xc[-1 if last else 0]) if xc.size else None


def _first_local_min(x: np.ndarray, y: np.ndarray, start: float) -> int | None:
    """Index of the first interior point beyond `start` that no neighbour undercuts."""
    inner = y[1:-1]
    hits = np.flatnonzero(~(x[1:-1] <= start) & (inner <= y[:-2]) & (inner <= y[2:]))
    return int(hits[0]) + 1 if hits.size else None


def landmarks_from_series(series: dict[str, np.ndarray]) -> dict[str, float]:
    """Crossings and extrema of a sweep series, every value derived from the columns.

    Emitted when present: the sudden classical-to-quantum transition (|kappa_b|
    falls through |kappa_a|), the reverse revival transition, entanglement
    death and revival (largest eigenvalue through 1/2), the quantum-correlation
    dip and revival peak after the transition, the revival start (last rise of
    Q through the 0.005 threshold before the peak), and the echo point where
    |kappa_b| returns to 1.
    """
    x = series["x_over_lambda0"]
    ka = series["kappa_a_abs"]
    kb = series["kappa_b_abs"]
    lam1 = series["lambda1"]
    q = series["Q"]
    level = float(ka[0])
    out: dict[str, float] = {"kappa_a_abs": level}

    def crossing(key, xs, ys, level, **options):
        value = _crossing(xs, ys, level, **options)
        if value is not None:
            out[key] = value

    crossing("sudden_transition_x", x, kb, level, rising=False)
    if "sudden_transition_x" in out:
        crossing("revival_transition_x", x, kb, level, rising=True,
                 start=out["sudden_transition_x"])
    crossing("ree_death_x", x, lam1, 0.5, rising=False)
    if "ree_death_x" in out:
        crossing("ree_revival_x", x, lam1, 0.5, rising=True, start=out["ree_death_x"])
    if "sudden_transition_x" in out:
        dip = _first_local_min(x, q, out["sudden_transition_x"])
        if dip is not None:
            out["q_dip_x"] = float(x[dip])
            out["q_dip"] = float(q[dip])
            after = q[dip:]
            peak = dip + int(np.argmax(after >= after.max() - PLATEAU_TOL))
            out["q_revival_peak_x"] = float(x[peak])
            out["q_revival_peak"] = float(q[peak])
            crossing("q_revival_start_x", x[: peak + 1], q[: peak + 1], Q_REVIVAL_THRESHOLD,
                     rising=True, start=out["sudden_transition_x"], last=True)
    echo_hits = np.where((x > 0.0) & (kb >= 1.0 - 1e-9))[0]
    if echo_hits.size:
        out["echo_x"] = float(x[echo_hits[0]])
    return out
