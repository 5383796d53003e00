"""The input boundary: every experiment input is checked here, once, where it enters.

`ExperimentConfig` gives one experiment as the paper does, lengths in units of
lambda0 and spectra in nm, with an optional `TomographySettings` block; a
malformed value raises ConfigError. `PRESETS` holds the built-in experiments.

Config text (`parse_config_lines`) is one `key = value` per line with `#`
comments: x_a, filter_a (nm), x_b_max and step, and optionally name, lambda0
(nm), echo_points (comma-separated), and tomo_counts with tomo_resamples and
tomo_seed; then a `[spectrum_b]` section of `component = weight, center_nm,
fwhm_nm` lines, one per Gaussian. A key left out takes the dataclass default.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ConfigError, ParseError

#: largest sweep grid; the presets use 401 points, and a grid beyond this is
#: taken for a mistyped step or range rather than allocated
MAX_SWEEP_POINTS = 100_000
#: largest counts per tomography setting: every count stays an exact integer in
#: a float (below 2**53), far below numpy's Poisson limit of about 9.2e18
MAX_TOMO_COUNTS = 10**15
#: largest number of bootstrap resamples: every resample is a row of the count
#: draw and of the batched solve, so an unbounded size exhausts memory
MAX_TOMO_RESAMPLES = 10**4

#: the config keys of TomographySettings' three values, in field order
TOMO_KEYS = ("tomo_counts", "tomo_resamples", "tomo_seed")


def _holds(test, value) -> bool:
    """Whether value is one number that passes test; False for an array or a non-number.

    A comparison or `value % 1` raises TypeError for a non-number and ValueError
    for an array, float arithmetic raises OverflowError for an int beyond the
    float range, and NaN fails every comparison.
    """
    try:
        return np.ndim(value) == 0 and bool(test(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _real_array(values) -> np.ndarray | None:
    """A float copy of values if they are real numbers (bool, int or float), else None; a float
    dtype alone would read the string "3" as 3 and raise ValueError for a ragged table."""
    try:
        array = np.asarray(values)
    except ValueError:
        return None
    return array.astype(float) if array.dtype.kind in "biuf" else None


def _integer_in(value, low, high) -> bool:
    """Whether value is one integer in [low, high]; 2.0 counts as 2.

    value % 1 is NaN for NaN and inf, and exact for an int too large for a float.
    """
    return _holds(lambda v: v % 1 == 0 and low <= v <= high, value)


def validate_echo_points(points) -> tuple[float, ...]:
    """The exchange schedule as floats; ConfigError unless a sequence of finite,
    nonnegative and strictly increasing numbers."""
    pts = tuple(points) if np.iterable(points) else points
    numbers = isinstance(pts, tuple) and all(_holds(lambda p: 0.0 <= p * 1.0 < math.inf, p) for p in pts)
    if not numbers or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ConfigError(f"echo points must be finite, nonnegative and strictly increasing: {pts}")
    return tuple(float(p) for p in pts)


@dataclass(frozen=True)
class TomographySettings:
    """Tomography of every sweep row: counts per setting (1 to MAX_TOMO_COUNTS), resamples
    (2 to MAX_TOMO_RESAMPLES) and seed (>= 0), all integers; ConfigError otherwise."""

    n_per_setting: int
    resamples: int = 100
    seed: int = 0
    #: the names of the three values in error messages: config keys, or the flags that set them
    keys: InitVar[tuple[str, str, str]] = TOMO_KEYS

    def __post_init__(self, keys):
        for name, key, low, high in zip(("n_per_setting", "resamples", "seed"), keys,
                                        (1, 2, 0), (MAX_TOMO_COUNTS, MAX_TOMO_RESAMPLES, math.inf)):
            value = getattr(self, name)
            if not _integer_in(value, low, high):
                raise ConfigError(f"{key} must be an integer in [{low}, {high:g}], got {value!r}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep experiment: lengths in units of lambda0, spectra in nm.

    Arm a carries a single Gaussian filter of filter_a_fwhm_nm centered on
    lambda0 at the fixed retardation x_a. spectrum_b is a tuple of
    (weight, center_nm, fwhm_nm) Gaussian components for the arm-b frequency
    density, swept from 0 to x_b_max in steps of `step`; a step beyond x_b_max
    gives the one point 0. echo_points lists the arm-b retardations at which a
    polarization exchange is applied, strictly increasing. Raises ConfigError
    for a value that is not one number in range, a length that leaves the
    float range in meters, or a grid of more than MAX_SWEEP_POINTS points.
    """

    name: str
    x_a: float
    filter_a_fwhm_nm: float
    spectrum_b: tuple[tuple[float, float, float], ...]
    x_b_max: float
    step: float
    echo_points: tuple[float, ...] = ()
    lambda0_nm: float = 780.0
    tomography: TomographySettings | None = None

    def __post_init__(self):
        # every check is written so that NaN, an array and a non-number fail it: v * 1.0
        # raises TypeError for "1" and OverflowError for an int beyond the float range
        rules = {"nonnegative": lambda v: 0.0 <= v * 1.0 < math.inf,
                 "positive": lambda v: 0.0 < v * 1.0 < math.inf}
        lengths = (("x_a", "nonnegative"), ("x_b_max", "nonnegative"), ("step", "positive"))
        for name, rule in lengths + (("filter_a_fwhm_nm", "positive"), ("lambda0_nm", "positive")):
            value = getattr(self, name)
            if not _holds(rules[rule], value):
                raise ConfigError(f"{name} must be finite and {rule}, got {value!r}")
        pts = validate_echo_points(self.echo_points)
        try:
            comps = tuple(map(tuple, self.spectrum_b))
        except TypeError:
            comps = ((),)  # not a sequence of sequences: no valid component
        if not comps:
            raise ConfigError("spectrum_b needs at least one component")
        if not all(len(c) == 3 and all(_holds(rules["positive"], v) for v in c) for c in comps):
            raise ConfigError("spectrum_b components need finite positive weight, center, and width")
        comps = tuple(tuple(map(float, c)) for c in comps)
        total = sum(w for w, _, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"spectrum_b weights sum to {total}, not 1")
        object.__setattr__(self, "echo_points", pts)
        object.__setattr__(self, "spectrum_b", comps)
        # the lengths in meters that `sweep` uses can overflow, and step can underflow
        _, x_a, x_b_max, step, _ = self.meters()
        for (name, rule), meters in zip(lengths, (x_a, x_b_max, step)):
            if not rules[rule](meters):
                raise ConfigError(f"{name} * lambda0 must be finite and {rule}, got {meters:g} m")
        with np.errstate(over="ignore"):
            ratio = x_b_max / step
        if not ratio + 1e-9 < MAX_SWEEP_POINTS:  # the grid has floor(ratio + 1e-9) + 1 points
            raise ConfigError(f"x_b_max / step = {ratio:.6g} gives more than {MAX_SWEEP_POINTS} "
                              "sweep points")

    def meters(self):
        """lambda0, x_a, x_b_max, step and the echo points in meters.

        They are float64 products, in which a value beyond the float range
        overflows to inf or underflows to 0 silently.
        """
        with np.errstate(all="ignore"):
            lam0 = np.float64(self.lambda0_nm) * 1e-9
            return (lam0, self.x_a * lam0, self.x_b_max * lam0, self.step * lam0,
                    tuple(p * lam0 for p in self.echo_points))


_FP_COMPONENTS = ((0.37, 778.853, 0.85), (0.44, 780.160, 0.85), (0.19, 781.459, 0.85))

#: the built-in experiments by name, built and checked once: fig2a, fig2b with
#: 0.2 nm arm-b components, and fig3a and fig3b with one exchange at 200 and 400
PRESETS = {
    name: ExperimentConfig(name=name, x_a=117.0, filter_a_fwhm_nm=3.0, spectrum_b=spectrum_b,
                           x_b_max=800.0, step=2.0, echo_points=echo_points)
    for name, spectrum_b, echo_points in (
        ("fig2a", _FP_COMPONENTS, ()),
        ("fig2b", tuple((w, c, 0.2) for w, c, _ in _FP_COMPONENTS), ()),
        ("fig3a", _FP_COMPONENTS, (200.0,)),
        ("fig3b", _FP_COMPONENTS, (400.0,)),
    )
}

#: config key -> the ExperimentConfig or TomographySettings field it sets, in parse order
_FIELDS = {"name": "name", "echo_points": "echo_points",
           **dict(zip(TOMO_KEYS, ("n_per_setting", "resamples", "seed"))), "x_a": "x_a",
           "filter_a": "filter_a_fwhm_nm", "x_b_max": "x_b_max", "step": "step", "lambda0": "lambda0_nm"}


def _parse_float(raw: str, lineno: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"line {lineno}: value for {key} is not a number: {raw!r}") from None


def _parse_value(key: str, lineno: int, raw: str):
    """The value of one config key: the name as written, the echo points as floats, else a number."""
    if key == "name":
        return raw
    if key == "echo_points":
        return tuple(_parse_float(p.strip(), lineno, key) for p in raw.split(",") if p.strip())
    if key in TOMO_KEYS:
        try:
            return int(raw)  # exact: a float rounds a seed above 2**53
        except ValueError:
            pass  # 1e3 and 7.0 are integers too; TomographySettings checks the float
    return _parse_float(raw, lineno, key)


def parse_config_lines(lines, name_hint: str = "custom") -> ExperimentConfig:
    """Parse config text (iterable of lines) into an ExperimentConfig."""
    values: dict[str, tuple[int, str]] = {}  # key -> (line number, raw value)
    components: list[tuple[float, float, float]] = []
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section != "spectrum_b":
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if section == "spectrum_b":
            if key != "component":
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [spectrum_b]")
            parts = [p.strip() for p in raw_value.split(",")]
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: component needs 'weight, center_nm, fwhm_nm'")
            components.append(tuple(_parse_float(p, lineno, "component") for p in parts))
            continue
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = (lineno, raw_value)

    for key in ("x_a", "filter_a", "x_b_max", "step"):
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    if not components:
        raise ConfigError("missing [spectrum_b] section with at least one component")
    if TOMO_KEYS[0] not in values and not values.keys().isdisjoint(TOMO_KEYS):
        raise ConfigError("tomo_resamples/tomo_seed need tomo_counts")

    fields = {_FIELDS[key]: _parse_value(key, *values[key]) for key in _FIELDS if key in values}
    tomo = {_FIELDS[key]: fields.pop(_FIELDS[key]) for key in TOMO_KEYS if key in values}
    return ExperimentConfig(**{"name": name_hint, **fields}, spectrum_b=tuple(components),
                            tomography=TomographySettings(**tomo) if tomo else None)
