"""Exception types shared across the package."""


class BelldynError(Exception):
    """Base class for all belldyn errors."""


class InvalidStateError(BelldynError):
    """Density matrix violates hermiticity, trace, or positivity tolerances."""


class NonHermitianError(InvalidStateError):
    """Matrix is not Hermitian within tolerance."""


class InvalidSpectrumError(InvalidStateError):
    """Bell-diagonal spectrum is not a sorted probability vector."""


class InvalidKappaError(BelldynError):
    """Decoherence parameter magnitude exceeds 1."""


class NormalizationError(BelldynError):
    """Spectral weights or densities do not sum/integrate to 1."""


class UnderResolvedGridError(BelldynError):
    """Sampled spectrum is too coarse to resolve the oscillatory phase."""


class NonConvergenceError(BelldynError):
    """Iterative refinement failed to reach the requested tolerance."""


class CrossingNotFoundError(BelldynError):
    """No sample pair brackets the requested level crossing."""


class SingularSystemError(BelldynError):
    """Measurement settings are not informationally complete."""


class EmptyRecordError(BelldynError):
    """Tomography record contains no settings."""


class TomographyInputError(BelldynError, ValueError):
    """Malformed tomography input: counts that do not match the settings, a negative count,
    a nonpositive scale, coinciding settings, or fewer than 2 bootstrap resamples."""


class DephasingInputError(BelldynError, ValueError):
    """Malformed dephasing-model input: a nonpositive Gaussian amplitude or width, a sampled
    density that is not a nonnegative function on a strictly increasing grid, bad
    `find_crossing` arguments, or a negative retardation."""


class OracleInputError(BelldynError, ValueError):
    """An oracle was given a valid state that is not a two-qubit state."""


class CountsRangeError(BelldynError):
    """Counts per tomography setting lie outside [1, MAX_TOMO_COUNTS]."""


class ConfigError(BelldynError):
    """Base class for experiment-config problems."""


class ScheduleError(ConfigError):
    """Polarization-exchange points are not finite, nonnegative and strictly increasing."""


class ParseError(ConfigError):
    """Malformed input text: a config line, a sweep.csv row, or bytes that are not UTF-8."""


class UnknownKeyError(ConfigError):
    """Config key is not recognized."""


class MissingKeyError(ConfigError):
    """Required config key is absent."""
