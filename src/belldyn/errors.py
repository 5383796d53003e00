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


class NonConvergenceError(BelldynError):
    """Iterative refinement failed to reach the requested tolerance."""


class CrossingNotFoundError(BelldynError):
    """No sample pair brackets the requested level crossing."""


class TomographyInputError(BelldynError, ValueError):
    """Malformed tomography input: counts that are not 16 finite nonnegative values, a scale
    that is not finite and positive, counts per setting outside [1, MAX_TOMO_COUNTS], or a
    bootstrap size outside [2, MAX_TOMO_RESAMPLES]."""


class DephasingInputError(BelldynError, ValueError):
    """Malformed dephasing-model input: a Gaussian amplitude, center or width that is not finite
    and positive, mixture amplitudes that do not sum to 1, bad `find_crossing` arguments, or a
    negative retardation."""


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
