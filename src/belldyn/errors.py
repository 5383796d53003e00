"""Exception types shared across the package."""


class BelldynError(Exception):
    """Base class for all belldyn errors."""


class InvalidStateError(BelldynError):
    """A state that is not physical: a density matrix that is not square or 4x4, not finite, not
    Hermitian, off unit trace or below the eigenvalue floor; a Bell spectrum that is not a sorted
    probability 4-vector; or a decoherence parameter |kappa| above 1, which gives a negative
    eigenvalue."""


class NonConvergenceError(BelldynError):
    """Iterative refinement failed to reach the requested tolerance."""


class TomographyInputError(BelldynError, ValueError):
    """Malformed tomography input: counts that are not 16 finite nonnegative values, counts per
    setting outside [1, MAX_TOMO_COUNTS], a bootstrap size outside [2, MAX_TOMO_RESAMPLES], or a
    seed word that is not an integer >= 0."""


class DephasingInputError(BelldynError, ValueError):
    """Malformed dephasing-model input: a Gaussian amplitude, center or width that is not finite
    and positive, mixture amplitudes that do not sum to 1, bad `find_crossing` arguments, or a
    negative retardation."""


class ConfigError(BelldynError):
    """Malformed experiment config or command line: an unknown or missing key or section, a
    value out of range, an exchange schedule that is not finite, nonnegative and strictly
    increasing, or a bad `belldyn` argument."""


class ParseError(ConfigError):
    """Malformed input text: a config line, a sweep.csv row, or bytes that are not UTF-8."""
