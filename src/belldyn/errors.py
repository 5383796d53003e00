"""Exception types shared across the package, each raised somewhere in it: `cli.main` exits 1 on
a ConfigError and 2 on any other. The dephasing model trusts its checked `ExperimentConfig`."""


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
    setting outside [1, MAX_TOMO_COUNTS], a seed word that is not an integer >= 0, or two kappas
    that broadcast to no pair."""


class ConfigError(BelldynError):
    """Malformed experiment config or command line: an unknown or missing key or section, a
    value out of range, an exchange schedule that is not finite, nonnegative and strictly
    increasing, a spectrum that leaves the float range in rad/s or whose phase overflows on
    the sweep grid, or a bad `belldyn` argument."""


class ParseError(ConfigError):
    """Malformed input text: a config line, a sweep.csv row, or bytes that are not UTF-8."""
