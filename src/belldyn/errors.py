"""Exception types shared across the package, each raised somewhere in it: `cli.main` exits 1 on a
ConfigError and 2 on any other. The dephasing model trusts its checked `ExperimentConfig` but for two
checks of values the config does not compute, which raise ConfigError: `dephasing.spectra`'s of the
rad/s float range and `MultiGaussian.kappa`'s of a phase that overflows on the sweep grid."""


class BelldynError(Exception):
    """Base class for all belldyn errors."""


class InvalidStateError(BelldynError):
    """A state that is not physical: a density matrix that is not square or 4x4, not finite, not Hermitian,
    off unit trace or below the eigenvalue floor; a Bell spectrum that is not a sorted probability 4-vector;
    a decoherence parameter |kappa| above 1, which gives a negative eigenvalue; or a state, spectrum,
    probability vector or kappa that is not numbers by the one rule of `config._numbers` (never text,
    bytes, a ragged table, an int beyond the float range, or a complex value where a real one is due)."""


class NonConvergenceError(BelldynError):
    """Iterative refinement failed to reach the requested tolerance."""


class TomographyInputError(BelldynError, ValueError):
    """Malformed tomography input: counts that are not 16 finite nonnegative real numbers by the rule of
    `config._numbers` (never text, bytes, a ragged table, an int beyond the float range or a complex value),
    counts per setting outside [1, MAX_TOMO_COUNTS], a seed word that is not an integer >= 0 (a str or
    bytes seed is one word), or two kappas that broadcast to no pair."""


class ConfigError(BelldynError):
    """Malformed experiment config or command line: an unknown or missing key or section, a value
    that is not numbers (`config._numbers`) or out of range, a schedule that is not finite,
    nonnegative and strictly increasing, a spectrum that leaves the float range in rad/s or whose
    phase overflows on the sweep grid, or a bad `belldyn` argument."""


class ParseError(ConfigError):
    """Malformed input text: a config line, a sweep.csv row, or bytes that are not UTF-8."""
