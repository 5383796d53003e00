"""Simulated two-photon state tomography with Poisson counting noise.

The forward model draws independent Poisson coincidence counts for 16 product
projectors, from a state (`simulate_counts`) or from the two kappas
(`simulate_dephased`, which `run` and `tomo-demo` share). Reconstruction has one
estimator, the maximum of the extended (free-trace) Poisson likelihood over
positive semidefinite states, normalized to trace 1 (see `reconstruct`): a
physical linear inversion is that maximum in closed form, and an unphysical one
goes to a log-det barrier Newton solve, whose steps back off only to keep the
state positive definite. Statistical errors come from a parametric bootstrap
that resamples the observed counts. `_bootstrap` solves the point estimates and
resamples of many rows of counts in blocks of bounded size; each row's
arithmetic is independent of the batch, so it gives the same bits as one row at
a time, and its quantities come from the spectrum the estimator computed.

The 16 settings are the products of {H, V, D, L} per side, with
D = (H+V)/sqrt2 and L = (H+iV)/sqrt2, in the fixed order of STANDARD_LABELS so
that a fixed seed reproduces outputs bit for bit; a record is 16 counts in that
order. A seed of `simulate_counts` is an integer >= 0 or a sequence of them, and
a malformed size, seed or count raises TomographyInputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .config import MAX_TOMO_COUNTS, _holds, _integer_in, _real_array
from .correlations import _checked_pair, unchecked_bell_correlations
from .errors import NonConvergenceError, TomographyInputError
from .qstate import _eigvalsh, validate_state

_KET = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}

STANDARD_LABELS = (
    "HH", "HV", "VH", "VV",
    "HD", "HL", "DH", "DV",
    "DD", "DL", "LH", "LD",
    "LL", "LV", "VL", "VD",
)


def _product_projector(label: str) -> np.ndarray:
    ket = np.kron(_KET[label[0]], _KET[label[1]])
    return np.outer(ket, ket.conj())


#: the canonical informationally complete set of 16 product projectors, one per
#: STANDARD_LABELS entry in that order, built once at import; read-only
STANDARD_PROJECTORS = np.stack([_product_projector(label) for label in STANDARD_LABELS])
STANDARD_PROJECTORS.flags.writeable = False


def _seed_words(seed) -> list[int]:
    """The words of an int or int-sequence seed; TomographyInputError unless each is an integer >= 0."""
    words = list(seed) if np.iterable(seed) else [seed]
    if not all(_integer_in(word, 0, math.inf) for word in words):
        raise TomographyInputError(f"seed words must be integers >= 0, got {seed!r}")
    return [int(w) for w in words]


@dataclass(frozen=True, eq=False)
class TomographyRecord:
    """Counts of the 16 STANDARD_LABELS settings, in that order.

    counts holds a read-only copy of 16 finite nonnegative real numbers; exact
    expected counts (non-integer) are accepted so that noiseless studies stay exact.
    """

    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _checked_counts(self.counts))


def _checked_counts(values) -> np.ndarray:
    """Read-only float copy of 16 finite nonnegative counts; else TomographyInputError."""
    counts = _real_array(values)
    if counts is None or counts.shape != (len(STANDARD_LABELS),):
        raise TomographyInputError(f"counts must be 16 values, each a real number, got {values!r}")
    ok = (counts >= 0.0) & (counts < math.inf)  # NaN fails both
    if np.count_nonzero(ok) < len(ok):
        raise TomographyInputError(f"counts must be finite and nonnegative, got {counts[~ok][0]}")
    counts.flags.writeable = False
    return counts


def probabilities(rho) -> np.ndarray:
    """Born-rule probabilities tr(rho P) for every standard setting."""
    rho = np.asarray(rho, dtype=complex)
    return np.clip(np.einsum("kij,ji->k", STANDARD_PROJECTORS, rho).real, 0.0, 1.0)


#: (row, column, sign) of kappa_a, kappa_b, kappa_a kappa_b and kappa_a kappa_b* below the diagonal of
#: 4 `dephasing.evolve_state`; with F = Re, Im of those, tr(P_k rho) = (1 + sum_j A_kj F_j) / 4, z at (r, c)
#: giving A 2 Re, 2 Im of P_k[r, c]: 0, +-1/2 or +-1 once rounded (products of 1/sqrt2 miss by an ulp)
_KAPPA_SLOTS = ((2, 0, 1), (3, 1, -1)), ((1, 0, 1), (3, 2, -1)), ((3, 0, -1),), ((2, 1, 1),)
_LINEAR_FORMS = np.round(4.0 * np.stack([sum(s * STANDARD_PROJECTORS[:, r, c] for r, c, s in slots)
                                         for slots in _KAPPA_SLOTS], axis=-1)).view(float) / 2.0


def _dephased_probabilities(kappa_a, kappa_b) -> np.ndarray:
    """`probabilities` of `evolve_state(a, b)` without the 4x4 matrix, one row per pair of the kappas
    broadcast by `correlations._checked_pair` (C order), each checked and clipped as `evolve_state` does;
    TomographyInputError if they broadcast to no pairs."""
    ka, kb = _checked_pair(kappa_a, kappa_b)[:2]
    if not ka.size:
        raise TomographyInputError("kappa_a and kappa_b must broadcast to 1+ pairs, got shapes "
                                   f"{np.shape(kappa_a)} and {np.shape(kappa_b)}")
    features = np.stack([ka, kb, ka * kb, ka * kb.conj()], axis=-1).reshape(-1, 4).view(float)
    return np.clip(0.25 * (1.0 + _apply(_LINEAR_FORMS, features)), 0.0, 1.0)


def _draw(means, words, size=None) -> np.ndarray:
    """Poisson counts with the given means (size draws of them, if given), from the Generator seeded with words."""
    return np.random.default_rng(words).poisson(means, size).astype(float)


def simulate_counts(rho, n_per_setting: int, seed) -> TomographyRecord:
    """Draw Poisson counts with mean n_per_setting * tr(rho P) per setting.

    Deterministic for a fixed seed; seeds may be ints or sequences of ints so
    that callers can derive independent substreams. rho must be a two-qubit
    state (InvalidStateError otherwise). Raises TomographyInputError unless
    n_per_setting is one number in [1, MAX_TOMO_COUNTS] and every seed word an
    integer >= 0.
    """
    rho = validate_state(rho)[0]
    if not _holds(lambda n: 1 <= n <= MAX_TOMO_COUNTS, n_per_setting):
        raise TomographyInputError(f"n_per_setting must be in [1, {MAX_TOMO_COUNTS:g}], got {n_per_setting!r}")
    return TomographyRecord(_draw(n_per_setting * probabilities(rho), _seed_words(seed)))


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ v for every row v of the 2-d (rows x n) vectors; matrix is one matrix or one per row.

    Each row is its own matrix-vector product, so a row gives the same bits
    alone, as a (1, n) batch, and inside a larger batch (a stacked product
    would switch BLAS kernels with the batch size). A 1-d row would take
    numpy's plain matrix-vector path instead, and other bits.
    """
    return (matrix @ vectors[..., None])[..., 0]


#: the dual frame of STANDARD_PROJECTORS, one flattened matrix D_k per row with
#: tr(P_j D_k) = delta_jk, symmetrized once so that each D_k is exactly Hermitian:
#: a state's 16 real coordinates are its probabilities x_k = tr(P_k rho), and
#: rho = sum_k x_k D_k (the settings are informationally complete)
_DUAL = np.linalg.inv(STANDARD_PROJECTORS.reshape(16, 16)).T.reshape(16, 4, 4)  # each D_k transposed
_DUAL = (0.5 * (_DUAL.swapaxes(1, 2) + _DUAL.conj())).reshape(16, 16)
#: rho = _DUAL_T @ x: `_DUAL.T`, the same transposed view of `_DUAL` for every product, built once
_DUAL_T = _DUAL.T


def _matrices(x: np.ndarray) -> np.ndarray:
    """The 4x4 Hermitian matrices sum_k x_k D_k, one per row of coordinates x."""
    return _apply(_DUAL_T, x).reshape(-1, 4, 4)


#: barrier weight over the total frequency, one value per stage; the last, t, puts an estimate
#: within its duality gap, about 4t, of the optimum. Its smallest eigenvalue is about t over the
#: boundary's multiplier: normalized, 4.0e-10 to 1.9e-5 over the step-2 fig2a run's barrier rows
_BARRIER_STAGES = 1e-2 ** np.arange(1, 6)
#: an estimate is centred: its squared Newton decrement in the last stage is at most this times t
_CENTRED = 1e-8
#: an intermediate stage is centred once its squared Newton decrement is at most this times t: the
#: quadratically convergent region of a self-concordant barrier, where full Newton steps converge
_FULL_STEP = 0.25
#: the stage before the last is centred to this times t before the predictor enters the last
_PRE_CENTRED = 1e-2
#: each stage's bound on the squared decrement, over t (over min(t, f_min) in the last; `_barrier_solve`)
_TOLERANCE = np.array([_FULL_STEP] * (len(_BARRIER_STAGES) - 2)
                      + [_PRE_CENTRED, (_CENTRED ** 0.25 / (1.0 + _CENTRED ** 0.25)) ** 2])
#: limits of one solve; a row took at most 35 steps (median 18) and a step at most 7 halvings
#: over 1,651 unphysical near-pure records at 10^2-10^15 counts, and at most 42 steps (median 20)
#: over 12,000 random unphysical records of ranks 1-4 at 10^1-10^15 counts
_MAX_STEPS = 200
_MAX_HALVINGS = 60
#: the LAPACK gufuncs behind np.linalg.cholesky, np.linalg.inv and np.linalg.solve (and, from `qstate`,
#: np.linalg.eigvalsh), called directly in every Newton step and spectrum: the wrappers' dtype dispatch,
#: errstate and result wrapping cost a third to half of a 1-row call. Same routines and dtypes, so the
#: same bits; a failed factorization, solve or eigensolve gives NaN rows, not LinAlgError: the line search
#: rejects them, and `_solve` sends a NaN spectrum's row to the barrier, so each ends in NonConvergenceError
_cholesky = _umath_linalg.cholesky_lo
_inv = _umath_linalg.inv
_lu_solve = _umath_linalg.solve1
#: picks tr C_j out of C_j's real row of 32 (`_derivatives`): the real parts of its diagonal, at 0, 10, 20, 30
_TRACE = np.zeros(32)
_TRACE[::10] = 1.0


def _factor(x):
    """The Cholesky factor L of rho = sum_k x_k D_k = L L^H, lower triangular, one per row of
    coordinates x. LAPACK factors rho only if it is positive definite; otherwise L is NaN."""
    return _cholesky((_DUAL_T @ x[:, :, None]).reshape(-1, 4, 4), signature="D->D")


def _derivatives(freqs, t, factor, x):
    """Descent (minus the gradient) and Hessian of the barrier objective, and the pieces they are built from;
    t is each row's barrier weight, as a column (rows x 1).

    With rho = L L^H (`_factor`), U = L^-H and C_j = U^H D_j U,
    tr(rho^-1 D_j) = tr C_j and K_ij = tr(rho^-1 D_i rho^-1 D_j) = tr(C_i C_j):
    both hold for any U with U U^H = rho^-1, and the inverse of the 4x4
    triangular factor gives one without a diagonalization. Each C_j is a real
    row of 32 (its 16 entries, real and imaginary parts interleaved), so the
    tr C_j are one stacked product with `_TRACE` and K one with the C's own
    transpose. The likelihood term's Hessian is diagonal, f / x^2. Returns the
    descent, the Hessian, tr C_j, K, the C_j as rows and f / x.
    """
    u_conj = _inv(factor, signature="D->D").swapaxes(1, 2)  # (L^-1)^T, the conjugate of U
    kron = (u_conj[:, :, None, :, None] * u_conj.conj()[:, None, :, None, :]).reshape(-1, 16, 16)
    c = (_DUAL @ kron).view(float)
    log_det_grad = c @ _TRACE
    log_det_hess = c @ c.swapaxes(1, 2)
    ratio = freqs / x
    hess = t[..., None] * log_det_hess
    hess.reshape(-1, 256)[:, ::17] += ratio / x  # the diagonal, as a strided view
    return ratio - 1.0 + t * log_det_grad, hess, log_det_grad, log_det_hess, c, ratio


def _curvature(ratio, t, x, hess, tangent, log_det_hess, c):
    """x'' / 2, half the second derivative x'' = -H^-1 (2 K x' + D^3 phi[x', x']) of the central path x(t).

    Differentiating H x' = tr(rho^-1 D) along the path gives it; with Y = U^H X' U
    = sum_i x'_i C_i, D^3 phi[x', x']_j = -2 f_j x'_j^2 / x_j^3 - 2t tr(Y^2 C_j), so
    x'' / 2 = -H^-1 (K x' - (f / x) (x' / x)^2 - t tr(Y^2 C)) from the f / x (`ratio`)
    of `_derivatives`, with no x^3 to overflow (halving is exact, so these are the bits of
    x'' halved); t is a column, as `_derivatives` takes it. H^-1 is applied by an LU solve
    with the Newton matrix H, which is never inverted.
    """
    y = (tangent[:, None, :] @ c).view(complex).reshape(-1, 4, 4)
    rhs = _apply(log_det_hess, tangent) - (ratio * (tangent / x) ** 2
                                           + t * _apply(c, (y @ y).view(float).reshape(-1, 32)))
    return -_lu_solve(hess, rhs, signature="dd->d")


def _line_search(x, step):
    """Per row, the first of x + step, x + step/2, ... at which rho is positive definite (its
    `_factor` is finite), and that factor. No objective is evaluated: full steps whose squared
    decrement is at most _FULL_STEP * t converge quadratically (Boyd and Vandenberghe, 9.6.4),
    and _MAX_STEPS bounds a row elsewhere. rho > 0 keeps every x_k = tr(P_k rho) > 0. A halving
    factors the rows still pending, through a view of the whole batch when that is all of them."""
    point = x + step
    factor = trial_factor = _factor(point)
    halving = 0
    while np.count_nonzero(np.isfinite(trial_factor)) < trial_factor.size:  # a trial LAPACK could not factor
        halving += 1
        if halving > _MAX_HALVINGS:
            raise NonConvergenceError(f"barrier line search found no acceptable step in {_MAX_HALVINGS} halvings")
        pending = (~np.logical_and.reduce(np.isfinite(factor), axis=(1, 2))).nonzero()[0]
        rows = pending if len(pending) < len(x) else slice(None)
        point[rows] = trial = x[rows] + 0.5 ** halving * step[rows]
        factor[rows] = trial_factor = _factor(trial)  # a rejected row is overwritten by a later halving
    return point, factor


def _barrier_solve(freqs, lowest):
    """Unnormalized extended-likelihood optimum for rows whose linear inversion is unphysical.

    In the coordinates x_k = tr(P_k rho), where the linear inversion is the
    frequencies f with smallest eigenvalue `lowest`, minimizes sum_k (x_k -
    f_k log x_k) - t log det rho by Newton's method over the decreasing t of
    _BARRIER_STAGES (times sum_k f_k), from x = f + t - lowest (smallest
    eigenvalue the first t). A centred row moves to the next t along the
    central path x(t), by dt x' + dt^2 x'' / 2 with x' and x'' / 2 (`_curvature`)
    solved, like the Newton step, by LU from the Newton matrix, which is never
    inverted, on those rows only (a view of the batch when that is all of them).
    A step is halved only until rho is positive definite (`_line_search`); the
    objective itself is never evaluated. A row leaves an intermediate stage,
    which only warm-starts the next, once its squared Newton decrement d is at
    most _FULL_STEP * t, or _PRE_CENTRED * t before the last. A last-stage row
    returns x plus its Newton step once d <= d* min(t, f_min), f_min its least
    positive f and d* = (c / (1 + c))^2, c = _CENTRED^(1/4): over min(t, f_min)
    the objective is self-concordant, so sqrt(d+) <= (sqrt(d) / (1 - sqrt(d)))^2
    (Boyd and Vandenberghe, 9.6.4) puts that point within _CENTRED * t. Raises
    NonConvergenceError when a row needs more than _MAX_STEPS steps, or a step
    more than _MAX_HALVINGS halvings.
    """
    out = np.empty_like(freqs)
    rows = np.arange(len(freqs))
    scale = np.add.reduce(freqs, -1)
    # min(t, f_min) of the last stage
    reach = np.minimum(scale * _BARRIER_STAGES[-1], np.minimum.reduce(np.where(freqs > 0.0, freqs, np.inf), -1))
    stage = np.zeros(len(freqs), dtype=int)
    t = (scale * _BARRIER_STAGES[0])[:, None]  # a column, as `_derivatives` and `_curvature` take it
    x = freqs + (t - lowest[:, None])
    bound = _TOLERANCE[stage] * t[:, 0]  # a row's stage is centred once its squared decrement is at most this
    # as in numpy's linalg wrappers, a LAPACK call's floating-point flags warn of nothing: an unusable
    # result is NaN or infinite, and the line search rejects it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factor = _factor(x)
        for _ in range(_MAX_STEPS):
            descent, hess, log_det_grad, log_det_hess, c, ratio = _derivatives(freqs, t, factor, x)
            step = _lu_solve(hess, descent, signature="dd->d")
            decrement = np.add.reduce(descent * step, -1)
            centred = decrement <= bound
            if np.count_nonzero(centred):
                moving = centred & (stage < len(_BARRIER_STAGES) - 1)
                movers = np.count_nonzero(moving)
                if movers:
                    # the predictor runs on these rows only, as a view of the batch when that is all of them
                    m = slice(None) if movers == len(moving) else moving.nonzero()[0]
                    dt = (scale[m] * _BARRIER_STAGES[stage[m] + 1])[:, None] - t[m]
                    newton = hess[m]
                    tangent = _lu_solve(newton, log_det_grad[m], signature="dd->d")
                    half_curvature = _curvature(ratio[m], t[m], x[m], newton, tangent, log_det_hess[m], c[m])
                    step[m] = dt * (tangent + dt * half_curvature)
                finished = centred & ~moving
                done = np.count_nonzero(finished)
                if done:
                    out[rows[finished]] = x[finished] + step[finished]
                    if done == len(finished):
                        return out
                    keep = ~finished
                    rows, freqs, reach, scale, stage, x, factor, centred, step = (
                        a[keep] for a in (rows, freqs, reach, scale, stage, x, factor, centred, step))
                stage = stage + centred
                t = (scale * _BARRIER_STAGES[stage])[:, None]
                bound = _TOLERANCE[stage] * np.where(stage == len(_BARRIER_STAGES) - 1, reach, t[:, 0])
            x, factor = _line_search(x, step)
    raise NonConvergenceError(f"barrier Newton solve not converged in {_MAX_STEPS} steps")


def _solve(counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extended-likelihood estimates of rows of counts (see `reconstruct`), unnormalized: each row's 16
    coordinates, its linear inversion's spectrum, largest first, and whether the barrier solve replaced
    that inversion (the row's spectrum is then the inversion's, not the estimate's)."""
    # the estimator is scale-equivariant: at unit peak, any finite scale of a row solves alike
    # (a row's total can overflow where its peak cannot)
    peak = np.maximum.reduce(counts, -1, keepdims=True)
    counted = peak > 0.0  # a row of nonnegative counts has none unless its peak is positive
    x = counts / np.where(counted, peak, 1.0)  # unit-peak frequencies: the linear inversion
    spectra = _eigvalsh(_matrices(x), signature="D->d")[:, ::-1]
    unphysical = ~(spectra[:, 3] >= 0.0)  # NaN too, a spectrum LAPACK failed on: the barrier then raises
    if np.count_nonzero(unphysical):
        x[unphysical] = _barrier_solve(x[unphysical], spectra[unphysical, 3])
    if np.count_nonzero(counted) < len(counted):
        empty = ~counted[:, 0]
        x[empty] = spectra[empty] = 0.25  # no counts: the maximally mixed state, by rule
    return x, spectra, unphysical


def _estimate(counts) -> tuple[np.ndarray, np.ndarray]:
    """Normalized extended-likelihood estimates of rows of counts (see `reconstruct`): each row's 16
    coordinates and its spectrum, largest first, both divided by the trace."""
    x, spectra, unphysical = _solve(counts)
    if np.count_nonzero(unphysical):
        spectra[unphysical] = _eigvalsh(_matrices(x[unphysical]), signature="D->d")[:, ::-1]
    trace = np.add.reduce(x[:, :4], -1, keepdims=True)
    return x / trace, spectra / trace


def reconstruct(record: TomographyRecord) -> np.ndarray:
    """Reconstruct a density matrix: the extended-likelihood optimum, normalized.

    The estimator maximizes the extended (free-trace) Poisson likelihood
    sum_k (n_k log q_k - q_k), q_k = tr(P_k rho), over rho >= 0 of any trace
    and normalizes the trace (James et al., PRA 64 052312, 2001):
    - a linear inversion whose eigenvalues are all >= 0 reproduces every
      observed frequency and is the optimum, returned as rho_lin / tr rho_lin;
    - otherwise a log-det barrier Newton solve (`_barrier_solve`) gives an
      estimate of full rank whose objective is within its duality gap (about
      4e-10 times the sum of the unit-peak frequencies) of the optimum's; its
      smallest eigenvalue, normalized, is 4.0e-10 to 1.9e-5 (median 2.7e-8)
      over the 2,791 barrier rows of a step-2 fig2a run at 10^4 counts;
    - a record with no counts gives the maximally mixed state I/4.
    Exact (noiseless) counts of a full-rank state reproduce it. Raises
    NonConvergenceError if the solve fails.
    """
    x = _solve(record.counts[None])[0]
    return _matrices(x / np.add.reduce(x[:, :4], -1, keepdims=True))[0]


BOOTSTRAP_KEYS = ("I", "C", "Q", "REE", "lambda1", "lambda2", "lambda3", "lambda4")

#: largest `_bootstrap` batch: point estimates plus resamples of whole records
_BLOCK_ROWS = 256


def _bootstrap(counts, resamples, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Point estimates and parametric-bootstrap standard deviations of an (n, 16) float array of counts.

    Trusts `simulate_dephased`, its one caller: n >= 1 rows of finite nonnegative counts below numpy's
    Poisson limit, as its draws are, resamples an int in [2, MAX_TOMO_RESAMPLES] (`TomographySettings`
    checks it) and one list of integer seed words >= 0 per row. Row i is resampled from Poisson(observed
    count): one (resamples, 16) draw from the Generator seeded with seeds[i]. Rows are solved in blocks
    of at most _BLOCK_ROWS estimates (one row if larger), each a row of one `_estimate` call. Returns two
    (n, 8) arrays in BOOTSTRAP_KEYS order: the point estimates' quantities and the resamples' standard
    deviations (ddof=1). An estimate's quantities are `unchecked_bell_correlations` of the spectrum
    `_estimate` gives it (a sorted probability vector by construction), then that spectrum: measures of
    the state only if it is Bell-diagonal up to local unitaries: at 10^4 counts, plug-in Q minus the
    oracle's has per-state medians of -2.2e-3 to +7.9e-4 and reaches 1.3e-2 (about one bootstrap sd);
    C's gap is as large.
    """
    block = max(1, _BLOCK_ROWS // (1 + resamples))
    out = np.empty((2, len(counts), len(BOOTSTRAP_KEYS)))
    for start in range(0, len(counts), block):
        batch = np.repeat(counts[start:start + block, None], 1 + resamples, axis=1)
        for i, rows in enumerate(batch, start):  # a row and its resamples
            rows[1:] = _draw(rows[0], seeds[i], (resamples, 16))
        spectra = _estimate(batch.reshape(-1, 16))[1]
        quantities = np.column_stack([*unchecked_bell_correlations(spectra), spectra])
        quantities = quantities.reshape(*batch.shape[:2], -1)
        out[0, start:start + block] = quantities[:, 0]
        out[1, start:start + block] = quantities[:, 1:].std(axis=1, ddof=1)
    return out[0], out[1]


def simulate_dephased(kappa_a, kappa_b, tomo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, 16) counts and (n, 8) values and errors of tomography of `evolve_state` of each pair of the
    broadcast kappas (C order), per `config.TomographySettings`. Row i's seed prefix is [tomo.seed] for one
    pair of numbers, else [tomo.seed, i]; its counts, linear in its kappas, are those `simulate_counts` draws
    from its state with seed words [*prefix, 0], and `_bootstrap` resamples them from [*prefix, 1]. A bad
    kappa, or a pair that does not broadcast, raises InvalidStateError as in `bell_eigenvalues_from_kappas`;
    a pair that broadcasts to no rows, TomographyInputError."""
    means = tomo.n_per_setting * _dephased_probabilities(kappa_a, kappa_b)
    one_pair = np.ndim(kappa_a) == np.ndim(kappa_b) == 0  # else a series, even of one row
    prefixes = [[tomo.seed]] if one_pair else [[tomo.seed, i] for i in range(len(means))]
    counts = np.stack([_draw(row, [*prefix, 0]) for row, prefix in zip(means, prefixes)])
    return (counts, *_bootstrap(counts, tomo.resamples, [[*prefix, 1] for prefix in prefixes]))
