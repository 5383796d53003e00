"""Simulated two-photon state tomography with Poisson counting noise.

The forward model draws independent Poisson coincidence counts for 16 product
projectors. Reconstruction has one estimator, the maximum of the extended
(free-trace) Poisson likelihood over positive semidefinite states, normalized
to trace 1 (see `reconstruct`): a physical linear inversion is that maximum
in closed form, and an unphysical one goes to a log-det barrier Newton solve.
Statistical errors come from a parametric bootstrap that resamples the
observed counts. `bootstrap` solves the point estimates and resamples of many
records as one batch, and a run reconstructs its sweep rows in such blocks;
each row's arithmetic is independent of the batch, so it gives the same bits
as one row at a time, and a resample the bits of `reconstruct` of its counts.

The 16 settings are the products of {H, V, D, L} per side, with
D = (H+V)/sqrt2 and L = (H+iV)/sqrt2, in the fixed order of STANDARD_LABELS so
that a fixed seed reproduces outputs bit for bit; a record is 16 counts in that
order plus the expected counts per setting. A seed is an integer >= 0 or a
sequence of them, and a malformed size or seed raises TomographyInputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_TOMO_COUNTS, MAX_TOMO_RESAMPLES, _holds, _integer_in, _real_array
from .correlations import bell_correlations
from .errors import NonConvergenceError, TomographyInputError
from .qstate import eigenvalues_sorted, validate_state

KET = {
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
    ket = np.kron(KET[label[0]], KET[label[1]])
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
    """Counts of the 16 STANDARD_LABELS settings, in that order, at a common expected scale.

    counts holds a read-only copy of 16 finite nonnegative real numbers; exact
    expected counts (non-integer) are accepted so that noiseless studies stay exact.
    total_per_setting is one finite positive number.
    """

    counts: np.ndarray
    total_per_setting: float

    def __post_init__(self):
        counts = _real_array(self.counts)
        if counts is None or counts.shape != (len(STANDARD_LABELS),):
            raise TomographyInputError(f"counts must be 16 values, each a real number, got {self.counts!r}")
        ok = (counts >= 0.0) & (counts < math.inf)  # NaN fails both
        if not ok.all():
            raise TomographyInputError(f"counts must be finite and nonnegative, got {counts[~ok][0]}")
        if not _holds(lambda n: 0.0 < n * 1.0 < math.inf, self.total_per_setting):
            raise TomographyInputError(
                f"total_per_setting must be finite and positive, got {self.total_per_setting!r}")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


def record_to_csv(record: TomographyRecord) -> str:
    """Serialize a record as 'setting,count' rows (the CLI wire format)."""
    lines = ["setting,count"]
    for label, count in zip(STANDARD_LABELS, record.counts):
        value = f"{int(count)}" if float(count).is_integer() else f"{count:.9g}"
        lines.append(f"{label},{value}")
    return "\n".join(lines) + "\n"


def probabilities(rho) -> np.ndarray:
    """Born-rule probabilities tr(rho P) for every standard setting."""
    rho = np.asarray(rho, dtype=complex)
    return np.clip(np.einsum("kij,ji->k", STANDARD_PROJECTORS, rho).real, 0.0, 1.0)


def simulate_counts(rho, n_per_setting: int, seed) -> TomographyRecord:
    """Draw Poisson counts with mean n_per_setting * tr(rho P) per setting.

    Deterministic for a fixed seed; seeds may be ints or sequences of ints so
    that callers can derive independent substreams. rho must be a two-qubit
    state (InvalidStateError otherwise). Raises TomographyInputError unless
    n_per_setting is one number in [1, MAX_TOMO_COUNTS] and every seed word an
    integer >= 0.
    """
    rho = validate_state(rho)
    if not _holds(lambda n: 1 <= n <= MAX_TOMO_COUNTS, n_per_setting):
        raise TomographyInputError(f"n_per_setting must be in [1, {MAX_TOMO_COUNTS:g}], got {n_per_setting!r}")
    rng = np.random.default_rng(_seed_words(seed))
    counts = rng.poisson(n_per_setting * probabilities(rho)).astype(float)
    return TomographyRecord(counts=counts, total_per_setting=float(n_per_setting))


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ v for every row v of vectors.

    Each row is its own matrix-vector product, so a row gives the same bits
    alone and inside a batch (a stacked product would switch BLAS kernels
    with the batch size).
    """
    return (matrix @ vectors[..., None])[..., 0]


def _hermitian_basis() -> np.ndarray:
    """Orthonormal Hermitian basis of the 4x4 matrices, one flattened matrix per row.

    The 4 diagonal units, then (E_ab + E_ba)/sqrt2 and i(E_ab - E_ba)/sqrt2
    for the 6 pairs a > b; a state's 16 real coordinates x give
    rho = sum_j x_j B_j, and tr rho = x_0 + x_1 + x_2 + x_3.
    """
    basis = np.zeros((16, 4, 4), dtype=complex)
    basis[range(4), range(4), range(4)] = 1.0
    rows, cols = np.tril_indices(4, -1)
    pair = np.arange(6)
    basis[4 + pair, rows, cols] = basis[4 + pair, cols, rows] = 1.0 / math.sqrt(2.0)
    basis[10 + pair, rows, cols] = 1j / math.sqrt(2.0)
    basis[10 + pair, cols, rows] = -1j / math.sqrt(2.0)
    return basis.reshape(16, 16)


_BASIS = _hermitian_basis()


def _matrices(x: np.ndarray) -> np.ndarray:
    """The 4x4 Hermitian matrices with coordinates x, one per row."""
    return _apply(_BASIS.T, x).reshape(-1, 4, 4)


#: the real map from the coordinates of rho to the probabilities tr(P_k rho) of the
#: standard settings, and its inverse (the 16 settings are informationally
#: complete, so the system is square and of full rank)
_STANDARD_MAP = (STANDARD_PROJECTORS.reshape(16, 16) @ _BASIS.conj().T).real
_STANDARD_INVERSE = np.linalg.inv(_STANDARD_MAP)


#: barrier weight over the total frequency, one value per stage; the last one
#: sets the order of the smallest eigenvalue of an estimate
_BARRIER_STAGES = 1e-2 ** np.arange(1, 6)
#: the last stage is centred when the squared Newton decrement falls below this times t
_CENTRED = 1e-8
#: below this squared decrement (times t) the full Newton step is taken, as in
#: the quadratically convergent region of a self-concordant barrier, and an
#: intermediate stage counts as centred
_FULL_STEP = 0.25
#: sufficient decrease of the Armijo backtracking line search
_ARMIJO = 0.25
#: limits of one solve; over 1,500 unphysical records (fig2a rows, near-pure and pure
#: states, 10^3-10^5 counts) a row took at most 38 steps (median 20) and a step at
#: most 6 halvings
_MAX_STEPS = 200
_MAX_HALVINGS = 60


def _evaluate(freqs, x):
    """Likelihood term, log det rho, and the pieces the derivatives reuse, at coordinates x.

    A point where rho is not positive definite gives NaN or infinite terms.
    """
    w, v = np.linalg.eigh(_matrices(x))
    q = _apply(_STANDARD_MAP, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        lik = (q - freqs * np.log(q)).sum(axis=-1)
        logdet = np.log(w).sum(axis=-1)
    return lik, logdet, w, v, q


def _derivatives(freqs, t, w, v, q):
    """Gradient and Hessian of the barrier objective, and the gradient tr(rho^-1 B_j) of log det.

    With rho = V diag(w) V^H and C_j = diag(w)^-1/2 V^H B_j V diag(w)^-1/2,
    tr(rho^-1 B_j) = tr C_j and tr(rho^-1 B_i rho^-1 B_j) = tr(C_i C_j).
    """
    ratio = freqs / q
    grad = _apply(_STANDARD_MAP.T, 1.0 - ratio)
    hess = (_STANDARD_MAP.T * (ratio / q)[:, None, :]) @ _STANDARD_MAP
    kron = (v.conj()[:, :, None, :, None] * v[:, None, :, None, :]).reshape(-1, 16, 16)
    root = 1.0 / np.sqrt(w)
    c = (_BASIS @ kron) * (root[:, :, None] * root[:, None, :]).reshape(-1, 1, 16)
    log_det_grad = c[..., ::5].real.sum(axis=-1)
    log_det_hess = (c @ c.conj().swapaxes(1, 2)).real
    return (grad - t[:, None] * log_det_grad, hess + t[:, None, None] * log_det_hess,
            log_det_grad)


def _line_search(freqs, t, x, step, full, current, decrement):
    """Per row, the first of x + step, x + step/2, ... that is positive definite and,
    unless `full`, lowers the objective (`current` at x) by the Armijo fraction of
    the squared decrement; returns it with its `_evaluate` terms."""

    def accepted(trial, rows, alpha):
        lik, logdet, w = trial[1], trial[2], trial[3]
        value = lik - t[rows] * logdet
        armijo = value <= current[rows] - _ARMIJO * alpha * decrement[rows]
        return (w[:, 0] > 0.0) & np.isfinite(value) & (full[rows] | armijo)

    point = x + step
    result = [point, *_evaluate(freqs, point)]
    pending = np.flatnonzero(~accepted(result, slice(None), 1.0))
    for halving in range(1, _MAX_HALVINGS + 1):
        if not pending.size:
            return result
        alpha = 0.5 ** halving
        point = x[pending] + alpha * step[pending]
        trial = [point, *_evaluate(freqs[pending], point)]
        ok = accepted(trial, pending, alpha)
        for whole, part in zip(result, trial):
            whole[pending[ok]] = part[ok]
        pending = pending[~ok]
    raise NonConvergenceError(f"barrier line search found no acceptable step in {_MAX_HALVINGS} halvings")


def _barrier_solve(freqs, x, lowest):
    """Unnormalized extended-likelihood optimum for rows whose linear inversion is unphysical.

    Minimizes sum_k (q_k - f_k log q_k) - t log det rho by Newton's method over
    the decreasing t of _BARRIER_STAGES (times sum_k f_k). Between stages a
    tangent (predictor) step follows the central path to the next t; a
    backtracking line search keeps every iterate positive definite. The start
    is the linear inversion shifted so that its smallest eigenvalue is the
    first t. An intermediate stage only warm-starts the next, so a row leaves
    it once its squared Newton decrement is at most _FULL_STEP * t, inside the
    region where the full Newton step is taken; only the last stage is centred
    to _CENTRED * t, and a row freezes there. Raises
    NonConvergenceError when a row needs more than _MAX_STEPS steps, or a
    step more than _MAX_HALVINGS halvings.
    """
    out = np.empty_like(x)
    rows = np.arange(len(x))
    scale = freqs.sum(axis=-1)
    stage = np.zeros(len(x), dtype=int)
    t = scale * _BARRIER_STAGES[0]
    x = x.copy()
    x[:, :4] += (t - lowest)[:, None]
    lik, logdet, w, v, q = _evaluate(freqs, x)
    for _ in range(_MAX_STEPS):
        grad, hess, log_det_grad = _derivatives(freqs, t, w, v, q)
        solution = np.linalg.solve(hess, np.stack([-grad, log_det_grad], axis=-1))
        newton, tangent = solution[..., 0], solution[..., 1]
        decrement = (-grad * newton).sum(axis=-1)
        last = stage == len(_BARRIER_STAGES) - 1
        centred = decrement <= np.where(last, _CENTRED, _FULL_STEP) * t
        finished = centred & last
        if finished.any():
            out[rows[finished]] = x[finished]
            keep = ~finished
            if not keep.any():
                return out
            (rows, freqs, scale, stage, t, x, lik, logdet, w, v, q, centred, newton, tangent,
             decrement) = (a[keep] for a in (rows, freqs, scale, stage, t, x, lik, logdet, w, v, q,
                                             centred, newton, tangent, decrement))
        # a centred row moves to the next t along the tangent dx/dt = H^-1 tr(rho^-1 B)
        t_old = t
        stage = stage + centred
        t = scale * _BARRIER_STAGES[stage]
        step = np.where(centred[:, None], (t - t_old)[:, None] * tangent, newton)
        full = decrement <= _FULL_STEP * t_old  # every centred row too
        x, lik, logdet, w, v, q = _line_search(freqs, t, x, step, full, lik - t_old * logdet,
                                               decrement)
    raise NonConvergenceError(f"barrier Newton solve not converged in {_MAX_STEPS} steps")


def _estimate(freqs) -> np.ndarray:
    """Normalized extended-likelihood estimates, one per row of freqs; see `reconstruct`."""
    x = _apply(_STANDARD_INVERSE, freqs)
    lowest = np.linalg.eigvalsh(_matrices(x))[:, 0]
    unphysical = lowest < 0.0
    if unphysical.any():
        x[unphysical] = _barrier_solve(freqs[unphysical], x[unphysical], lowest[unphysical])
    x[~freqs.any(axis=-1), :4] = 0.25  # no counts: the maximally mixed state, by rule
    return _matrices(x / x[:, :4].sum(axis=-1, keepdims=True))


def reconstruct(record: TomographyRecord) -> np.ndarray:
    """Reconstruct a density matrix: the extended-likelihood optimum, normalized.

    The estimator maximizes the extended (free-trace) Poisson likelihood
    sum_k (n_k log q_k - N q_k), q_k = tr(P_k rho), over rho >= 0 and
    normalizes the trace (James et al., PRA 64 052312, 2001):
    - a linear inversion whose eigenvalues are all >= 0 reproduces every
      observed frequency and is the optimum, returned as rho_lin / tr rho_lin;
    - otherwise a log-det barrier Newton solve (`_barrier_solve`) gives an
      estimate of full rank, its smallest eigenvalue of the order of 1e-10;
    - a record with no counts gives the maximally mixed state I/4.
    Exact (noiseless) counts of a full-rank state reproduce it. Raises
    NonConvergenceError if the solve fails.
    """
    return _estimate(record.counts[None] / record.total_per_setting)[0]


BOOTSTRAP_KEYS = ("I", "C", "Q", "REE", "lambda1", "lambda2", "lambda3", "lambda4")


def state_quantities(states) -> np.ndarray:
    """The BOOTSTRAP_KEYS of a state, or of each of a stack of states.

    I, C, Q, REE in bits, then the sorted eigenvalues, along the last axis.
    """
    lam = eigenvalues_sorted(states)
    return np.concatenate([np.stack(bell_correlations(lam), axis=-1), lam], axis=-1)


def bootstrap(records, resamples: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Point estimates and parametric-bootstrap standard deviations of a stack of records.

    Resample r of record i redraws every count from Poisson(observed count) with
    the substream (seeds[i], r). All estimates are rows of one `_estimate` and one
    `state_quantities` call, each row with the bits it has alone. Returns two
    (len(records), 8) arrays in BOOTSTRAP_KEYS order: the point estimates'
    quantities and the resamples' standard deviations (ddof=1). Raises
    TomographyInputError unless records is nonempty with one seed each, every
    seed word is an integer >= 0, and resamples is an integer in
    [2, MAX_TOMO_RESAMPLES]; 2.0 counts as 2.
    """
    if not _integer_in(resamples, 2, MAX_TOMO_RESAMPLES):
        raise TomographyInputError(
            f"resamples must be an integer in [2, {MAX_TOMO_RESAMPLES}], got {resamples!r}")
    resamples = int(resamples)
    if not 0 < len(records) == len(seeds):
        raise TomographyInputError(f"need 1+ records, one seed each, got {len(seeds)} for {len(records)}")
    words = [_seed_words(seed) for seed in seeds]
    freqs = np.stack([
        np.stack([record.counts] + [np.random.default_rng(row_words + [r]).poisson(record.counts)
                                    for r in range(resamples)]) / record.total_per_setting
        for record, row_words in zip(records, words)])
    quantities = state_quantities(_estimate(freqs.reshape(-1, 16))).reshape(len(freqs), 1 + resamples, -1)
    return quantities[:, 0], quantities[:, 1:].std(axis=1, ddof=1)

