"""Simulated two-photon state tomography with Poisson counting noise.

The forward model draws independent Poisson coincidence counts for 16 product
projectors. Reconstruction has one estimator, the maximum of the extended
(free-trace) Poisson likelihood over positive semidefinite states, normalized
to trace 1 (see `reconstruct`): a physical linear inversion is that maximum
in closed form, and an unphysical one goes to a log-det barrier Newton solve.
Statistical errors come from a parametric bootstrap that resamples the
observed counts. `bootstrap` solves the point estimates and resamples of many
records in blocks of bounded size; each row's arithmetic is independent of the
batch, so it gives the same bits as one row at a time, and a resample the bits
of `reconstruct` of its counts.

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
    total_per_setting is one finite positive number, and each count over it is finite.
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
        if not float(counts.max()) / float(self.total_per_setting) < math.inf:
            raise TomographyInputError(
                f"counts / total_per_setting must be finite, got {counts.max()} / {self.total_per_setting!r}")
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
#: the stage before the last is centred to this times t before the predictor enters the last
_PRE_CENTRED = 1e-2
#: limits of one solve; over 1,536 unphysical records (fig2a rows, near-pure and pure
#: states, 10^3-10^5 counts) a row took at most 32 steps (median 17) and a step at
#: most 6 halvings
_MAX_STEPS = 200
_MAX_HALVINGS = 60


def _evaluate(freqs, x):
    """Likelihood term, log det rho, and the pieces the derivatives reuse, at coordinates x.

    A point where rho is not positive definite gives NaN or infinite terms.
    """
    w, v = np.linalg.eigh(_matrices(x))
    q = _apply(_STANDARD_MAP, x)
    return (q - freqs * np.log(q)).sum(axis=-1), np.log(w).sum(axis=-1), w, v, q


def _derivatives(freqs, t, w, v, q):
    """Gradient and Hessian of the barrier objective, and the log-det pieces they are built from.

    With rho = V diag(w) V^H, U = V diag(w)^-1/2 and C_j = U^H B_j U,
    tr(rho^-1 B_j) = tr C_j and K_ij = tr(rho^-1 B_i rho^-1 B_j) = tr(C_i C_j).
    Returns the gradient, the Hessian, tr C_j, K, and each C_j as a real row of
    32 (its 16 entries, real and imaginary parts interleaved).
    """
    ratio = freqs / q
    grad = _apply(_STANDARD_MAP.T, 1.0 - ratio)
    hess = (_STANDARD_MAP.T * (ratio / q)[:, None, :]) @ _STANDARD_MAP
    u = v / np.sqrt(w)[:, None, :]
    kron = (u.conj()[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, 16, 16)
    c = (_BASIS @ kron).view(float)
    log_det_grad = c[..., ::10].sum(axis=-1)
    log_det_hess = c @ c.swapaxes(1, 2)
    return (grad - t[:, None] * log_det_grad, hess + t[:, None, None] * log_det_hess,
            log_det_grad, log_det_hess, c)


def _curvature(freqs, t, q, inverse, tangent, log_det_hess, c):
    """The second derivative x'' = -H^-1 (2 K x' + D^3 phi[x', x']) of the central path x(t).

    Differentiating H x' = tr(rho^-1 B) along the path gives it; with Y = U^H X' U
    = sum_i x'_i C_i, D^3 phi[x', x']_j = A^T(-2 f (A x')^2 / q^3)_j - 2t tr(Y^2 C_j),
    the first term taken as (f / q) (A x' / q)^2 so that q^3 cannot overflow.
    """
    dq = _apply(_STANDARD_MAP, tangent)
    y = (tangent[:, None, :] @ c).view(complex).reshape(-1, 4, 4)
    third = (_apply(_STANDARD_MAP.T, -2.0 * freqs / q * (dq / q) ** 2)
             - 2.0 * t[:, None] * _apply(c, (y @ y).view(float).reshape(-1, 32)))
    return -_apply(inverse, 2.0 * _apply(log_det_hess, tangent) + third)


def _line_search(freqs, t, x, step, full, current, decrement):
    """Per row, the first of x + step, x + step/2, ... that is positive definite and,
    unless `full`, lowers the objective (`current` at x) by the Armijo fraction of
    the squared decrement; returns it with its `_evaluate` terms."""
    drop = _ARMIJO * decrement

    def accepted(trial, rows, alpha):
        lik, logdet, w = trial[1], trial[2], trial[3]
        value = lik - t[rows] * logdet
        armijo = value <= current[rows] - alpha * drop[rows]
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
    the decreasing t of _BARRIER_STAGES (times sum_k f_k). A centred row moves
    to the next t along the central path x(t), by dt x' + dt^2 x'' / 2 with x'
    and x'' (`_curvature`) from the step's one inverse of the Newton matrix; a
    backtracking line search keeps every iterate positive definite. The start
    is the linear inversion shifted so that its smallest eigenvalue is the
    first t. An intermediate stage only warm-starts the next, so a row leaves
    it once its squared Newton decrement is at most _FULL_STEP * t (where the
    full Newton step is taken), or _PRE_CENTRED * t before the last stage; the
    last stage is centred to _CENTRED * t, and a row freezes there. Raises
    NonConvergenceError when a row needs more than _MAX_STEPS steps, or a
    step more than _MAX_HALVINGS halvings.
    """
    out = np.empty_like(x)
    rows = np.arange(len(x))
    scale = freqs.sum(axis=-1)
    stage = np.zeros(len(x), dtype=int)
    tolerance = np.array([_FULL_STEP] * (len(_BARRIER_STAGES) - 2) + [_PRE_CENTRED, _CENTRED])
    t = scale * _BARRIER_STAGES[0]
    x = x.copy()
    x[:, :4] += (t - lowest)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lik, logdet, w, v, q = _evaluate(freqs, x)
        for _ in range(_MAX_STEPS):
            grad, hess, log_det_grad, log_det_hess, c = _derivatives(freqs, t, w, v, q)
            inverse = np.linalg.inv(hess)
            step = _apply(inverse, -grad)
            decrement = (-grad * step).sum(axis=-1)
            centred = decrement <= tolerance[stage] * t
            last = stage == len(_BARRIER_STAGES) - 1
            moving = centred & ~last
            if moving.any():
                dt = (scale * _BARRIER_STAGES[stage + moving] - t)[:, None]
                tangent = _apply(inverse, log_det_grad)
                curvature = _curvature(freqs, t, q, inverse, tangent, log_det_hess, c)
                step = np.where(moving[:, None], dt * (tangent + 0.5 * dt * curvature), step)
            finished = centred & last
            if finished.any():
                out[rows[finished]] = x[finished]
                keep = ~finished
                if not keep.any():
                    return out
                (rows, freqs, scale, stage, t, x, lik, logdet, w, v, q, centred, step, decrement) = (
                    a[keep] for a in (rows, freqs, scale, stage, t, x, lik, logdet, w, v, q, centred,
                                      step, decrement))
            t_old = t
            stage = stage + centred
            t = scale * _BARRIER_STAGES[stage]
            full = decrement <= _FULL_STEP * t_old  # every centred row too
            x, lik, logdet, w, v, q = _line_search(freqs, t, x, step, full, lik - t_old * logdet,
                                                   decrement)
    raise NonConvergenceError(f"barrier Newton solve not converged in {_MAX_STEPS} steps")


def _estimate(freqs) -> np.ndarray:
    """Normalized extended-likelihood estimates, one per row of freqs; see `reconstruct`."""
    # the estimator is scale-equivariant: at unit peak, any finite scale of a row solves alike
    # (a row's total can overflow where its peak cannot)
    peak = freqs.max(axis=-1, keepdims=True)
    freqs = freqs / np.where(peak > 0.0, peak, 1.0)
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

#: largest `bootstrap` batch: point estimates plus resamples of whole records
_BLOCK_ROWS = 256


def state_quantities(states) -> np.ndarray:
    """The BOOTSTRAP_KEYS of a state, or of each of a stack of states.

    I, C, Q, REE in bits, then the sorted eigenvalues, along the last axis.
    """
    lam = eigenvalues_sorted(states)
    return np.concatenate([np.stack(bell_correlations(lam), axis=-1), lam], axis=-1)


def bootstrap(records, resamples: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Point estimates and parametric-bootstrap standard deviations of a stack of records.

    Resample r of record i redraws every count from Poisson(observed count) with
    the substream (seeds[i], r). Records are solved in blocks of at most
    _BLOCK_ROWS estimates (one record if larger), so memory stays bounded; the
    estimates of a block are rows of one `_estimate` and one `state_quantities`
    call, each row with the bits it has alone. Returns two (len(records), 8)
    arrays in BOOTSTRAP_KEYS order: the point estimates' quantities and the
    resamples' standard deviations (ddof=1). Raises TomographyInputError unless
    records is nonempty with one seed each, every seed word is an integer >= 0,
    and resamples is an integer in [2, MAX_TOMO_RESAMPLES]; 2.0 counts as 2.
    """
    if not _integer_in(resamples, 2, MAX_TOMO_RESAMPLES):
        raise TomographyInputError(
            f"resamples must be an integer in [2, {MAX_TOMO_RESAMPLES}], got {resamples!r}")
    resamples = int(resamples)
    if not 0 < len(records) == len(seeds):
        raise TomographyInputError(f"need 1+ records, one seed each, got {len(seeds)} for {len(records)}")
    words = [_seed_words(seed) for seed in seeds]
    block = max(1, _BLOCK_ROWS // (1 + resamples))
    out = np.empty((2, len(records), len(BOOTSTRAP_KEYS)))
    for start in range(0, len(records), block):
        freqs = np.stack([
            np.stack([record.counts] + [np.random.default_rng(row_words + [r]).poisson(record.counts)
                                        for r in range(resamples)]) / record.total_per_setting
            for record, row_words in zip(records[start:start + block], words[start:start + block])])
        quantities = state_quantities(_estimate(freqs.reshape(-1, 16))).reshape(len(freqs), 1 + resamples, -1)
        out[0, start:start + block] = quantities[:, 0]
        out[1, start:start + block] = quantities[:, 1:].std(axis=1, ddof=1)
    return out[0], out[1]
