"""Simulated two-photon state tomography with Poisson counting noise.

The forward model draws independent Poisson coincidence counts for 16 product
projectors; reconstruction runs a linear inversion of the normalized counts,
projects onto physical states (eigenvalue clip and renormalize), and then
refines by maximizing the Poisson likelihood over a Cholesky parameterization,
keeping whichever candidate has the higher likelihood. Statistical errors are
propagated by a parametric bootstrap that resamples the observed counts.

The canonical 16 settings are the products of {H, V, D, L} per side, with
D = (H+V)/sqrt2 and L = (H+iV)/sqrt2, in a fixed documented order so that a
fixed seed reproduces outputs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .correlations import bell_correlations
from .errors import CountsRangeError, EmptyRecordError, InvalidStateError, SingularSystemError
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

#: largest counts per tomography setting: every count stays an exact integer in
#: a float (below 2**53), far below numpy's Poisson limit of about 9.2e18
MAX_TOMO_COUNTS = 10**15


@dataclass(frozen=True, eq=False)
class ProjectorSetting:
    """A labelled rank-1 two-qubit projector measured in coincidence."""

    label: str
    projector: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.projector, dtype=complex)
        if p.shape != (4, 4):
            raise InvalidStateError(f"projector must be 4x4, got {p.shape}")
        if not np.allclose(p, p.conj().T, atol=1e-10):
            raise InvalidStateError(f"projector {self.label} is not Hermitian")
        if not np.allclose(p @ p, p, atol=1e-10):
            raise InvalidStateError(f"projector {self.label} is not idempotent")
        if abs(np.trace(p) - 1.0) > 1e-10:
            raise InvalidStateError(f"projector {self.label} does not have trace 1")
        object.__setattr__(self, "projector", p)


def _product_setting(label: str) -> ProjectorSetting:
    ket = np.kron(KET[label[0]], KET[label[1]])
    return ProjectorSetting(label, np.outer(ket, ket.conj()))


#: the canonical informationally complete set of 16 product projectors, built
#: and validated once, at import
STANDARD_SETTINGS = tuple(_product_setting(label) for label in STANDARD_LABELS)


@dataclass(frozen=True, eq=False)
class TomographyRecord:
    """Counts for a set of projector settings at a common expected scale.

    counts holds one nonnegative value per setting; exact expected counts
    (non-integer) are accepted so that noiseless studies stay exact.
    """

    settings: tuple[ProjectorSetting, ...]
    counts: np.ndarray
    total_per_setting: float

    def __post_init__(self):
        settings = tuple(self.settings)
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 1 or counts.size != len(settings):
            raise ValueError("counts must be a 1-d array matching the settings")
        if counts.size and counts.min() < 0.0:
            raise ValueError(f"negative count {counts.min()}")
        if self.total_per_setting <= 0.0:
            raise ValueError("total_per_setting must be positive")
        flat = np.array([s.projector for s in settings]).reshape(len(settings), 16)
        # np.allclose(P_i, P_j, atol=1e-12), default rtol included, for every pair i < j
        same = np.all(np.abs(flat[:, None] - flat) <= 1e-12 + 1e-5 * np.abs(flat), axis=-1)
        pairs = np.argwhere(np.triu(same, 1))
        if pairs.size:
            i, j = pairs[0]
            raise ValueError(f"settings {settings[i].label} and {settings[j].label} coincide")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)


def record_to_csv(record: TomographyRecord) -> str:
    """Serialize a record as 'setting,count' rows (the CLI wire format)."""
    lines = ["setting,count"]
    for setting, count in zip(record.settings, record.counts):
        value = f"{int(count)}" if float(count).is_integer() else f"{count:.9g}"
        lines.append(f"{setting.label},{value}")
    return "\n".join(lines) + "\n"


def _rng_from(seed, *extra) -> np.random.Generator:
    """Generator from an int or int-sequence seed plus stream-splitting words."""
    if isinstance(seed, (int, np.integer)):
        words = [int(seed)]
    else:
        words = [int(s) for s in seed]
    return np.random.default_rng(words + [int(e) for e in extra])


def probabilities(rho, settings) -> np.ndarray:
    """Born-rule probabilities tr(rho P) for every setting."""
    projs = np.stack([s.projector for s in settings])
    return np.clip(np.einsum("kij,ji->k", projs, np.asarray(rho, dtype=complex)).real, 0.0, 1.0)


def simulate_counts(rho, n_per_setting: int, seed) -> TomographyRecord:
    """Draw Poisson counts with mean n_per_setting * tr(rho P) per setting.

    Deterministic for a fixed seed; seeds may be ints or sequences of ints so
    that callers can derive independent substreams. Raises CountsRangeError
    unless 1 <= n_per_setting <= MAX_TOMO_COUNTS.
    """
    rho = validate_state(rho)
    if rho.shape != (4, 4):
        raise InvalidStateError("tomography expects a two-qubit state")
    if not 1 <= n_per_setting <= MAX_TOMO_COUNTS:  # NaN fails too
        raise CountsRangeError(f"n_per_setting must be in [1, {MAX_TOMO_COUNTS:g}], got {n_per_setting}")
    means = n_per_setting * probabilities(rho, STANDARD_SETTINGS)
    counts = _rng_from(seed).poisson(means).astype(float)
    return TomographyRecord(
        settings=STANDARD_SETTINGS, counts=counts, total_per_setting=float(n_per_setting)
    )


_TRIL = np.tril_indices(4, -1)
_DIAG = np.diag_indices(4)


def _t_to_matrix(t: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[_DIAG] = t[:4]
    m[_TRIL] = t[4:10] + 1j * t[10:16]
    return m


def _matrix_to_t(m: np.ndarray) -> np.ndarray:
    t = np.zeros(16)
    t[:4] = m[_DIAG].real
    t[4:10] = m[_TRIL].real
    t[10:16] = m[_TRIL].imag
    return t


def _nll(q: np.ndarray, counts: np.ndarray, scale: float) -> float:
    """Poisson negative log-likelihood up to count-only constants."""
    q = np.maximum(q, 1e-300)
    return float(np.sum(scale * q - counts * np.log(q)))


def _mle_refine(rho_start, projs, counts, scale):
    """Maximize the Poisson likelihood from a physical starting state.

    rho is parameterized as T T^dagger with T lower triangular (16 real
    parameters, unnormalized trace); the result is trace-normalized.
    """

    def objective(t):
        T = _t_to_matrix(t)
        rho = T @ T.conj().T
        q = np.einsum("kij,ji->k", projs, rho).real
        q = np.maximum(q, 1e-300)
        nll = np.sum(scale * q - counts * np.log(q))
        weights = scale - counts / q
        M = np.einsum("k,kij->ij", weights, projs)
        G = 2.0 * (M @ T)
        grad = np.zeros(16)
        grad[:4] = G[_DIAG].real
        grad[4:10] = G[_TRIL].real
        grad[10:16] = G[_TRIL].imag
        return nll, grad

    w, v = np.linalg.eigh(rho_start)
    w = np.clip(w, 1e-8, None)
    w = w / w.sum()
    t0 = _matrix_to_t(np.linalg.cholesky((v * w) @ v.conj().T))
    result = minimize(objective, t0, jac=True, method="L-BFGS-B",
                      options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
    T = _t_to_matrix(result.x)
    rho = T @ T.conj().T
    trace = np.trace(rho).real
    if trace <= 0.0:
        return None
    return rho / trace


def _projector_system(record: TomographyRecord):
    """Projector stack and linear system of a record's settings, checked as in `reconstruct`."""
    if len(record.settings) == 0:
        raise EmptyRecordError("record has no settings")
    projs = np.stack([s.projector for s in record.settings])
    system = projs.transpose(0, 2, 1).reshape(len(record.settings), 16)
    rank = np.linalg.matrix_rank(system, tol=1e-10)
    if rank < 16:
        raise SingularSystemError(f"settings span only {rank} of 16 operator dimensions")
    return projs, system


def _reconstruct(projs, system, counts, scale) -> np.ndarray:
    """Reconstruction kernel on a checked projector system; see `reconstruct`."""
    freqs = counts / scale
    x, *_ = np.linalg.lstsq(system, freqs.astype(complex), rcond=None)
    rho_lin = x.reshape(4, 4)
    rho_lin = 0.5 * (rho_lin + rho_lin.conj().T)

    w, v = np.linalg.eigh(rho_lin)
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        return np.eye(4, dtype=complex) / 4.0
    w = w / w.sum()
    rho_proj = (v * w) @ v.conj().T

    rho_mle = _mle_refine(rho_proj, projs, counts, scale)
    if rho_mle is None:
        return rho_proj
    q_proj = np.einsum("kij,ji->k", projs, rho_proj).real
    q_mle = np.einsum("kij,ji->k", projs, rho_mle).real
    if _nll(q_mle, counts, scale) < _nll(q_proj, counts, scale):
        return rho_mle
    return rho_proj


def reconstruct(record: TomographyRecord) -> np.ndarray:
    """Reconstruct a physical density matrix from a tomography record.

    Linear inversion of the normalized counts against the projector system,
    hermitization, eigenvalue clip-and-renormalize, then Poisson
    maximum-likelihood refinement; the candidate with the better likelihood
    wins, so exact (noiseless) counts reproduce the state exactly. Raises
    SingularSystemError if the settings do not span the operator space and
    EmptyRecordError for a record with no settings.
    """
    projs, system = _projector_system(record)
    return _reconstruct(projs, system, record.counts, record.total_per_setting)


BOOTSTRAP_KEYS = ("I", "C", "Q", "REE", "lambda1", "lambda2", "lambda3", "lambda4")


def state_quantities(rho) -> np.ndarray:
    """The BOOTSTRAP_KEYS of a state: I, C, Q, REE in bits, then its sorted eigenvalues."""
    lam = eigenvalues_sorted(rho)
    return np.array([*bell_correlations(lam), *lam])


def error_bars(record: TomographyRecord, resamples: int, seed) -> dict[str, float]:
    """Parametric-bootstrap standard deviations of the correlation quantities.

    Each resample redraws every count from Poisson(observed count),
    reconstructs, and evaluates the correlation measures on the sorted
    eigenvalues. Resample r uses the substream (seed, r), so results do not
    depend on evaluation order. Returns sample standard deviations for
    I, C, Q, REE and the four eigenvalues.
    """
    projs, system = _projector_system(record)
    if resamples < 2:
        raise ValueError(f"resamples must be >= 2, got {resamples}")
    samples = np.empty((resamples, len(BOOTSTRAP_KEYS)))
    for r in range(resamples):
        counts = _rng_from(seed, r).poisson(record.counts).astype(float)
        samples[r] = state_quantities(_reconstruct(projs, system, counts, record.total_per_setting))
    stds = samples.std(axis=0, ddof=1)
    return dict(zip(BOOTSTRAP_KEYS, stds.tolist()))
