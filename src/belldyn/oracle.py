"""Brute-force relative-entropy minimizers that validate the analytic measures.

The quantum-correlation oracle searches all product measurement bases (two
Bloch directions) on a coarse grid with local refinement; for a fixed basis
the closest classical state is the dephased input, so the objective reduces
to the Shannon entropy of the four product-basis populations. The search runs
once per state: its result is kept for the last (matrix, grid) pair, so the
classical-correlation oracle called on the matrix the quantum-correlation
oracle just searched reuses that basis. The entanglement oracle minimizes the
classical relative entropy over the separable Bell-diagonal simplex (all
eigenvalues <= 1/2) by a coarse simplex grid followed by pattern refinement
along pairwise-exchange directions.

Each basis grid, the coarse simplex grid and each round of exchange moves is
evaluated as one array. Results are deterministic for a fixed grid spec, with
ties broken by the smallest flattened grid index or move index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, OracleInputError
from .qstate import (
    PAULIS,
    dephase_in_product_basis,
    partial_trace,
    shannon_bits,
    validate_bell_spectrum,
    validate_state,
)


def _check_refinement(spec) -> None:
    """OracleInputError unless a spec's shrink factor is finite and positive and its tol is not NaN."""
    if not 0.0 < spec.shrink < math.inf:
        raise OracleInputError(f"shrink must be finite and positive, got {spec.shrink}")
    if math.isnan(spec.tol):
        raise OracleInputError("tol must not be NaN")


@dataclass(frozen=True)
class GridSpec:
    """Search control for the product-basis minimization.

    The coarse pass scans n_phi x n_theta directions per side; each refinement
    round re-grids a window around the best point, shrinking it by `shrink`.
    At least refine_rounds rounds run; rounds continue until the objective
    improves by no more than `tol`, up to max_rounds.
    """

    n_phi: int = 24
    n_theta: int = 12
    refine_rounds: int = 3
    shrink: float = 4.0
    tol: float = 1e-6
    max_rounds: int = 50

    def __post_init__(self):
        for name, low in (("n_phi", 1), ("n_theta", 2)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= low):
                raise OracleInputError(f"{name} must be an integer >= {low}, got {value!r}")
        _check_refinement(self)


@dataclass(frozen=True)
class SimplexGridSpec:
    """Search control for the separable Bell-diagonal minimization.

    `resolution` is the coarse simplex grid denominator; refinement is a
    pattern search over pairwise exchanges with step shrinking by `shrink`
    per round, at least refine_rounds rounds, until a round improves by no
    more than `tol`.
    """

    resolution: int = 20
    refine_rounds: int = 6
    shrink: float = 4.0
    tol: float = 1e-9
    max_rounds: int = 60

    def __post_init__(self):
        if not isinstance(self.resolution, (int, np.integer)):
            raise OracleInputError(f"resolution must be an integer, got {self.resolution!r}")
        _check_refinement(self)


def closest_product_state(rho) -> np.ndarray:
    """Tensor product of the two reduced states; the nearest product state."""
    rho = validate_state(rho)
    return np.kron(partial_trace(rho, "A"), partial_trace(rho, "B"))


def _pauli_components(rho: np.ndarray):
    """Local Bloch vectors and the 3x3 correlation matrix of a two-qubit state."""
    r = rho.reshape(2, 2, 2, 2)
    vec_a = np.einsum("abcb,ica->i", r, PAULIS).real
    vec_b = np.einsum("abad,jdb->j", r, PAULIS).real
    corr = np.einsum("abcd,ica,jdb->ij", r, PAULIS, PAULIS).real
    return vec_a, vec_b, corr


def _direction_grid(thetas: np.ndarray, phis: np.ndarray):
    """Unit vectors for every (theta, phi) pair, flattened with theta-major order."""
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    t = t.ravel()
    p = p.ravel()
    dirs = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=1)
    return dirs, t, p


#: signs of the a and b Bloch terms in the four product-basis populations
_SIGNS_A = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
_SIGNS_B = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]


def _population_entropy(vec_a, vec_b, corr, dirs_a, dirs_b) -> np.ndarray:
    """Entropy of the four product-basis populations for every direction pair.

    The populations (1 + sa a.r_a + sb b.r_b + sa sb a.T.b) / 4 of the sign
    pairs (+,+), (+,-), (-,+), (-,-) are built in one broadcast. They are
    clipped to [0, 1], and a zero population adds 0 to the entropy, as in
    `shannon_bits`.
    """
    cross = dirs_a @ corr @ dirs_b.T
    probs = (1.0 + _SIGNS_A * (dirs_a @ vec_a)[:, None]) + _SIGNS_B * (dirs_b @ vec_b)
    probs[::3] += cross
    probs[1:3] -= cross
    probs *= 0.25
    np.clip(probs, 0.0, 1.0, out=probs)
    logs = np.maximum(probs, np.finfo(float).tiny)
    np.log2(logs, out=logs)
    logs *= probs
    return -logs.sum(axis=0)


def _validated_search(rho, grid: GridSpec | None):
    """The validated two-qubit state and its minimizing basis (entropy, dir_a, dir_b).

    This is the oracles' one input check; a matrix that is not a two-qubit
    state raises InvalidStateError or OracleInputError. The search is keyed
    by the matrix's bytes and the grid.
    """
    rho = validate_state(rho)
    if rho.shape != (4, 4):
        raise OracleInputError(f"the oracles expect a two-qubit state, got shape {rho.shape}")
    return rho, _minimizing_basis(rho.tobytes(), grid or GridSpec())


@functools.lru_cache(maxsize=1)
def _minimizing_basis(state: bytes, grid: GridSpec):
    """Product basis minimizing the dephased entropy; returns (entropy, dir_a, dir_b).

    Only the last (state, grid) pair is kept, and its directions are
    read-only. A search that raises NonConvergenceError is not kept.
    """
    rho = np.frombuffer(state, dtype=complex).reshape(4, 4)
    vec_a, vec_b, corr = _pauli_components(rho)
    thetas = np.linspace(0.0, math.pi, grid.n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, grid.n_phi, endpoint=False)
    dirs, tgrid, pgrid = _direction_grid(thetas, phis)
    ent = _population_entropy(vec_a, vec_b, corr, dirs, dirs)
    ia, ib = np.unravel_index(np.argmin(ent), ent.shape)
    best = float(ent[ia, ib])
    center_a = (tgrid[ia], pgrid[ia])
    center_b = (tgrid[ib], pgrid[ib])

    # round 1 re-grids a window of one full coarse cell around the best point;
    # each later round shrinks the window by the configured factor
    w_theta = math.pi / (grid.n_theta - 1)
    w_phi = 2.0 * math.pi / grid.n_phi
    rounds = 0
    while True:
        rounds += 1
        dirs_a, tg_a, pg_a = _direction_grid(
            np.linspace(center_a[0] - w_theta, center_a[0] + w_theta, grid.n_theta),
            np.linspace(center_a[1] - w_phi, center_a[1] + w_phi, grid.n_phi),
        )
        dirs_b, tg_b, pg_b = _direction_grid(
            np.linspace(center_b[0] - w_theta, center_b[0] + w_theta, grid.n_theta),
            np.linspace(center_b[1] - w_phi, center_b[1] + w_phi, grid.n_phi),
        )
        ent = _population_entropy(vec_a, vec_b, corr, dirs_a, dirs_b)
        ia, ib = np.unravel_index(np.argmin(ent), ent.shape)
        improvement = best - float(ent[ia, ib])
        if improvement > 0.0:
            best = float(ent[ia, ib])
            center_a = (tg_a[ia], pg_a[ia])
            center_b = (tg_b[ib], pg_b[ib])
        w_theta /= grid.shrink
        w_phi /= grid.shrink
        if rounds >= grid.refine_rounds and improvement <= grid.tol:
            break
        if rounds >= grid.max_rounds:
            raise NonConvergenceError(
                f"basis refinement still improving by {improvement} after {rounds} rounds"
            )

    def _unit(theta, phi):
        return np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )

    dir_a, dir_b = _unit(*center_a), _unit(*center_b)
    dir_a.flags.writeable = dir_b.flags.writeable = False
    return best, dir_a, dir_b


def oracle_quantum_correlation(rho, grid: GridSpec | None = None) -> float:
    """Minimum of S(rho || dephased rho) over product bases, in bits."""
    rho, (best, _, _) = _validated_search(rho, grid)
    s_rho = float(shannon_bits(np.linalg.eigvalsh(rho)))
    return max(best - s_rho, 0.0)


def oracle_classical_correlation(rho, grid: GridSpec | None = None) -> float:
    """Classical correlation of the classical state found by the basis search.

    Dephases rho in the minimizing product basis and returns S(pi_chi) - S(chi)
    against the product of the marginals of chi. The basis is searched once
    per (matrix, grid): after `oracle_quantum_correlation` on the same matrix,
    its basis is reused.
    """
    rho, (_, dir_a, dir_b) = _validated_search(rho, grid)
    chi = dephase_in_product_basis(rho, dir_a, dir_b)
    s_chi = float(shannon_bits(np.linalg.eigvalsh(chi)))
    s_pi = float(shannon_bits(np.linalg.eigvalsh(closest_product_state(chi))))
    return max(s_pi - s_chi, 0.0)


#: the pairwise exchanges q_a += step, q_b -= step of the pattern search, in move order
_EXCHANGES = np.array([np.eye(4)[a] - np.eye(4)[b] for a in range(4) for b in range(4) if a != b])


def _kl_bits(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Classical relative entropy sum lam log2(lam/q) of each row of q; +inf off its support.

    Terms with lam = 0 are left out.
    """
    support = lam > 0.0
    with np.errstate(divide="ignore"):
        return (lam[support] * np.log2(lam[support] / q[:, support])).sum(axis=1)


def _separable_grid(n: int) -> np.ndarray:
    """Points [i, j, k, n - i - j - k] / n with no entry above 1/2, in (i, j, k) order;
    none for n <= 0."""
    i, j, k = np.indices((n + 1 if n > 0 else 0,) * 3).reshape(3, -1)
    counts = np.stack([i, j, k, n - i - j - k], axis=1)[i + j + k <= n]
    points = counts / n
    return points[~(points.max(axis=1) > 0.5 + 1e-12)]


def oracle_ree_bell(spectrum, grid: SimplexGridSpec | None = None) -> float:
    """Minimum relative entropy to the separable Bell-diagonal set, in bits."""
    lam = validate_bell_spectrum(spectrum)
    grid = grid or SimplexGridSpec()
    n = grid.resolution

    points = _separable_grid(n)
    values = _kl_bits(lam, points)
    if not np.any(values < math.inf):
        raise NonConvergenceError(
            f"no feasible point on the coarse simplex grid at resolution {n}"
        )
    first = int(np.argmin(values))
    best, best_q = float(values[first]), points[first]

    step = 1.0 / n
    rounds = 0
    while True:
        rounds += 1
        round_gain = 0.0
        while True:
            moves = best_q + step * _EXCHANGES
            feasible = ~((moves.min(axis=1) < -1e-12) | (moves.max(axis=1) > 0.5 + 1e-12))
            moves = np.clip(moves[feasible], 0.0, 0.5)
            moves /= moves.sum(axis=1, keepdims=True)
            values = _kl_bits(lam, moves)
            if not np.any(values < best):
                break
            first = int(np.argmin(values))
            round_gain += best - float(values[first])
            best, best_q = float(values[first]), moves[first]
        step /= grid.shrink
        if rounds >= grid.refine_rounds and round_gain <= grid.tol:
            break
        if rounds >= grid.max_rounds:
            raise NonConvergenceError(
                f"simplex refinement still improving by {round_gain} after {rounds} rounds"
            )
    return max(best, 0.0)
