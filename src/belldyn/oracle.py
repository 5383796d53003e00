"""Brute-force relative-entropy minimizers that validate the analytic measures.

The quantum-correlation oracle searches all product measurement bases (two
Bloch directions) on a coarse grid with local refinement; for a fixed basis
the closest classical state chi is the dephased input, so the objective
reduces to the Shannon entropy H(p) of the four product-basis populations p.
The closest product state to chi is the product of its marginals, so the
classical-correlation oracle is the mutual information H(p_A) + H(p_B) - H(p)
of the same searched populations. The search runs once per state: its two
entropies are kept for the last matrix searched, so the two oracles called on
the same matrix share one search. The entanglement oracle minimizes the
classical relative entropy over the separable Bell-diagonal simplex (all
eigenvalues <= 1/2) by a coarse simplex grid followed by pattern refinement
along pairwise-exchange directions. The two basis oracles take a two-qubit
(4x4) state, and the entanglement oracle a sorted Bell-diagonal spectrum.

Each basis grid, the coarse simplex grid and each round of exchange moves is
evaluated as one array. Both searches are fixed by the module constants below,
so results are deterministic, with ties broken by the smallest flattened grid
index or move index.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NonConvergenceError
from .qstate import PAULIS, shannon_bits, validate_bell_spectrum, validate_state


#: the product-basis search: _N_PHI x _N_THETA directions per side, on the coarse
#: grid and in each refinement round around the best point, whose window shrinks
#: by _BASIS_SHRINK per round. At least _BASIS_REFINE_ROUNDS rounds run; rounds
#: continue until one improves by no more than _BASIS_TOL, up to _BASIS_MAX_ROUNDS.
_N_PHI = 24
_N_THETA = 12
_BASIS_REFINE_ROUNDS = 3
_BASIS_SHRINK = 4.0
_BASIS_TOL = 1e-6
_BASIS_MAX_ROUNDS = 50

#: the separable-simplex search: the coarse grid denominator, then a pattern
#: search over pairwise exchanges whose step shrinks by _SIMPLEX_SHRINK per round,
#: under the same round rule. At resolution 20 the coarse grid holds the uniform
#: point, which is feasible for every spectrum.
_RESOLUTION = 20
_SIMPLEX_REFINE_ROUNDS = 6
_SIMPLEX_SHRINK = 4.0
_SIMPLEX_TOL = 1e-9
_SIMPLEX_MAX_ROUNDS = 60


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


def _populations(vec_a, vec_b, corr, dirs_a, dirs_b) -> np.ndarray:
    """The four product-basis populations for every direction pair, shape (4, len(a), len(b)).

    The populations (1 + sa a.r_a + sb b.r_b + sa sb a.T.b) / 4 of the sign
    pairs (+,+), (+,-), (-,+), (-,-) are built in one broadcast and clipped
    to [0, 1].
    """
    cross = dirs_a @ corr @ dirs_b.T
    probs = (1.0 + _SIGNS_A * (dirs_a @ vec_a)[:, None]) + _SIGNS_B * (dirs_b @ vec_b)
    probs[::3] += cross
    probs[1:3] -= cross
    probs *= 0.25
    return np.clip(probs, 0.0, 1.0, out=probs)


def _entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy along the first axis; a zero population adds 0, as in `shannon_bits`."""
    logs = np.maximum(probs, np.finfo(float).tiny)
    np.log2(logs, out=logs)
    logs *= probs
    return -logs.sum(axis=0)


def _marginal_entropy(p: np.ndarray) -> np.ndarray:
    """H(p_A) + H(p_B) along the first axis: p_A = (p0 + p1, p2 + p3), p_B = (p0 + p2, p1 + p3)."""
    return _entropy(np.array([[p[0] + p[1], p[0] + p[2]], [p[2] + p[3], p[1] + p[3]]])).sum(axis=0)


def _validated_search(rho):
    """The validated two-qubit state and its basis search (H(p), H(p_A) + H(p_B)).

    This is the oracles' one input check; a matrix that is not a two-qubit
    state raises InvalidStateError. The search is keyed by the matrix's bytes.
    """
    rho = validate_state(rho)
    return rho, _minimizing_basis(rho.tobytes())


@functools.lru_cache(maxsize=1)
def _minimizing_basis(state: bytes) -> tuple[float, float]:
    """Search the product bases for the least population entropy H(p).

    Returns H(p) and the marginal entropies H(p_A) + H(p_B) of the same
    populations p. Only the last state is kept; a search that raises
    NonConvergenceError is not kept.
    """
    rho = np.frombuffer(state, dtype=complex).reshape(4, 4)
    vec_a, vec_b, corr = _pauli_components(rho)
    thetas = np.linspace(0.0, math.pi, _N_THETA)
    phis = np.linspace(0.0, 2.0 * math.pi, _N_PHI, endpoint=False)
    dirs, tgrid, pgrid = _direction_grid(thetas, phis)
    probs = _populations(vec_a, vec_b, corr, dirs, dirs)
    ent = _entropy(probs)
    ia, ib = np.unravel_index(np.argmin(ent), ent.shape)
    # best_p is a copy, so no round's population grid outlives the round
    best, best_p = float(ent[ia, ib]), probs[:, ia, ib].copy()
    center_a = (tgrid[ia], pgrid[ia])
    center_b = (tgrid[ib], pgrid[ib])

    # round 1 re-grids a window of one full coarse cell around the best point;
    # each later round shrinks the window by _BASIS_SHRINK
    w_theta = math.pi / (_N_THETA - 1)
    w_phi = 2.0 * math.pi / _N_PHI
    rounds = 0
    while True:
        rounds += 1
        dirs_a, tg_a, pg_a = _direction_grid(
            np.linspace(center_a[0] - w_theta, center_a[0] + w_theta, _N_THETA),
            np.linspace(center_a[1] - w_phi, center_a[1] + w_phi, _N_PHI),
        )
        dirs_b, tg_b, pg_b = _direction_grid(
            np.linspace(center_b[0] - w_theta, center_b[0] + w_theta, _N_THETA),
            np.linspace(center_b[1] - w_phi, center_b[1] + w_phi, _N_PHI),
        )
        probs = _populations(vec_a, vec_b, corr, dirs_a, dirs_b)
        ent = _entropy(probs)
        ia, ib = np.unravel_index(np.argmin(ent), ent.shape)
        improvement = best - float(ent[ia, ib])
        if improvement > 0.0:
            best, best_p = float(ent[ia, ib]), probs[:, ia, ib].copy()
            center_a = (tg_a[ia], pg_a[ia])
            center_b = (tg_b[ib], pg_b[ib])
        w_theta /= _BASIS_SHRINK
        w_phi /= _BASIS_SHRINK
        if rounds >= _BASIS_REFINE_ROUNDS and improvement <= _BASIS_TOL:
            break
        if rounds >= _BASIS_MAX_ROUNDS:
            raise NonConvergenceError(
                f"basis refinement still improving by {improvement} after {rounds} rounds"
            )
    return best, float(_marginal_entropy(best_p))


def oracle_quantum_correlation(rho) -> float:
    """Minimum of S(rho || dephased rho) over product bases, in bits."""
    rho, (best, _) = _validated_search(rho)
    s_rho = float(shannon_bits(np.linalg.eigvalsh(rho)))
    return max(best - s_rho, 0.0)


def oracle_classical_correlation(rho) -> float:
    """Classical correlation of the classical state found by the basis search, in bits.

    The classical state chi is rho dephased in the minimizing product basis,
    with populations p; its closest product state is the product of its
    marginals, so C = S(pi_chi) - S(chi) = H(p_A) + H(p_B) - H(p), the mutual
    information of the populations. The basis is searched once per matrix:
    after `oracle_quantum_correlation` on the same matrix, its search is reused.
    """
    _, (best, marginals) = _validated_search(rho)
    return max(marginals - best, 0.0)


#: the pairwise exchanges q_a += step, q_b -= step of the pattern search, in move order
_EXCHANGES = np.array([np.eye(4)[a] - np.eye(4)[b] for a in range(4) for b in range(4) if a != b])


def _kl_bits(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Classical relative entropy sum lam log2(lam/q) of each row of q; +inf off its support.

    Terms with lam = 0 are left out.
    """
    support = lam > 0.0
    with np.errstate(divide="ignore"):
        return (lam[support] * np.log2(lam[support] / q[:, support])).sum(axis=1)


@functools.lru_cache(maxsize=1)
def _separable_grid(n: int) -> np.ndarray:
    """Read-only points [i, j, k, n - i - j - k] / n with no entry above 1/2, in (i, j, k) order."""
    i, j, k = np.indices((n + 1,) * 3).reshape(3, -1)
    counts = np.stack([i, j, k, n - i - j - k], axis=1)[i + j + k <= n]
    points = counts / n
    points = points[~(points.max(axis=1) > 0.5 + 1e-12)]
    points.flags.writeable = False
    return points


def oracle_ree_bell(spectrum) -> float:
    """Minimum relative entropy to the separable Bell-diagonal set, in bits."""
    lam = validate_bell_spectrum(spectrum)
    points = _separable_grid(_RESOLUTION)
    values = _kl_bits(lam, points)
    first = int(np.argmin(values))
    best, best_q = float(values[first]), points[first]

    step = 1.0 / _RESOLUTION
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
        step /= _SIMPLEX_SHRINK
        if rounds >= _SIMPLEX_REFINE_ROUNDS and round_gain <= _SIMPLEX_TOL:
            break
        if rounds >= _SIMPLEX_MAX_ROUNDS:
            raise NonConvergenceError(
                f"simplex refinement still improving by {round_gain} after {rounds} rounds"
            )
    return max(best, 0.0)
