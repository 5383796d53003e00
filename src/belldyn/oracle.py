"""Brute-force relative-entropy minimizers that validate the analytic measures.

The quantum-correlation oracle searches all product measurement bases (two
Bloch directions) for the least Shannon entropy H(p) of the four product-basis
populations p: for a fixed basis the closest classical state chi is the
dephased input, so H(p) - S(rho) is the relative entropy to it. The search
starts from a coarse set of directions per side, one of each antipodal pair
(a direction and its negative give the same basis), and refines each side on
a small grid in the tangent plane at the best direction, which treats the
poles like any other point. The closest product state to chi is the product of
its marginals, so the classical-correlation oracle is the mutual information
H(p_A) + H(p_B) - H(p) of the same searched populations. The search runs once
per state: its two entropies are kept for the last matrix searched, so the two
oracles called on the same matrix share one search. The entanglement oracle
minimizes the classical relative entropy over the separable Bell-diagonal
simplex (all eigenvalues <= 1/2) by a coarse simplex grid followed by pattern
refinement along pairwise-exchange directions. The two basis oracles take a
two-qubit (4x4) state, and the entanglement oracle a sorted Bell-diagonal
spectrum.

The direction pairs are evaluated in blocks of one window's rows of the first
side against all of the second, so no state refaults its temporaries: the
largest population grid is (4, 49, 123), small enough that the allocator keeps
it for the next state. The coarse simplex grid and each round of exchange
moves are evaluated as one array. Both searches are fixed by the module
constants below, so results are deterministic, with ties broken by the
smallest flattened pair index or move index.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NonConvergenceError
from .qstate import PAULIS, shannon_bits, validate_bell_spectrum, validate_state


#: the product-basis search. The coarse set is one direction of each +- pair of
#: the _N_THETA x _N_PHI (theta, phi) grid, with the pole ring as one point, plus
#: the x and y axes. Each refinement round grids, per side, the tangent plane at
#: the best direction c: c + s e1 + t e2, normalized, for s and t on _WINDOW
#: (odd) points over [-w, w], so c is a window row. w starts at one coarse cell
#: and each round's w is the last round's grid step. At least _BASIS_REFINE_ROUNDS
#: rounds run; rounds continue until one improves by no more than _BASIS_TOL, up
#: to _BASIS_MAX_ROUNDS.
_N_PHI = 24
_N_THETA = 12
_WINDOW = 7
_BASIS_REFINE_ROUNDS = 3
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


def _coarse_directions() -> np.ndarray:
    """Read-only coarse directions: the pole, the open upper-hemisphere rings theta-major, x, y."""
    t, p = np.meshgrid(np.linspace(0.0, math.pi, _N_THETA)[1:_N_THETA // 2],
                       np.linspace(0.0, 2.0 * math.pi, _N_PHI, endpoint=False), indexing="ij")
    rings = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    dirs = np.vstack([[0.0, 0.0, 1.0], rings.reshape(-1, 3), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    dirs.flags.writeable = False
    return dirs


_COARSE = _coarse_directions()


def _window(center: np.ndarray, w: float) -> np.ndarray:
    """Unit directions center + s e1 + t e2, s-major, for s, t on _WINDOW points over [-w, w].

    e1, e2 is the orthonormal frame of Duff et al. (JCGT 6(1), 2017), defined at
    every unit center, both poles included; its sign choice flips at z = 0. The
    middle row is the center.
    """
    x, y, z = center
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.array([1.0 + sign * x * x * a, sign * b, -sign * x])
    e2 = np.array([b, sign + y * y * a, -y])
    steps = np.arange(-(_WINDOW // 2), _WINDOW // 2 + 1) * (w / (_WINDOW // 2))
    dirs = (center + steps[:, None, None] * e1 + steps[None, :, None] * e2).reshape(-1, 3)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


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


def _best_pair(components, dirs_a, dirs_b):
    """The least population entropy over the direction pairs, its populations and its pair.

    dirs_a is taken in blocks of one window's rows, so the largest population
    grid is (4, _WINDOW ** 2, len(dirs_b)), small enough that the allocator
    keeps it for the next block and state; a window is one block. Each block
    is evaluated as one array, and a later block wins only if strictly lower,
    so ties go to the smallest flattened index. The populations are a copy, so
    no population grid outlives its block.
    """
    best = None
    for start in range(0, len(dirs_a), _WINDOW ** 2):
        block = dirs_a[start:start + _WINDOW ** 2]
        probs = _populations(*components, block, dirs_b)
        ent = _entropy(probs)
        ia, ib = np.unravel_index(np.argmin(ent), ent.shape)
        if best is None or ent[ia, ib] < best[0]:
            best = float(ent[ia, ib]), probs[:, ia, ib].copy(), block[ia], dirs_b[ib]
    return best


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
    components = _pauli_components(np.frombuffer(state, dtype=complex).reshape(4, 4))
    best, best_p, center_a, center_b = _best_pair(components, _COARSE, _COARSE)
    w = math.pi / (_N_THETA - 1)
    rounds = 0
    while True:
        rounds += 1
        value, p, a, b = _best_pair(components, _window(center_a, w), _window(center_b, w))
        improvement = best - value
        if improvement > 0.0:
            best, best_p, center_a, center_b = value, p, a, b
        w /= _WINDOW // 2
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

    lam holds only the nonzero eigenvalues and q the same columns, so terms
    with lam = 0 are left out. A zero q divides by zero: callers ignore that
    warning.
    """
    return (lam * np.log2(lam / q)).sum(axis=1)


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
    support = lam > 0.0
    lam = lam[support]
    points = _separable_grid(_RESOLUTION)
    with np.errstate(divide="ignore"):
        values = _kl_bits(lam, points[:, support])
        first = int(np.argmin(values))
        best, best_q = float(values[first]), points[first]

        step = 1.0 / _RESOLUTION
        rounds = 0
        while True:
            rounds += 1
            round_gain = 0.0
            while True:
                moves = best_q + step * _EXCHANGES
                moves = moves[(moves.min(axis=1) >= -1e-12) & (moves.max(axis=1) <= 0.5 + 1e-12)]
                np.clip(moves, 0.0, 0.5, out=moves)
                moves /= moves.sum(axis=1, keepdims=True)
                values = _kl_bits(lam, moves[:, support])
                first = int(np.argmin(values))
                if not values[first] < best:
                    break
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
