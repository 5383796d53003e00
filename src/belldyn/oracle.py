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
H(p_A) + H(p_B) - H(p) of the same searched populations. The state check and
the search run once per state: the last matrix searched, keyed by its shape and
bytes, keeps its two entropies and S(rho), taken from the eigenvalues of the
state check, so the two oracles called on the same matrix share one
`validate_state` call and one search. The entanglement oracle
minimizes the classical relative entropy over the separable Bell-diagonal
simplex (all eigenvalues <= 1/2) by a coarse simplex grid followed by pattern
refinement along pairwise-exchange directions. The two basis oracles take a
two-qubit (4x4) state, and the entanglement oracle a sorted Bell-diagonal
spectrum.

The direction pairs are evaluated in blocks of one window's rows of the first
side against all of the second, so no state refaults its temporaries: the
largest population grid is (4, 49, 123), small enough that the allocator keeps
it for the next state. The inner loops are bound by numpy's per-call cost, so
each takes few calls: the populations' 1/4 is folded into the Pauli
components once per state (a power of two scales exactly), clips are in-place
np.maximum and np.minimum (which differ from np.clip only on -0.0, and no
population or move is -0.0), and a window's frame is Python float arithmetic.
The coarse simplex grid is evaluated as one array, and so is each exchange
step, over its feasible moves only: a move changes two entries, so its bounds
are read off those two. Both searches are fixed by the module constants below,
so results are deterministic, with ties broken by the smallest flattened pair
index or move index.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import _numbers
from .errors import InvalidStateError, NonConvergenceError
from .qstate import shannon_bits, validate_bell_spectrum, validate_state


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

#: sigma_x, sigma_y, sigma_z
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _pauli_components(rho: np.ndarray):
    """A quarter of the local Bloch vectors and of the 3x3 correlation matrix of a two-qubit state.

    A power of two scales every product and sum exactly, so the populations
    built from the quarters have the bits of the whole sums divided by 4.
    """
    r = 0.25 * rho.reshape(2, 2, 2, 2)
    vec_a = np.einsum("abcb,ica->i", r, _PAULIS).real
    vec_b = np.einsum("abad,jdb->j", r, _PAULIS).real
    corr = np.einsum("abcd,ica,jdb->ij", r, _PAULIS, _PAULIS).real
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
    x, y, z = center.tolist()
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.array([1.0 + sign * x * x * a, sign * b, -sign * x])
    e2 = np.array([b, sign + y * y * a, -y])
    steps = np.arange(-(_WINDOW // 2), _WINDOW // 2 + 1) * (w / (_WINDOW // 2))
    dirs = (center + steps[:, None, None] * e1 + steps[None, :, None] * e2).reshape(-1, 3)
    dirs /= np.sqrt(np.add.reduce(dirs * dirs, axis=1, keepdims=True))  # np.linalg.norm's arithmetic
    return dirs


#: signs of the a and the b Bloch terms: the first two axes of a population grid, before its reshape
_SIGNS_A = np.array([1.0, -1.0])[:, None, None]
_SIGNS_B = np.array([1.0, -1.0])[:, None]


def _populations(vec_a, vec_b, corr, dirs_a, dirs_b) -> np.ndarray:
    """The four product-basis populations for every direction pair, shape (4, len(a), len(b)).

    The populations (1 + sa a.r_a + sb b.r_b + sa sb a.T.b) / 4 of the sign
    pairs (+,+), (+,-), (-,+), (-,-) are built from the quarter components of
    `_pauli_components` and clipped to [0, 1]. Their outer sums x + y, x = 1/4 +
    sa a.r_a and y = sb b.r_b, are one batched matmul of the rows [x, 1] against
    the columns [1, y]: each entry is x*1 + 1*y, two exact products and one
    rounded sum. Only signed zeros could make that depend on the kernel's order of
    adding, or on its starting from +0, and x is never -0.0 (a rounded sum is -0.0
    only if both terms are), so every entry has the bits of x + y.
    """
    cross = dirs_a @ corr @ dirs_b.T
    rows = np.ones((2, 1, len(dirs_a), 2))
    rows[..., 0] = 0.25 + _SIGNS_A * (dirs_a @ vec_a)
    cols = np.ones((1, 2, 2, len(dirs_b)))
    cols[:, :, 1] = _SIGNS_B * (dirs_b @ vec_b)
    probs = (rows @ cols).reshape(4, len(dirs_a), len(dirs_b))
    probs[::3] += cross
    probs[1:3] -= cross
    np.maximum(probs, 0.0, out=probs)
    return np.minimum(probs, 1.0, out=probs)


def _entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy along the first axis; a zero population adds 0, as in `shannon_bits`."""
    logs = np.maximum(probs, np.finfo(float).tiny)
    np.log2(logs, out=logs)
    logs *= probs
    return -np.add.reduce(logs, axis=0)


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
        ia, ib = divmod(int(ent.argmin()), len(dirs_b))
        if best is None or ent[ia, ib] < best[0]:
            best = float(ent[ia, ib]), probs[:, ia, ib].copy(), block[ia], dirs_b[ib]
    return best


@functools.lru_cache(maxsize=1)
def _minimizing_basis(shape: tuple[int, ...], state: bytes) -> tuple[float, float, float]:
    """Validate a complex matrix given by its shape and bytes and search its product bases.

    Returns the least population entropy H(p), the marginal entropies
    H(p_A) + H(p_B) of the same populations p, and S(rho). This is the oracles'
    one input check: a matrix that is not a two-qubit state raises
    InvalidStateError. Only the last state is kept; a call that raises is not
    kept.
    """
    rho, eigenvalues = validate_state(np.frombuffer(state, dtype=complex).reshape(shape))
    components = _pauli_components(rho)
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
    return best, float(_marginal_entropy(best_p)), float(shannon_bits(eigenvalues))


def oracle_quantum_correlation(rho) -> float:
    """Minimum of S(rho || dephased rho) over product bases, in bits."""
    rho = _numbers(rho, complex, InvalidStateError, "a state must be an array of numbers")
    best, _, s_rho = _minimizing_basis(rho.shape, rho.tobytes())
    return max(best - s_rho, 0.0)


def oracle_classical_correlation(rho) -> float:
    """Classical correlation of the classical state found by the basis search, in bits.

    The classical state chi is rho dephased in the minimizing product basis,
    with populations p; its closest product state is the product of its
    marginals, so C = S(pi_chi) - S(chi) = H(p_A) + H(p_B) - H(p), the mutual
    information of the populations. The basis is searched once per matrix:
    after `oracle_quantum_correlation` on the same matrix, its search is reused.
    """
    rho = _numbers(rho, complex, InvalidStateError, "a state must be an array of numbers")
    best, marginals, _ = _minimizing_basis(rho.shape, rho.tobytes())
    return max(marginals - best, 0.0)


#: the pairwise exchanges q_a += step, q_b -= step of the pattern search, in move order: their (a, b)
#: and their directions
_PAIRS = [(a, b) for a in range(4) for b in range(4) if a != b]
_EXCHANGES = np.array([np.eye(4)[a] - np.eye(4)[b] for a, b in _PAIRS])


def _kl_bits(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Classical relative entropy sum lam log2(lam/q) of each row of q; +inf off its support.

    lam holds only the nonzero eigenvalues and q the same columns, so terms
    with lam = 0 are left out. A zero q divides by zero: callers ignore that
    warning.
    """
    terms = lam / q
    np.log2(terms, out=terms)
    terms *= lam
    return np.add.reduce(terms, axis=1)


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
    support = np.flatnonzero(lam > 0.0)  # ndarray.take is the cheapest selection of few entries
    lam = lam[support]
    points = _separable_grid(_RESOLUTION)
    with np.errstate(divide="ignore"):
        values = _kl_bits(lam, points.take(support, axis=1))
        first = int(values.argmin())
        best, best_q = float(values[first]), points[first]

        step = 1.0 / _RESOLUTION
        rounds = 0
        while True:
            rounds += 1
            round_gain = 0.0
            deltas = step * _EXCHANGES
            while True:
                # a move is feasible if its entries lie in [-1e-12, 0.5 + 1e-12]; it changes only
                # entries a and b, and every entry of best_q lies in [0, 0.5 + 1e-12]
                q = best_q.tolist()
                moves = best_q + deltas.take([m for m, (a, b) in enumerate(_PAIRS)
                                              if q[a] + step <= 0.5 + 1e-12 and q[b] - step >= -1e-12], axis=0)
                np.maximum(moves, 0.0, out=moves)
                np.minimum(moves, 0.5, out=moves)
                moves /= np.add.reduce(moves, axis=1, keepdims=True)
                values = _kl_bits(lam, moves.take(support, axis=1))
                first = int(values.argmin())
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
