import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belldyn import oracle, qstate
from belldyn.correlations import (
    bell_correlations,
    classical_correlation_bell,
    quantum_correlation_bell,
    ree_bell,
)
from belldyn.errors import InvalidStateError, NonConvergenceError
from belldyn.qstate import eigenvalues_sorted, shannon_bits, validate_bell_spectrum, validate_state
from belldyn.oracle import (
    oracle_classical_correlation,
    oracle_quantum_correlation,
    oracle_ree_bell,
)
from belldyn.dephasing import evolve_state
from belldyn.tomography import simulate_counts

from conftest import random_bell_spectrum, random_density_matrix, random_unitary
from reference import bell_diagonal_state

INITIAL = np.array([0.8035, 0.1965, 0.0, 0.0])

X_AXIS = np.array([[1.0, 0.0, 0.0]])
Z_AXIS = np.array([[0.0, 0.0, 1.0]])

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5

HH = np.zeros((4, 4), dtype=complex)
HH[0, 0] = 1.0


@pytest.fixture
def search_constants(monkeypatch):
    """Sets oracle search constants for one test, e.g. search_constants(_RESOLUTION=7).

    The basis cache is keyed by the matrix alone, so it is cleared before and
    after the test: no basis found under a patched grid outlives it.
    """
    oracle._minimizing_basis.cache_clear()

    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(oracle, name, value)

    yield patch
    oracle._minimizing_basis.cache_clear()


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _evolved_with_random_phases():
    rng = np.random.default_rng(9)
    states = []
    for _ in range(10):
        ka = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        kb = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        states.append((evolve_state(ka, kb), _unit_rows(rng, 8), _unit_rows(rng, 8)))
    return states


def _random_states():
    rng = np.random.default_rng(10)
    return [(random_density_matrix(rng), _unit_rows(rng, 8), _unit_rows(rng, 8)) for _ in range(10)]


#: case -> (states with direction rows for each side, expected populations at the
#: first direction pair, population entropy H(p), marginal entropies H(p_A) + H(p_B));
#: None skips a check
POPULATION_CASES = {
    "phi_plus_zz": (lambda: [(PHI_PLUS, Z_AXIS, Z_AXIS)], [0.5, 0.0, 0.0, 0.5], 1.0, 2.0),
    # (|H D> + |V A>)/sqrt2 in the H/V x D/A product basis keeps only the two
    # populated rails; in the D/A x D/A basis all four populations are equal
    "evolved_zx": (lambda: [(evolve_state(1.0, 1.0), Z_AXIS, X_AXIS)], [0.5, 0.0, 0.0, 0.5], 1.0, 2.0),
    "evolved_xx": (lambda: [(evolve_state(1.0, 1.0), X_AXIS, X_AXIS)], [0.25] * 4, 2.0, 2.0),
    "mixed_zz": (lambda: [(np.eye(4) / 4.0, Z_AXIS, Z_AXIS)], [0.25] * 4, 2.0, 2.0),
    "hh_zz": (lambda: [(HH, Z_AXIS, Z_AXIS)], [1.0, 0.0, 0.0, 0.0], 0.0, 0.0),
    # the marginals of an evolved state are I/2, so maximally mixed in every basis
    "evolved_random_phases": (_evolved_with_random_phases, None, None, 2.0),
    "random_states": (_random_states, None, None, None),
}


@pytest.mark.parametrize("case", POPULATION_CASES)
def test_population_kernel(case):
    make_states, populations, entropy, marginals = POPULATION_CASES[case]
    for rho, dirs_a, dirs_b in make_states():
        probs = oracle._populations(*oracle._pauli_components(rho), dirs_a, dirs_b)
        assert probs.shape == (4, len(dirs_a), len(dirs_b))
        assert np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        if populations is not None:
            np.testing.assert_allclose(probs[:, 0, 0], populations, atol=1e-12)
        if entropy is not None:
            np.testing.assert_allclose(oracle._entropy(probs), entropy, atol=1e-12)
        if marginals is not None:
            np.testing.assert_allclose(oracle._marginal_entropy(probs), marginals, atol=1e-12)


#: case -> (states with direction rows for each side, expected product of the
#: marginal populations p_A (x) p_B at every direction pair; None expects p itself)
PRODUCT_OF_MARGINALS_CASES = {
    "mixed": (lambda: [(np.eye(4) / 4.0, _unit_rows(np.random.default_rng(11), 8),
                        _unit_rows(np.random.default_rng(12), 8))], [0.25] * 4),
    "already_product": (lambda: [(HH, Z_AXIS, Z_AXIS)], None),
    "dephased_is_mixed": (lambda: [(evolve_state(0.4 * np.exp(0.3j), 0.9 * np.exp(-1.1j)),
                                    _unit_rows(np.random.default_rng(13), 8),
                                    _unit_rows(np.random.default_rng(14), 8))], [0.25] * 4),
}


@pytest.mark.parametrize("case", PRODUCT_OF_MARGINALS_CASES)
def test_product_of_marginal_populations(case):
    # the closest product state to a state diagonal in a product basis is the
    # product of its marginals, with populations p_A (x) p_B in that basis
    make_states, expected = PRODUCT_OF_MARGINALS_CASES[case]
    for rho, dirs_a, dirs_b in make_states():
        p = oracle._populations(*oracle._pauli_components(rho), dirs_a, dirs_b)
        p_a = np.stack([p[0] + p[1], p[2] + p[3]])
        p_b = np.stack([p[0] + p[2], p[1] + p[3]])
        product = np.einsum("i...,j...->ij...", p_a, p_b).reshape(p.shape)
        want = p if expected is None else np.broadcast_to(
            np.reshape(expected, (4, 1, 1)), p.shape)
        np.testing.assert_allclose(product, want, atol=1e-12)


def test_quantum_oracle_mixed_state():
    assert oracle_quantum_correlation(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-9)


def test_quantum_oracle_classical_state():
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    assert oracle_quantum_correlation(hh) == pytest.approx(0.0, abs=1e-9)


def test_quantum_oracle_initial_state():
    rho = bell_diagonal_state(INITIAL)
    assert oracle_quantum_correlation(rho) == pytest.approx(
        quantum_correlation_bell(INITIAL), abs=1e-3
    )


def test_classical_oracle_examples():
    assert oracle_classical_correlation(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-9)
    pure = bell_diagonal_state([1.0, 0.0, 0.0, 0.0])
    assert oracle_classical_correlation(pure) == pytest.approx(1.0, abs=1e-3)
    assert oracle_classical_correlation(bell_diagonal_state(INITIAL)) == pytest.approx(
        1.0, abs=1e-3
    )


def test_oracle_agreement_random_bell_diagonal():
    rng = np.random.default_rng(20)
    for _ in range(20):
        lam = random_bell_spectrum(rng)
        rho = bell_diagonal_state(lam)
        q_o = oracle_quantum_correlation(rho)
        c_o = oracle_classical_correlation(rho)
        assert q_o == pytest.approx(quantum_correlation_bell(lam), abs=1e-3)
        assert c_o == pytest.approx(classical_correlation_bell(lam), abs=1e-3)
        # a minimization over a superset can only fail high
        assert q_o >= quantum_correlation_bell(lam) - 1e-6
        assert c_o >= classical_correlation_bell(lam) - 1e-6


def test_quantum_oracle_local_unitary_invariance():
    rng = np.random.default_rng(21)
    lam = np.array([0.5564, 0.2471, 0.1361, 0.0604])
    lam = lam / lam.sum()
    rho = bell_diagonal_state(lam)
    reference = oracle_quantum_correlation(rho)
    for _ in range(10):
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert oracle_quantum_correlation(rotated) == pytest.approx(reference, abs=1e-3)


def test_quantum_oracle_on_evolved_states_with_phases():
    rng = np.random.default_rng(22)
    for _ in range(5):
        ka = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        kb = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = evolve_state(ka, kb)
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        lam = np.clip(lam, 0, None)
        lam = lam / lam.sum()
        assert oracle_quantum_correlation(rho) == pytest.approx(
            quantum_correlation_bell(lam), abs=1e-3
        )


#: a Bell-diagonal state whose optimal basis is z x z, the pole of the (theta, phi) grid
NEAR_POLE_SPECTRUM = np.array([0.6227, 0.3415, 0.0225, 0.0133])


def _rotated_qubit(rho, side, theta, phi):
    """rho with one qubit rotated by theta about (-sin phi, cos phi, 0): z tilts toward phi."""
    axis = -math.sin(phi) * np.array([[0, 1], [1, 0]]) + math.cos(phi) * np.array([[0, -1j], [1j, 0]])
    u = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * axis
    u = np.kron(u, np.eye(2)) if side == "a" else np.kron(np.eye(2), u)
    return u @ rho @ u.conj().T


def test_basis_oracles_find_an_optimum_just_off_the_pole():
    # an optimum a few degrees off the pole: a refinement window in (theta, phi)
    # around a grid point next to the pole covers only a sliver of the cap there
    _, c_true, q_true, _ = bell_correlations(NEAR_POLE_SPECTRUM)
    rho = bell_diagonal_state(NEAR_POLE_SPECTRUM)
    for side in "ab":
        for theta in (0.06, 0.11):
            for phi in (0.85, 1.5):
                tilted = _rotated_qubit(rho, side, theta, phi)
                assert oracle_quantum_correlation(tilted) == pytest.approx(q_true, abs=1e-3)
                assert oracle_classical_correlation(tilted) == pytest.approx(c_true, abs=1e-3)


def test_coarse_directions_hold_one_of_each_antipodal_pair_and_the_axes():
    coarse = oracle._COARSE
    assert not coarse.flags.writeable
    np.testing.assert_allclose(np.linalg.norm(coarse, axis=1), 1.0, rtol=0.0, atol=1e-15)
    # no two rows are equal or opposite
    dots = np.abs(coarse @ coarse.T)
    np.fill_diagonal(dots, 0.0)
    assert dots.max() < 1.0 - 1e-6
    # every point of the (theta, phi) grid is a row or the negative of one
    t, p = np.meshgrid(np.linspace(0.0, math.pi, oracle._N_THETA),
                       np.linspace(0.0, 2.0 * math.pi, oracle._N_PHI, endpoint=False),
                       indexing="ij")
    grid = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1).reshape(-1, 3)
    assert np.all(np.abs(grid @ coarse.T).max(axis=1) > 1.0 - 1e-12)
    for axis in np.eye(3):
        assert np.any(np.all(coarse == axis, axis=1))
    assert len(coarse) == 123


_UNIT_CENTERS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 1e-3).map(lambda v: np.array(v) / math.hypot(*v))


@settings(max_examples=200)
@given(center=_UNIT_CENTERS, w=st.floats(1e-9, math.pi / 11))
@example(center=np.array([0.0, 0.0, 1.0]), w=math.pi / 11)
@example(center=np.array([0.0, 0.0, -1.0]), w=math.pi / 11)
@example(center=np.array([0.6, 0.8, 0.0]), w=math.pi / 11)
@example(center=np.array([0.6, 0.8, -0.0]), w=math.pi / 11)
@example(center=np.array([0.6, -0.8, 5e-324]), w=0.1)
@example(center=np.array([0.6, -0.8, -5e-324]), w=0.1)
@example(center=np.array([-0.8, 0.6, 1e-9]) / math.hypot(-0.8, 0.6, 1e-9), w=0.1)
@example(center=np.array([-0.8, 0.6, -1e-9]) / math.hypot(-0.8, 0.6, 1e-9), w=0.1)
def test_window_is_a_tangent_plane_grid_centred_on_its_direction(center, w):
    dirs = oracle._window(center, w)
    assert dirs.shape == (oracle._WINDOW ** 2, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(dirs[len(dirs) // 2], center, rtol=0.0, atol=1e-15)
    # row (s, t) normalizes c + s e1 + t e2 with e1, e2 orthonormal and normal to
    # c, so its cosine to c is 1 / sqrt(1 + s^2 + t^2)
    s, t = np.meshgrid(*[np.linspace(-w, w, oracle._WINDOW)] * 2, indexing="ij")
    np.testing.assert_allclose(dirs @ center, 1.0 / np.sqrt(1.0 + s**2 + t**2).ravel(),
                               rtol=0.0, atol=1e-14)
    assert np.linalg.norm(dirs - center, axis=1).max() <= math.sqrt(2.0) * w + 1e-14


def _whole_grid_best_pair(components, dirs_a, dirs_b):
    """_best_pair as one array over every direction pair: the reference for its blocks."""
    probs = oracle._populations(*components, dirs_a, dirs_b)
    ent = oracle._entropy(probs)
    ia, ib = np.unravel_index(np.argmin(ent), ent.shape)
    return float(ent[ia, ib]), probs[:, ia, ib].copy(), dirs_a[ia], dirs_b[ib]


def _werner(p):
    return p * PHI_PLUS + (1.0 - p) * np.eye(4) / 4.0


def _best_pair_states():
    rng = np.random.default_rng(33)
    # states where many direction pairs tie, so the first flattened index must win
    states = [np.eye(4) / 4.0, PHI_PLUS, HH, _werner(0.3), _werner(0.8),
              bell_diagonal_state([0.4, 0.4, 0.1, 0.1])]
    states += [bell_diagonal_state(random_bell_spectrum(rng)) for _ in range(8)]
    states += [random_density_matrix(rng) for _ in range(8)]
    return states


def _window_pairs():
    rng = np.random.default_rng(34)
    return [(oracle._window(a, w), oracle._window(b, w))
            for a, b, w in zip(_unit_rows(rng, 4), _unit_rows(rng, 4), (math.pi / 11, 0.1, 1e-3, 1e-6))]


@pytest.mark.parametrize("grid", ["coarse", "window"])
def test_blocked_best_pair_matches_the_whole_grid_bit_for_bit(grid):
    pairs = [(oracle._COARSE, oracle._COARSE)] if grid == "coarse" else _window_pairs()
    for rho in _best_pair_states():
        components = oracle._pauli_components(rho)
        for dirs_a, dirs_b in pairs:
            value, p, a, b = oracle._best_pair(components, dirs_a, dirs_b)
            want_value, want_p, want_a, want_b = _whole_grid_best_pair(components, dirs_a, dirs_b)
            assert value == want_value
            for got, want in ((p, want_p), (a, want_a), (b, want_b)):
                assert np.array_equal(got, want)
    # every pair of I/4 ties: the first of each side wins
    for dirs_a, dirs_b in pairs:
        _, _, a, b = oracle._best_pair(oracle._pauli_components(np.eye(4) / 4.0), dirs_a, dirs_b)
        assert np.array_equal(a, dirs_a[0]) and np.array_equal(b, dirs_b[0])


def test_one_basis_search_never_holds_a_whole_coarse_population_grid():
    # a whole coarse (4, 123, 123) float64 grid is 484 KiB, and its populations and
    # logs live at once; allocation sizes are deterministic, so the traced peak is too
    rho = _random_rotated_state(np.random.default_rng(35))
    oracle_quantum_correlation(np.eye(4) / 4.0)
    oracle._minimizing_basis.cache_clear()
    tracemalloc.start()
    try:
        oracle_quantum_correlation(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 768 * 1024


#: search constants that stop the basis search after one round unless it has converged
BASIS_CAPPED = dict(_BASIS_REFINE_ROUNDS=1, _BASIS_MAX_ROUNDS=1, _BASIS_TOL=1e-12)


def test_quantum_oracle_nonconvergence_when_capped(search_constants):
    rng = np.random.default_rng(23)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rho = u @ bell_diagonal_state([0.6, 0.25, 0.1, 0.05]) @ u.conj().T
    search_constants(**BASIS_CAPPED)
    with pytest.raises(NonConvergenceError):
        oracle_quantum_correlation(rho)


def test_oracles_on_classical_states_with_unequal_marginals():
    # a locally rotated diagonal state is classical, with C its populations'
    # mutual information; unlike a Bell-diagonal state its marginals are not I/2
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rho = u @ np.diag(p).astype(complex) @ u.conj().T
        mutual = (shannon_bits([p[0] + p[1], p[2] + p[3]])
                  + shannon_bits([p[0] + p[2], p[1] + p[3]]) - shannon_bits(p))
        assert oracle_classical_correlation(rho) == pytest.approx(mutual, abs=2e-3)
        assert oracle_quantum_correlation(rho) == pytest.approx(0.0, abs=2e-3)


def test_ree_oracle_examples():
    assert oracle_ree_bell([0.5, 0.5, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-9)
    assert oracle_ree_bell([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-3)
    assert oracle_ree_bell(INITIAL) == pytest.approx(ree_bell(INITIAL), abs=1e-3)


def test_ree_oracle_random_spectra():
    rng = np.random.default_rng(24)
    for _ in range(40):
        lam = random_bell_spectrum(rng)
        o = oracle_ree_bell(lam)
        a = ree_bell(lam)
        assert o == pytest.approx(a, abs=1e-3)
        assert o >= a - 1e-6


def test_ree_oracle_separable_region_is_exactly_zero():
    rng = np.random.default_rng(25)
    found = 0
    while found < 10:
        lam = random_bell_spectrum(rng)
        if lam[0] > 0.5:
            continue
        found += 1
        assert oracle_ree_bell(lam) == pytest.approx(0.0, abs=1e-9)


def test_separable_grid_is_built_once_per_resolution_and_read_only():
    points = oracle._separable_grid(oracle._RESOLUTION)
    assert oracle._separable_grid(oracle._RESOLUTION) is points
    with pytest.raises(ValueError):
        points[0, 0] = 1.0


def test_grid_spec_determinism():
    rng = np.random.default_rng(26)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rho = u @ bell_diagonal_state([0.55, 0.25, 0.15, 0.05]) @ u.conj().T
    first = oracle_quantum_correlation(rho)
    oracle._minimizing_basis.cache_clear()
    assert oracle_quantum_correlation(rho) == first
    lam = random_bell_spectrum(rng)
    assert oracle_ree_bell(lam) == oracle_ree_bell(lam)


TAKES_STATE = pytest.mark.parametrize(
    "takes_state",
    [validate_state, oracle_quantum_correlation, oracle_classical_correlation,
     lambda rho: simulate_counts(rho, 100, 0)],
    ids=["validate_state", "oracle_quantum_correlation", "oracle_classical_correlation",
         "simulate_counts"],
)


@TAKES_STATE
def test_single_qubit_state_is_rejected(takes_state):
    # a valid one-qubit state: only its shape is wrong
    with pytest.raises(InvalidStateError, match="4x4"):
        takes_state(np.eye(2) / 2.0)


@TAKES_STATE
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_state_is_rejected(takes_state, bad):
    # an infinite pair matches its conjugate transpose entry for entry; neither it nor
    # NaN may reach the eigensolver
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3] = rho[3, 0] = bad
    with pytest.raises(InvalidStateError, match="non-finite"):
        takes_state(rho)


def _random_rotated_state(rng, spectrum=(0.55, 0.25, 0.15, 0.05)):
    u = np.kron(random_unitary(rng), random_unitary(rng))
    return u @ bell_diagonal_state(spectrum) @ u.conj().T


def test_cached_basis_gives_the_same_bits_as_a_fresh_search():
    rng = np.random.default_rng(27)
    for _ in range(5):
        rho = _random_rotated_state(rng, random_bell_spectrum(rng))
        oracle._minimizing_basis.cache_clear()
        q_cached = oracle_quantum_correlation(rho)
        c_cached = oracle_classical_correlation(rho)
        assert oracle._minimizing_basis.cache_info().hits >= 1
        oracle._minimizing_basis.cache_clear()
        c_fresh = oracle_classical_correlation(rho)
        oracle._minimizing_basis.cache_clear()
        q_fresh = oracle_quantum_correlation(rho)
        assert (q_cached, c_cached) == (q_fresh, c_fresh)


def test_q_then_c_on_one_matrix_checks_it_once(monkeypatch):
    calls = []

    def spy(matrix):
        calls.append(matrix)
        return validate_state(matrix)

    monkeypatch.setattr(oracle, "validate_state", spy)
    rho = _random_rotated_state(np.random.default_rng(30))
    oracle._minimizing_basis.cache_clear()
    oracle_quantum_correlation(rho)
    oracle_classical_correlation(rho)
    assert len(calls) == 1


def test_q_then_c_on_one_matrix_solves_its_eigenvalues_once(monkeypatch):
    # S(rho) comes from the eigenvalues of the state check, not from a second eigensolve; the
    # check calls the LAPACK gufunc `qstate._eigvalsh`, so both it and the public wrapper are counted
    calls = []

    def spying(eigvalsh):
        def spy(matrix, *args, **kwargs):
            calls.append(matrix)
            return eigvalsh(matrix, *args, **kwargs)
        return spy

    monkeypatch.setattr(np.linalg, "eigvalsh", spying(np.linalg.eigvalsh))
    monkeypatch.setattr(qstate, "_eigvalsh", spying(qstate._eigvalsh))
    rho = _random_rotated_state(np.random.default_rng(30))
    oracle._minimizing_basis.cache_clear()
    oracle_quantum_correlation(rho)
    oracle_classical_correlation(rho)
    assert len(calls) == 1


def test_the_same_bytes_in_another_shape_are_not_a_state():
    # the cache key holds the shape: a (2, 8) view of a searched state still fails
    rho = _random_rotated_state(np.random.default_rng(31))
    oracle_quantum_correlation(rho)
    for takes_state in (oracle_quantum_correlation, oracle_classical_correlation):
        with pytest.raises(InvalidStateError, match="4x4"):
            takes_state(rho.reshape(2, 8))


def test_a_new_grid_or_a_matrix_one_ulp_away_searches_again():
    rng = np.random.default_rng(28)
    rho = _random_rotated_state(rng)
    oracle._minimizing_basis.cache_clear()
    oracle_quantum_correlation(rho)
    oracle_classical_correlation(rho)
    assert oracle._minimizing_basis.cache_info()[:2] == (1, 1)  # hits, misses
    nudged = rho.copy()
    nudged[0, 0] = np.nextafter(rho[0, 0].real, 1.0)
    oracle_quantum_correlation(nudged)
    assert oracle._minimizing_basis.cache_info()[:2] == (1, 2)


def test_cache_keeps_one_read_only_entry_and_no_failed_search(search_constants, monkeypatch):
    rng = np.random.default_rng(29)
    rho = _random_rotated_state(rng, [0.6, 0.25, 0.1, 0.05])
    search_constants(**BASIS_CAPPED)
    for _ in range(2):
        with pytest.raises(NonConvergenceError):
            oracle_quantum_correlation(rho)
    assert oracle._minimizing_basis.cache_info()[:4] == (0, 2, 1, 0)  # hits, misses, maxsize, size
    monkeypatch.undo()  # the fixed search again
    for _ in range(3):
        oracle_quantum_correlation(_random_rotated_state(rng))
    assert oracle._minimizing_basis.cache_info().currsize == 1
    rho = _random_rotated_state(rng)
    assert oracle_classical_correlation(rho) == oracle_classical_correlation(rho.copy())


def _reference_kl_bits(lam, q):
    total = 0.0
    for li, qi in zip(lam, q):
        if li > 0.0:
            if qi <= 0.0:
                return math.inf
            total += li * math.log2(li / qi)
    return total


@functools.lru_cache
def _reference_coarse_points(n):
    """The feasible points [i, j, k, n - i - j - k] / n of the scalar triple loop, in loop order."""
    points = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                q = (i / n, j / n, k / n, (n - i - j - k) / n)
                if max(q) <= 0.5 + 1e-12:
                    points.append(q)
    return tuple(points)


def _reference_ree_bell(spectrum):
    """The scalar triple loop and pattern search that oracle_ree_bell evaluates as arrays.

    Reads the oracle's search constants at call time, so it follows every patch.
    """
    lam = validate_bell_spectrum(spectrum).tolist()
    n = oracle._RESOLUTION

    best = math.inf
    best_q = None
    for q in _reference_coarse_points(n):
        val = _reference_kl_bits(lam, q)
        if val < best:
            best, best_q = val, q

    moves = [(a, b) for a in range(4) for b in range(4) if a != b]
    step = 1.0 / n
    rounds = 0
    while True:
        rounds += 1
        round_gain = 0.0
        while True:
            cand_val, cand_q = best, None
            for a, b in moves:
                q = list(best_q)
                q[a] += step
                q[b] -= step
                if min(q) < -1e-12 or max(q) > 0.5 + 1e-12:
                    continue
                q = [min(max(qi, 0.0), 0.5) for qi in q]
                total = q[0] + q[1] + q[2] + q[3]
                q = [qi / total for qi in q]
                val = _reference_kl_bits(lam, q)
                if val < cand_val:
                    cand_val, cand_q = val, q
            if cand_q is None:
                break
            round_gain += best - cand_val
            best, best_q = cand_val, cand_q
        step /= oracle._SIMPLEX_SHRINK
        if rounds >= oracle._SIMPLEX_REFINE_ROUNDS and round_gain <= oracle._SIMPLEX_TOL:
            break
        if rounds >= oracle._SIMPLEX_MAX_ROUNDS:
            raise NonConvergenceError(f"still improving by {round_gain} after {rounds} rounds")
    return max(best, 0.0)


def test_array_ree_search_matches_the_scalar_loop_on_random_spectra():
    rng = np.random.default_rng(30)
    for _ in range(200):
        lam = random_bell_spectrum(rng)
        assert abs(oracle_ree_bell(lam) - _reference_ree_bell(lam)) <= 1e-12


@pytest.mark.parametrize(
    "spectrum",
    [
        [0.5, 0.5, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.3, 0.2, 0.0],  # l1 = 0.5 exactly
        [0.7, 0.3, 0.0, 0.0],
        [0.6, 0.2, 0.2, 0.0],
        [0.25, 0.25, 0.25, 0.25],
        list(INITIAL),
    ],
)
def test_array_ree_search_matches_the_scalar_loop_on_edge_spectra(spectrum, search_constants):
    assert abs(oracle_ree_bell(spectrum) - _reference_ree_bell(spectrum)) <= 1e-12
    search_constants(_RESOLUTION=7)
    assert abs(oracle_ree_bell(spectrum) - _reference_ree_bell(spectrum)) <= 1e-12


def test_array_ree_search_matches_the_scalar_loop_at_resolution_7(search_constants):
    rng = np.random.default_rng(31)
    search_constants(_RESOLUTION=7)
    for _ in range(40):
        lam = random_bell_spectrum(rng)
        assert abs(oracle_ree_bell(lam) - _reference_ree_bell(lam)) <= 1e-12


def test_ree_oracle_nonconvergence(search_constants):
    search_constants(_SIMPLEX_REFINE_ROUNDS=2, _SIMPLEX_MAX_ROUNDS=2, _SIMPLEX_TOL=1e-12)
    with pytest.raises(NonConvergenceError, match="still improving"):
        oracle_ree_bell([0.6, 0.25, 0.1, 0.05])
    with pytest.raises(NonConvergenceError, match="still improving"):
        _reference_ree_bell([0.6, 0.25, 0.1, 0.05])


def _pinned_states():
    """20 fixed states: Dirichlet Bell-diagonal (the last three locally rotated), general mixed,
    pure, and Bell-diagonal with zero eigenvalues."""
    rng = np.random.default_rng(37)
    states = []
    for i in range(6):
        rho = bell_diagonal_state(random_bell_spectrum(rng))
        if i >= 3:
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rho = u @ rho @ u.conj().T
        states.append(rho)
    states += [random_density_matrix(rng, rank=rank) for rank in (4, 4, 3, 2, 2)]
    states += [random_density_matrix(rng, rank=1) for _ in range(4)]
    for spectrum in ([0.7, 0.3, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.5, 0.3, 0.2, 0.0],
                     [0.45, 0.35, 0.2, 0.0], [0.5, 0.5, 0.0, 0.0]):
        states.append(bell_diagonal_state(spectrum))
    return states


#: Q, C and REE (of the sorted spectrum) that the oracles gave each of `_pinned_states()` before
#: their loops were rewritten in fewer numpy calls; bit for bit on the machine that recorded them
PINNED_ORACLE_VALUES = [
    (0.08957291908251763, 0.17968458904591023, 1.1672793602362099e-11),
    (0.028693813958602377, 0.5134232246116537, 0.003963732730361443),
    (0.1661330342677112, 0.24312598623242332, 1.2192734912393156e-09),
    (0.36206914943609236, 0.5665548286059656, 0.1909888267740785),
    (0.13176418900968434, 0.3281288781787719, 0.018094218180457686),
    (0.2069713005016709, 0.2118283282665181, 0.0070798779144099905),
    (0.42912794102938223, 0.510748116300344, 0.14265435498552873),
    (0.23727724672273443, 0.19769900361893855, 0.014627287918299325),
    (0.37032385175917004, 0.3859782800918903, 0.0744921594348248),
    (0.43459130501620247, 0.1811278689919863, 0.5238760335047025),
    (0.30654260792532395, 0.6819402807255801, 0.13451604163229633),
    (0.11096877940612505, 0.11096864603176165, 0.9999999999999923),
    (0.3283188930915334, 0.32831879592916935, 0.9999999999999932),
    (0.2166915479573239, 0.21669152033720723, 0.9999999999999867),
    (0.6620210220264702, 0.6619943168297584, 0.9999999999999966),
    (0.11870910076931329, 0.999999999999994, 0.11870910076930732),
    (0.9999999999999997, 1.0, 1.0),
    (0.23645279766002814, 0.27807190511263746, 0.0),
    (0.20904047336920106, 0.27807190511263746, 0.0),
    (5.995204332975845e-15, 0.999999999999994, 0.0),
]


def test_oracles_reach_their_pinned_values_on_fixed_states():
    # the searches are fixed, so only roundoff may move a value: another BLAS or LAPACK
    # kernel may round the states and the searches' products differently
    states = _pinned_states()
    assert len(states) == len(PINNED_ORACLE_VALUES)
    for rho, expected in zip(states, PINNED_ORACLE_VALUES):
        oracle._minimizing_basis.cache_clear()
        got = (oracle_quantum_correlation(rho), oracle_classical_correlation(rho),
               oracle_ree_bell(eigenvalues_sorted(rho)))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
