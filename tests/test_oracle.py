import math
import warnings

import numpy as np
import pytest

from belldyn import oracle
from belldyn.correlations import (
    bell_diagonal_state,
    classical_correlation_bell,
    quantum_correlation_bell,
    ree_bell,
)
from belldyn.errors import BelldynError, NonConvergenceError, OracleInputError
from belldyn.qstate import validate_bell_spectrum
from belldyn.oracle import (
    GridSpec,
    SimplexGridSpec,
    closest_product_state,
    oracle_classical_correlation,
    oracle_quantum_correlation,
    oracle_ree_bell,
)
from belldyn.dephasing import evolve_state

from conftest import random_bell_spectrum, random_unitary

INITIAL = np.array([0.8035, 0.1965, 0.0, 0.0])


def test_closest_product_state_mixed():
    np.testing.assert_allclose(closest_product_state(np.eye(4) / 4.0), np.eye(4) / 4.0, atol=1e-12)


def test_closest_product_state_already_product():
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    np.testing.assert_allclose(closest_product_state(hh), hh, atol=1e-12)


def test_closest_product_state_dephased_is_mixed():
    rho = evolve_state(0.4 * np.exp(0.3j), 0.9 * np.exp(-1.1j))
    np.testing.assert_allclose(closest_product_state(rho), np.eye(4) / 4.0, atol=1e-12)


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


def test_quantum_oracle_nonconvergence_when_capped():
    rng = np.random.default_rng(23)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rho = u @ bell_diagonal_state([0.6, 0.25, 0.1, 0.05]) @ u.conj().T
    with pytest.raises(NonConvergenceError):
        oracle_quantum_correlation(rho, GridSpec(refine_rounds=1, max_rounds=1, tol=1e-12))


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


def test_grid_spec_determinism():
    rng = np.random.default_rng(26)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rho = u @ bell_diagonal_state([0.55, 0.25, 0.15, 0.05]) @ u.conj().T
    grid = GridSpec()
    first = oracle_quantum_correlation(rho, grid)
    oracle._minimizing_basis.cache_clear()
    assert oracle_quantum_correlation(rho, grid) == first
    lam = random_bell_spectrum(rng)
    simplex_grid = SimplexGridSpec()
    assert oracle_ree_bell(lam, simplex_grid) == oracle_ree_bell(lam, simplex_grid)


def test_oracle_rejects_single_qubit_input():
    with pytest.raises(ValueError):
        oracle_quantum_correlation(np.eye(2) / 2.0)
    for oracle_fn in (oracle_quantum_correlation, oracle_classical_correlation):
        with pytest.raises(OracleInputError, match="two-qubit") as info:
            oracle_fn(np.eye(2) / 2.0)
        assert isinstance(info.value, BelldynError)
        assert isinstance(info.value, ValueError)


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


def test_a_new_grid_or_a_matrix_one_ulp_away_searches_again():
    rng = np.random.default_rng(28)
    rho = _random_rotated_state(rng)
    oracle._minimizing_basis.cache_clear()
    oracle_quantum_correlation(rho)
    oracle_classical_correlation(rho, GridSpec())
    assert oracle._minimizing_basis.cache_info()[:2] == (1, 1)  # hits, misses
    oracle_classical_correlation(rho, GridSpec(n_phi=25))
    assert oracle._minimizing_basis.cache_info()[:2] == (1, 2)
    nudged = rho.copy()
    nudged[0, 0] = np.nextafter(rho[0, 0].real, 1.0)
    oracle_quantum_correlation(nudged)
    assert oracle._minimizing_basis.cache_info()[:2] == (1, 3)


def test_cache_keeps_one_read_only_entry_and_no_failed_search():
    rng = np.random.default_rng(29)
    oracle._minimizing_basis.cache_clear()
    capped = GridSpec(refine_rounds=1, max_rounds=1, tol=1e-12)
    rho = _random_rotated_state(rng, [0.6, 0.25, 0.1, 0.05])
    for _ in range(2):
        with pytest.raises(NonConvergenceError):
            oracle_quantum_correlation(rho, capped)
    assert oracle._minimizing_basis.cache_info()[:4] == (0, 2, 1, 0)  # hits, misses, maxsize, size
    for _ in range(3):
        oracle_quantum_correlation(_random_rotated_state(rng))
    assert oracle._minimizing_basis.cache_info().currsize == 1
    rho = _random_rotated_state(rng)
    _, (_, dir_a, dir_b) = oracle._validated_search(rho, None)
    for direction in (dir_a, dir_b):
        with pytest.raises(ValueError):
            direction[0] = 0.0
    assert oracle_classical_correlation(rho) == oracle_classical_correlation(rho.copy())


def _reference_kl_bits(lam, q):
    total = 0.0
    for li, qi in zip(lam, q):
        if li > 0.0:
            if qi <= 0.0:
                return math.inf
            total += li * math.log2(li / qi)
    return total


def _reference_ree_bell(spectrum, grid=None):
    """The scalar triple loop and pattern search that oracle_ree_bell evaluates as arrays."""
    lam = validate_bell_spectrum(spectrum)
    grid = grid or SimplexGridSpec()
    n = grid.resolution

    best = math.inf
    best_q = None
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                q = np.array([i, j, k, n - i - j - k], dtype=float) / n
                if q.max() > 0.5 + 1e-12:
                    continue
                val = _reference_kl_bits(lam, q)
                if val < best:
                    best, best_q = val, q
    if best_q is None:
        raise NonConvergenceError(f"no feasible point at resolution {n}")

    moves = [(a, b) for a in range(4) for b in range(4) if a != b]
    step = 1.0 / n
    rounds = 0
    while True:
        rounds += 1
        round_gain = 0.0
        while True:
            cand_val, cand_q = best, None
            for a, b in moves:
                q = best_q.copy()
                q[a] += step
                q[b] -= step
                if q.min() < -1e-12 or q.max() > 0.5 + 1e-12:
                    continue
                q = np.clip(q, 0.0, 0.5)
                q = q / q.sum()
                val = _reference_kl_bits(lam, q)
                if val < cand_val:
                    cand_val, cand_q = val, q
            if cand_q is None:
                break
            round_gain += best - cand_val
            best, best_q = cand_val, cand_q
        step /= grid.shrink
        if rounds >= grid.refine_rounds and round_gain <= grid.tol:
            break
        if rounds >= grid.max_rounds:
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
def test_array_ree_search_matches_the_scalar_loop_on_edge_spectra(spectrum):
    for grid in (None, SimplexGridSpec(resolution=7)):
        assert abs(oracle_ree_bell(spectrum, grid) - _reference_ree_bell(spectrum, grid)) <= 1e-12


def test_array_ree_search_matches_the_scalar_loop_at_resolution_7():
    rng = np.random.default_rng(31)
    grid = SimplexGridSpec(resolution=7)
    for _ in range(40):
        lam = random_bell_spectrum(rng)
        assert abs(oracle_ree_bell(lam, grid) - _reference_ree_bell(lam, grid)) <= 1e-12


def test_ree_oracle_nonconvergence():
    for resolution in (1, -2):
        with pytest.raises(NonConvergenceError, match="no feasible point"):
            oracle_ree_bell(INITIAL, SimplexGridSpec(resolution=resolution))
    capped = SimplexGridSpec(refine_rounds=2, max_rounds=2, tol=1e-12)
    with pytest.raises(NonConvergenceError, match="still improving"):
        oracle_ree_bell([0.6, 0.25, 0.1, 0.05], capped)
    with pytest.raises(NonConvergenceError, match="still improving"):
        _reference_ree_bell([0.6, 0.25, 0.1, 0.05], capped)


@pytest.mark.parametrize(
    "make_spec",
    [
        lambda: GridSpec(n_theta=1),
        lambda: GridSpec(n_phi=0),
        lambda: GridSpec(n_phi=24.0),
        lambda: GridSpec(shrink=0.0),
        lambda: GridSpec(shrink=math.inf),
        lambda: GridSpec(tol=math.nan),
        lambda: SimplexGridSpec(resolution=2.5),
        lambda: SimplexGridSpec(shrink=math.nan),
        lambda: SimplexGridSpec(tol=math.nan),
    ],
)
def test_grid_specs_reject_bad_fields(make_spec):
    with pytest.raises(OracleInputError):
        make_spec()


def test_ree_oracle_at_resolution_0_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match="no feasible point"):
            oracle_ree_bell(INITIAL, SimplexGridSpec(resolution=0))
