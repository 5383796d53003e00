from fractions import Fraction

import mpmath
import numpy as np
import pytest

from belldyn.correlations import (
    _bits,
    bell_correlations,
    bell_eigenvalues_from_kappas,
    classical_correlation_bell,
    quantum_correlation_bell,
    ree_bell,
)
from belldyn.errors import InvalidStateError
from belldyn.qstate import eigenvalues_sorted, shannon_bits

from conftest import random_bell_spectrum
from reference import bell_diagonal_state, correlations_from_kappas, kappa_correlation

# frozen high-precision evaluations of the closed forms
H_607 = 0.285127377219667    # kernel at kappa = 0.607
H_385 = 0.109733470606154    # kernel at kappa = 0.385
INITIAL = np.array([0.8035, 0.1965, 0.0, 0.0])
PARTIAL = np.array([0.55642375, 0.24707625, 0.13607625, 0.06042375])


def _assert_classical_is_that_of(spectrum, chi):
    """C = 2 - S(chi): chi, the closest classical spectrum, averages the sorted eigenvalues pairwise."""
    expected = 2.0 - float(shannon_bits(np.array(chi)))
    assert float(bell_correlations(spectrum)[1]) == pytest.approx(expected, abs=1e-12)


def test_closest_classical_fixed_point():
    _assert_classical_is_that_of([0.25] * 4, [0.25] * 4)


def test_closest_classical_pure():
    _assert_classical_is_that_of([1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0])


def test_closest_classical_pairwise_average():
    _assert_classical_is_that_of(PARTIAL, [0.40175, 0.40175, 0.09825, 0.09825])


@pytest.mark.parametrize(
    "spectrum,expected",
    [
        ([0.25] * 4, 0.0),
        ([1.0, 0.0, 0.0, 0.0], 1.0),
        (INITIAL, H_607),
    ],
)
def test_quantum_correlation_examples(spectrum, expected):
    assert quantum_correlation_bell(spectrum) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "spectrum,expected",
    [
        ([0.25] * 4, 0.0),
        ([1.0, 0.0, 0.0, 0.0], 1.0),
        (INITIAL, 1.0),
    ],
)
def test_classical_correlation_examples(spectrum, expected):
    assert classical_correlation_bell(spectrum) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "spectrum,expected",
    [
        ([0.25] * 4, 0.0),
        ([1.0, 0.0, 0.0, 0.0], 2.0),
        (INITIAL, 2.0 - 0.714872622780333),
    ],
)
def test_total_mutual_information_examples(spectrum, expected):
    assert float(bell_correlations(spectrum)[0]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "spectrum,expected",
    [
        ([1.0, 0.0, 0.0, 0.0], 1.0),
        ([0.5, 0.5, 0.0, 0.0], 0.0),
        (INITIAL, H_607),
    ],
)
def test_ree_examples(spectrum, expected):
    assert ree_bell(spectrum) == pytest.approx(expected, abs=1e-12)


def test_ree_zero_below_half():
    assert ree_bell([0.4, 0.3, 0.2, 0.1]) == 0.0


def test_ree_monotone_in_largest_eigenvalue():
    l1s = np.linspace(0.5, 1.0, 40)
    rees = [ree_bell([l1, 1.0 - l1, 0.0, 0.0]) for l1 in l1s]
    assert np.all(np.diff(rees) >= 0.0)


def test_bell_eigenvalues_endpoints():
    np.testing.assert_allclose(
        bell_eigenvalues_from_kappas(1.0, 1.0), [1.0, 0.0, 0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(bell_eigenvalues_from_kappas(0.0, 0.0), [0.25] * 4, atol=1e-15)


def test_bell_eigenvalues_partial():
    np.testing.assert_allclose(bell_eigenvalues_from_kappas(0.607, 0.385), PARTIAL, atol=1e-15)


def test_bell_eigenvalues_second_largest_branch():
    # which cross term ranks second depends on the larger modulus
    small_a = bell_eigenvalues_from_kappas(0.3, 0.8)
    assert small_a[1] == pytest.approx(0.25 * (1 - 0.3) * (1 + 0.8), abs=1e-15)
    small_b = bell_eigenvalues_from_kappas(0.8, 0.3)
    assert small_b[1] == pytest.approx(0.25 * (1 + 0.8) * (1 - 0.3), abs=1e-15)


def test_bell_eigenvalues_match_direct_diagonalization():
    from belldyn.dephasing import evolve_state

    rng = np.random.default_rng(11)
    for _ in range(20):
        ka, kb = rng.uniform(0, 1, size=2)
        np.testing.assert_allclose(
            bell_eigenvalues_from_kappas(ka, kb),
            eigenvalues_sorted(evolve_state(ka, kb)),
            atol=1e-12,
        )


def test_kappa_rejects_modulus_above_one():
    with pytest.raises(InvalidStateError, match=r"\|kappa_a\| must be at most 1, got 1.1"):
        bell_eigenvalues_from_kappas(1.1, 0.5)
    with pytest.raises(InvalidStateError, match=r"\|kappa\| must be at most 1"):
        kappa_correlation(1.0 + 1e-6)



@pytest.mark.parametrize("kappa_a, kappa_b, name", [
    ("x", 0.5, "kappa_a"), (0.5, "x", "kappa_b"), ([0.5, "x"], 0.5, "kappa_a"),
    ([[0.5], [0.5, 0.4]], 0.5, "kappa_a"), (0.5, object(), "kappa_b"),
    # text numpy would parse as a number, also inside arrays
    ("0.5", b"0.4", "kappa_a"), (0.5, b"0.4", "kappa_b"), (np.str_("0.5"), 0.4, "kappa_a"),
    ([0.5, b"0.4"], 0.5, "kappa_a"), (0.5, [["0.4"]], "kappa_b"),
    (np.array([0.5, "0.4"], dtype=object), 0.5, "kappa_a"), ([Fraction(1, 2), b"0.5"], 0.5, "kappa_a"),
])
def test_kappa_that_is_not_numbers_is_an_invalid_state_naming_it(kappa_a, kappa_b, name):
    # numpy alone ends these in a bare ValueError or TypeError that names no parameter, or reads the text
    from belldyn.config import TomographySettings
    from belldyn.dephasing import evolve_state
    from belldyn.tomography import simulate_dephased

    tomo = TomographySettings(n_per_setting=100, resamples=2, seed=0)
    for route in (bell_eigenvalues_from_kappas, evolve_state, lambda a, b: simulate_dephased(a, b, tomo)):
        with pytest.raises(InvalidStateError, match=rf"^{name} must be a number or an array of numbers, got "):
            route(kappa_a, kappa_b)


def test_kappa_as_a_number_like_object_still_converts():
    from belldyn.config import TomographySettings
    from belldyn.tomography import simulate_dephased

    assert np.array_equal(bell_eigenvalues_from_kappas(Fraction(1, 2), [Fraction(2, 5), 0.3]),
                          bell_eigenvalues_from_kappas(0.5, [0.4, 0.3]))
    tomo = TomographySettings(n_per_setting=100, resamples=2, seed=0)
    assert np.array_equal(simulate_dephased(Fraction(1, 2), 0.4, tomo)[0], simulate_dephased(0.5, 0.4, tomo)[0])


def test_kappas_that_do_not_broadcast_are_an_invalid_state_naming_both_shapes():
    # numpy alone ends these in a bare ValueError that names neither kappa
    for pair, shapes in ((([0.5, 0.6], [0.1, 0.2, 0.3]), r"\(2,\) and \(3,\)"),
                         ((np.ones((2, 3)), [1.0, 0.0]), r"\(2, 3\) and \(2,\)")):
        with pytest.raises(InvalidStateError,
                           match=rf"^kappa_a and kappa_b must broadcast together, got shapes {shapes}$"):
            bell_eigenvalues_from_kappas(*pair)


def test_kappa_correlation_endpoint():
    assert kappa_correlation(1.0) == 1.0
    assert kappa_correlation(0.0) == 0.0


def test_correlations_from_kappas_initial_state():
    total, classical, quantum, ree = correlations_from_kappas(0.607, 1.0)
    assert classical == pytest.approx(1.0, abs=1e-12)
    assert quantum == pytest.approx(H_607, abs=1e-12)
    assert total == pytest.approx(1.0 + H_607, abs=1e-12)
    assert ree == pytest.approx(H_607, abs=1e-12)


def test_correlations_from_kappas_equal_point():
    _, classical, quantum, _ = correlations_from_kappas(0.607, 0.607)
    assert quantum == pytest.approx(classical, abs=1e-15)
    assert quantum == pytest.approx(H_607, abs=1e-12)


def test_correlations_from_kappas_revival_peak():
    _, classical, quantum, _ = correlations_from_kappas(0.607, 0.385)
    assert quantum == pytest.approx(H_385, abs=1e-12)
    assert classical == pytest.approx(H_607, abs=1e-12)


def test_complex_kappas_use_moduli():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ka, kb = rng.uniform(0, 1, size=2)
        pa, pb = rng.uniform(0, 2 * np.pi, size=2)
        plain = correlations_from_kappas(ka, kb)
        rotated = correlations_from_kappas(ka * np.exp(1j * pa), kb * np.exp(1j * pb))
        assert rotated == pytest.approx(plain, abs=1e-12)


def test_piecewise_matches_spectrum_route():
    rng = np.random.default_rng(13)
    for _ in range(50):
        ka, kb = rng.uniform(0, 1, size=2)
        lam = bell_eigenvalues_from_kappas(ka, kb)
        spectrum_route = tuple(float(v) for v in bell_correlations(lam))
        assert correlations_from_kappas(ka, kb) == pytest.approx(spectrum_route, abs=1e-9)


def test_quantum_constant_while_kappa_b_dominates():
    ka = 0.58
    values = [correlations_from_kappas(ka, kb)[2] for kb in np.linspace(ka, 1.0, 15)]
    assert np.ptp(values) == 0.0


def test_classical_constant_while_kappa_a_dominates():
    ka = 0.58
    values = [correlations_from_kappas(ka, kb)[1] for kb in np.linspace(0.0, ka, 15)]
    assert np.ptp(values) == 0.0


def test_branch_continuity_at_equal_kappas():
    ka = 0.437
    eps = 1e-12
    _, lo_classical, lo_quantum, _ = correlations_from_kappas(ka, ka - eps)
    _, hi_classical, hi_quantum, _ = correlations_from_kappas(ka, ka + eps)
    assert lo_quantum == pytest.approx(hi_quantum, abs=1e-9)
    assert lo_classical == pytest.approx(hi_classical, abs=1e-9)


def _spectra_summing_to_one():
    """Sorted spectra whose float entries sum to exactly 1, each pair to a power of 2.

    l1 = 1/2 + 10^-k with l2 = 1 - l1 (l1 ~ l2, zero l3 and l4), the same l1 with
    l3 = 1/8 + 10^-k ~ l4, and fixed spectra with zeros and with l1 = 1/2.
    """
    spectra = [(1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0), (0.25,) * 4, (0.5, 0.25, 0.25, 0.0),
               (0.75, 0.125, 0.125, 0.0), (0.4, 0.625 - 0.4, 0.2, 0.375 - 0.2)]
    for k in range(1, 9):
        l1 = 0.5 + 10.0**-k
        spectra.append((l1, 1.0 - l1, 0.0, 0.0))
        if k >= 2:
            l3 = 0.125 + 10.0**-k
            spectra.append((l1, 0.75 - l1, l3, 0.25 - l3))
    assert all(sum(map(Fraction, spectrum)) == 1 for spectrum in spectra)
    return np.array(spectra)


def _measures_to_40_digits(spectrum):
    """I, C, Q, REE as differences of Shannon entropies, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        lam = [mpmath.mpf(float(v)) for v in spectrum]
        chi = [(lam[0] + lam[1]) / 2] * 2 + [(lam[2] + lam[3]) / 2] * 2

        def entropy(p):
            return -mpmath.fsum(v * mpmath.log(v, 2) for v in p if v > 0)

        ree = 1 - entropy([lam[0], 1 - lam[0]]) if lam[0] > 0.5 else 0
        return 2 - entropy(lam), 2 - entropy(chi), entropy(chi) - entropy(lam), ree


def test_measures_match_a_40_digit_reference():
    # near l1 = 1/2 and between near-equal eigenvalues the entropy differences
    # cancel in float; 1e-35 absorbs the 40-digit rounding of an exact zero
    spectra = _spectra_summing_to_one()
    got = np.column_stack(bell_correlations(spectra))
    for spectrum, row in zip(spectra, got):
        want = _measures_to_40_digits(spectrum)
        for name, value, exact in zip(("I", "C", "Q", "REE"), row, want):
            assert abs(value - exact) <= 1e-14 * abs(exact) + 1e-35, (name, spectrum, value)
    # the kernel alone, 1 - h((1 + d) / 2), where its entropy form cancels to d^2 / (2 ln 2)
    for d in 10.0 ** -np.arange(1, 13):
        with mpmath.workdps(40):
            p = (1 + mpmath.mpf(d)) / 2
            exact = 1 + p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2)
            assert abs(float(_bits(d)) - exact) <= 1e-14 * exact, d


def test_total_is_sum_of_parts():
    rng = np.random.default_rng(14)
    spectra = [random_bell_spectrum(rng) for _ in range(50)] + list(_spectra_summing_to_one())
    for lam in spectra:
        total, classical, quantum, ree = (float(v) for v in bell_correlations(lam))
        assert total == quantum + classical
        assert quantum >= 0.0 and classical >= 0.0 and ree >= 0.0
        assert total <= 2.0 + 1e-12
        assert ree <= 1.0 + 1e-12


def test_bell_diagonal_state_spectrum_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(10):
        lam = random_bell_spectrum(rng)
        rho = bell_diagonal_state(lam)
        np.testing.assert_allclose(eigenvalues_sorted(rho), lam, atol=1e-12)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(rho))[::-1], lam, atol=1e-10)


def test_spectrum_functions_reject_unsorted():
    with pytest.raises(InvalidStateError, match="not sorted non-increasing"):
        quantum_correlation_bell([0.1, 0.2, 0.3, 0.4])


def test_bell_correlations_of_one_spectrum_are_four_scalars():
    one = bell_correlations(bell_eigenvalues_from_kappas(0.607, 0.385))
    assert [type(value) for value in one] == [np.float64] * 4
    # REE is zero for a separable state as well, from the other branch
    assert [type(value) for value in bell_correlations(np.full(4, 0.25))] == [np.float64] * 4
    stack = bell_correlations(bell_eigenvalues_from_kappas(np.full((2, 3), 0.607), 0.385))
    assert all(type(value) is np.ndarray and value.shape == (2, 3) for value in stack)
    assert [float(value[1, 2]) for value in stack] == [float(value) for value in one]
