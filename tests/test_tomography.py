import dataclasses
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import belldyn.tomography as tomography
from belldyn.config import MAX_TOMO_COUNTS, PRESETS, TomographySettings
from belldyn.correlations import bell_correlations, bell_eigenvalues_from_kappas
from belldyn.dephasing import evolve_state, sweep
from belldyn.errors import (
    BelldynError,
    InvalidStateError,
    NonConvergenceError,
    TomographyInputError,
)
from belldyn.qstate import eigenvalues_sorted, validate_state
from belldyn.tomography import (
    BOOTSTRAP_KEYS,
    STANDARD_LABELS,
    STANDARD_PROJECTORS,
    TomographyRecord,
    probabilities,
    reconstruct,
    simulate_counts,
)

from conftest import random_density_matrix


LAMBDA1, REE = (BOOTSTRAP_KEYS.index(key) for key in ("lambda1", "REE"))


def exact_record(rho, n=10**6):
    return TomographyRecord(n * probabilities(rho))


def test_standard_basis_set_size_and_labels():
    assert STANDARD_PROJECTORS.shape == (16, 4, 4)
    assert len(STANDARD_LABELS) == 16
    assert len(set(STANDARD_LABELS)) == 16


def test_standard_basis_set_projectors_are_rank1_products():
    assert not STANDARD_PROJECTORS.flags.writeable
    with pytest.raises(ValueError):
        STANDARD_PROJECTORS[0, 0, 0] = 0.0
    for label, p in zip(STANDARD_LABELS, STANDARD_PROJECTORS):
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10, err_msg=f"{label} not Hermitian")
        np.testing.assert_allclose(p @ p, p, atol=1e-10, err_msg=f"{label} not idempotent")
        assert abs(np.trace(p) - 1.0) <= 1e-10
        w = np.linalg.eigvalsh(p)
        np.testing.assert_allclose(np.sort(w), [0, 0, 0, 1], atol=1e-12)
        # product structure: partial transposition keeps rank 1
        pt = p.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert np.linalg.matrix_rank(pt, tol=1e-10) == 1


def test_standard_basis_set_spans_operator_space():
    system = np.array([p.T.flatten() for p in STANDARD_PROJECTORS])
    assert np.linalg.matrix_rank(system, tol=1e-10) == 16


def test_dual_frame_coordinates_are_the_setting_probabilities():
    dual = tomography._DUAL.reshape(16, 4, 4)
    np.testing.assert_allclose(np.einsum("jab,kba->jk", STANDARD_PROJECTORS, dual), np.eye(16),
                               rtol=0.0, atol=1e-15)
    assert np.array_equal(dual, dual.conj().swapaxes(1, 2))
    # P_HH + P_HV + P_VH + P_VV = I, so tr rho is the sum of those four coordinates,
    # which is what `_estimate` normalizes by
    four = [float(set(label) <= set("HV")) for label in STANDARD_LABELS]
    assert four == [1.0] * 4 + [0.0] * 12
    np.testing.assert_allclose(np.trace(dual, axis1=1, axis2=2), four, rtol=0.0, atol=1e-15)
    rng = np.random.default_rng(56)
    for rank in (1, 2, 4):
        rhos = np.stack([random_density_matrix(rng, rank=rank) for _ in range(20)])
        x = np.stack([probabilities(rho) for rho in rhos])
        np.testing.assert_allclose(tomography._matrices(x), rhos, rtol=0.0, atol=1e-14)


def test_probabilities_trivial_cases():
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    p = probabilities(hh)
    by_label = dict(zip(STANDARD_LABELS, p))
    assert by_label["HH"] == pytest.approx(1.0, abs=1e-12)
    assert by_label["VV"] == pytest.approx(0.0, abs=1e-12)
    mixed = probabilities(np.eye(4) / 4.0)
    np.testing.assert_allclose(mixed, 0.25, atol=1e-12)


def test_linear_forms_are_those_of_the_dephased_state():
    # 4 rho - I of `evolve_state` is linear in F = Re, Im of (kappa_a, kappa_b, kappa_a kappa_b,
    # kappa_a kappa_b*); its eight matrices B_j come exactly from states at kappas in {0, 1, i},
    # whose entries are exact, and tr(P_k rho) = (1 + sum_j tr(P_k B_j) F_j) / 4
    def m(kappa_a, kappa_b):
        return 4.0 * evolve_state(kappa_a, kappa_b) - np.eye(4)

    b = [m(1, 0), m(1j, 0), m(0, 1), m(0, 1j)]
    sum46, diff64 = m(1, 1) - b[0] - b[2], m(1j, 1j) - b[1] - b[3]
    diff57, sum57 = m(1, 1j) - b[0] - b[3], m(1j, 1) - b[1] - b[2]
    b += [(sum46 - diff64) / 2, (diff57 + sum57) / 2, (sum46 + diff64) / 2, (sum57 - diff57) / 2]
    rng = np.random.default_rng(59)
    for kappa_a, kappa_b in rng.uniform(-0.7, 0.7, size=(20, 2)) + 1j * rng.uniform(-0.7, 0.7, size=(20, 2)):
        products = np.array([kappa_a, kappa_b, kappa_a * kappa_b, kappa_a * np.conj(kappa_b)])
        np.testing.assert_allclose(np.einsum("j,jab->ab", products.view(float), b), m(kappa_a, kappa_b),
                                   rtol=0.0, atol=1e-15)
    forms = np.einsum("kab,jba->kj", STANDARD_PROJECTORS, np.stack(b))
    assert np.abs(forms.imag).max() == 0.0
    # every entry is 0, +-1/2 or +-1; the projectors' products of 1/sqrt2 miss that by an ulp
    assert np.array_equal(tomography._LINEAR_FORMS, np.round(2.0 * forms.real) / 2.0)
    assert np.abs(tomography._LINEAR_FORMS - forms.real).max() <= 1e-15
    assert set(tomography._LINEAR_FORMS.ravel().tolist()) == {-1.0, -0.5, 0.0, 0.5, 1.0}


def test_dephased_probabilities_match_the_state_route():
    rng = np.random.default_rng(60)
    modulus = rng.uniform(0.0, 1.0, size=(2, 3000))
    modulus[:, :500] = 1.0 + rng.uniform(0.0, 1e-9, size=(2, 500))  # clipped to 1, phase kept
    modulus[:, 500:600] = 1.0
    kappa_a, kappa_b = modulus * np.exp(2j * np.pi * rng.uniform(size=(2, 3000)))
    closed = tomography._dephased_probabilities(kappa_a, kappa_b)
    state = np.stack([probabilities(evolve_state(a, b)) for a, b in zip(kappa_a, kappa_b)])
    # the einsum over the projectors is the less exact side: 3.3e-16 from exact rational
    # arithmetic on 3,000 rows, against 1.2e-16 for the closed form
    assert np.abs(closed - state).max() <= 4e-16
    forms = [[Fraction(a) for a in row] for row in tomography._LINEAR_FORMS.tolist()]
    for i in range(600, 900):  # unclipped rows, against exact rational arithmetic
        ar, ai, br, bi = map(Fraction, (kappa_a[i].real, kappa_a[i].imag, kappa_b[i].real, kappa_b[i].imag))
        f = [ar, ai, br, bi, ar * br - ai * bi, ar * bi + ai * br, ar * br + ai * bi, ai * br - ar * bi]
        for row, p in zip(forms, closed[i].tolist()):
            exact = min(max((1 + sum(a * x for a, x in zip(row, f))) / 4, Fraction(0)), Fraction(1))
            assert abs(Fraction(p) - exact) <= 2e-16
    for i in range(0, 3000, 100):  # a row alone gives the bits it has in the batch
        assert np.array_equal(tomography._dephased_probabilities(kappa_a[i], kappa_b[i]), closed[i:i + 1])
    # a pure state's zero probabilities are exact zeros on both routes, so no draw consumes
    # a random number for one route and not the other
    for a, b in itertools.product((1, -1, 1j, -1j), repeat=2):
        zeros = probabilities(evolve_state(a, b)) == 0.0
        assert zeros.sum() >= 2
        assert np.array_equal(tomography._dephased_probabilities(a, b)[0] == 0.0, zeros)


def test_simulate_dephased_checks_and_clips_each_kappa_as_evolve_state_does(monkeypatch):
    tomo = TomographySettings(n_per_setting=100, resamples=2, seed=0)
    for bad in (math.nan, 5.0, 1 + 2e-9):
        for name, pair in (("kappa_a", (bad, 0.5)), ("kappa_b", (0.5, bad))):
            with pytest.raises(InvalidStateError, match=rf"^\|{name}\| must be at most 1"):
                tomography.simulate_dephased(*pair, tomo)
            with pytest.raises(InvalidStateError, match=rf"^\|{name}\| must be at most 1"):
                evolve_state(*pair)
    counts, _, _ = tomography.simulate_dephased(1 + 5e-10, (1 + 5e-10) * 1j, tomo)
    assert counts.shape == (1, 16)
    # a kappa in the clip band (1, 1 + 1e-9] reaches the dephased route's linear forms as the
    # very complex value that evolve_state puts in its matrix
    rng = np.random.default_rng(61)
    modulus = 1 + rng.uniform(0.0, 1e-9, (2, 400))
    kappa_a, kappa_b = modulus * np.exp(2j * np.pi * rng.uniform(size=(2, 400)))
    features, apply = [], tomography._apply
    monkeypatch.setattr(tomography, "_apply", lambda forms, rows: features.append(rows) or apply(forms, rows))
    tomography._dephased_probabilities(kappa_a, kappa_b)
    ka, kb = features[0].view(complex)[:, :2].T
    for i in range(400):
        rho = evolve_state(kappa_a[i], kappa_b[i])
        assert (ka[i], kb[i]) == (4 * rho[2, 0], 4 * rho[1, 0])


@settings(max_examples=25)
@given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=2, max_side=3),
       seed=st.integers(0, 2**32))
def test_simulate_dephased_seeds_each_row_from_the_settings_seed(shapes, seed):
    # row i, in C order, has prefix [seed, i], a pair of numbers being one row; counts come
    # from [*prefix, 0], resamples from [*prefix, 1]
    rng = np.random.default_rng(seed)
    kappa_a, kappa_b = (rng.uniform(0.0, 1.0, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
                        for shape in shapes.input_shapes)  # 0-d shapes give numbers
    tomo = TomographySettings(n_per_setting=200, resamples=2, seed=seed)
    counts, values, errors = tomography.simulate_dephased(kappa_a, kappa_b, tomo)
    pairs = np.broadcast_arrays(kappa_a, kappa_b)
    prefixes = [[seed, i] for i in range(pairs[0].size)]
    assert counts.shape == (len(prefixes), 16) and values.shape == errors.shape == (len(prefixes), 8)
    for i, (ka, kb, prefix) in enumerate(zip(pairs[0].ravel(), pairs[1].ravel(), prefixes)):
        assert np.array_equal(counts[i], simulate_counts(evolve_state(ka, kb), 200, [*prefix, 0]).counts)
        point, spread = tomography._bootstrap(counts[i][None], 2, [[*prefix, 1]])
        assert np.array_equal(values[i], point[0]) and np.array_equal(errors[i], spread[0])


def test_simulate_dephased_broadcasts_its_kappas_and_rejects_pairs_without_rows():
    tomo = TomographySettings(n_per_setting=100, resamples=2, seed=4)
    scalar = tomography.simulate_dephased([0.5, 0.6, 0.7], 0.5, tomo)
    column = tomography.simulate_dephased([0.5, 0.6, 0.7], [0.5] * 3, tomo)
    assert all(np.array_equal(a, b) for a, b in zip(scalar, column))
    # a pair of numbers is the length-1 series: one row, with prefix [seed, 0]
    series = tomography.simulate_dephased([0.5], 0.4, tomo)
    single = tomography.simulate_dephased(0.5, 0.4, tomo)
    assert all(np.array_equal(a, b) for a, b in zip(series, single))
    assert np.array_equal(single[2], tomography._bootstrap(single[0], 2, [[4, 0, 1]])[1])
    # kappas that broadcast to no pair give no rows to simulate
    for pair, shapes in ((([], 0.5), r"\(0,\) and \(\)"), ((0.5, np.ones((2, 0))), r"\(\) and \(2, 0\)")):
        with pytest.raises(TomographyInputError,
                           match=rf"^kappa_a and kappa_b must broadcast to 1[+] pairs, got shapes {shapes}$"):
            tomography.simulate_dephased(*pair, tomo)


def test_simulate_dephased_rejects_kappas_that_do_not_broadcast_as_the_spectrum_does():
    # one pair check, `correlations._checked_pair`, on both routes that take a pair of kappas
    tomo = TomographySettings(n_per_setting=100, resamples=2, seed=4)
    for pair, shapes in ((([0.5, 0.6], [0.5, 0.6, 0.7]), r"\(2,\) and \(3,\)"),
                         ((np.ones((2, 3)), [1, 0]), r"\(2, 3\) and \(2,\)")):
        for route in (bell_eigenvalues_from_kappas, lambda a, b: tomography.simulate_dephased(a, b, tomo)):
            with pytest.raises(InvalidStateError,
                               match=rf"^kappa_a and kappa_b must broadcast together, got shapes {shapes}$"):
                route(*pair)


def test_simulate_counts_deterministic_for_seed():
    rho = evolve_state(0.6, 0.4)
    a = simulate_counts(rho, 5000, 42)
    b = simulate_counts(rho, 5000, 42)
    np.testing.assert_array_equal(a.counts, b.counts)
    c = simulate_counts(rho, 5000, 43)
    assert np.any(a.counts != c.counts)


def test_simulate_counts_sequence_seed():
    rho = evolve_state(0.6, 0.4)
    a = simulate_counts(rho, 5000, [7, 0])
    b = simulate_counts(rho, 5000, [7, 1])
    assert np.any(a.counts != b.counts)


def test_simulate_counts_poisson_mean():
    rho = np.eye(4, dtype=complex) / 4.0
    rec = simulate_counts(rho, 10**6, 3)
    np.testing.assert_allclose(rec.counts / 10**6, 0.25, atol=0.005)


def test_reconstruct_noiseless_identity_mixed():
    rho = np.eye(4, dtype=complex) / 4.0
    np.testing.assert_allclose(reconstruct(exact_record(rho)), rho, atol=1e-9)


def test_reconstruct_noiseless_identity_partial_dephasing():
    rho = evolve_state(0.607, 0.385)
    np.testing.assert_allclose(reconstruct(exact_record(rho)), rho, atol=1e-9)


def test_reconstruct_noiseless_identity_random_states():
    rng = np.random.default_rng(50)
    for _ in range(50):
        rho = random_density_matrix(rng)
        np.testing.assert_allclose(reconstruct(exact_record(rho)), rho, atol=1e-9)


def test_reconstruct_output_always_physical():
    rng = np.random.default_rng(51)
    counts = rng.poisson(500, size=16).astype(float)
    counts[3:9] = 0.0  # zero out a block of settings
    rho = reconstruct(TomographyRecord(counts))
    validate_state(rho)


def test_reconstruct_all_zero_counts_gives_mixed_state():
    rec = TomographyRecord(np.zeros(16))
    np.testing.assert_allclose(reconstruct(rec), np.eye(4) / 4.0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-304, 1e160, 1e170, 1e300, 3e304])
def test_reconstruct_does_not_depend_on_the_scale_of_the_counts(scale):
    # the estimator is scale-equivariant; solved as given, these records ended in
    # LinAlgError (1e-300, 1e300, 3e304) and NonConvergenceError (1e170); at 3e304
    # the counts' sum overflows, so a division by it would give I/4
    for rho in (evolve_state(1.0, 1.0), evolve_state(0.607, 0.385)):
        record = simulate_counts(rho, 10**4, 0)
        scaled = TomographyRecord(record.counts * scale)
        np.testing.assert_allclose(reconstruct(scaled), reconstruct(record), rtol=0.0, atol=1e-12)


def test_reconstruct_fidelity_with_noise():
    psi = 0.5 * np.array([1.0, 1.0, 1.0, -1.0], dtype=complex)
    rho = evolve_state(1.0, 1.0)
    fids = []
    for seed in range(40):
        rec = simulate_counts(rho, 10**4, seed)
        r = reconstruct(rec)
        fids.append(float(np.real(psi.conj() @ r @ psi)))
    assert np.mean(fids) >= 0.99


def test_reconstruct_error_decreases_with_counts():
    rho = evolve_state(0.607, 0.385)

    def trace_distance(a, b):
        return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())

    dist = {}
    for n in (10**3, 10**5):
        dist[n] = np.median(
            [trace_distance(reconstruct(simulate_counts(rho, n, s)), rho) for s in range(20)]
        )
    assert dist[10**5] < dist[10**3]


def test_error_bars_deterministic():
    rec = simulate_counts(evolve_state(0.607, 0.385), 2000, 9)
    a = tomography._bootstrap(rec.counts[None], 25, [[17]])[1][0]
    b = tomography._bootstrap(rec.counts[None], 25, [[17]])[1][0]
    assert np.array_equal(a, b)
    c = tomography._bootstrap(rec.counts[None], 25, [[18]])[1][0]
    assert not np.array_equal(a, c)


def quantities(spectrum):
    """The BOOTSTRAP_KEYS of one spectrum: `bell_correlations` of it, then the spectrum."""
    return np.array([*bell_correlations(spectrum), *spectrum])


def estimated_spectrum(counts):
    """The spectrum that a one-row `_estimate` call gives a record's counts."""
    return tomography._estimate(TomographyRecord(counts).counts[None])[1][0]


def test_error_bars_match_per_record_reference():
    # each resample through the per-record path: a new record and its one-row estimate;
    # the resamples are successive draws from the record's one Generator
    record = simulate_counts(evolve_state(0.607, 0.385), 2000, 9)
    seed, resamples = 17, 6
    rng = np.random.default_rng(seed)
    samples = [quantities(estimated_spectrum(rng.poisson(record.counts))) for _ in range(resamples)]
    expected = np.std(samples, axis=0, ddof=1)
    assert np.array_equal(tomography._bootstrap(record.counts[None], resamples, [[seed]])[1][0], expected)


def test_bootstrap_of_a_stack_matches_each_record_alone():
    # pure, rank-2 and mixed states: unphysical and physical rows share one batch
    states = [evolve_state(1.0, 1.0), evolve_state(0.607, 1.0), evolve_state(0.607, 0.385)]
    records = [simulate_counts(rho, 2000, [3, i]) for i, rho in enumerate(states)]
    seeds = [[3, i, 1] for i in range(len(records))]
    values, errors = tomography._bootstrap(np.stack([record.counts for record in records]), 9, seeds)
    assert values.shape == errors.shape == (3, len(BOOTSTRAP_KEYS))
    for record, seed, value, error in zip(records, seeds, values, errors):
        assert np.array_equal(value, quantities(estimated_spectrum(record.counts)))
        assert np.array_equal(error, tomography._bootstrap(record.counts[None], 9, [seed])[1][0])


@pytest.mark.parametrize("kappa_a, kappa_b", [(0.607, 0.3), (0.8, 0.5)])
def test_error_bars_are_calibrated_against_repeated_experiments(kappa_a, kappa_b):
    # E = 200 simulated experiments of 10^4 counts per setting, each bootstrapped with
    # R = 20 resamples. For Gaussian estimates, the bounds are 4 standard errors:
    # - the spread across experiments, an sd of E values, has relative error
    #   1/sqrt(2(E-1)) = 0.050; a bootstrap sd has 1/sqrt(2(R-1)) = 0.162, so the median
    #   of E of them has sqrt(pi/2) 0.162/sqrt(E) = 0.014; their ratio has 0.052, 4x 0.21;
    # - the 1-sd coverage is a binomial fraction of E: sqrt(0.683 0.317/E) = 0.033, 4x 0.13.
    # Interior states only: beside a kink or a boundary (C at |kappa_a| = |kappa_b|,
    # lambda4 at kappa_b = 0) the estimates are biased by about 1 sd or more.
    experiments, resamples, seed = 200, 20, 7
    rho = evolve_state(kappa_a, kappa_b)
    records = [simulate_counts(rho, 10**4, [seed, e, 0]) for e in range(experiments)]
    values, errors = tomography._bootstrap(np.stack([record.counts for record in records]), resamples,
                                           [[seed, e, 1] for e in range(experiments)])
    ratio = np.median(errors, axis=0) / values.std(axis=0, ddof=1)
    coverage = (np.abs(values - quantities(eigenvalues_sorted(rho))) <= errors).mean(axis=0)
    assert np.all(np.abs(ratio - 1.0) <= 0.21), dict(zip(BOOTSTRAP_KEYS, ratio))
    assert np.all(np.abs(coverage - 0.683) <= 0.13), dict(zip(BOOTSTRAP_KEYS, coverage))


def test_error_bars_vanish_for_huge_counts():
    rec = exact_record(evolve_state(0.607, 0.385), n=10**8)
    errs = tomography._bootstrap(rec.counts[None], 30, [[5]])[1][0]
    assert np.all(errs < 1e-3)


def test_error_bars_scale_with_shot_noise():
    # dominant-eigenvalue error bar scales as 1/sqrt(n); expected ratio 10
    rho = evolve_state(0.607, 0.385)
    e3 = tomography._bootstrap(simulate_counts(rho, 10**3, 101).counts[None], 300, [[102]])[1][0]
    e5 = tomography._bootstrap(simulate_counts(rho, 10**5, 102).counts[None], 300, [[103]])[1][0]
    ratio = e3[LAMBDA1] / e5[LAMBDA1]
    assert 8.0 <= ratio <= 12.0


def test_error_bars_ree_pinned_at_zero_for_separable_states():
    # largest eigenvalue 0.36, far below 1/2: every resample is separable
    rec = simulate_counts(evolve_state(0.2, 0.2), 10**4, 12)
    errs = tomography._bootstrap(rec.counts[None], 50, [[13]])[1][0]
    assert errs[REE] == 0.0
    assert errs[LAMBDA1] > 0.0


def test_simulate_counts_rejects_counts_out_of_range():
    rho = np.eye(4) / 4.0
    for bad in (0, 0.5, float("nan"), 1e30, MAX_TOMO_COUNTS + 1):
        with pytest.raises(TomographyInputError, match="n_per_setting"):
            simulate_counts(rho, bad, 0)
    assert issubclass(TomographyInputError, BelldynError)
    assert issubclass(TomographyInputError, ValueError)
    np.testing.assert_allclose(simulate_counts(rho, MAX_TOMO_COUNTS, 0).counts, MAX_TOMO_COUNTS / 4,
                               rtol=1e-6)


def test_eigenvalue_estimates_track_truth():
    rho = evolve_state(0.607, 0.385)
    rec = simulate_counts(rho, 10**5, 77)
    lam = eigenvalues_sorted(reconstruct(rec))
    np.testing.assert_allclose(
        lam, [0.55642375, 0.24707625, 0.13607625, 0.06042375], atol=0.02
    )


def test_import_leaves_scipy_unloaded():
    # a fresh interpreter that finds belldyn where this one did
    root = str(Path(tomography.__file__).resolve().parents[1])
    code = "import sys, belldyn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": root})
    assert out.stdout.strip() == "[]"


def linear_inversion(record):
    """rho_lin, unnormalized, from the projector system by least squares, independently of the
    estimator."""
    system = np.array([p.T.flatten() for p in STANDARD_PROJECTORS])
    x, *_ = np.linalg.lstsq(system, record.counts.astype(complex), rcond=None)
    return x.reshape(4, 4)


def is_physical(rho):
    return np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= 0.0


def test_physical_inversion_is_returned_in_closed_form():
    rng = np.random.default_rng(52)
    records = [exact_record(random_density_matrix(rng)) for _ in range(5)]
    records += [simulate_counts(evolve_state(0.607, 0.2), 10**4, seed) for seed in range(10)]
    physical = [rec for rec in records if is_physical(linear_inversion(rec))]
    assert len(physical) >= 10
    for rec in physical:
        rho_lin = linear_inversion(rec)
        np.testing.assert_allclose(reconstruct(rec), rho_lin / np.trace(rho_lin).real,
                                   rtol=0.0, atol=1e-12)


def unphysical_records():
    """Records whose linear inversion has a negative eigenvalue: the rank-2 x = 0 state of
    the fig2a spectra and pure states, at 10^4 counts."""
    table = sweep(PRESETS["fig2a"])
    rng = np.random.default_rng(53)
    phases = np.exp(2j * np.pi * rng.uniform(size=(4, 2)))
    states = [evolve_state(table["kappa_a"][0], table["kappa_b"][0]), evolve_state(1.0, 1.0)]
    states += [evolve_state(a, b) for a, b in phases]
    records = [simulate_counts(rho, 10**4, seed) for rho in states for seed in range(4)]
    records = [rec for rec in records if not is_physical(linear_inversion(rec))]
    assert len(records) >= 20
    return records


def test_unphysical_estimates_have_unit_trace_and_full_rank():
    for rec in unphysical_records():
        rho = reconstruct(rec)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(rho).min() > 0.0


def test_reconstruct_of_an_unphysical_record_diagonalizes_only_its_linear_inversion(monkeypatch):
    # the linear inversion's spectrum decides whether the barrier solves; only `_bootstrap`
    # reads the spectrum of the barrier's optimum, so `reconstruct` does not compute it
    sizes = []
    eigvalsh = tomography._eigvalsh

    def counting(matrices, signature):
        sizes.append(len(matrices))
        return eigvalsh(matrices, signature=signature)

    record = unphysical_records()[0]
    monkeypatch.setattr(tomography, "_eigvalsh", counting)
    reconstruct(record)
    assert sizes == [1]


def test_estimate_of_a_row_does_not_depend_on_its_batch():
    rng = np.random.default_rng(54)
    pure = evolve_state(1.0, 1.0)
    for trial in range(6):
        rho = pure if trial % 2 else evolve_state(0.607, rng.uniform(0.2, 1.0))
        freqs = np.stack([simulate_counts(rho, 10**4, [trial, j]).counts for j in range(8)]) / 1e4
        batch = tomography._estimate(freqs)  # coordinates and spectra
        for j in range(8):
            alone = tomography._estimate(freqs[j:j + 1])
            assert all(np.array_equal(a[0], b[j]) for a, b in zip(alone, batch))


def test_estimates_of_a_mixed_batch_do_not_depend_on_the_batch():
    # pure, rank-2 and random-phase rows change stage at different steps, so the
    # predictor runs on some rows of a batch while others take Newton steps; `_solve`'s
    # step count of a row is the row's own too
    counts = np.stack([rec.counts for rec in unphysical_records()])
    for solve in (tomography._solve, tomography._estimate):
        batch = solve(counts)
        for j, row in enumerate(counts):
            alone = solve(row[None])
            assert all(np.array_equal(a[0], b[j]) for a, b in zip(alone, batch))


def test_estimated_spectra_are_those_of_the_reconstructed_states():
    # `_bootstrap` reads each estimate's spectrum off `_estimate` (the eigenvalues of its linear
    # inversion, or of its barrier optimum, over its trace) instead of diagonalizing the
    # normalized matrix `reconstruct` returns: the two spectra differ in the last bits only (up
    # to 7 ulp of lambda1 here). The measures' slope in the spectrum reaches about 12 bits per
    # unit of lambda1 (REE at lambda1 = 0.9998, the pure-state records), so the measures differ
    # by up to 1.0e-14 (I; REE 8.3e-15)
    rng = np.random.default_rng(62)
    records = unphysical_records()
    for _ in range(20):  # near-pure states
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = 0.98 * np.outer(psi, psi.conj()) / np.vdot(psi, psi).real + 0.005 * np.eye(4)
        records.append(simulate_counts(rho, 10**4, [62, len(records)]))
    mixed = [simulate_counts(random_density_matrix(rng), 10**4, [62, i]) for i in range(20)]
    physical = [rec for rec in mixed if is_physical(linear_inversion(rec))]
    assert len(physical) >= 10
    records += physical + [TomographyRecord(np.zeros(16))]
    counts = np.stack([rec.counts for rec in records])
    spectra = tomography._estimate(counts)[1]
    values = tomography._bootstrap(counts, 2, [[i] for i in range(len(counts))])[0]
    for record, spectrum, value in zip(records, spectra, values):
        expected = eigenvalues_sorted(reconstruct(record))
        assert np.abs(spectrum - expected).max() <= 1e-15
        assert np.array_equal(value[4:], spectrum)
        assert np.abs(value[:4] - bell_correlations(expected)).max() <= 3e-14
    assert np.array_equal(spectra[-1], [0.25] * 4)


def random_unphysical_rows(seed, candidates):
    """Unit-peak frequencies of the unphysical ones of `candidates` random records: states of rank 1-4
    with eigenvalue weights spanning 8 decades, 10^1-10^15 counts at the peak, and in about a fifth of
    the records 1-4 settings held at 0-2 counts."""
    rng = np.random.default_rng(seed)
    rank = rng.integers(1, 5, candidates)
    g = rng.normal(size=(candidates, 4, 4)) + 1j * rng.normal(size=(candidates, 4, 4))
    weights = 10 ** rng.uniform(-8, 0, (candidates, 4)) * (np.arange(4) < rank[:, None])
    p = np.einsum("kij,rji->rk", STANDARD_PROJECTORS, (g * weights[:, None, :]) @ g.conj().swapaxes(1, 2)).real
    means = 10 ** rng.uniform(1, 15, (candidates, 1)) * p.clip(0.0) / p.max(axis=-1, keepdims=True)
    counts = np.where(means < 1e12, rng.poisson(np.minimum(means, 1e12)), np.round(means))
    held = rng.integers(1, 5, candidates) * (rng.uniform(size=candidates) < 0.2)
    mask = rng.permuted(np.tile(np.arange(16), (candidates, 1)), axis=1) < held[:, None]
    counts[mask] = rng.integers(0, 3, mask.sum())
    freqs = counts / counts.max(axis=-1, keepdims=True)
    return freqs[np.linalg.eigvalsh(tomography._matrices(freqs))[:, 0] < 0.0]


def test_barrier_estimates_carry_the_duality_gap_certificate_that_solve_states():
    # rho maximizes the extended likelihood over rho >= 0 if and only if G = sum_k (1 - f_k / q_k) P_k,
    # q_k = tr(P_k rho), has G >= 0 and tr(G rho) = 0 (KKT). `_solve` states its barrier rows' gap tr(G rho),
    # over the sum of their unit-peak frequencies, as `_GAP`, about 4t at the last barrier weight t, where
    # G ~ t rho^-1 (Boyd and Vandenberghe, 11.6). Checked on the estimate's own matrix, to bounds far above
    # any BLAS kernel's rounding, also on 2,000 random rows in one batch, whose steps back off only to keep
    # rho positive definite: lambda_min(G) >= 1.8e-10, and tr(G rho) / t reads 3.99988 to 4.000015
    def certify(freqs, rho):
        q = np.einsum("kij,rji->rk", STANDARD_PROJECTORS, rho).real
        g = np.einsum("rk,kij->rij", 1.0 - freqs / q, STANDARD_PROJECTORS)
        assert np.linalg.eigvalsh(g)[:, 0].min() >= -1e-12
        gap = np.einsum("rij,rji->r", g, rho).real / (freqs.sum(axis=-1) * tomography._GAP)
        assert np.all(np.abs(gap - 1.0) <= 2.5e-4)  # tr(G rho) / t within 1e-3 of 4

    records = unphysical_records()
    random = random_unphysical_rows(43, 2400)
    assert len(random) >= 2000
    assert (random == 0.0).any(axis=-1).sum() >= 100  # settings held at 0 counts
    for counts in (np.stack([rec.counts for rec in records]), random):
        x, _, steps = tomography._solve(counts)
        assert np.all(steps > 0) and np.all(x > 0.0)
        rho = tomography._matrices(x)
        assert np.isfinite(np.linalg.cholesky(rho)).all()  # LinAlgError unless every rho is positive definite
        certify(counts / counts.max(axis=-1, keepdims=True), rho)  # the unit-peak frequencies `_solve` uses
    # the public route: `reconstruct`'s trace-1 matrix, rescaled so that sum_k q_k is the (1 + _GAP) sum_k f_k
    # the certificate states, the scale of `_solve`'s estimate; its gap then holds by construction, and
    # lambda_min(G) is the check (rescaled to sum_k f_k, where tr(G rho) = 0, it reads about -1.3e-9: the
    # condition of the optimum at another scale)
    freqs = np.stack([rec.counts / rec.counts.max() for rec in records])
    rho = np.stack([reconstruct(rec) for rec in records])
    q = np.einsum("kij,rji->rk", STANDARD_PROJECTORS, rho).real
    certify(freqs, rho * (freqs.sum(axis=-1) * (1.0 + tomography._GAP) / q.sum(axis=-1))[:, None, None])


def test_solve_takes_few_newton_steps_per_row():
    # `_solve` counts a row's Newton steps, the same in any batch (see the mixed-batch test). On the records
    # the second-order predictor takes a median of 17 (at most 22: no margin), against 16 (21) with an Armijo
    # test outside the quadratic region; a first-order one whose last stage stopped only once centred took
    # 21 (25), and centring every stage to the final tolerance 31.5 (40). A batch takes as many iterations as
    # its slowest row: on the random rows the median row takes 20 steps, p99 30 and the slowest 40 (38 with
    # the Armijo test), so 48 leaves a margin of 8, 20%
    steps = tomography._solve(np.stack([rec.counts for rec in unphysical_records()]))[2]
    assert np.median(steps) <= 17
    assert steps.max() <= 22
    assert tomography._solve(random_unphysical_rows(43, 2400))[2].max() <= 48


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_apply_gives_a_row_alone_the_bits_it_has_in_a_batch():
    # `_apply` takes 2-d vectors, so a (1, n) row runs the same stacked product as inside a batch
    rng = np.random.default_rng(63)
    vectors = rng.normal(size=(9, 16))
    for matrix in (tomography._DUAL.T, rng.normal(size=(9, 16, 16))):  # one matrix, one per row
        batch = tomography._apply(matrix, vectors)
        for j in range(9):
            alone = tomography._apply(matrix if matrix.ndim == 2 else matrix[j:j + 1], vectors[j:j + 1])
            assert _same_bits(alone, batch[j:j + 1])


def test_a_spectrum_lapack_cannot_compute_ends_in_non_convergence(monkeypatch):
    # the direct LAPACK call gives a NaN spectrum where np.linalg.eigvalsh would raise LinAlgError,
    # which `main` would not catch; `_solve` hands such a row to the barrier, which rejects every
    # NaN trial and raises NonConvergenceError
    record = simulate_counts(evolve_state(0.607, 0.2), 10**4, 0)
    monkeypatch.setattr(tomography, "_eigvalsh", lambda matrices, signature: np.full(matrices.shape[:-1], math.nan))
    with pytest.raises(NonConvergenceError):
        reconstruct(record)


def test_tomography_input_errors_are_belldyn_and_value_errors():
    assert issubclass(TomographyInputError, BelldynError)
    assert issubclass(TomographyInputError, ValueError)
    with pytest.raises(TomographyInputError, match="nonnegative"):
        TomographyRecord(-np.ones(16))
    with pytest.raises(TomographyInputError, match="16 values"):
        TomographyRecord(np.ones(8))
    # numpy would read "3" as 3.0, and end complex counts and "a" in bare TypeError/ValueError
    for counts in (["3"] * 16, np.full(16, 3 + 1j), ["a"] * 16):
        with pytest.raises(TomographyInputError, match="each a real number"):
            TomographyRecord(counts)
    for bad in ("3", None, [3], np.array([3, 4])):
        with pytest.raises(TomographyInputError, match="n_per_setting"):
            simulate_counts(np.eye(4) / 4.0, bad, 0)
    simulate_counts(np.eye(4) / 4.0, 2.5, 0)  # exact expected counts need not be integers
    # a seed word is an integer >= 0: 2.5 is not truncated to 2
    for bad in ([2.5], 2.5, -1, [-1], None, "7", [1, [2]]):
        with pytest.raises(TomographyInputError, match="seed"):
            simulate_counts(np.eye(4) / 4.0, 100, bad)
    assert np.array_equal(simulate_counts(np.eye(4) / 4.0, 100, [2.0]).counts,
                          simulate_counts(np.eye(4) / 4.0, 100, np.int64(2)).counts)


def test_tomography_input_errors_show_the_rejected_value_as_written():
    # "3" and "7" are strings, not the valid numbers 3 and 7
    rho = np.eye(4) / 4.0
    with pytest.raises(TomographyInputError, match="got '3'$"):
        simulate_counts(rho, "3", 0)
    with pytest.raises(TomographyInputError, match="got '7'$"):
        simulate_counts(rho, 100, "7")
    with pytest.raises(TomographyInputError, match="got '3'$"):
        TomographyRecord("3")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_record_rejects_non_finite_input(bad):
    counts = np.full(16, 100.0)
    counts[5] = bad
    with pytest.raises(TomographyInputError, match="finite"):
        TomographyRecord(counts)


def test_record_is_its_counts():
    # hasattr on the class cannot see a field without a default, so the fields are listed
    assert [field.name for field in dataclasses.fields(TomographyRecord)] == ["counts"]


def test_record_counts_are_a_read_only_copy():
    # a checked record cannot be made invalid after its check
    counts = np.full(16, 100.0)
    record = TomographyRecord(counts)
    with pytest.raises(ValueError, match="read-only"):
        record.counts[0] = -5.0
    with pytest.raises(ValueError, match="read-only"):
        simulate_counts(np.eye(4) / 4.0, 100, 0).counts[1] = np.nan
    counts[0] = 7.0  # the caller's array stays theirs and writable
    assert record.counts[0] == 100.0
