"""Acceptance suite: every numbered criterion as one test, each printing a
pass/fail line with the measured values at its stated tolerance."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from belldyn.cli import landmarks_from_series
from belldyn.config import PRESETS
from belldyn.correlations import (
    bell_eigenvalues_from_kappas,
    classical_correlation_bell,
    quantum_correlation_bell,
    ree_bell,
)
from belldyn.dephasing import (
    MultiGaussian,
    angular_frequency,
    evolve_state,
    find_crossing,
    sigma_from_fwhm,
    spectra,
    sweep,
)
from belldyn.oracle import (
    oracle_classical_correlation,
    oracle_quantum_correlation,
    oracle_ree_bell,
)
from belldyn.qstate import eigenvalues_sorted
from belldyn.tomography import (
    BOOTSTRAP_KEYS,
    TomographyRecord,
    bootstrap,
    probabilities,
    reconstruct,
    simulate_counts,
)

from conftest import QuadratureSpectrum, random_bell_spectrum, random_density_matrix
from reference import bell_diagonal_state, correlations_from_kappas

LAM0 = 0.78e-6
#: the 3 nm arm-a filter at 780 nm as a one-component mixture
FILTER_A = MultiGaussian([(1.0, angular_frequency(780e-9), sigma_from_fwhm(3e-9, 780e-9))])


def _report(number, checks):
    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name}: {text}" for name, _, text in checks)
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} [{detail}]")
    failed = [f"{name}: {text}" for name, passed, text in checks if not passed]
    assert not failed, f"criterion {number} failed -> " + "; ".join(failed)


def _run_preset(name):
    """The preset's sweep table and the seconds it took."""
    config = PRESETS[name]
    start = time.perf_counter()
    series = sweep(config)
    return series, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig2a():
    return _run_preset("fig2a")


@pytest.fixture(scope="module")
def fig2b():
    return _run_preset("fig2b")


def test_criterion_1_kappa_a_calibration():
    value = abs(FILTER_A.kappa(117 * LAM0))
    _report(1, [("|kappa_a| at 117 lam0", abs(value - 0.607) <= 0.010, f"{value:.4f} (0.607 +/- 0.010)")])


def test_criterion_2_initial_correlations():
    _, classical, quantum, ree = correlations_from_kappas(0.607, 1.0)
    _report(
        2,
        [
            ("C", abs(classical - 1.0) <= 1e-9, f"{classical:.12f} (1 +/- 1e-9)"),
            ("Q", abs(quantum - 0.285) <= 0.005, f"{quantum:.4f} (0.285 +/- 0.005)"),
            ("REE", abs(ree - 0.285) <= 0.005, f"{ree:.4f} (0.285 +/- 0.005)"),
        ],
    )


def test_criterion_3_sudden_transition(fig2a):
    series, elapsed = fig2a
    level = series["kappa_a_abs"][0]
    crossing = find_crossing(series["x_over_lambda0"], series["kappa_b_abs"], level, rising=False)
    _report(
        3,
        [
            ("transition x", 110.0 <= crossing <= 130.0, f"{crossing:.1f} lam0 (in [110, 130])"),
            ("sweep runtime", elapsed < 1.0, f"{elapsed:.3f} s (< 1 s)"),
        ],
    )


def test_criterion_4_ree_sudden_death(fig2a):
    series, _ = fig2a
    # equivalent locators: largest eigenvalue falling through 1/2, and the
    # REE series itself reaching zero
    death = find_crossing(series["x_over_lambda0"], series["lambda1"], 0.5, rising=False)
    death_ree = find_crossing(series["x_over_lambda0"], series["REE"], 0.0, rising=False)
    _report(
        4,
        [
            ("REE death x (lambda1 = 1/2)", abs(death - 189.0) <= 15.0, f"{death:.1f} lam0 (189 +/- 15)"),
            ("REE death x (REE = 0)", abs(death_ree - 189.0) <= 15.0, f"{death_ree:.1f} lam0 (189 +/- 15)"),
        ],
    )


def test_criterion_5_revival(fig2a):
    series, _ = fig2a
    x = series["x_over_lambda0"]
    window = (x >= 400.0) & (x <= 700.0)
    kb_max = float(series["kappa_b_abs"][window].max())
    q_max = float(series["Q"][window].max())

    # last upward crossing of the 0.005 threshold before the revival peak
    level = series["kappa_a_abs"][0]
    transition = find_crossing(x, series["kappa_b_abs"], level, rising=False)
    peak_index = int(np.argmax(np.where(x >= 400.0, series["Q"], -1.0)))
    q_rise = find_crossing(
        x[: peak_index + 1], series["Q"][: peak_index + 1], 0.005,
        rising=True, start=transition, which="last",
    )

    plateau = (x >= 130.0) & (x <= 800.0)
    c_window = series["C"][plateau]
    c_spread = float(c_window.max() - c_window.min())
    c_value = float(c_window.mean())

    _report(
        5,
        [
            ("max |kappa_b| in [400,700]", abs(kb_max - 0.385) <= 0.02, f"{kb_max:.4f} (0.385 +/- 0.02)"),
            ("max Q in [400,700]", abs(q_max - 0.110) <= 0.01, f"{q_max:.4f} (0.110 +/- 0.01)"),
            ("Q rises above 0.005 in [400,470]", 400.0 <= q_rise <= 470.0, f"{q_rise:.1f} lam0"),
            ("C constant on [130,800]", c_spread <= 1e-6 and abs(c_value - 0.285) <= 0.005,
             f"spread {c_spread:.2e}, value {c_value:.4f}"),
        ],
    )


def _g(k):
    """C and Q of a Bell-diagonal state with correlation moduli k and 1, in bits."""
    return ((1.0 + k) * np.log1p(k) + (1.0 - k) * np.log1p(-k)) / (2.0 * math.log(2.0))


@pytest.mark.parametrize("step, bound", [(2.0, 0.01), (0.5, 1e-3)])
def test_criterion_5_q_threshold_is_a_kappa_b_threshold(step, bound):
    # from the sudden transition on, |kappa_b| < |kappa_a| and Q = g(|kappa_b|), so the
    # revival start (the last rise of Q through 0.005 before the peak) is the last rise
    # of |kappa_b| through k* = g^-1(0.005), up to the grid's linear interpolation:
    # the two differ by 5.5e-3 lam0 at step 2, 3.6e-4 at step 0.5 and 8.9e-7 at step 0.05
    low, high = 0.0, 1.0
    for _ in range(60):
        middle = 0.5 * (low + high)
        low, high = (middle, high) if _g(middle) < 0.005 else (low, middle)
    k_star = 0.5 * (low + high)
    assert abs(k_star - 0.0832073) <= 1e-7
    series = sweep(replace(PRESETS["fig2a"], step=step))
    landmarks = landmarks_from_series(series)
    x, kb = series["x_over_lambda0"], series["kappa_b_abs"]
    peak = int(np.flatnonzero(x == landmarks["q_revival_peak_x"])[0])
    after = (x >= landmarks["sudden_transition_x"]) & (x <= x[peak])
    assert kb[after].max() < series["kappa_a_abs"][0]
    np.testing.assert_allclose(series["Q"][after], _g(kb[after]), rtol=0.0, atol=1e-12)
    kb_rise = find_crossing(x[: peak + 1], kb[: peak + 1], k_star, rising=True,
                            start=landmarks["sudden_transition_x"], which="last")
    assert abs(landmarks["q_revival_start_x"] - kb_rise) < bound


def test_criterion_6_narrow_filter_revival(fig2b):
    series, _ = fig2b
    x = series["x_over_lambda0"]
    window = (x >= 400.0) & (x <= 700.0)
    kb_max = float(series["kappa_b_abs"][window].max())
    level = series["kappa_a_abs"][0]
    transition = find_crossing(x, series["kappa_b_abs"], level, rising=False)
    recross = find_crossing(x, series["kappa_b_abs"], level, rising=True, start=transition)
    _report(
        6,
        [
            ("max revival |kappa_b|", abs(kb_max - 0.944) <= 0.01, f"{kb_max:.4f} (0.944 +/- 0.01)"),
            ("revival transition x", abs(recross - 477.0) <= 15.0, f"{recross:.1f} lam0 (477 +/- 15)"),
        ],
    )


def test_criterion_7_echo_exactness():
    checks = []
    for name, echo_x in (("fig3a", 200.0), ("fig3b", 400.0)):
        series, _ = _run_preset(name)
        xs = series["x_over_lambda0"]
        center = int(np.argmin(np.abs(xs - echo_x)))
        revival = int(np.argmin(np.abs(xs - 2 * echo_x)))
        corr = np.stack([series[k] for k in ("I", "C", "Q", "REE")])
        return_err = float(np.abs(corr[:, revival] - corr[:, 0]).max())
        sym_err = float(np.abs(corr[:, center + 1:2 * center + 1] - corr[:, center - 1::-1]).max())
        checks.append(
            (f"{name} revival at {2 * echo_x:.0f} lam0", return_err <= 1e-9, f"max err {return_err:.2e}")
        )
        checks.append((f"{name} symmetry", sym_err <= 1e-9, f"max err {sym_err:.2e}"))
    _report(7, checks)


def test_criterion_8_oracle_agreement():
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    max_q = max_c = max_r = 0.0
    min_margin = np.inf
    for _ in range(100):
        lam = random_bell_spectrum(rng)
        rho = bell_diagonal_state(lam)
        q_true = quantum_correlation_bell(lam)
        c_true = classical_correlation_bell(lam)
        r_true = ree_bell(lam)
        q_oracle = oracle_quantum_correlation(rho)
        c_oracle = oracle_classical_correlation(rho)
        r_oracle = oracle_ree_bell(lam)
        max_q = max(max_q, abs(q_oracle - q_true))
        max_c = max(max_c, abs(c_oracle - c_true))
        max_r = max(max_r, abs(r_oracle - r_true))
        min_margin = min(
            min_margin, q_oracle - q_true, c_oracle - c_true, r_oracle - r_true
        )
    elapsed = time.perf_counter() - start
    _report(
        8,
        [
            ("max |Q oracle - analytic|", max_q <= 1e-3, f"{max_q:.2e}"),
            ("max |C oracle - analytic|", max_c <= 1e-3, f"{max_c:.2e}"),
            ("max |REE oracle - analytic|", max_r <= 1e-3, f"{max_r:.2e}"),
            ("no undercut", min_margin >= -1e-6, f"min margin {min_margin:.2e}"),
            ("runtime", elapsed < 60.0, f"{elapsed:.1f} s (< 60 s)"),
        ],
    )


def test_criterion_9_tomography():
    rng = np.random.default_rng(909)
    roundtrip_err = 0.0
    for _ in range(20):
        rho = random_density_matrix(rng)
        record = TomographyRecord(10**6 * probabilities(rho))
        roundtrip_err = max(roundtrip_err, float(np.abs(reconstruct(record) - rho).max()))

    psi = 0.5 * np.array([1.0, 1.0, 1.0, -1.0], dtype=complex)
    pure = evolve_state(1.0, 1.0)
    fidelities = []
    for seed in range(100):
        rec = simulate_counts(pure, 10**4, seed)
        rho_hat = reconstruct(rec)
        fidelities.append(float(np.real(psi.conj() @ rho_hat @ psi)))
    mean_fid = float(np.mean(fidelities))

    mixed = evolve_state(0.607, 0.385)
    e3 = bootstrap([simulate_counts(mixed, 10**3, 101)], 400, [102])[1][0]
    e5 = bootstrap([simulate_counts(mixed, 10**5, 102)], 400, [103])[1][0]
    lambda1 = BOOTSTRAP_KEYS.index("lambda1")
    ratio = e3[lambda1] / e5[lambda1]

    _report(
        9,
        [
            ("noiseless roundtrip", roundtrip_err <= 1e-9, f"max err {roundtrip_err:.2e}"),
            ("mean fidelity at n=1e4", mean_fid >= 0.99, f"{mean_fid:.4f} (>= 0.99)"),
            ("error-bar 1/sqrt(n) ratio", 8.0 <= ratio <= 12.5, f"{ratio:.2f} (10 within x1.25)"),
        ],
    )


def test_criterion_10_structural_properties():
    checks = []
    sum_err = 0.0
    neg = 0.0
    kb_excess = 0.0
    kb_zero_err = 0.0
    ref_err = 0.0
    for name in ("fig2a", "fig2b", "fig3a", "fig3b"):
        series, _ = _run_preset(name)
        # the 4x4 reference path: diagonalize the evolved state at every point
        lams = np.stack([series[f"lambda{j}"] for j in range(1, 5)], axis=-1)
        for ka, kb, lam in zip(series["kappa_a"], series["kappa_b"], lams):
            ref_err = max(ref_err, float(np.abs(eigenvalues_sorted(evolve_state(ka, kb)) - lam).max()))
        sum_err = max(sum_err, float(np.abs(series["I"] - series["Q"] - series["C"]).max()))
        neg = min(
            neg,
            float(series["I"].min()),
            float(series["C"].min()),
            float(series["Q"].min()),
            float(series["REE"].min()),
        )
        kb_excess = max(kb_excess, float(series["kappa_b_abs"].max()) - 1.0,
                        float(series["kappa_a_abs"].max()) - 1.0)
        kb_zero_err = max(kb_zero_err, abs(float(series["kappa_b_abs"][0]) - 1.0))
    checks.append(("I = Q + C on every sweep point", sum_err <= 1e-9, f"max err {sum_err:.2e}"))
    checks.append(("correlations nonnegative", neg >= 0.0, f"min {neg:.2e}"))
    checks.append(("|kappa| <= 1", kb_excess <= 1e-9, f"max excess {kb_excess:.2e}"))
    checks.append(("kappa_b(0) = 1", kb_zero_err <= 1e-12, f"err {kb_zero_err:.2e}"))
    checks.append(("closed-form eigenvalues = 4x4 diagonalization on every sweep point",
                   ref_err <= 1e-12, f"max err {ref_err:.2e}"))

    # kappa(0) = 1 and |kappa| <= 1 for every spectral model kind
    # (one-component mixture, three-component mixture, trapezoid integral of a sampled density)
    single = FILTER_A
    comps = spectra(PRESETS["fig2a"])[1]
    sigma = single.components[0, 2]
    omega = np.linspace(angular_frequency(783e-9), angular_frequency(777e-9), 9001)
    density = np.exp(-4 * (omega - angular_frequency(780e-9)) ** 2 / sigma**2)
    density /= np.trapezoid(density, omega)
    sampled = QuadratureSpectrum(omega, density)
    model_err = max(
        abs(single.kappa(0.0) - 1.0), abs(comps.kappa(0.0) - 1.0), abs(sampled.kappa(0.0) - 1.0)
    )
    xs = np.linspace(0.0, 500.0, 300) * LAM0
    bound_excess = max(
        max(abs(m.kappa(x)) for x in xs) - 1.0 for m in (single, comps, sampled)
    )
    checks.append(("kappa(0) = 1 for all models", model_err <= 1e-6, f"max err {model_err:.2e}"))
    checks.append(("|kappa(x)| <= 1 for all models", bound_excess <= 1e-6, f"max excess {bound_excess:.2e}"))

    rng = np.random.default_rng(1010)
    eig_err = 0.0
    for _ in range(25):
        ka, kb = rng.uniform(0.0, 1.0, size=2)
        pa, pb = rng.uniform(0.0, 2.0 * np.pi, size=2)
        lams = eigenvalues_sorted(evolve_state(ka * np.exp(1j * pa), kb * np.exp(1j * pb)))
        eig_err = max(eig_err, float(np.abs(lams - bell_eigenvalues_from_kappas(ka, kb)).max()))
    checks.append(("eigenvalues ignore kappa phases", eig_err <= 1e-10, f"max err {eig_err:.2e}"))
    _report(10, checks)
