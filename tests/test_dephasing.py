import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldyn.config import MAX_SWEEP_POINTS, PRESETS, ExperimentConfig, validate_echo_points
from belldyn.dephasing import (
    SPEED_OF_LIGHT,
    MultiGaussian,
    _crossing,
    angular_frequency,
    effective_retardation,
    evolve_state,
    landmarks_from_series,
    sigma_from_fwhm,
    spectra,
    sweep,
)
from belldyn.correlations import bell_correlations, bell_eigenvalues_from_kappas
from belldyn.errors import ConfigError, InvalidStateError
from belldyn.qstate import eigenvalues_sorted, validate_state

from conftest import QuadratureSpectrum, gaussian_density, quadrature_kappa

#: the message of every rejected exchange schedule
BAD_SCHEDULE = "echo points must be finite, nonnegative and strictly increasing"

LAM0 = 0.78e-6
SIGMA_3NM = sigma_from_fwhm(3e-9, 780e-9)
OMEGA_780 = angular_frequency(780e-9)

#: the three-peak arm-b spectrum of the presets, as (weight, center_nm, fwhm_nm)
FP_NM = ((0.37, 778.853, 0.85), (0.44, 780.160, 0.85), (0.19, 781.459, 0.85))
FP_COMPONENTS = np.array(
    [(w, angular_frequency(c * 1e-9), sigma_from_fwhm(f * 1e-9, 780e-9)) for w, c, f in FP_NM]
)
#: arm a's 3 nm filter at 780 nm: a single Gaussian is a one-row mixture
FILTER_3NM = MultiGaussian(np.array([(1.0, OMEGA_780, SIGMA_3NM)]))


def _sampled_gaussian(n=6001, half_width=4.0, normalize=True):
    """The 3 nm Gaussian density on an n-point grid of +-half_width widths."""
    omega = np.linspace(
        OMEGA_780 - half_width * SIGMA_3NM, OMEGA_780 + half_width * SIGMA_3NM, n
    )
    density = gaussian_density(omega, SIGMA_3NM, OMEGA_780)
    return omega, density / np.trapezoid(density, omega) if normalize else density


def test_gaussian_kappa_at_zero():
    assert FILTER_3NM.kappa(0.0) == 1.0 + 0.0j


def test_gaussian_kappa_half_exponent():
    # (x/c)^2 sigma^2 / 16 = 1/2 at x = c and sigma = sqrt(8); the center only turns the phase
    k = MultiGaussian(np.array([(1.0, 1.0, math.sqrt(8.0))])).kappa(SPEED_OF_LIGHT)
    assert abs(k) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_gaussian_kappa_matches_quadrature():
    rng = np.random.default_rng(30)
    for _ in range(12):
        x = rng.uniform(0.0, 250.0) * LAM0
        closed = FILTER_3NM.kappa(x)
        numeric = quadrature_kappa(x, *_sampled_gaussian(20001, 5.0, normalize=False))
        assert abs(closed - numeric) < 1e-6


def test_gaussian_kappa_filter_calibration():
    # 3 nm filter at 117 lambda0 of retardation
    assert abs(FILTER_3NM.kappa(117 * LAM0)) == pytest.approx(0.607, abs=0.010)


def test_gaussian_kappa_modulus_monotone():
    mods = np.abs(FILTER_3NM.kappa(np.linspace(0.0, 400.0, 200) * LAM0))
    assert np.all(np.diff(mods) <= 0.0)


def test_kappa_multi_gaussian_at_zero():
    assert MultiGaussian(FP_COMPONENTS).kappa(0.0) == 1.0 + 0.0j


def test_kappa_multi_gaussian_revival_magnitude():
    xs = np.arange(400.0, 700.0, 0.5) * LAM0
    mods = [abs(MultiGaussian(FP_COMPONENTS).kappa(x)) for x in xs]
    assert max(mods) == pytest.approx(0.385, abs=0.02)


def test_kappa_modulus_bounded():
    xs = np.linspace(0.0, 800.0, 1500) * LAM0
    for x in xs[::50]:
        assert abs(MultiGaussian(FP_COMPONENTS).kappa(x)) <= 1.0 + 1e-12


def test_kappa_quadrature_at_zero():
    numeric = quadrature_kappa(0.0, *_sampled_gaussian())
    assert abs(numeric - FILTER_3NM.kappa(0.0)) < 1e-6


def test_kappa_quadrature_matches_closed_form():
    grid = _sampled_gaussian(n=8001)
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = rng.uniform(0.0, 300.0) * LAM0
        assert abs(quadrature_kappa(x, *grid) - FILTER_3NM.kappa(x)) < 1e-4


def _sampled_fp(n=12001):
    """The FP spectrum's density on an n-point grid from 777 to 783 nm, normalized."""
    omega = np.linspace(angular_frequency(783e-9), angular_frequency(777e-9), n)
    density = sum(
        w * gaussian_density(omega, width, center) for w, center, width in FP_COMPONENTS
    )
    return omega, density / np.trapezoid(density, omega)


def test_kappa_quadrature_matches_multi_gaussian():
    grid = _sampled_fp()
    rng = np.random.default_rng(32)
    for _ in range(10):
        x = rng.uniform(0.0, 300.0) * LAM0
        assert abs(quadrature_kappa(x, *grid) - MultiGaussian(FP_COMPONENTS).kappa(x)) < 1e-4


def test_kappa_is_zero_past_envelope_overflow():
    # (x/c)^2 sigma^2 overflows: the envelope's exact limit 0, with no numpy warning
    assert FILTER_3NM.kappa(1e300) == 0.0
    np.testing.assert_array_equal(FILTER_3NM.kappa(np.array([0.0, 1e300, 1e306])), [1.0, 0.0, 0.0])
    assert MultiGaussian(FP_COMPONENTS).kappa(1e308) == 0.0


def test_kappa_names_the_range_where_only_the_phase_overflows():
    # width 1e-300 keeps the envelope at 1 where (x/c) omega0 overflows; the
    # limit is c * max_float / omega0
    limit = SPEED_OF_LIGHT * (np.finfo(float).max / OMEGA_780)
    narrow = MultiGaussian(np.array([(1.0, OMEGA_780, 1e-300)]))
    # the same |x| for +x and -x
    for x in (1e308, -1e308, np.array([0.0, -1e308]), np.array([0.0, 1e308])):
        with pytest.raises(ConfigError) as info:
            narrow.kappa(x)
        assert str(info.value) == ("retardation 1e+308 m is out of range: the phase "
                                   f"(x/c)*omega0 overflows beyond {limit:.6g} m")


@pytest.mark.parametrize(
    "changes",
    [
        # a weight, center or width that is zero, negative, NaN or infinite
        pytest.param({"spectrum_b": ((0.0, 780.0, 0.85),)}, id="zero-weight"),
        pytest.param({"spectrum_b": ((1.0, 780.0, -1.0),)}, id="negative-width"),
        pytest.param({"spectrum_b": ((math.nan, 780.0, 0.85),)}, id="nan-weight"),
        pytest.param({"spectrum_b": ((1.0, math.nan, 0.85),)}, id="nan-center"),
        pytest.param({"spectrum_b": ((1.0, 780.0, math.nan),)}, id="nan-width"),
        pytest.param({"spectrum_b": ((math.inf, 780.0, 0.85),)}, id="inf-weight"),
        pytest.param({"spectrum_b": ((1.0, math.inf, 0.85),)}, id="inf-center"),
        pytest.param({"spectrum_b": ((1.0, 780.0, math.inf),)}, id="inf-width"),
        pytest.param({"spectrum_b": ((1.0, 0.0, 0.85),)}, id="zero-center"),
        pytest.param({"spectrum_b": ((1.0, -780.0, 0.85),)}, id="negative-center"),
        pytest.param({"spectrum_b": ((0.5, 780.0, 0.85),)}, id="weights-off-1"),
        # a retardation below 0 or NaN, on arm b's grid or at arm a
        pytest.param({"x_b_max": -1.0}, id="negative-x_b_max"),
        pytest.param({"x_b_max": math.nan}, id="nan-x_b_max"),
        pytest.param({"step": math.nan}, id="nan-step"),
        pytest.param({"x_a": math.nan}, id="nan-x_a"),
        # the table shape: k >= 1 rows of three real numbers
        pytest.param({"spectrum_b": np.ones((2, 2))}, id="rows-of-2"),
        pytest.param({"spectrum_b": np.empty((0, 3))}, id="empty-array"),
        pytest.param({"spectrum_b": []}, id="empty-list"),
        pytest.param({"spectrum_b": (1.0, 780.0, 0.85)}, id="flat-row"),
        pytest.param({"spectrum_b": ((1.0, 780.0, 0.85), (1.0, 780.0))}, id="ragged"),
        pytest.param({"spectrum_b": (("1", "780", "0.85"),)}, id="strings"),
        pytest.param({"spectrum_b": ((1.0, None, 0.85),)}, id="none"),
    ],
)
def test_malformed_model_inputs_are_config_errors(changes):
    # the model trusts its checked config: each malformed input that `MultiGaussian`,
    # `kappa` or `effective_retardation` once rejected is rejected by the config instead
    with pytest.raises(ConfigError):
        replace(PRESETS["fig2a"], **changes)


def test_multi_gaussian_components_are_a_read_only_copy():
    # `spectra` builds every mixture from a checked config, as one fresh array per call
    arm_a, arm_b = spectra(PRESETS["fig2a"])
    assert arm_a.components.shape == (1, 3) and arm_b.components.shape == (3, 3)
    assert arm_b.components.dtype == float
    np.testing.assert_allclose(arm_b.components, FP_COMPONENTS, rtol=1e-15)
    for spectrum in (arm_a, arm_b):
        with pytest.raises(ValueError):
            spectrum.components[0, 0] = 0.5
    assert not np.shares_memory(spectra(PRESETS["fig2a"])[1].components, arm_b.components)


#: one to four (amplitude, center, width) rows in rad/s around the optical band
_ROWS = st.lists(
    st.tuples(st.floats(0.01, 1.0), st.floats(1e14, 1e16), st.floats(1e9, 1e15)),
    min_size=1, max_size=4,
).map(lambda rows: [(w / sum(r[0] for r in rows), c, s) for w, c, s in rows])
#: retardations (m) within the envelope, and past its overflow to exactly 0
_RETARDATIONS = st.one_of(st.floats(0.0, 1e-2), st.floats(1e290, 1e300))


@settings(max_examples=200)
@given(rows=_ROWS, x=_RETARDATIONS)
def test_kappa_of_a_negative_retardation_is_the_exact_conjugate(rows, x):
    spectrum = MultiGaussian(np.array(rows))
    assert spectrum.kappa(-x) == np.conj(spectrum.kappa(x))
    xs = np.array([x, 0.5 * x, 0.0])
    np.testing.assert_array_equal(spectrum.kappa(-xs), np.conj(spectrum.kappa(xs)))


def test_effective_retardation_no_exchange():
    assert effective_retardation(5.0, ()) == 5.0


def test_effective_retardation_single_exchange():
    xs = 200 * LAM0
    assert effective_retardation(400 * LAM0, (xs,)) == pytest.approx(0.0, abs=1e-20)
    assert effective_retardation(300 * LAM0, (xs,)) == pytest.approx(100 * LAM0, rel=1e-12)
    assert effective_retardation(150 * LAM0, (xs,)) == pytest.approx(150 * LAM0, rel=1e-12)
    assert effective_retardation(500 * LAM0, (xs,)) == pytest.approx(-100 * LAM0, rel=1e-12)


def test_effective_retardation_two_exchanges():
    # sign flips at 1.0 and 3.0: accrue +1, -2, then +1 per unit
    assert effective_retardation(4.0, (1.0, 3.0)) == pytest.approx(0.0, abs=1e-15)
    assert effective_retardation(3.0, (1.0, 3.0)) == pytest.approx(-1.0, rel=1e-12)
    assert effective_retardation(6.0, (1.0, 3.0)) == pytest.approx(2.0, rel=1e-12)


#: one to three optical (amplitude, center, width) rows in rad/s: centers within 2% of
#: lambda0 = 780 nm, widths about 0.03 to 3 nm, so kappa decays over 10^-5 to 10^-3 m
_OPTICAL_ROWS = st.lists(
    st.tuples(st.floats(0.05, 1.0), st.floats(2.39e15, 2.44e15), st.floats(1e11, 1e13)),
    min_size=1, max_size=3,
).map(lambda rows: [(w / sum(r[0] for r in rows), c, s) for w, c, s in rows])
#: grid points per exchange period in the dynamical-decoupling test
_PERIOD_GRID = 400


@settings(max_examples=60)
@given(rows=_OPTICAL_ROWS, x_s=st.floats(0.0, 1e-2))
def test_one_exchange_returns_kappa_to_1_at_twice_the_exchange_point(rows, x_s):
    kappa = MultiGaussian(np.array(rows)).kappa(effective_retardation(2 * x_s, (x_s,)))
    assert abs(abs(kappa) - 1.0) <= 1e-12


@settings(max_examples=60)
@given(rows=_OPTICAL_ROWS, tau=st.floats(1e-6, 1e-3), n=st.integers(1, 8),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
       steps=st.lists(st.integers(0, 8 * _PERIOD_GRID), min_size=1, max_size=20))
def test_exchanges_every_tau_keep_kappa_above_its_minimum_over_one_period(rows, tau, n,
                                                                          fractions, steps):
    """Dynamical decoupling: with exchanges at tau, 2 tau, ..., n tau the net retardation
    of every x in [0, n tau] stays in [0, tau], so |kappa| never falls below its minimum there."""
    schedule = tuple(tau * np.arange(1, n + 1))
    x_eff = effective_retardation(n * tau * np.array(fractions), schedule)
    roundoff = 1e-12 * n * tau
    assert np.all((-roundoff <= x_eff) & (x_eff <= tau + roundoff))
    # on the lattice of tau / _PERIOD_GRID every net retardation is a grid point of
    # [0, tau] up to roundoff, so the grid minimum bounds |kappa| exactly
    spectrum = MultiGaussian(np.array(rows))
    floor = np.abs(spectrum.kappa(tau * np.arange(_PERIOD_GRID + 1) / _PERIOD_GRID)).min()
    lattice = tau * (np.array(steps) % (n * _PERIOD_GRID + 1)) / _PERIOD_GRID
    assert np.abs(spectrum.kappa(effective_retardation(lattice, schedule))).min() >= floor - 1e-9


def test_evolve_state_pure_endpoint():
    psi = 0.5 * np.array([1.0, 1.0, 1.0, -1.0], dtype=complex)
    np.testing.assert_allclose(evolve_state(1.0, 1.0), np.outer(psi, psi.conj()), atol=1e-15)


def test_evolve_state_fully_dephased():
    np.testing.assert_allclose(evolve_state(0.0, 0.0), np.eye(4) / 4.0, atol=1e-15)


def test_evolve_state_partial():
    lams = eigenvalues_sorted(evolve_state(0.607, 0.385))
    np.testing.assert_allclose(
        lams, [0.55642375, 0.24707625, 0.13607625, 0.06042375], atol=1e-12
    )


def test_evolve_state_is_valid_state_for_complex_kappas():
    rng = np.random.default_rng(33)
    for _ in range(20):
        ka = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        kb = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        validate_state(evolve_state(ka, kb))


def test_evolve_state_eigenvalues_ignore_phases():
    rng = np.random.default_rng(34)
    for _ in range(25):
        ka, kb = rng.uniform(0, 1, size=2)
        pa, pb = rng.uniform(0, 2 * np.pi, size=2)
        lams = eigenvalues_sorted(evolve_state(ka * np.exp(1j * pa), kb * np.exp(1j * pb)))
        np.testing.assert_allclose(lams, bell_eigenvalues_from_kappas(ka, kb), atol=1e-10)


def test_evolve_state_clips_a_modulus_within_the_tolerance_to_1():
    # from the unclipped kappa the state has the eigenvalue -2.25e-10, below the -1e-10 floor
    validate_state(evolve_state(1 + 9e-10, 0))
    kappa = (1 + 9e-10) * np.exp(0.3j)
    rho = evolve_state(0.6, kappa)
    assert np.angle(rho[1, 0]) == pytest.approx(0.3, abs=1e-15)
    np.testing.assert_allclose(eigenvalues_sorted(rho), bell_eigenvalues_from_kappas(0.6, 1.0),
                               rtol=0.0, atol=1e-12)


def test_evolve_state_rejects_large_kappa():
    with pytest.raises(InvalidStateError, match=r"\|kappa_a\| must be at most 1, got 1.2"):
        evolve_state(1.2, 0.5)



def test_evolve_state_takes_one_number_per_kappa():
    # one state per call: complex() takes only a 0-d array, and numpy's TypeError names no parameter
    with pytest.raises(InvalidStateError, match=r"^kappa_a must be one number, got shape \(2,\)$"):
        evolve_state([0.5, 0.4], 0.5)
    with pytest.raises(InvalidStateError, match=r"^kappa_b must be one number, got shape \(1, 1\)$"):
        evolve_state(0.5, [[0.4]])
    assert np.array_equal(evolve_state(np.array(0.5), np.float64(0.4)), evolve_state(0.5, 0.4))


def _fig_config(echo=(), x_max=800.0, step=2.0, spectrum_b=FP_NM):
    """The presets' experiment, 3 nm arm-a filter at 117 lambda0, with the given grid."""
    return ExperimentConfig(name="fig", x_a=117.0, filter_a_fwhm_nm=3.0, spectrum_b=spectrum_b,
                            x_b_max=x_max, step=step, echo_points=echo)


def test_sweep_constant_when_arm_b_untouched():
    # an essentially monochromatic arm-b spectrum keeps |kappa_b| at 1
    table = sweep(_fig_config(x_max=100.0, step=10.0, spectrum_b=((1.0, 780.0, 1e-12),)))
    np.testing.assert_allclose(np.abs(table["kappa_b"]), 1.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(table["Q"], table["Q"][0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(table["C"], table["C"][0], rtol=0.0, atol=1e-12)


def test_sweep_returns_equal_length_columns():
    table = sweep(_fig_config(x_max=20.0, step=5.0))
    assert set(table) == {"x_b", "x_over_lambda0", "kappa_a", "kappa_b", "kappa_a_abs",
                          "kappa_b_abs", "lambda1", "lambda2", "lambda3", "lambda4",
                          "I", "C", "Q", "REE"}
    assert all(col.shape == (5,) for col in table.values())
    assert table["kappa_a"].dtype == complex and table["kappa_b"].dtype == complex


def test_sweep_single_point_when_step_exceeds_range():
    table = sweep(_fig_config(x_max=10.0, step=40.0))
    assert len(table["x_b"]) == 1
    assert table["x_b"][0] == 0.0
    assert abs(table["kappa_b"][0]) == pytest.approx(1.0, abs=1e-15)


def test_sweep_grid_and_ordering():
    table = sweep(_fig_config(x_max=20.0, step=5.0))
    np.testing.assert_allclose(table["x_b"] / LAM0, [0.0, 5.0, 10.0, 15.0, 20.0], rtol=1e-12)


def test_sweep_total_equals_sum_of_parts():
    table = sweep(_fig_config(x_max=300.0, step=10.0))
    np.testing.assert_allclose(table["I"], table["Q"] + table["C"], rtol=0.0, atol=1e-9)


def test_sweep_is_deterministic():
    a = sweep(_fig_config(x_max=100.0, step=10.0))
    b = sweep(_fig_config(x_max=100.0, step=10.0))
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_sweep_echo_symmetry_and_exact_revival():
    table = sweep(_fig_config(echo=(200.0,), x_max=400.0, step=2.0))
    center = 100  # index of the exchange point at 200 lambda0
    for name in ("I", "C", "Q", "REE"):
        col = table[name]
        assert col[2 * center] == pytest.approx(col[0], abs=1e-12), name
        np.testing.assert_allclose(
            col[center + 1:], col[center - 1::-1], rtol=0.0, atol=1e-9, err_msg=name
        )


def test_sweep_markovian_case_never_revives():
    # a single-Gaussian arm-b spectrum gives strictly decaying |kappa_b|,
    # so the quantum branch is monotone after the transition
    table = sweep(_fig_config(x_max=900.0, step=5.0, spectrum_b=((1.0, 780.0, 0.85),)))
    kb = np.abs(table["kappa_b"])
    ka = abs(table["kappa_a"][0])
    assert np.all(np.diff(kb) < 0.0)
    after = kb < ka
    assert np.all(np.diff(table["Q"][after]) <= 1e-15)


def test_sweep_rejects_bad_schedule():
    with pytest.raises(ConfigError, match=BAD_SCHEDULE):
        _fig_config(echo=(100.0, 100.0), x_max=50.0, step=10.0)


def test_sweep_sampled_spectrum_matches_multi_gaussian():
    # every column against the FP spectrum sampled on a grid and integrated by
    # quadrature; the echo at 100 lambda0 drives the effective retardation
    # negative beyond 200
    got = sweep(_fig_config(echo=(100.0,), x_max=300.0, step=5.0))
    x_b = np.arange(61) * 5.0 * LAM0
    x_eff = effective_retardation(x_b, (100.0 * LAM0,))
    assert np.min(x_eff) < 0.0
    kappa_b = QuadratureSpectrum(*_sampled_fp()).kappa(np.abs(x_eff))
    kappa_b = np.where(x_eff < 0.0, np.conj(kappa_b), kappa_b)
    kappa_a = np.full(61, FILTER_3NM.kappa(117.0 * LAM0))
    lam = bell_eigenvalues_from_kappas(kappa_a, kappa_b)
    want = {"x_b": x_b, "x_over_lambda0": x_b / LAM0, "kappa_a": kappa_a, "kappa_b": kappa_b,
            "kappa_a_abs": np.abs(kappa_a), "kappa_b_abs": np.abs(kappa_b)}
    want.update((f"lambda{j + 1}", lam[:, j]) for j in range(4))
    want.update(zip(("I", "C", "Q", "REE"), bell_correlations(lam)))
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0.0, atol=1e-4, err_msg=name)


@pytest.mark.parametrize(
    "overrides",
    [
        {"step": 0.0},
        {"step": -1.0},
        {"step": math.nan},
        {"step": math.inf},
        {"x_b_max": math.nan},
        {"x_b_max": -1.0},
        {"x_a": math.inf},
        {"x_b_max": MAX_SWEEP_POINTS * 2.0},  # MAX_SWEEP_POINTS + 1 points
        {"x_b_max": 1e300, "step": 1e-300},  # x_b_max / step overflows to inf
    ],
)
def test_sweep_config_rejects_bad_grid(overrides):
    with pytest.raises(ConfigError):
        replace(_fig_config(x_max=10.0, step=2.0), **overrides)


def test_sweep_config_accepts_grid_at_the_cap():
    config = replace(_fig_config(step=2.0), x_b_max=(MAX_SWEEP_POINTS - 1) * 2.0)
    assert len(sweep(config)["x_b"]) == MAX_SWEEP_POINTS


def _loop_retardation(x, pts):
    """Reference: walk the schedule point by point, flipping the accrual sign."""
    net, prev, sign = 0.0, 0.0, 1.0
    for p in pts:
        if p > x:
            break
        net += sign * (p - prev)
        prev, sign = p, -sign
    return net + sign * (x - prev)


def test_effective_retardation_vectorized():
    rng = np.random.default_rng(35)
    xs = np.concatenate([[0.0, 1.0, 3.0], rng.uniform(0.0, 6.0, 40)])
    for schedule in ((), (1.0,), (1.0, 3.0), (0.5, 2.0, 4.5), (0.0, 3.0)):
        # same arithmetic per element, so equal to the last bit
        np.testing.assert_array_equal(
            effective_retardation(xs, schedule), [_loop_retardation(x, schedule) for x in xs]
        )


def test_find_crossing_linear_interpolation():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 2.0, 3.0])
    assert _crossing(x, y, 1.5, rising=True) == pytest.approx(1.5, abs=1e-12)


def test_find_crossing_direction_filters():
    x = np.arange(5.0)
    y = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
    assert _crossing(x, y, 1.0, rising=True) == pytest.approx(0.5)
    assert _crossing(x, y, 1.0, rising=False) == pytest.approx(1.5)
    assert _crossing(x, y, 1.0, rising=True, last=True) == pytest.approx(2.5)


def test_find_crossing_start_filter():
    x = np.arange(5.0)
    y = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
    assert _crossing(x, y, 1.0, rising=True, start=1.0) == pytest.approx(2.5)


def test_find_crossing_level_touch_counts_once():
    x = np.arange(4.0)
    y = np.array([2.0, 1.0, 0.0, 0.0])
    assert _crossing(x, y, 0.0, rising=False) == pytest.approx(2.0)


def test_find_crossing_not_found():
    x = np.arange(4.0)
    y = np.ones(4)
    assert _crossing(x, y, 2.0, rising=True) is None
    assert _crossing(x, y, 2.0, rising=False) is None


def _loop_crossings(x, y, level, rising):
    """Every bracketing pair's interpolated crossing in one direction, one pair at a time."""
    out = []
    for i in range(x.size - 1):
        y0, y1 = y[i], y[i + 1]
        if (y0 < level <= y1) if rising else (y0 > level >= y1):
            out.append(x[i] + (level - y0) * (x[i + 1] - x[i]) / (y1 - y0))
    return out


def test_find_crossing_matches_pairwise_reference():
    rng = np.random.default_rng(52)
    x = np.cumsum(rng.uniform(0.5, 1.5, 60))
    # a coarse random walk, so that samples often sit exactly on the level or repeat
    y = np.round(np.cumsum(rng.normal(size=60)), 1)
    found = 0
    for level in (0.0, 0.5, float(y[7]), float(y[14]), float(y[29])):
        for rising in (True, False):
            for start in (-math.inf, x[20] + 0.3):
                expected = [c for c in _loop_crossings(x, y, level, rising) if c >= start]
                for last in (False, True):
                    if not expected:
                        assert _crossing(x, y, level, rising, start, last) is None
                        continue
                    # same arithmetic per pair, so equal to the last bit
                    assert _crossing(x, y, level, rising, start, last) == expected[-1 if last else 0]
                    found += 1
    assert found >= 30


@pytest.mark.parametrize("step", [2.0, 0.5])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_entanglement_death_and_revival_are_kappa_b_crossings(preset, step):
    # lambda1 = (1 + |kappa_a|)(1 + |kappa_b|)/4 is linear in |kappa_b|, so it falls and
    # rises through 1/2 where |kappa_b| crosses (1 - |kappa_a|)/(1 + |kappa_a|), and the
    # grid interpolates both series to the same x: 4e-14 lam0 apart on fig2a at step 2
    series = sweep(replace(PRESETS[preset], step=step))
    landmarks = landmarks_from_series(series)
    x, kb, ka = series["x_over_lambda0"], series["kappa_b_abs"], series["kappa_a_abs"][0]
    level = (1.0 - ka) / (1.0 + ka)
    death = _crossing(x, kb, level, rising=False)
    revival = _crossing(x, kb, level, rising=True, start=death)
    assert abs(landmarks["ree_death_x"] - death) <= 1e-9
    assert abs(landmarks["ree_revival_x"] - revival) <= 1e-9


@pytest.mark.parametrize("step", [2.0, 0.5])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_sweep_measures_match_the_spectrum_route(preset, step):
    # sweep takes C and Q from the two moduli and REE from lambda1; bell_correlations
    # takes all four from the eigenvalues: 2.7e-15 apart at most
    series = sweep(replace(PRESETS[preset], step=step))
    lam = bell_eigenvalues_from_kappas(series["kappa_a"], series["kappa_b"])
    for name, want in zip(("I", "C", "Q", "REE"), bell_correlations(lam)):
        np.testing.assert_allclose(series[name], want, rtol=0.0, atol=1e-14, err_msg=name)
    assert np.array_equal(series["I"], series["C"] + series["Q"])


def _g_to_40_digits(k):
    """g(k) = ((1 + k) ln(1 + k) + (1 - k) ln(1 - k)) / (2 ln 2) bits of the float k, at the
    working precision; g(1) = 1."""
    k = mpmath.mpf(float(k))
    if k == 1:
        return k
    return ((1 + k) * mpmath.log1p(k) + (1 - k) * mpmath.log1p(-k)) / (2 * mpmath.log(2))


@pytest.mark.parametrize("preset", ["fig2a", "fig3a"])
def test_long_sweeps_print_every_correlation_digit_right(preset):
    # to 3000 lam0 |kappa_b| falls as low as 4e-12; the eigenvalues near 1/4 carry it to
    # only about 1e-17 absolute, so Q from them printed 317 (fig2a) and 117 (fig3a) wrong cells
    series = sweep(replace(PRESETS[preset], x_b_max=3000.0))
    columns = [series[name] for name in ("kappa_a_abs", "kappa_b_abs", "I", "C", "Q")]
    assert len(columns[0]) == 1501
    wrong = []
    with mpmath.workdps(40):
        for row, (ka, kb, *cells) in enumerate(zip(*columns)):
            c, q = _g_to_40_digits(max(ka, kb)), _g_to_40_digits(min(ka, kb))
            wrong += [(row, name) for name, cell, want in zip("ICQ", cells, (c + q, c, q))
                      if "%.9g" % cell != "%.9g" % float(want)]
    assert wrong == []


def test_validate_echo_points_is_the_one_schedule_check():
    assert validate_echo_points([0, 2.5, 3]) == (0.0, 2.5, 3.0)
    for bad in ((2.0, 2.0), (-1.0,), (1.0, float("nan")), (float("inf"),), (3.0, 1.0)):
        with pytest.raises(ConfigError, match=BAD_SCHEDULE):
            validate_echo_points(bad)
