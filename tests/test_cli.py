import argparse
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import belldyn.cli
import belldyn.errors
from belldyn import dephasing, qstate, tomography
from belldyn.cli import (
    SWEEP_COLUMNS,
    format_landmarks,
    main,
    parse_config,
    read_sweep_csv,
    run,
)
from belldyn.config import (
    MAX_SWEEP_POINTS,
    MAX_TOMO_RESAMPLES,
    PRESETS,
    ExperimentConfig,
    TomographySettings,
    parse_config_lines,
    validate_echo_points,
)
from belldyn.correlations import bell_correlations
from belldyn.dephasing import _first_local_min, landmarks_from_series, sweep
from belldyn.errors import BelldynError, ConfigError, ParseError, TomographyInputError
from belldyn.tomography import TomographyRecord, simulate_counts

CONFIG_TEXT = """\
# custom experiment
name = demo
x_a = 117
filter_a = 3.0
x_b_max = 40
step = 4
lambda0 = 780
echo_points = 10, 20

[spectrum_b]
component = 0.37, 778.853, 0.85
component = 0.44, 780.160, 0.85
component = 0.19, 781.459, 0.85
"""


def test_preset_fig2a():
    cfg = PRESETS["fig2a"]
    assert cfg.x_a == 117.0
    assert cfg.filter_a_fwhm_nm == 3.0
    assert cfg.echo_points == ()
    assert len(cfg.spectrum_b) == 3
    weights = [w for w, _, _ in cfg.spectrum_b]
    assert weights == [0.37, 0.44, 0.19]
    assert all(f == 0.85 for _, _, f in cfg.spectrum_b)
    centers = [c for _, c, _ in cfg.spectrum_b]
    assert centers == [778.853, 780.160, 781.459]


def test_preset_fig2b_narrow_filter():
    cfg = PRESETS["fig2b"]
    assert all(f == 0.2 for _, _, f in cfg.spectrum_b)
    assert [c for _, c, _ in cfg.spectrum_b] == [778.853, 780.160, 781.459]


def test_preset_echo_points():
    assert PRESETS["fig3a"].echo_points == (200.0,)
    assert PRESETS["fig3b"].echo_points == (400.0,)
    assert set(PRESETS) == {"fig2a", "fig2b", "fig3a", "fig3b"}


def test_parse_config_file(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(CONFIG_TEXT)
    cfg = parse_config(path)
    assert cfg.name == "demo"
    assert cfg.x_a == 117.0
    assert cfg.x_b_max == 40.0
    assert cfg.step == 4.0
    assert cfg.echo_points == (10.0, 20.0)
    assert cfg.lambda0_nm == 780.0
    assert cfg.tomography is None
    assert len(cfg.spectrum_b) == 3


def test_parse_config_tomography_block():
    lines = CONFIG_TEXT.splitlines()
    lines.insert(2, "tomo_counts = 5000")
    lines.insert(3, "tomo_resamples = 40")
    lines.insert(4, "tomo_seed = 9")
    cfg = parse_config_lines(lines)
    assert cfg.tomography is not None
    assert cfg.tomography.n_per_setting == 5000
    assert cfg.tomography.resamples == 40
    assert cfg.tomography.seed == 9


def test_parse_config_unknown_key_reports_line():
    lines = ["x_a = 1", "bogus = 2"]
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
        parse_config_lines(lines)


def test_parse_config_missing_key():
    with pytest.raises(ConfigError, match="missing required key 'filter_a'"):
        parse_config_lines(["x_a = 117", "x_b_max = 10", "step = 1"])


def test_parse_config_missing_spectrum():
    with pytest.raises(ConfigError, match=r"missing \[spectrum_b\] section"):
        parse_config_lines(["x_a = 117", "filter_a = 3", "x_b_max = 10", "step = 1"])


def test_parse_config_malformed_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_config_lines(["x_a 117"])


def test_parse_config_duplicate_key():
    with pytest.raises(ParseError, match="duplicate"):
        parse_config_lines(["x_a = 1", "x_a = 2"])


def test_parse_config_bad_component():
    with pytest.raises(ParseError):
        parse_config_lines(["x_a = 1", "[spectrum_b]", "component = 0.5, 780"])


def test_parse_config_unknown_section():
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[spectrum_c\]"):
        parse_config_lines(["[spectrum_c]"])


_EXPERIMENT = dict(name="bad", x_a=1.0, filter_a_fwhm_nm=3.0, spectrum_b=((1.0, 780.0, 0.85),),
                   x_b_max=10.0, step=4.0)


def test_config_validation():
    def make(**overrides):
        return ExperimentConfig(**{**_EXPERIMENT, **overrides})

    make()  # baseline is valid
    with pytest.raises(ConfigError):
        make(step=0.0)
    with pytest.raises(ConfigError):
        make(echo_points=(5.0, 5.0))
    with pytest.raises(ConfigError):
        make(x_a=-1.0)
    with pytest.raises(ConfigError):
        make(spectrum_b=((1.0, 780.0, -0.85),))
    with pytest.raises(ConfigError):
        make(spectrum_b=((0.6, 780.0, 0.85), (0.6, 781.0, 0.85)))


@pytest.mark.parametrize(
    "field, value",
    [("x_a", "1"), ("x_a", None), ("step", None), ("step", "4"), ("x_b_max", [10.0]),
     ("filter_a_fwhm_nm", "3"), ("lambda0_nm", np.array([780.0]))],
)
def test_experiment_config_rejects_a_non_number_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        ExperimentConfig(**{**_EXPERIMENT, field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("spectrum_b", ((1.0, None, 0.85),), "^spectrum_b components need finite positive"),
        ("spectrum_b", (("1", "780", "0.85"),), "^spectrum_b components need finite positive"),
        ("spectrum_b", ((1, 10**400, 1),), "^spectrum_b components need finite positive"),
        ("spectrum_b", ((1.0, 780.0),), "^spectrum_b components need finite positive"),
        ("spectrum_b", (1.0, 780.0, 0.85), "^spectrum_b components need finite positive"),
        ("spectrum_b", None, "^spectrum_b components need finite positive"),
        ("spectrum_b", (), "^spectrum_b needs at least one component"),
        ("echo_points", (None,), "^echo points must be finite"),
        ("echo_points", ("200",), "^echo points must be finite"),
        ("echo_points", (10**400,), "^echo points must be finite"),
        ("echo_points", 200.0, "^echo points must be finite"),
        ("x_a", 10**400, "^x_a must be finite"),
        ("x_b_max", 10**400, "^x_b_max must be finite"),
        ("filter_a_fwhm_nm", 10**400, "^filter_a_fwhm_nm must be finite"),
        ("lambda0_nm", 10**400, "^lambda0_nm must be finite"),
    ],
)
def test_experiment_config_rejects_a_malformed_spectrum_schedule_or_huge_int(field, value, message):
    # a library caller's value, which the config-file parser never produces
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{**_EXPERIMENT, field: value})


def test_experiment_config_stores_numeric_sequences_as_float_tuples():
    config = ExperimentConfig(**{**_EXPERIMENT, "spectrum_b": np.array([[1, 780, 0.85]]),
                                 "echo_points": [np.float32(2), 3]})
    assert config.spectrum_b == ((1.0, 780.0, 0.85),)
    assert config.echo_points == (2.0, 3.0)
    assert all(type(v) is float for v in (*config.spectrum_b[0], *config.echo_points))


def _assert_tomography_settings_reject(field, value):
    key = {"n_per_setting": "tomo_counts", "resamples": "tomo_resamples", "seed": "tomo_seed"}
    message = f"^{key[field]} must be an integer .*, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        TomographySettings(**{"n_per_setting": 100, field: value})


@pytest.mark.parametrize(
    "field, value",
    [("n_per_setting", "3"), ("n_per_setting", None), ("n_per_setting", [3]),
     ("resamples", "7"), ("resamples", "3"), ("resamples", None), ("resamples", [3]),
     ("resamples", np.array([3])), ("resamples", np.array([3, 4])), ("seed", "7"), ("seed", None)],
)
def test_tomography_settings_reject_a_non_number_naming_the_field(field, value):
    _assert_tomography_settings_reject(field, value)


@pytest.mark.parametrize(
    "field, value",
    [("resamples", 1), ("resamples", MAX_TOMO_RESAMPLES + 1), ("resamples", 1e12), ("resamples", 2.5),
     ("resamples", float("nan")), ("resamples", float("inf")), ("seed", 2.5), ("seed", -1)],
)
def test_tomography_settings_reject_a_number_out_of_range_naming_the_field(field, value):
    # the one check of the bootstrap size and seed: `tomography._bootstrap` trusts them
    _assert_tomography_settings_reject(field, value)


@pytest.mark.parametrize(
    "changes, field",
    [
        # step * lambda0 overflows to inf, and np.arange(n) * inf would hold 0 * inf
        ({"step": 3.46e307, "lambda0_nm": 5.2e9}, "step"),
        ({"step": 1e-320}, "step"),  # underflows to 0 m
        ({"x_a": 1e308, "lambda0_nm": 1e10}, "x_a"),
        ({"x_b_max": 1e308, "step": 1e306, "lambda0_nm": 1e10}, "x_b_max"),
        ({"echo_points": (100.0, 1e300), "lambda0_nm": 1e20}, "echo_points"),
    ],
)
def test_experiment_config_rejects_lengths_beyond_the_float_range_in_meters(changes, field):
    with pytest.raises(ConfigError, match=rf"^{field} \* lambda0 must be finite"):
        ExperimentConfig(**{**_EXPERIMENT, **changes})


def test_main_bad_spectrum_weights_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "x_a = 117\nfilter_a = 3\nx_b_max = 10\nstep = 2\n"
        "[spectrum_b]\ncomponent = 0.5, 780, 0.85\ncomponent = 0.4, 781, 0.85\n"
    )
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "weights sum" in capsys.readouterr().err


def test_run_writes_outputs_and_is_deterministic(tmp_path):
    cfg = replace(PRESETS["fig2a"], step=8.0)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run(cfg, out1)
    run(cfg, out2)
    for name in ("sweep.csv", "landmarks.txt"):
        assert (out1 / name).is_file()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "sweep.csv").read_text().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


def test_run_landmarks_recomputable_from_csv(tmp_path):
    for preset in PRESETS:
        out = tmp_path / preset
        run(PRESETS[preset], out)
        recomputed = landmarks_from_series(read_sweep_csv(out / "sweep.csv"))
        written = {}
        for line in (out / "landmarks.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            written[key] = float(value)
        assert set(written) == set(recomputed), preset
        for key, value in written.items():
            if key in ("q_dip_x", "q_revival_peak_x"):
                # grid points, so the 9-digit CSV must land on the same one
                assert recomputed[key] == value, (preset, key)
            else:
                assert recomputed[key] == pytest.approx(value, abs=1e-5), (preset, key)


def test_revival_peak_is_first_point_of_a_plateau():
    x = np.arange(8.0)
    q = np.array([0.5, 0.2, 0.1, 0.3, 0.4, 0.4 - 1e-12, 0.4 + 1e-12, 0.4])
    series = {
        "x_over_lambda0": x, "kappa_a_abs": np.full(8, 0.5),
        "kappa_b_abs": np.array([1.0, 0.4, 0.3, 0.4, 0.6, 0.6, 0.6, 0.6]),
        "lambda1": np.full(8, 0.4), "Q": q,
    }
    landmarks = landmarks_from_series(series)
    assert landmarks["q_dip_x"] == 2.0
    assert landmarks["q_revival_peak_x"] == 4.0


def test_first_local_min_matches_pointwise_reference():
    def loop_min(x, y, start):
        for i in range(1, y.size - 1):
            if not x[i] <= start and y[i] <= y[i - 1] and y[i] <= y[i + 1]:
                return i
        return None

    rng = np.random.default_rng(8)
    x = np.arange(40.0)
    for _ in range(50):
        # coarse values, so that ties with a neighbour are common
        y = np.round(rng.uniform(0.0, 1.0, 40), 1)
        for start in (-1.0, 5.5, 20.0, 38.0):
            assert _first_local_min(x, y, start) == loop_min(x, y, start)
    assert _first_local_min(x, np.arange(40.0), -1.0) is None


def test_run_fig2a_landmark_values(tmp_path):
    run(PRESETS["fig2a"], tmp_path)
    landmarks = {}
    for line in (tmp_path / "landmarks.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        landmarks[key] = float(value)
    assert 110.0 <= landmarks["sudden_transition_x"] <= 130.0
    assert abs(landmarks["ree_death_x"] - 189.0) <= 15.0
    assert landmarks["q_revival_peak"] == pytest.approx(0.11, abs=0.01)
    assert 500.0 <= landmarks["q_revival_peak_x"] <= 600.0


def test_run_fig3a_echo_landmark(tmp_path):
    run(replace(PRESETS["fig3a"], step=4.0), tmp_path)
    landmarks = {}
    for line in (tmp_path / "landmarks.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        landmarks[key] = float(value)
    assert landmarks["echo_x"] == pytest.approx(400.0, abs=1e-6)
    series = read_sweep_csv(tmp_path / "sweep.csv")
    at_echo = np.argmin(np.abs(series["x_over_lambda0"] - 400.0))
    assert series["I"][at_echo] == pytest.approx(series["I"][0], abs=1e-9)


def test_run_single_point_when_step_override_exceeds_range(tmp_path):
    run(replace(PRESETS["fig2a"], step=2000.0), tmp_path)
    series = read_sweep_csv(tmp_path / "sweep.csv")
    assert len(series["x_over_lambda0"]) == 1


def test_config_step_beyond_x_b_max_writes_one_row(tmp_path):
    cfg = tmp_path / "wide-step.cfg"
    cfg.write_text("\n".join(_VALID_CONFIG).replace("step = 4", "step = 50") + "\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    series = read_sweep_csv(tmp_path / "out" / "sweep.csv")
    assert list(series["x_over_lambda0"]) == [0.0]
    assert (tmp_path / "out" / "sweep.csv").read_text().count("\n") == 2  # header + one row


def test_run_with_tomography_writes_noisy_csv(tmp_path):
    cfg = parse_config_lines(
        [
            "x_a = 117",
            "filter_a = 3.0",
            "x_b_max = 16",
            "step = 8",
            "tomo_counts = 2000",
            "tomo_resamples = 25",
            "tomo_seed = 4",
            "[spectrum_b]",
            "component = 1.0, 780.16, 0.85",
        ]
    )
    run(cfg, tmp_path)
    again = tmp_path / "again"
    run(cfg, again)
    assert (tmp_path / "noisy.csv").read_bytes() == (again / "noisy.csv").read_bytes()
    lines = (tmp_path / "noisy.csv").read_text().splitlines()
    assert lines[0].startswith("x_over_lambda0,I,I_err,C,C_err,Q,Q_err,REE,REE_err")
    assert len(lines) == 4  # header + 3 points
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0
    errs = row[2::2]
    assert all(e >= 0.0 for e in errs)


def _reference_write_noisy_csv(table, config, path):
    """The row-by-row noisy.csv writer that block reconstruction replaced: one
    one-row `_estimate` and one one-record `_bootstrap` call per sweep row."""
    tomo = config.tomography
    keys = tomography.BOOTSTRAP_KEYS
    cells = np.empty((len(table["x_over_lambda0"]), len(keys), 2))
    for i, (kappa_a, kappa_b) in enumerate(zip(table["kappa_a"], table["kappa_b"])):
        rho = dephasing.evolve_state(kappa_a, kappa_b)
        record = tomography.simulate_counts(rho, tomo.n_per_setting, [tomo.seed, i, 0])
        spectrum = tomography._estimate(record.counts[None])[1][0]
        cells[i, :, 0] = [*bell_correlations(spectrum), *spectrum]
        cells[i, :, 1] = tomography._bootstrap(record.counts[None], tomo.resamples, [[tomo.seed, i, 1]])[1][0]
    header = ["x_over_lambda0"] + [f"{name}{suffix}" for name in keys for suffix in ("", "_err")]
    belldyn.cli._write_csv(path, header, [table["x_over_lambda0"], cells.reshape(len(cells), -1)])


def _tomography_config(resamples, seed=5):
    # 6 rows from x = 0, where the rank-2 state gives unphysical inversions,
    # past the sudden transition
    return parse_config_lines(["x_a = 117", "filter_a = 3.0", "x_b_max = 200", "step = 40",
                               "tomo_counts = 3000", f"tomo_resamples = {resamples}",
                               f"tomo_seed = {seed}", "[spectrum_b]",
                               "component = 0.37, 778.853, 0.85",
                               "component = 0.44, 780.160, 0.85",
                               "component = 0.19, 781.459, 0.85"])


@pytest.mark.parametrize(
    "block_rows, resamples",
    [
        pytest.param(None, 7, id="default"),
        # 5 and 4 sweep rows per block: blocks of 5 and 1 rows, and of 4 and 2
        pytest.param(17, 2, id="five-rows"),
        pytest.param(12, 2, id="four-rows"),
        # 1 + resamples exceeds the block: one sweep row per batch
        pytest.param(3, 4, id="row-larger-than-block"),
    ],
)
def test_noisy_csv_in_blocks_matches_row_by_row(monkeypatch, tmp_path, block_rows, resamples):
    if block_rows is not None:
        monkeypatch.setattr(tomography, "_BLOCK_ROWS", block_rows)
    limit = max(tomography._BLOCK_ROWS, 1 + resamples)
    batches = []
    estimate = tomography._estimate

    def spy(freqs):
        batches.append(len(freqs))
        assert len(freqs) <= limit
        return estimate(freqs)

    config = _tomography_config(resamples)
    monkeypatch.setattr(tomography, "_estimate", spy)
    run(config, tmp_path)
    monkeypatch.setattr(tomography, "_estimate", estimate)
    assert len(batches) == -(-6 // max(1, tomography._BLOCK_ROWS // (1 + resamples)))
    _reference_write_noisy_csv(sweep(config), config, tmp_path / "reference.csv")
    assert (tmp_path / "noisy.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _replace_everywhere(monkeypatch, originals, replacement):
    """Bind `replacement` in place of each of `originals` under every belldyn module's name for it."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "belldyn"]:
        for name, value in vars(module).copy().items():
            if any(value is original for original in originals):
                monkeypatch.setattr(module, name, replacement)


def test_run_and_tomo_demo_make_no_state_check(monkeypatch, tmp_path, capsys):
    # the estimator reports the spectrum it computed, and its spectra and the true ones are
    # probability vectors by construction: neither `eigenvalues_sorted`, its checks nor
    # `validate_bell_spectrum` run on the tomography path, under any module's name for them.
    # The bootstrap trusts `simulate_dephased`'s seed words and drawn counts: no seed-word or
    # count check runs either
    cfg = tmp_path / "tomography.cfg"
    cfg.write_text("x_a = 117\nfilter_a = 3.0\nx_b_max = 120\nstep = 60\ntomo_counts = 10000\n"
                   "tomo_resamples = 20\ntomo_seed = 7\n[spectrum_b]\ncomponent = 0.37, 778.853, 0.85\n"
                   "component = 0.44, 780.160, 0.85\ncomponent = 0.19, 781.459, 0.85\n")
    demo = ["tomo-demo", "--kappa-a", "0.98", "--kappa-b", "0.99", "--counts", "10000", "--seed", "3"]

    def outputs(out):
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert main(demo) == 0
        files = [(out / name).read_bytes() for name in ("sweep.csv", "landmarks.txt", "noisy.csv")]
        return files, capsys.readouterr()

    expected = outputs(tmp_path / "checked")
    assert expected[1].err == ""

    def forbidden(*args, **kwargs):
        raise AssertionError("a state, seed or count check ran on the tomography path")

    originals = [getattr(qstate, name)
                 for name in ("eigenvalues_sorted", "_checked_eigenvalues", "validate_bell_spectrum")]
    originals += [tomography._seed_words, tomography._checked_counts]
    _replace_everywhere(monkeypatch, originals, forbidden)
    assert outputs(tmp_path / "unchecked") == expected


def test_run_checks_the_echo_schedule_once(monkeypatch, tmp_path):
    # the config is the one check of an echo schedule: `sweep` and the model below it
    # trust it, under any module's name for the check
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(CONFIG_TEXT)
    calls = []

    def spy(points):
        calls.append(points)
        return validate_echo_points(points)

    _replace_everywhere(monkeypatch, [validate_echo_points], spy)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [(10.0, 20.0)]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_run_draws_the_counts_simulate_counts_draws_from_each_state(monkeypatch, tmp_path, preset):
    # `tomography.simulate_dephased` draws each row's counts from linear forms of the row's two
    # kappas, not from its 4x4 state; every count is the one `simulate_counts` draws from that state
    drawn = []

    def capture(counts, resamples, seeds):
        drawn.append(counts)
        return np.zeros((len(counts), 8)), np.zeros((len(counts), 8))

    monkeypatch.setattr(tomography, "_bootstrap", capture)
    table = sweep(PRESETS[preset])
    states = [dephasing.evolve_state(a, b) for a, b in zip(table["kappa_a"], table["kappa_b"])]
    for seed in range(5):
        config = replace(PRESETS[preset], tomography=TomographySettings(10**4, 2, seed))
        belldyn.cli.write_noisy_csv(table, config, tmp_path / "noisy.csv")
        expected = [simulate_counts(rho, 10**4, [seed, i, 0]).counts for i, rho in enumerate(states)]
        assert np.array_equal(drawn[-1], expected)


@pytest.mark.parametrize("kappa_a, kappa_b, counts, seed",
                         [(0.98, 0.99, 10**4, 3), (0.607, -0.385, 2000, 0), (1.0, 0.0, 50, 2**40),
                          (0.3, 0.9, 5000, 2**64 + 1)])
def test_tomo_demo_prints_the_counts_simulate_counts_draws_from_the_state(capsys, kappa_a, kappa_b,
                                                                         counts, seed):
    # the demo and `run` share one seed rule: the demo is row 0, so its counts come from the
    # seed words [seed, 0, 0] at any seed, 2**64 + 1 (more than two 32-bit words) included
    assert main(["tomo-demo", "--kappa-a", str(kappa_a), "--kappa-b", str(kappa_b),
                 "--counts", str(counts), "--seed", str(seed)]) == 0
    printed = capsys.readouterr().out.split("\n\n")[0].splitlines()[1:]
    expected = simulate_counts(dephasing.evolve_state(kappa_a, kappa_b), counts, [seed, 0, 0])
    assert printed == [f"{label},{int(count)}" for label, count in zip(tomography.STANDARD_LABELS,
                                                                         expected.counts)]


@pytest.mark.parametrize("seed", [0, 3, 2**40, 2**64 + 1])
def test_tomo_demo_prints_row_0_of_the_one_pair_series(capsys, seed):
    # one seed rule for every row: the demo's counts, estimates and errors are those of
    # `simulate_dephased` of the one-element series under the demo's settings
    assert main(["tomo-demo", "--kappa-a", "0.98", "--kappa-b", "0.99",
                 "--counts", "2000", "--seed", str(seed)]) == 0
    block, table = capsys.readouterr().out.split("\n\n")
    tomo = TomographySettings(n_per_setting=2000, seed=seed)
    (counts,), (values,), (errors,) = tomography.simulate_dephased([0.98], [0.99], tomo)
    assert block.splitlines()[1:] == [f"{label},{int(count)}"
                                      for label, count in zip(tomography.STANDARD_LABELS, counts)]
    rows = [line.split() for line in table.splitlines()[1:]]
    assert [row[0] for row in rows] == list(tomography.BOOTSTRAP_KEYS)
    assert [row[2:] for row in rows] == [[f"{v:.6f}", f"{e:.6f}"] for v, e in zip(values, errors)]


def test_tomo_demo_prints_its_counts_as_setting_count_lines(capsys):
    # drawn counts are integers, printed whole: 12 digits here, where %.9g would round them
    assert main(["tomo-demo", "--kappa-a", "0.6", "--kappa-b", "0.4",
                 "--counts", str(10**12), "--seed", "5"]) == 0
    block = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert block[0] == "setting,count"
    labels, counts = zip(*(line.split(",") for line in block[1:]))
    assert labels == tomography.STANDARD_LABELS
    assert all(count.isdigit() for count in counts)
    assert max(map(len, counts)) == 12


def test_main_tomo_demo_output_is_pinned(capsys):
    # the bytes of the per-call reconstruct + bootstrap demo
    assert main(["tomo-demo", "--kappa-a", "0.98", "--kappa-b", "0.99",
                 "--counts", "10000", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        "setting,count\n"
        "HH,2417\nHV,2548\nVH,2421\nVV,2497\nHD,5025\nHL,2484\nDH,4936\nDV,45\n"
        "DD,2529\nDL,2470\nLH,2572\nLD,2496\nLL,4900\nLV,2523\nVL,2454\nVD,22\n"
        "\n"
        "quantity         true  reconstructed      error\n"
        "I            1.873792       1.900106   0.033351\n"
        "C            0.954585       0.980749   0.011966\n"
        "Q            0.919207       0.919358   0.031494\n"
        "REE          0.887941       0.907446   0.031964\n"
        "lambda1      0.985050       0.988192   0.005244\n"
        "lambda2      0.009950       0.009981   0.005142\n"
        "lambda3      0.004950       0.001827   0.001247\n"
        "lambda4      0.000050       0.000000   0.000000\n"
    )


#: SHA-256 of the preset runs' (sweep.csv, landmarks.txt)
PRESET_OUTPUT_SHA256 = {
    "fig2a": ("a338c1bfa4ae43673949cee5f24b40a1fff3fa517b5091b765b43226fa449ec9",
              "684d92946bedd4768da6d020a34ef39f78a94354e93a89e427028fad2e8d7a8a"),
    "fig2b": ("945f5b6d2f39e7a3a9e44746d117b57bc220f62f576865c03941af919af8e848",
              "e9289ed6d4a1528e2a7be151231597498c9ee9cd9f38bf783b5e25a07d71a44b"),
    "fig3a": ("de88498cae2967a00cb90bd84e030369cc9145cf54125f68b779a1acc707d51e",
              "92865d3e19c903f80ad8ace16f0cd54af751a35d587bc0d7543fd3db48708a4f"),
    "fig3b": ("4a47a4ba04a155136f645943a0aae6f66c721848aa2457d749eea2008b2dda95",
              "3e94bb588fa3f0a5dc73ccc8682a0e17da140df6536ce4be7236e3df2ff1237a"),
}


#: SHA-256 of (sweep.csv, landmarks.txt, noisy.csv) of a fig2a run to 120 lambda0 at
#: step 60 with tomography at 10^4 counts, 20 resamples and seed 7; its x = 0 row
#: reconstructs through the barrier solve
TOMOGRAPHY_OUTPUT_SHA256 = (
    "43f234578ea1ba8d837e04cc0050db546d8cfc9525149438939ae6ea962153f0",
    "6b85d31172848ece16b16d0fac2b9c730d2869781ebb0b3bd41bc61bddda40c8",
    "5e8c774350784461698202df1a5e4eafa8b587f2d3fa21747c3411c0a52e5c3a",
)


@pytest.mark.parametrize("preset", PRESETS)
def test_run_preset_outputs_are_pinned(tmp_path, preset):
    # the bytes of the sweep path before the experiment config became sweep's input
    assert main(["run", preset, "--out", str(tmp_path)]) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("sweep.csv", "landmarks.txt"))
    assert digests == PRESET_OUTPUT_SHA256[preset]


def test_run_tomography_outputs_are_pinned(tmp_path):
    # every printed digit of the estimator, down to the 9th of noisy.csv
    config = replace(PRESETS["fig2a"], x_b_max=120.0, step=60.0,
                     tomography=TomographySettings(n_per_setting=10**4, resamples=20, seed=7))
    run(config, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("sweep.csv", "landmarks.txt", "noisy.csv"))
    assert digests == TOMOGRAPHY_OUTPUT_SHA256


def test_series_matches_sweep_output(tmp_path):
    table = sweep(PRESETS["fig2a"])
    run(PRESETS["fig2a"], tmp_path)
    series = read_sweep_csv(tmp_path / "sweep.csv")
    assert len(series["x_over_lambda0"]) == 401
    assert series["kappa_b_abs"][0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(series["I"], series["Q"] + series["C"], atol=1e-8)
    for name in SWEEP_COLUMNS:
        # the CSV keeps 9 significant digits
        np.testing.assert_allclose(series[name], table[name], rtol=1e-8, atol=1e-12, err_msg=name)


def test_main_run_and_landmarks_roundtrip(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "fig2a", "--out", str(out), "--step", "8"]) == 0
    assert main(["landmarks", str(out / "sweep.csv")]) == 0
    printed = capsys.readouterr().out

    def parse(text):
        pairs = [line.partition(" = ") for line in text.splitlines()]
        return {k: float(v) for k, _, v in pairs}

    # one formatter writes landmarks.txt and prints the report
    assert printed == format_landmarks(landmarks_from_series(read_sweep_csv(out / "sweep.csv")))
    assert (out / "landmarks.txt").read_text() == format_landmarks(
        landmarks_from_series(sweep(replace(PRESETS["fig2a"], step=8.0))))
    recomputed = parse(printed)
    written = parse((out / "landmarks.txt").read_text())
    assert set(recomputed) == set(written)
    for key, value in written.items():
        # csv stores 9 significant digits, so recomputation differs in the tail
        assert recomputed[key] == pytest.approx(value, abs=1e-5), key


def test_tomo_demo_seeds_of_adjacent_demos_are_distinct(monkeypatch, capsys):
    # SeedSequence pads its words with zeros, so seed + 1 for the resamples would be the
    # next demo seed's count stream; `_draw` makes both the counts and the resamples
    seeds = []
    draw = tomography._draw

    def draw_spy(means, words, size=None):
        seeds.append(words)
        return draw(means, words, size)

    monkeypatch.setattr(tomography, "_draw", draw_spy)
    for seed in ("3", "4"):
        assert main(["tomo-demo", "--kappa-a", "0.6", "--kappa-b", "0.4", "--counts", "100",
                     "--seed", seed]) == 0
    capsys.readouterr()
    states = {tuple(np.random.SeedSequence(tomography._seed_words(seed)).generate_state(4))
              for seed in seeds}
    assert len(seeds) == len(states) == 4


def test_run_accepts_kappa_within_the_tolerance_above_1(tmp_path, capsys):
    # the weights sum to 1 + 9e-10, within the config's tolerance, so |kappa_b| at x = 0
    # exceeds 1 by about as much; the 4x4 state is built at |kappa_b| = 1
    cfg = tmp_path / "tolerance.cfg"
    cfg.write_text("x_a = 5000\nfilter_a = 3.0\nx_b_max = 10\nstep = 2\n"
                   "tomo_counts = 1000\ntomo_resamples = 2\ntomo_seed = 1\n[spectrum_b]\n"
                   "component = 0.5000000009, 778.853, 0.85\ncomponent = 0.5, 780.160, 0.85\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert read_sweep_csv(tmp_path / "out" / "sweep.csv")["kappa_b_abs"][0] == 1.0
    assert len((tmp_path / "out" / "noisy.csv").read_text().splitlines()) == 7


def test_main_tomo_demo(capsys):
    assert main(["tomo-demo", "--kappa-a", "0.607", "--kappa-b", "0.385",
                 "--counts", "2000", "--seed", "1"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("setting,count")
    assert "lambda1" in printed


def test_main_usage_errors(capsys):
    assert main(["run", "nosuchpreset", "--out", "/tmp/x"]) == 1
    assert main(["run", "fig2a"]) == 1  # missing --out
    capsys.readouterr()


def test_main_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("x_a = 117\nwhat = 1\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_main_io_error(tmp_path, capsys):
    assert main(["landmarks", str(tmp_path / "missing.csv")]) == 3
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["run", "fig2a", "--out", str(blocker / "sub")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "changes, code, outcome",
    [
        # lambda0^2 underflows to 0, so the arm-a width overflows: a config error
        pytest.param({"lambda0": "1e-200"}, 1,
                     "lambda0 gives a width of inf rad/s, outside the float range", id="lambda0-tiny"),
        # lambda0^2 overflows, so every width underflows to 0
        pytest.param({"lambda0": "1e300", "x_a": "0", "x_b_max": "0"}, 1,
                     "lambda0 gives a width of 0 rad/s, outside the float range", id="lambda0-huge"),
        pytest.param({"filter_a": "1e300"}, 1,
                     "filter_a gives a width of inf rad/s, outside the float range", id="filter_a-huge"),
        # past the overflow of the exponent a Gaussian envelope is its exact limit 0
        pytest.param({"x_a": "1e300"}, 0, "kappa_a_abs", id="x_a-huge"),
        pytest.param({"x_b_max": "1e308", "step": "1e306"}, 0, "kappa_b_abs", id="x_b-huge"),
        pytest.param({"component": "1.0, 1e-300, 0.85"}, 1,
                     "spectrum_b component 1 gives a center of inf rad/s, outside the float range",
                     id="center-tiny"),
        pytest.param({"component": "1.0, 780.16, 1e300"}, 1,
                     "spectrum_b component 1 gives a width of inf rad/s, outside the float range",
                     id="fwhm-huge"),
        # a width of 1e-310 nm keeps the envelope finite where the phase overflows: the
        # config's grid reaches beyond the float range, a config error like the rest
        pytest.param({"x_b_max": "1e308", "step": "1e306", "component": "1.0, 780.16, 1e-310"},
                     1, "retardation 2.262e+301 m is out of range: the phase (x/c)*omega0 "
                     "overflows beyond 2.23213e+301 m", id="phase-overflow"),
    ],
)
def test_run_on_values_at_the_float_range_ends_cleanly(tmp_path, capsys, changes, code, outcome):
    values = {"x_a": "117", "filter_a": "3", "x_b_max": "40", "step": "4",
              "component": "1.0, 780.16, 0.85", **changes}
    component = values.pop("component")
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items())
                   + f"[spectrum_b]\ncomponent = {component}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"belldyn: {('error', 'computation error')[code - 1]}: {outcome}\n"
    else:
        # no warning either: the suite would have raised it
        assert err == ""
        assert np.all(read_sweep_csv(tmp_path / "out" / "sweep.csv")[outcome][1:] == 0.0)


def test_main_computation_error(capsys):
    for kappa_a in ("1.5", "nan"):
        assert main(["tomo-demo", "--kappa-a", kappa_a, "--kappa-b", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("belldyn: computation error: |kappa_a|")


@pytest.mark.parametrize(
    "bad_call",
    [
        pytest.param(lambda: simulate_counts(np.eye(4) / 4, "3", 0), id="counts-text"),
        pytest.param(lambda: simulate_counts(np.eye(4) / 4, 0, 0), id="counts-zero"),
        pytest.param(lambda: simulate_counts(np.eye(4) / 4, 10, -1), id="seed-negative"),
        pytest.param(lambda: TomographyRecord(np.ones(15)), id="record-of-15"),
        pytest.param(lambda: tomography.simulate_dephased(np.zeros(0), 0.5, TomographySettings(100)),
                     id="kappas-without-a-pair"),
    ],
)
def test_library_value_errors_exit_2(monkeypatch, tmp_path, capsys, bad_call):
    # a library value error raised below `run`, not by the config, is a computation error
    with pytest.raises(TomographyInputError) as info:
        bad_call()
    assert isinstance(info.value, BelldynError) and isinstance(info.value, ValueError)
    monkeypatch.setattr(belldyn.cli, "sweep", lambda config: bad_call())
    assert main(["run", "fig2a", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("belldyn: computation error: ")


@pytest.mark.parametrize(
    "error",
    [cls for cls in vars(belldyn.errors).values() if isinstance(cls, type)],
    ids=lambda cls: cls.__name__,
)
def test_main_maps_each_error_class_to_its_exit_code(monkeypatch, tmp_path, capsys, error):
    def fail(config, out_dir):
        raise error("the message")

    monkeypatch.setattr(belldyn.cli, "run", fail)
    code = main(["run", "fig2a", "--out", str(tmp_path / "out")])
    if error in (ConfigError, ParseError):
        assert (code, capsys.readouterr().err) == (1, "belldyn: error: the message\n")
    else:
        assert issubclass(error, BelldynError)
        assert (code, capsys.readouterr().err) == (2, "belldyn: computation error: the message\n")


_VALID_CONFIG = ["x_a = 117", "filter_a = 3", "x_b_max = 40", "step = 4",
                 "[spectrum_b]", "component = 1.0, 780.16, 0.85"]


def _with(*lines):
    return "\n".join(list(lines) + _VALID_CONFIG) + "\n"


_CSV_HEADER = ",".join(SWEEP_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "argv,config_text",
    [
        pytest.param(["run", "fig2a", "--out", "{out}", "--step", "0"], None, id="step-0"),
        pytest.param(["run", "fig2a", "--out", "{out}", "--step", "-1"], None, id="step-neg"),
        pytest.param(["run", "fig2a", "--out", "{out}", "--step", "nan"], None, id="step-nan"),
        # 800 / 0.008 lambda0 is MAX_SWEEP_POINTS + 1 grid points
        pytest.param(["run", "fig2a", "--out", "{out}", "--step", str(800.0 / MAX_SWEEP_POINTS)],
                     None, id="grid-over-cap"),
        pytest.param(["run", "{cfg}", "--out", "{out}"], _with("lambda0 = nan"), id="lambda0-nan"),
        pytest.param(["run", "{cfg}", "--out", "{out}"],
                     _with().replace("x_b_max = 40", "x_b_max = nan"), id="x_b_max-nan"),
        pytest.param(["run", "{cfg}", "--out", "{out}"], _with("echo_points = 4, nan"),
                     id="echo-nan"),
        pytest.param(["run", "{cfg}", "--out", "{out}"], _with("echo_points = 5, 5"),
                     id="echo-repeated"),
        # checked in meters with the other lengths, so the message names the key
        pytest.param(["run", "{cfg}", "--out", "{out}"], _with("lambda0 = 1e20", "echo_points = 1e300"),
                     id="echo-beyond-meters"),
        pytest.param(["run", "{cfg}", "--out", "{out}"], b"\xff" + _with().encode(),
                     id="config-not-utf8"),
        pytest.param(["run", "{cfg}", "--out", "{out}"], _with("tomo_counts = 0"), id="counts-0"),
        pytest.param(["run", "{cfg}", "--out", "{out}"], _with("tomo_counts = 2.9"),
                     id="counts-fraction"),
        pytest.param(["run", "{cfg}", "--out", "{out}"], _with("tomo_counts = 1e30"),
                     id="counts-huge"),
        pytest.param(["run", "{cfg}", "--out", "{out}"],
                     _with("tomo_counts = 100", "tomo_resamples = 1"), id="resamples-1"),
        pytest.param(["run", "{cfg}", "--out", "{out}"],
                     _with("tomo_counts = 100", f"tomo_resamples = {MAX_TOMO_RESAMPLES + 1}"),
                     id="resamples-over-cap"),
        pytest.param(["run", "{cfg}", "--out", "{out}"],
                     _with("tomo_counts = 100", "tomo_seed = -1"), id="seed-neg"),
        pytest.param(["run", "{cfg}", "--out", "{out}", "--seed", "-1"], _with("tomo_counts = 100"),
                     id="run-seed-neg"),
        # a config without tomography has no seed to override
        pytest.param(["run", "fig2a", "--out", "{out}", "--seed", "3"], None, id="run-seed-no-tomo"),
        pytest.param(["run", "fig2a", "--out", "{out}", "--seed", "-1"], None,
                     id="run-seed-neg-no-tomo"),
        pytest.param(["tomo-demo", "--kappa-a", "0.6", "--kappa-b", "0.4", "--counts", "0"], None,
                     id="demo-counts-0"),
        pytest.param(["tomo-demo", "--kappa-a", "0.6", "--kappa-b", "0.4",
                      "--counts", "100000000000000000000"], None, id="demo-counts-huge"),
        pytest.param(["tomo-demo", "--kappa-a", "0.6", "--kappa-b", "0.4", "--seed", "-1"], None,
                     id="demo-seed-neg"),
        pytest.param(["landmarks", "{cfg}"], "x_over_lambda0,kappa_a_abs\n0,1\n",
                     id="csv-missing-columns"),
        pytest.param(["landmarks", "{cfg}"], _CSV_HEADER + ",".join(["0"] * 10) + "\n",
                     id="csv-short-row"),
        pytest.param(["landmarks", "{cfg}"], _CSV_HEADER + ",".join(["0"] * 12) + "\n",
                     id="csv-extra-field"),
        pytest.param(["landmarks", "{cfg}"], _CSV_HEADER + '"0",' + ",".join(["0"] * 10) + "\n",
                     id="csv-quoted-number"),
        pytest.param(["landmarks", "{cfg}"], _CSV_HEADER, id="csv-header-only"),
        pytest.param(["landmarks", "{cfg}"], "", id="csv-empty"),
        pytest.param(["landmarks", "{cfg}"], _CSV_HEADER.encode() + b"\xff\n",
                     id="csv-not-utf8"),
        pytest.param(["landmarks", "{cfg}"], _CSV_HEADER + ",".join(["0"] * 10 + ["inf"]) + "\n"
                     + ",".join(["1"] * 11) + "\n", id="csv-inf"),
        pytest.param(["landmarks", "{cfg}"], _CSV_HEADER + ",".join(["nan"] + ["0"] * 10) + "\n",
                     id="csv-nan"),
    ],
)
def test_main_rejects_bad_input_with_exit_1(tmp_path, capsys, argv, config_text):
    """config_text, str or bytes, is written to the file that "{cfg}" names."""
    cfg = tmp_path / "bad.cfg"
    if isinstance(config_text, str):
        config_text = config_text.encode()
    if config_text is not None:
        cfg.write_bytes(config_text)
    argv = [a.format(out=tmp_path / "out", cfg=cfg) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("belldyn: error:")
    assert "Traceback" not in err
    if argv[-2] in ("--counts", "--seed"):
        # the message names the flag the user typed, not its config key
        assert err.startswith(f"belldyn: error: {argv[-2]} must be")
    if config_text is not None and b"echo_points = 1e300" in config_text:
        assert err == "belldyn: error: echo_points * lambda0 must be finite and nonnegative, got inf m\n"


def test_tomography_settings_validation():
    assert parse_config_lines(
        ["tomo_counts = 5000.0", "tomo_resamples = 2"] + _VALID_CONFIG
    ).tomography.n_per_setting == 5000
    # a key the text leaves out takes the dataclass default
    config = parse_config_lines(["tomo_counts = 10"] + _VALID_CONFIG)
    assert config.tomography == TomographySettings(10)
    assert config.lambda0_nm == 780.0
    for bad in (["tomo_counts = 0"], ["tomo_counts = 2.9"], ["tomo_counts = inf"],
                ["tomo_counts = 10", "tomo_resamples = 1"]):
        with pytest.raises(ConfigError, match="tomo_"):
            parse_config_lines(bad + _VALID_CONFIG)
    # an integer literal is read exactly; a float literal of an integer still counts
    config = parse_config_lines(["tomo_counts = 1e3", "tomo_seed = 7.0"] + _VALID_CONFIG)
    assert (config.tomography.n_per_setting, config.tomography.seed) == (1000, 7)
    assert TomographySettings(10, resamples=2.0) == TomographySettings(10, resamples=2)
    for bad in ("2.5", "-1"):  # the value as typed, as `run --seed -1` reports it
        with pytest.raises(ConfigError, match=rf"^tomo_seed must be an integer in \[0, inf\], got {bad}$"):
            parse_config_lines(["tomo_counts = 10", f"tomo_seed = {bad}"] + _VALID_CONFIG)
    with pytest.raises(ParseError, match="^line 2: value for tomo_seed is not a number: 'abc'$"):
        parse_config_lines(["tomo_counts = 10", "tomo_seed = abc"] + _VALID_CONFIG)


def test_read_sweep_csv_missing_columns(tmp_path):
    path = tmp_path / "partial.csv"
    path.write_text("x_over_lambda0,Q\n0,0.1\n")
    with pytest.raises(ParseError, match="missing columns"):
        read_sweep_csv(path)


def test_read_sweep_csv_names_a_duplicated_column(tmp_path):
    # 12 header fields and 12 values per row: every SWEEP_COLUMNS name is there, REE twice
    path = tmp_path / "twice.csv"
    path.write_text(",".join(SWEEP_COLUMNS + ("REE",)) + "\n" + ",".join(["0"] * 12) + "\n")
    with pytest.raises(ParseError, match=r"twice\.csv: duplicated columns REE$"):
        read_sweep_csv(path)
    assert main(["landmarks", str(path)]) == 1


#: the bytes an editor that saves "UTF-8 with BOM" puts first
BOM = b"\xef\xbb\xbf"


def test_a_config_saved_with_a_byte_order_mark_runs_as_without_it(tmp_path, capsys):
    # and one saved with CRLF line ends, which text mode reads as LF
    for name, text in (("plain", CONFIG_TEXT.encode()), ("bom", BOM + CONFIG_TEXT.encode()),
                       ("crlf", CONFIG_TEXT.replace("\n", "\r\n").encode())):
        (tmp_path / f"{name}.cfg").write_bytes(text)
        assert main(["run", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / name)]) == 0
    for name in ("bom", "crlf"):
        assert ((tmp_path / name / "sweep.csv").read_bytes()
                == (tmp_path / "plain" / "sweep.csv").read_bytes())
    # after the mark, bytes that are not UTF-8 are still rejected, at their offset in the file
    (tmp_path / "bad.cfg").write_bytes(BOM + b"abc\xff" + CONFIG_TEXT.encode())
    assert main(["run", str(tmp_path / "bad.cfg"), "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("belldyn: error: ") and err.endswith(" at byte 6)\n")


def test_a_sweep_csv_saved_with_a_byte_order_mark_gives_the_same_landmarks(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "fig2a", "--out", str(out), "--step", "8"]) == 0
    csv = (out / "sweep.csv").read_bytes()
    (tmp_path / "bom.csv").write_bytes(BOM + csv)
    (tmp_path / "crlf.csv").write_bytes(csv.replace(b"\n", b"\r\n"))
    (tmp_path / "bad.csv").write_bytes(BOM + csv.replace(b"\n", b"\xff\n", 1))
    printed = []
    for path in (out / "sweep.csv", tmp_path / "bom.csv", tmp_path / "crlf.csv"):
        assert main(["landmarks", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[2] == printed[1] == printed[0] != ""
    assert main(["landmarks", str(tmp_path / "bad.csv")]) == 1
    err, bad_byte = capsys.readouterr().err, len(BOM) + csv.index(b"\n")
    assert err.startswith("belldyn: error: ") and err.endswith(f" at byte {bad_byte})\n")


def _tomo_config_file(tmp_path, seed="9"):
    cfg = tmp_path / f"tomo-{seed}.cfg"
    cfg.write_text(_with("tomo_counts = 500", "tomo_resamples = 2", f"tomo_seed = {seed}")
                   .replace("step = 4", "step = 20"))
    return cfg


def _noisy_csv(out, *argv):
    """The noisy.csv bytes of `belldyn run <argv> --out <out>`."""
    assert main(["run", *argv, "--out", str(out)]) == 0
    return (out / "noisy.csv").read_bytes()


def test_config_tomo_seed_above_2_53_is_read_exactly(tmp_path):
    seed = 2**53 + 1  # float(seed) == 2**53
    assert parse_config(_tomo_config_file(tmp_path, seed)).tomography.seed == seed
    from_file = _noisy_csv(tmp_path / "file", str(_tomo_config_file(tmp_path, seed)))
    cfg = str(_tomo_config_file(tmp_path))
    assert from_file == _noisy_csv(tmp_path / "flag", cfg, "--seed", str(seed))
    assert from_file != _noisy_csv(tmp_path / "rounded", cfg, "--seed", str(2**53))


@pytest.fixture
def parser_builds(monkeypatch):
    """The parsers built while the test runs, from an empty parser cache."""
    built = []

    class Counting(belldyn.cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    belldyn.cli.build_parser.cache_clear()
    monkeypatch.setattr(belldyn.cli, "_Parser", Counting)
    yield built
    belldyn.cli.build_parser.cache_clear()


def test_main_builds_the_parser_once_per_process(tmp_path, capsys, parser_builds):
    assert main(["run", "fig2a", "--out", str(tmp_path / "a"), "--step", "100"]) == 0
    assert main(["landmarks", str(tmp_path / "a" / "sweep.csv")]) == 0
    assert main(["run", "nosuchpreset", "--out", str(tmp_path / "b")]) == 1
    assert main(["tomo-demo", "--kappa-a", "0.6", "--kappa-b", "0.4", "--counts", "100"]) == 0
    capsys.readouterr()
    assert len(parser_builds) == 4  # one tree: the parser and its three subcommands
    assert belldyn.cli.build_parser() is belldyn.cli.build_parser() is parser_builds[0]


def test_importing_the_cli_builds_no_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    # a second copy of the module, executed afresh; sys.modules keeps the first
    spec = importlib.util.find_spec("belldyn.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert built == []
    assert fresh.build_parser.cache_info().currsize == 0
    fresh.build_parser()
    assert len(built) == 4  # the parser and its three subcommands


def test_a_usage_error_does_not_carry_into_the_next_call(tmp_path, capsys):
    for bad in (["run", "fig2a"], ["run", "fig2a", "--out", str(tmp_path / "x"), "--step", "abc"],
                ["bogus"], ["run", "fig2a", "--out", str(tmp_path / "x"), "--seed", "3"]):
        assert main(bad) == 1
        assert main(["run", "fig2a", "--out", str(tmp_path / "ok"), "--step", "100"]) == 0
    assert capsys.readouterr().err.count("belldyn: error:") == 4


def test_a_seed_override_does_not_carry_into_the_next_call(tmp_path):
    cfg = str(_tomo_config_file(tmp_path))
    own = _noisy_csv(tmp_path / "own", cfg)
    assert _noisy_csv(tmp_path / "seed5", cfg, "--seed", "5") != own
    assert _noisy_csv(tmp_path / "again", cfg) == own
    assert _noisy_csv(tmp_path / "seed9", cfg, "--seed", "9") == own  # the config's own seed


def test_a_step_override_does_not_carry_into_the_next_call(tmp_path):
    assert main(["run", "fig2a", "--out", str(tmp_path / "coarse"), "--step", "100"]) == 0
    assert main(["run", "fig2a", "--out", str(tmp_path / "default")]) == 0
    run(PRESETS["fig2a"], tmp_path / "reference")
    assert len(read_sweep_csv(tmp_path / "coarse" / "sweep.csv")["Q"]) == 9
    assert ((tmp_path / "default" / "sweep.csv").read_bytes()
            == (tmp_path / "reference" / "sweep.csv").read_bytes())


def test_help_exits_0_and_prints_the_module_doc_on_every_call(capsys):
    # main returns help's exit code, as it returns every other outcome's
    for _ in range(2):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: belldyn [-h] {run,landmarks,tomo-demo} ...")
        assert belldyn.cli.__doc__ in out
    assert main(["run", "--help"]) == 0
    assert "--step STEP" in capsys.readouterr().out


def test_help_from_the_shell_exits_0():
    src = os.path.dirname(os.path.dirname(belldyn.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "belldyn.cli", "--help"], env=env,
                          capture_output=True, text=True, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: belldyn [-h]")
