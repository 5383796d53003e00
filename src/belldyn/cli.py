"""Command-line front end: experiment configs, sweeps, landmark reports, tomography demos.

Commands:
  run <preset|config-path> --out <dir> [--step <lambda0 units>] [--seed <int>]
  landmarks <sweep.csv>
  tomo-demo --kappa-a <f> --kappa-b <f> [--counts <n>] [--seed <int>]

`run` writes sweep.csv (the full series), landmarks.txt (crossings and
extrema), and noisy.csv (tomography-reconstructed series with bootstrap error
bars) when tomography is configured. Exit codes: 0 success, 1 usage error,
2 computation error, 3 I/O error.

Config files are plain text, one `key = value` per line with `#` comments,
plus a `[spectrum_b]` section holding one
`component = weight, center_nm, fwhm_nm` line per Gaussian. All lengths are
in units of lambda0. Built-in presets fig2a, fig2b, fig3a, and fig3b need no
file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dephasing, tomography
from .dephasing import ExperimentConfig, find_crossing, sweep
from .errors import (
    BelldynError,
    ConfigError,
    CrossingNotFoundError,
    MissingKeyError,
    ParseError,
    UnknownKeyError,
)
from .tomography import TomographySettings

SWEEP_COLUMNS = (
    "x_over_lambda0", "kappa_a_abs", "kappa_b_abs",
    "lambda1", "lambda2", "lambda3", "lambda4",
    "I", "C", "Q", "REE",
)

#: threshold used for the quantum-correlation revival-start landmark
Q_REVIVAL_THRESHOLD = 0.005

#: Q values within this of the maximum count as one plateau; the revival peak
#: is the first plateau point, so roundoff cannot move it along the plateau
PLATEAU_TOL = 1e-9


_FP_COMPONENTS = ((0.37, 778.853, 0.85), (0.44, 780.160, 0.85), (0.19, 781.459, 0.85))


def preset_config(name: str) -> ExperimentConfig:
    """Built-in experiment presets covering the standard demonstration runs."""
    base = dict(x_a=117.0, filter_a_fwhm_nm=3.0, x_b_max=800.0, step=2.0, lambda0_nm=780.0)
    presets = {
        "fig2a": ExperimentConfig(name="fig2a", spectrum_b=_FP_COMPONENTS, **base),
        "fig2b": ExperimentConfig(
            name="fig2b",
            spectrum_b=tuple((w, c, 0.2) for w, c, _ in _FP_COMPONENTS),
            **base,
        ),
        "fig3a": ExperimentConfig(
            name="fig3a", spectrum_b=_FP_COMPONENTS, echo_points=(200.0,), **base
        ),
        "fig3b": ExperimentConfig(
            name="fig3b", spectrum_b=_FP_COMPONENTS, echo_points=(400.0,), **base
        ),
    }
    if name not in presets:
        raise KeyError(name)
    return presets[name]


PRESET_NAMES = ("fig2a", "fig2b", "fig3a", "fig3b")

_SCALAR_KEYS = {
    "name", "x_a", "filter_a", "x_b_max", "step", "lambda0",
    "echo_points", "tomo_counts", "tomo_resamples", "tomo_seed",
}
_REQUIRED_KEYS = ("x_a", "filter_a", "x_b_max", "step")


def _parse_float(raw: str, lineno: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"line {lineno}: value for {key} is not a number: {raw!r}") from None


def parse_config_lines(lines, name_hint: str = "custom") -> ExperimentConfig:
    """Parse config text (iterable of lines) into an ExperimentConfig."""
    values: dict[str, str] = {}
    value_lines: dict[str, int] = {}
    components: list[tuple[float, float, float]] = []
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section != "spectrum_b":
                raise UnknownKeyError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if section == "spectrum_b":
            if key != "component":
                raise UnknownKeyError(f"line {lineno}: unknown key {key!r} in [spectrum_b]")
            parts = [p.strip() for p in raw_value.split(",")]
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: component needs 'weight, center_nm, fwhm_nm'")
            components.append(tuple(_parse_float(p, lineno, "component") for p in parts))
            continue
        if key not in _SCALAR_KEYS:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw_value
        value_lines[key] = lineno

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise MissingKeyError(f"missing required key {key!r}")
    if not components:
        raise MissingKeyError("missing [spectrum_b] section with at least one component")

    echo: tuple[float, ...] = ()
    if "echo_points" in values and values["echo_points"]:
        lineno = value_lines["echo_points"]
        echo = tuple(_parse_float(p.strip(), lineno, "echo_points")
                     for p in values["echo_points"].split(",") if p.strip())

    tomo = None
    if "tomo_counts" in values:
        lineno = value_lines["tomo_counts"]
        tomo = TomographySettings(
            n_per_setting=_parse_float(values["tomo_counts"], lineno, "tomo_counts"),
            resamples=_parse_float(values.get("tomo_resamples", "100"),
                                   value_lines.get("tomo_resamples", lineno), "tomo_resamples"),
            seed=_parse_float(values.get("tomo_seed", "0"),
                              value_lines.get("tomo_seed", lineno), "tomo_seed"),
        )
    elif "tomo_resamples" in values or "tomo_seed" in values:
        raise MissingKeyError("tomo_resamples/tomo_seed need tomo_counts")

    return ExperimentConfig(
        name=values.get("name", name_hint),
        x_a=_parse_float(values["x_a"], value_lines["x_a"], "x_a"),
        filter_a_fwhm_nm=_parse_float(values["filter_a"], value_lines["filter_a"], "filter_a"),
        spectrum_b=tuple(components),
        x_b_max=_parse_float(values["x_b_max"], value_lines["x_b_max"], "x_b_max"),
        step=_parse_float(values["step"], value_lines["step"], "step"),
        echo_points=echo,
        lambda0_nm=_parse_float(values.get("lambda0", "780"),
                                value_lines.get("lambda0", 0), "lambda0"),
        tomography=tomo,
    )


def _read_utf8(path) -> str:
    """A text file's contents; bytes that are not UTF-8 raise ParseError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_config(path) -> ExperimentConfig:
    """Parse a config file; built-in preset names need no file."""
    return parse_config_lines(_read_utf8(path).split("\n"), name_hint=Path(path).stem)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _write_csv(path, header, columns) -> None:
    """One row per element of the equal-length columns, each value to 9 significant digits.

    The whole table is one %-format over the flattened array; the bytes are
    those of np.savetxt(fmt="%.9g", delimiter=","), which formats row by row.
    """
    table = np.column_stack(columns)
    rows, width = table.shape
    row = ",".join(["%.9g"] * width) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n" + (row * rows) % tuple(table.ravel().tolist()))


def write_sweep_csv(series: dict[str, np.ndarray], path) -> None:
    _write_csv(path, SWEEP_COLUMNS, [series[name] for name in SWEEP_COLUMNS])


def read_sweep_csv(path) -> dict[str, np.ndarray]:
    """SWEEP_COLUMNS of a sweep.csv by header name.

    Malformed or non-UTF-8 text, and a NaN or infinite cell, raise ParseError.
    """
    header, _, body = _read_utf8(path).partition("\n")
    if not body.strip():
        raise ParseError(f"{path}: empty sweep file")
    index = {name: i for i, name in enumerate(header.split(","))}
    missing = [name for name in SWEEP_COLUMNS if name not in index]
    if missing:
        raise ParseError(f"{path}: missing columns {', '.join(missing)}")
    try:
        data = np.loadtxt(body.split("\n"), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(index):
        raise ParseError(f"{path}: a row has a missing, extra or non-numeric value")
    if not np.isfinite(data).all():
        raise ParseError(f"{path}: a cell is NaN or infinite")
    return {name: data[:, index[name]] for name in SWEEP_COLUMNS}


def _first_local_min(x: np.ndarray, y: np.ndarray, start: float) -> int | None:
    """Index of the first interior point beyond `start` that no neighbour undercuts."""
    inner = y[1:-1]
    hits = np.flatnonzero(~(x[1:-1] <= start) & (inner <= y[:-2]) & (inner <= y[2:]))
    return int(hits[0]) + 1 if hits.size else None


def landmarks_from_series(series: dict[str, np.ndarray]) -> dict[str, float]:
    """Crossings and extrema of a sweep series, every value derived from the columns.

    Emitted when present: the sudden classical-to-quantum transition (|kappa_b|
    falls through |kappa_a|), the reverse revival transition, entanglement
    death and revival (largest eigenvalue through 1/2), the quantum-correlation
    dip and revival peak after the transition, the revival start (last rise of
    Q through the 0.005 threshold before the peak), and the echo point where
    |kappa_b| returns to 1.
    """
    x = series["x_over_lambda0"]
    ka = series["kappa_a_abs"]
    kb = series["kappa_b_abs"]
    lam1 = series["lambda1"]
    q = series["Q"]
    level = float(ka[0])
    out: dict[str, float] = {"kappa_a_abs": level}

    def crossing(key, xs, ys, level, **options):
        try:
            out[key] = find_crossing(xs, ys, level, **options)
        except CrossingNotFoundError:
            pass

    crossing("sudden_transition_x", x, kb, level, rising=False)
    if "sudden_transition_x" in out:
        crossing("revival_transition_x", x, kb, level, rising=True,
                 start=out["sudden_transition_x"])
    crossing("ree_death_x", x, lam1, 0.5, rising=False)
    if "ree_death_x" in out:
        crossing("ree_revival_x", x, lam1, 0.5, rising=True, start=out["ree_death_x"])
    if "sudden_transition_x" in out:
        dip = _first_local_min(x, q, out["sudden_transition_x"])
        if dip is not None:
            out["q_dip_x"] = float(x[dip])
            out["q_dip"] = float(q[dip])
            after = q[dip:]
            peak = dip + int(np.argmax(after >= after.max() - PLATEAU_TOL))
            out["q_revival_peak_x"] = float(x[peak])
            out["q_revival_peak"] = float(q[peak])
            crossing("q_revival_start_x", x[: peak + 1], q[: peak + 1], Q_REVIVAL_THRESHOLD,
                     rising=True, start=out["sudden_transition_x"], which="last")
    echo_hits = np.where((x > 0.0) & (kb >= 1.0 - 1e-9))[0]
    if echo_hits.size:
        out["echo_x"] = float(x[echo_hits[0]])
    return out


def write_landmarks(landmarks: dict[str, float], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in landmarks.items():
            handle.write(f"{key} = {_fmt(value)}\n")


#: largest tomography batch: point estimates plus resamples of whole sweep rows
_BLOCK_ROWS = 256


def write_noisy_csv(table: dict[str, np.ndarray], config: ExperimentConfig, path) -> None:
    """Tomography-reconstructed series with bootstrap error bars.

    Per sweep-table row: simulate counts from the evolved state, reconstruct, and
    evaluate the correlation measures on the reconstructed spectrum; errors
    come from the parametric bootstrap. Substreams derive from (seed, index).
    Rows go to `tomography.bootstrap` in blocks of at most _BLOCK_ROWS estimates (one
    row if larger): memory stays bounded, and the bits are those of one row at a time.
    """
    tomo = config.tomography
    keys = tomography.BOOTSTRAP_KEYS
    # per row, each value followed by its error, in BOOTSTRAP_KEYS order
    cells = np.empty((len(table["x_over_lambda0"]), len(keys), 2))
    block = max(1, _BLOCK_ROWS // (1 + tomo.resamples))
    for start in range(0, len(cells), block):
        index = range(start, min(start + block, len(cells)))
        records = [tomography.simulate_counts(
            dephasing.evolve_state(table["kappa_a"][i], table["kappa_b"][i]),
            tomo.n_per_setting, [tomo.seed, i, 0]) for i in index]
        cells[index, :, 0], cells[index, :, 1] = tomography.bootstrap(
            records, tomo.resamples, [[tomo.seed, i, 1] for i in index])
    header = ["x_over_lambda0"] + [f"{name}{suffix}" for name in keys for suffix in ("", "_err")]
    _write_csv(path, header, [table["x_over_lambda0"], cells.reshape(len(cells), -1)])


def run(config: ExperimentConfig, out_dir) -> None:
    """Run one experiment and write sweep.csv, landmarks.txt, and noisy.csv.

    noisy.csv is written only when tomography is configured.
    """
    table = sweep(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(table, out / "sweep.csv")
    write_landmarks(landmarks_from_series(table), out / "landmarks.txt")
    if config.tomography is not None:
        write_noisy_csv(table, config, out / "noisy.csv")


def _cmd_run(args) -> int:
    if args.experiment in PRESET_NAMES:
        config = preset_config(args.experiment)
    elif Path(args.experiment).is_file():
        config = parse_config(args.experiment)
    else:
        raise _UsageError(
            f"{args.experiment!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
            "nor an existing config file"
        )
    if args.seed is not None and config.tomography is not None:
        # the override is the --seed flag, so its message names the flag
        config = replace(config, tomography=replace(
            config.tomography, seed=args.seed, keys=("tomo_counts", "tomo_resamples", "--seed")))
    if args.step is not None:
        # checked as a config file's step is; beyond x_b_max it gives the one point 0
        config = replace(config, step=args.step)
    run(config, args.out)
    return 0


def _cmd_landmarks(args) -> int:
    series = read_sweep_csv(args.sweep_csv)
    for key, value in landmarks_from_series(series).items():
        print(f"{key} = {_fmt(value)}")
    return 0


def _cmd_tomo_demo(args) -> int:
    tomo = TomographySettings(n_per_setting=args.counts, seed=args.seed,
                              keys=("--counts", "resamples", "--seed"))
    rho = dephasing.evolve_state(args.kappa_a, args.kappa_b)
    record = tomography.simulate_counts(rho, tomo.n_per_setting, tomo.seed)
    print(tomography.record_to_csv(record), end="")
    true = tomography.state_quantities(rho)
    (reconstructed,), (errs,) = tomography.bootstrap([record], tomo.resamples, [tomo.seed + 1])
    print()
    print(f"{'quantity':8s} {'true':>12s} {'reconstructed':>14s} {'error':>10s}")
    for name, t, rec, err in zip(tomography.BOOTSTRAP_KEYS, true, reconstructed, errs):
        print(f"{name:8s} {t:12.6f} {rec:14.6f} {err:10.6f}")
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="belldyn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep experiment and write its outputs")
    p_run.add_argument("experiment", help="preset name or config file path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--step", type=float, default=None, help="override step (lambda0 units)")
    p_run.add_argument("--seed", type=int, default=None, help="override tomography seed")
    p_run.set_defaults(func=_cmd_run)

    p_lm = sub.add_parser("landmarks", help="recompute landmarks from a sweep.csv")
    p_lm.add_argument("sweep_csv")
    p_lm.set_defaults(func=_cmd_landmarks)

    p_td = sub.add_parser("tomo-demo", help="simulate, reconstruct, and report one state")
    p_td.add_argument("--kappa-a", type=float, required=True)
    p_td.add_argument("--kappa-b", type=float, required=True)
    p_td.add_argument("--counts", type=int, default=10000)
    p_td.add_argument("--seed", type=int, default=0)
    p_td.set_defaults(func=_cmd_tomo_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ConfigError) as exc:
        print(f"belldyn: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"belldyn: i/o error: {exc}", file=sys.stderr)
        return 3
    except BelldynError as exc:
        print(f"belldyn: computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
