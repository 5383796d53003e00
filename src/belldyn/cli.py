"""Command-line front end: experiment configs, sweeps, landmark reports, tomography demos.

Commands:
  run <preset|config-path> --out <dir> [--step <lambda0 units>] [--seed <int>]
  landmarks <sweep.csv>
  tomo-demo --kappa-a <f> --kappa-b <f> [--counts <n>] [--seed <int>]

`run` writes sweep.csv (the full series), landmarks.txt (crossings and
extrema), and noisy.csv (tomography-reconstructed series with bootstrap error
bars) when tomography is configured; `tomo-demo` prints its counts as
`setting,count` lines. This module owns all of these text formats. Exit
codes: 0 success, 1 usage or config error, 2 computation error, 3 I/O error.

A config file is `key = value` text in the format that `belldyn.config`
describes; the built-in presets fig2a, fig2b, fig3a and fig3b need no file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tomography
from .config import PRESETS, TOMO_KEYS, ExperimentConfig, TomographySettings, parse_config_lines
from .correlations import bell_correlations, bell_eigenvalues_from_kappas
from .dephasing import landmarks_from_series, sweep
from .errors import BelldynError, ConfigError, ParseError

SWEEP_COLUMNS = (
    "x_over_lambda0", "kappa_a_abs", "kappa_b_abs",
    "lambda1", "lambda2", "lambda3", "lambda4",
    "I", "C", "Q", "REE",
)


def _read_utf8(path) -> str:
    """A text file's contents less a leading byte-order mark; non-UTF-8 bytes raise ParseError."""
    try:  # "utf-8", not "utf-8-sig": a bad byte's offset then counts the mark's 3 bytes
        with open(path, encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_config(path) -> ExperimentConfig:
    """Parse a config file; built-in preset names need no file."""
    return parse_config_lines(_read_utf8(path).split("\n"), name_hint=Path(path).stem)


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

    Malformed or non-UTF-8 text, a header that names a column twice, and a NaN
    or infinite cell, raise ParseError.
    """
    header, _, body = _read_utf8(path).partition("\n")
    if not body.strip():
        raise ParseError(f"{path}: empty sweep file")
    names = header.split(",")
    index = {name: i for i, name in enumerate(names)}
    duplicated = dict.fromkeys(name for i, name in enumerate(names) if index[name] != i)
    if duplicated:
        raise ParseError(f"{path}: duplicated columns {', '.join(duplicated)}")
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


def format_landmarks(landmarks: dict[str, float]) -> str:
    """The landmarks report, one `key = value` line each: landmarks.txt and `belldyn landmarks`."""
    return "".join(f"{key} = {value:.9g}\n" for key, value in landmarks.items())


def write_noisy_csv(table: dict[str, np.ndarray], config: ExperimentConfig, path) -> None:
    """Tomography-reconstructed series with bootstrap error bars, from one `tomography.simulate_dephased`
    call over all sweep-table rows, which seeds row i from the prefix [tomo_seed, i]."""
    _, values, errors = tomography.simulate_dephased(table["kappa_a"], table["kappa_b"], config.tomography)
    cells = np.stack((values, errors), axis=-1)  # per row, each value followed by its error
    header = ["x_over_lambda0"] + [f"{k}{suffix}" for k in tomography.BOOTSTRAP_KEYS for suffix in ("", "_err")]
    _write_csv(path, header, [table["x_over_lambda0"], cells.reshape(len(cells), -1)])


def run(config: ExperimentConfig, out_dir) -> None:
    """Run one experiment and write sweep.csv, landmarks.txt, and noisy.csv.

    noisy.csv is written only when tomography is configured.
    """
    table = sweep(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(table, out / "sweep.csv")
    (out / "landmarks.txt").write_text(format_landmarks(landmarks_from_series(table)), encoding="utf-8")
    if config.tomography is not None:
        write_noisy_csv(table, config, out / "noisy.csv")


def _cmd_run(args) -> int:
    if args.experiment in PRESETS:
        config = PRESETS[args.experiment]
    elif Path(args.experiment).is_file():
        config = parse_config(args.experiment)
    else:
        raise ConfigError(
            f"{args.experiment!r} is neither a preset ({', '.join(PRESETS)}) "
            "nor an existing config file"
        )
    if args.seed is not None:
        if config.tomography is None:
            raise ConfigError("--seed must be given with a config that sets tomo_counts")
        # the override is the --seed flag, so its message names the flag
        config = replace(config, tomography=replace(
            config.tomography, seed=args.seed, keys=(*TOMO_KEYS[:2], "--seed")))
    if args.step is not None:
        # checked as a config file's step is; beyond x_b_max it gives the one point 0
        config = replace(config, step=args.step)
    run(config, args.out)
    return 0


def _cmd_landmarks(args) -> int:
    print(format_landmarks(landmarks_from_series(read_sweep_csv(args.sweep_csv))), end="")
    return 0


def _cmd_tomo_demo(args) -> int:
    tomo = TomographySettings(n_per_setting=args.counts, seed=args.seed,
                              keys=("--counts", "resamples", "--seed"))
    lam = bell_eigenvalues_from_kappas(args.kappa_a, args.kappa_b)
    (counts,), (values,), (errs,) = tomography.simulate_dephased(args.kappa_a, args.kappa_b, tomo)
    print("setting,count")
    for label, count in zip(tomography.STANDARD_LABELS, counts):  # drawn counts are integers
        print(f"{label},{int(count)}")
    print(f"\n{'quantity':8s} {'true':>12s} {'reconstructed':>14s} {'error':>10s}")
    for name, t, rec, err in zip(tomography.BOOTSTRAP_KEYS, [*bell_correlations(lam), *lam], values, errs):
        print(f"{name:8s} {t:12.6f} {rec:14.6f} {err:10.6f}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@functools.cache  # one parser per process, built on first use; parse_args keeps no state
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
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # after printing --help; parse errors raise ConfigError
            return exc.code
        return args.func(args)
    except ConfigError as exc:
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
