"""The four benchmark workloads: inputs from a seed, one op, and its output check.

Every workload drives belldyn through its stable surfaces only:
``belldyn.cli.main(argv)`` for ``run`` and ``landmarks``, and the exported
``simulate_counts``, ``reconstruct`` and oracle functions. Names are looked up
on the module at call time, so a traced phase sees the wrapped functions.

An op is addressed by (pass, index): a pass is a fixed sequence of
``OPS_PER_PASS`` ops, and replaying the same (pass, index) gives the same
inputs, which lets a traced phase be compared byte for byte with an untraced
one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import belldyn
import belldyn.cli

#: ops in one pass; every percentile is taken over one pass, so at least ten
#: samples lie beyond the 90th percentile
OPS_PER_PASS = 100

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PRESETS = ("fig2a", "fig2b", "fig3a", "fig3b")

#: sweep.csv columns as documented in the README
SWEEP_COLUMNS = ("x_over_lambda0", "kappa_a_abs", "kappa_b_abs",
                 "lambda1", "lambda2", "lambda3", "lambda4", "I", "C", "Q", "REE")
NOISY_QUANTITIES = ("I", "C", "Q", "REE", "lambda1", "lambda2", "lambda3", "lambda4")

#: extremum locations: on a plateau their position is a roundoff tie-break, so
#: they are checked through the value Q attains there (key -> value key)
EXTREMUM_LOCATIONS = {"q_dip_x": "q_dip", "q_revival_peak_x": "q_revival_peak"}
#: relative tolerance of a landmark against the reference; a rewrite that
#: moves the series by 1e-12 flips at most the ninth printed digit
LANDMARK_RTOL = 1e-6

TOMO_COUNTS = 10_000
#: tomo-sweep config: fig2a spectra, three rows (x = 0, 60, 120) before
#: entanglement death, so every row is mixed and entangled
TOMO_SWEEP_STEP = 60
TOMO_SWEEP_ROWS = 3
TOMO_SWEEP_RESAMPLES = 2
#: an error must be above 0 where the true value exceeds this
NOISY_BOUNDARY = 0.02
#: tomo-pure: both |kappa| drawn from [0.95, 1]; op 0 of a pass is the pure state
PURE_KAPPA_MIN = 0.95
#: no seed trips this on the seed commit (observed minimum about 0.96)
FIDELITY_FLOOR = 0.90
ORACLE_TOL = 1e-3
ORACLE_UNDERCUT = -1e-6

BELL_KETS = np.array(
    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, -1.0], [1.0, -1.0, 0.0, 0.0]],
    dtype=complex,
) / math.sqrt(2.0)


@dataclass
class Outcome:
    """Output of one op: a digest of everything it produced, and its check."""

    digest: str
    ok: bool
    detail: str = ""
    sweep_points: int = 0


def _main_quiet(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = belldyn.cli.main(argv)
    return code, out.getvalue()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _op_seed(seed: int, pass_index: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, pass_index, index]).generate_state(1)[0])


def _rounding(values: np.ndarray) -> np.ndarray:
    """Half a unit in the ninth significant digit: the CSV's print rounding."""
    mag = np.floor(np.log10(np.where(values != 0.0, np.abs(values), 1.0)))
    return np.where(values != 0.0, 0.5 * 10.0 ** (mag - 8), 0.0)


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


def parse_landmarks(text: str) -> list[tuple[str, str]]:
    pairs = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed landmark line {line!r}")
        pairs.append((key, value))
    return pairs


def check_sweep(csv_text: str, landmarks_txt: str, printed: str,
                reference: str) -> tuple[list[str], list[str]]:
    """(problems, tie-breaks) of one preset run's outputs; no problems means correct.

    A tie-break is an extremum that two reports place at different grid
    points attaining the same value; it is reported, not counted as a failure.
    """
    problems, tie_breaks = [], []
    header, rows = parse_csv(csv_text)
    if tuple(header) != SWEEP_COLUMNS:
        return [f"sweep.csv header {header}"], []
    col = {name: rows[:, i] for i, name in enumerate(header)}
    if rows.shape[0] < 2 or not np.all(np.isfinite(rows)):
        problems.append("sweep.csv has fewer than 2 rows or non-finite values")
    slack = 1e-9 + _rounding(col["I"]) + _rounding(col["Q"]) + _rounding(col["C"])
    if np.any(np.abs(col["I"] - col["Q"] - col["C"]) > slack):
        problems.append("I != Q + C")
    lams = np.stack([col[f"lambda{j}"] for j in range(1, 5)])
    if np.any(np.abs(lams.sum(axis=0) - 1.0) > 1e-9 + _rounding(lams).sum(axis=0)):
        problems.append("eigenvalues do not sum to 1")

    def q_at(x: float) -> float:
        hits = np.nonzero(col["x_over_lambda0"] == x)[0]
        return float(col["Q"][hits[0]]) if hits.size else math.nan

    def compare(got: list[tuple[str, str]], want: list[tuple[str, str]], what: str):
        if [k for k, _ in got] != [k for k, _ in want]:
            problems.append(f"{what}: keys {[k for k, _ in got]} != {[k for k, _ in want]}")
            return
        want_map = dict(want)
        for key, value in got:
            ref = float(want_map[key])
            if key in EXTREMUM_LOCATIONS:
                if EXTREMUM_LOCATIONS[key] not in want_map:
                    problems.append(f"{what}: {key} without {EXTREMUM_LOCATIONS[key]}")
                    continue
                target = float(want_map[EXTREMUM_LOCATIONS[key]])
                attained = q_at(float(value))
                if not abs(attained - target) <= LANDMARK_RTOL * max(1.0, abs(target)):
                    problems.append(f"{what}: Q({key} = {value}) = {attained} != {target}")
                elif value != want_map[key]:
                    tie_breaks.append(f"{what}: {key} {value} vs {want_map[key]}")
            elif not abs(float(value) - ref) <= LANDMARK_RTOL * max(1.0, abs(ref)):
                problems.append(f"{what}: {key} = {value}, expected {want_map[key]}")

    txt = parse_landmarks(landmarks_txt)
    compare(parse_landmarks(printed), txt, "printed vs landmarks.txt")
    compare(txt, parse_landmarks(reference), "landmarks.txt vs reference")
    return problems, tie_breaks


class Workload:
    """Base: subclasses build inputs in __init__, run one op, and check it."""

    name = ""
    #: directory the op writes, removed before each op
    out: Path | None = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def reset(self) -> None:
        """Untimed: remove the previous op's output directory."""
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)

    def op(self, pass_index: int, index: int):
        """The timed call; returns raw output for `finish`."""
        raise NotImplementedError

    def finish(self, pass_index: int, index: int, raw) -> Outcome:
        """Untimed: collect the op's output, digest it and check it."""
        raise NotImplementedError


class Sweep(Workload):
    """`belldyn run <preset>` then `belldyn landmarks <sweep.csv>`, presets in rotation."""

    name = "sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.offset = seed % len(PRESETS)
        self.references = {p: (REFERENCE_DIR / f"{p}.landmarks.txt").read_text() for p in PRESETS}
        self.out = self.workdir / "sweep-op"
        self.tie_breaks: list[str] = []
        #: measured revival start per preset, reported as is (criterion 5 misses it)
        self.q_revival_start: dict[str, float] = {}

    def preset(self, index: int) -> str:
        return PRESETS[(self.offset + index) % len(PRESETS)]

    def op(self, pass_index, index):
        code_run = belldyn.cli.main(["run", self.preset(index), "--out", str(self.out)])
        code_lm, printed = _main_quiet(["landmarks", str(self.out / "sweep.csv")])
        return code_run, code_lm, printed

    def finish(self, pass_index, index, raw):
        code_run, code_lm, printed = raw
        if code_run != 0 or code_lm != 0:
            return Outcome(_digest(printed.encode()), False, f"exit codes {code_run}, {code_lm}")
        csv_bytes = (self.out / "sweep.csv").read_bytes()
        lm_bytes = (self.out / "landmarks.txt").read_bytes()
        preset = self.preset(index)
        problems, notes = check_sweep(
            csv_bytes.decode(), lm_bytes.decode(), printed, self.references[preset])
        self.tie_breaks += [f"{preset}: {n}" for n in notes]
        start = dict(parse_landmarks(lm_bytes.decode())).get("q_revival_start_x")
        if start is not None:
            self.q_revival_start[preset] = float(start)
        return Outcome(
            _digest(csv_bytes, lm_bytes, printed.encode()),
            not problems,
            f"{preset}: " + "; ".join(problems) if problems else "",
            sweep_points=csv_bytes.count(b"\n") - 1,
        )


TOMO_CONFIG = """\
name = tomo-sweep
x_a = 117
filter_a = 3.0
x_b_max = {x_max}
step = {step}
tomo_counts = {counts}
tomo_resamples = {resamples}
tomo_seed = {seed}

[spectrum_b]
component = 0.37, 778.853, 0.85
component = 0.44, 780.160, 0.85
component = 0.19, 781.459, 0.85
"""


class TomoSweep(Workload):
    """One `belldyn run <config>` with a tomography block (bootstrap on every row)."""

    name = "tomo-sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = self.workdir / "tomo-sweep.cfg"
        self.config.write_text(TOMO_CONFIG.format(
            x_max=TOMO_SWEEP_STEP * (TOMO_SWEEP_ROWS - 1), step=TOMO_SWEEP_STEP,
            counts=TOMO_COUNTS, resamples=TOMO_SWEEP_RESAMPLES, seed=seed))
        self.out = self.workdir / "tomo-sweep-op"

    def op(self, pass_index, index):
        return belldyn.cli.main(["run", str(self.config), "--out", str(self.out),
                                 "--seed", str(_op_seed(self.seed, pass_index, index))])

    def finish(self, pass_index, index, raw):
        if raw != 0:
            return Outcome("", False, f"exit code {raw}")
        noisy = (self.out / "noisy.csv").read_bytes()
        sweep = (self.out / "sweep.csv").read_bytes()
        problems = check_noisy(noisy.decode(), sweep.decode())
        return Outcome(_digest(noisy, sweep), not problems, "; ".join(problems),
                       sweep_points=sweep.count(b"\n") - 1)


def check_noisy(noisy_text: str, sweep_text: str) -> list[str]:
    """Row count, finite values, and finite non-negative errors that are above
    zero wherever the true value (from sweep.csv) is off the 0 boundary.

    A value within a few standard deviations (about 0.003 at 1e4 counts) of 0
    can clip to 0 in every resample, so a zero error there is correct.
    """
    header, rows = parse_csv(noisy_text)
    expected = ["x_over_lambda0"] + [c for q in NOISY_QUANTITIES for c in (q, f"{q}_err")]
    if header != expected:
        return [f"noisy.csv header {header}"]
    if rows.shape[0] != TOMO_SWEEP_ROWS:
        return [f"noisy.csv has {rows.shape[0]} rows, expected {TOMO_SWEEP_ROWS}"]
    if not np.all(np.isfinite(rows)):
        return ["noisy.csv has non-finite values"]
    s_header, truth = parse_csv(sweep_text)
    if truth.shape[0] != TOMO_SWEEP_ROWS or not np.array_equal(truth[:, 0], rows[:, 0]):
        return ["sweep.csv and noisy.csv grids differ"]
    problems = []
    for q in NOISY_QUANTITIES:
        err = rows[:, header.index(f"{q}_err")]
        true = truth[:, s_header.index(q)]
        if np.any(err < 0.0) or np.any((err <= 0.0) & (true > NOISY_BOUNDARY)):
            problems.append(f"{q}_err {err.tolist()} at true {true.tolist()}")
    return problems


def dephased_state(kappa_a: complex, kappa_b: complex) -> np.ndarray:
    """The two-photon state with arm coherences kappa_a, kappa_b (canonical basis)."""
    ka, kb = complex(kappa_a), complex(kappa_b)
    kac, kbc = ka.conjugate(), kb.conjugate()
    return 0.25 * np.array(
        [[1.0, kbc, kac, -kac * kbc],
         [kb, 1.0, kac * kb, -kac],
         [ka, ka * kbc, 1.0, -kbc],
         [-ka * kb, -ka, -kb, 1.0]],
        dtype=complex,
    )


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = root @ sigma @ root
    e = np.clip(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), 0.0, None)
    return float(np.sum(np.sqrt(e)) ** 2)


class TomoPure(Workload):
    """`reconstruct(simulate_counts(rho, n, seed))` for near-pure and pure states."""

    name = "tomo-pure"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.min_fidelity = 1.0

    def state(self, pass_index: int, index: int) -> np.ndarray:
        if index == 0:
            return dephased_state(1.0, 1.0)
        rng = np.random.default_rng([self.seed, pass_index, index])
        ka, kb = rng.uniform(PURE_KAPPA_MIN, 1.0, 2) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 2))
        return dephased_state(ka, kb)

    def op(self, pass_index, index):
        record = belldyn.simulate_counts(self.state(pass_index, index), TOMO_COUNTS,
                                         _op_seed(self.seed, pass_index, index))
        return belldyn.reconstruct(record)

    def finish(self, pass_index, index, raw):
        rho_hat = np.asarray(raw, dtype=complex)
        digest = _digest(rho_hat.tobytes())
        if rho_hat.shape != (4, 4):
            return Outcome(digest, False, f"shape {rho_hat.shape}")
        problems = []
        if np.abs(rho_hat - rho_hat.conj().T).max() > 1e-9:
            problems.append("not Hermitian")
        if abs(np.trace(rho_hat) - 1.0) > 1e-9:
            problems.append(f"trace {np.trace(rho_hat)}")
        if np.linalg.eigvalsh(0.5 * (rho_hat + rho_hat.conj().T)).min() < -1e-9:
            problems.append("negative eigenvalue")
        fid = fidelity(self.state(pass_index, index), rho_hat)
        self.min_fidelity = min(self.min_fidelity, fid)
        if not fid >= FIDELITY_FLOOR:
            problems.append(f"fidelity {fid:.4f} < {FIDELITY_FLOOR}")
        return Outcome(digest, not problems, "; ".join(problems))


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def closed_forms(lam: np.ndarray) -> tuple[float, float, float]:
    """Q, C and REE of a sorted Bell-diagonal spectrum, in bits."""
    top, bottom = (lam[0] + lam[1]) / 2.0, (lam[2] + lam[3]) / 2.0
    s_chi = _entropy_bits(np.array([top, top, bottom, bottom]))
    q = max(s_chi - _entropy_bits(lam), 0.0)
    c = 2.0 - s_chi
    l1 = float(lam[0])
    ree = 0.0 if l1 <= 0.5 else max(1.0 - _entropy_bits(np.array([l1, 1.0 - l1])), 0.0)
    return q, c, ree


class Oracle(Workload):
    """The three brute-force oracles on one random Bell-diagonal state."""

    name = "oracle"

    def spectrum(self, pass_index: int, index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, pass_index, index])
        return np.sort(rng.dirichlet(np.ones(4)))[::-1]

    def op(self, pass_index, index):
        lam = self.spectrum(pass_index, index)
        rho = (BELL_KETS * lam) @ BELL_KETS.conj().T
        return (belldyn.oracle_quantum_correlation(rho),
                belldyn.oracle_classical_correlation(rho),
                belldyn.oracle_ree_bell(lam))

    def finish(self, pass_index, index, raw):
        got = tuple(float(v) for v in raw)
        want = closed_forms(self.spectrum(pass_index, index))
        problems = []
        for name, g, w in zip(("Q", "C", "REE"), got, want):
            if not abs(g - w) <= ORACLE_TOL or g - w < ORACLE_UNDERCUT:
                problems.append(f"{name} oracle {g:.6g} vs closed form {w:.6g}")
        return Outcome(_digest(repr(got).encode()), not problems, "; ".join(problems))


WORKLOADS = {cls.name: cls for cls in (Sweep, TomoSweep, TomoPure, Oracle)}
