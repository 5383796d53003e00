"""Tests of the benchmark itself: run with `python -m pytest perfbench/tests`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import belldyn  # noqa: E402
import belldyn.dephasing  # noqa: E402
import belldyn.qstate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = 2


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path):
    return workloads.WORKLOADS[request.param](7, tmp_path)


def test_each_workload_passes_its_checks_at_tiny_size(workload):
    result = worker.summarize([worker.run_pass(workload, 0, ops=TINY)])
    assert result["attempted"] == TINY
    assert result["failures"] == [] and result["failed"] == 0
    latencies = result["latencies"]
    assert len(latencies[0]) == TINY and all(t > 0.0 for t in latencies[0])


def test_traced_outputs_are_byte_identical_and_self_times_fit_in_ops(workload):
    _, untraced = worker.run_pass(workload, 0, ops=TINY)
    passes, trace = worker.traced_phase(workload, 1, None, ops=TINY)
    (traced_latencies, traced), = passes
    assert [o.digest for o in traced] == [o.digest for o in untraced]
    assert all(o.ok for o in traced)

    cols = trace.arrays()
    assert len(set(cols["op"].tolist())) == TINY
    is_op = cols["name"] == 0
    for op_id in range(TINY):
        mine = cols["op"] == op_id
        layer_self = cols["self"][mine & ~is_op].sum()
        op_span = (cols["end"] - cols["start"])[mine & is_op]
        assert op_span.size == 1
        assert (cols["self"] >= -1e-9).all()
        assert layer_self <= traced_latencies[op_id]
    assert trace._patches == []


def test_tracer_patches_every_module_that_looks_a_name_up_and_restores_it():
    original = belldyn.qstate.eigenvalues_sorted
    assert belldyn.dephasing.eigenvalues_sorted is original
    trace = tracer.Tracer()
    trace.install()
    try:
        wrapped = belldyn.dephasing.eigenvalues_sorted
        assert wrapped is not original
        assert belldyn.qstate.eigenvalues_sorted is wrapped
        assert belldyn.eigenvalues_sorted is wrapped
        wrapped(np.eye(4) / 4.0)
    finally:
        trace.uninstall()
    assert belldyn.dephasing.eigenvalues_sorted is original
    assert belldyn.qstate.eigenvalues_sorted is original
    assert trace.layer_totals()["qstate.eigenvalues_sorted"][0] == 1


def test_self_times_are_scaled_per_op():
    trace = tracer.Tracer()
    trace.install()
    try:
        for op_id in (7, 3):
            trace.begin_op(op_id)
            belldyn.qstate.eigenvalues_sorted(np.eye(4) / 4.0)
            trace.end_op()
    finally:
        trace.uninstall()
    assert trace.op_ids == [7, 3]
    cols = trace.arrays()
    wall = cols["self"][cols["name"] == trace.names.index("qstate.eigenvalues_sorted")]
    calls, scaled = trace.layer_totals([0.5, 2.0])["qstate.eigenvalues_sorted"]
    assert calls == 2
    assert scaled == pytest.approx(0.5 * wall[0] + 2.0 * wall[1])


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    targets = dict(tracer.TARGETS)
    targets["cli.gone"] = ("belldyn.cli", ("gone_function",))
    targets["dephasing.gone_method"] = ("belldyn.dephasing", ("NoSuchClass.kappa",))
    targets["nomodule.f"] = ("belldyn.no_such_module", ("f",))
    monkeypatch.setattr(tracer, "TARGETS", targets)
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    assert {"cli.gone", "dephasing.gone_method", "nomodule.f"}.isdisjoint(trace.present)
    assert "cli.run" in trace.present


def _traced_result(workload_obj):
    log, traced_log = speed.SpeedLog(), speed.SpeedLog()
    untraced = [worker.run_pass(workload_obj, 0, ops=TINY, speed=log)]
    traced, trace = worker.traced_phase(workload_obj, 1, None, ops=TINY, speed=traced_log)
    result = worker.summarize(untraced)
    result["speed"] = log.as_lists()
    result["traced"] = worker.summarize(traced)
    result["traced"]["speed"] = traced_log.as_lists()
    result["layers"] = {k: list(v) for k, v in trace.layer_totals().items()}
    result["counters"] = trace.counters
    result["spans"] = len(trace.start)
    return result


def test_every_listed_metric_is_computed(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _traced_result(workloads.Sweep(0, tmp_path))
    values = run.per_layer(result, {f"setup.import_{k}_s": 0.1 for k in ("numpy", "scipy", "belldyn")})
    assert sorted(m["name"] for m in spec["per_layer"] if m["name"] not in values) == []
    assert values["dephasing.sweep.calls"] == 1.0
    assert values["qstate.validate_bell_spectrum.per_point"] > 0.0
    assert values["cli.write_sweep_csv.bytes"] > 0.0
    assert values["tomography.reconstruct.calls"] == 0.0

    lat = [[0.1, 0.2, 0.3], [0.2, 0.1, 0.4]]
    log = {"at": [0.0], "took": [speed.REFERENCE_S], "op_at": [0.1 * i for i in range(6)]}
    e2e = run.end_to_end({"latencies": lat, "speed": log, "peak_rss_mb": 80.0, "failed": 0,
                          "attempted": 6}, [1.0, 2.0, 3.0])
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v != 0.0 for v in e2e.values())


def test_latencies_are_scaled_by_the_kernel_time_nearest_each_op():
    # the host runs at the reference speed for 10 s, then at half of it
    at = [float(t) for t in range(20)]
    took = [speed.REFERENCE_S] * 10 + [2.0 * speed.REFERENCE_S] * 10
    log = {"at": at, "took": took, "op_at": [1.5, 3.2, 15.0, 18.7]}
    assert speed.scales(log).tolist() == [1.0, 1.0, 0.5, 0.5]
    lat = [[0.1, 0.2], [0.4, 0.6]]
    assert run.scaled_latencies(lat, log) == [[0.1, 0.2], [0.2, 0.3]]
    assert speed.run_scale(log) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        speed.scales({"at": [], "took": [], "op_at": [1.0]})


def test_the_worker_times_the_kernel_between_ops(tmp_path):
    log = speed.SpeedLog()
    latencies, _ = worker.run_pass(workloads.TomoPure(7, tmp_path), 0, ops=TINY, speed=log)
    assert len(log.op_at) == TINY and len(log.at) >= 1
    assert log.at[0] < log.op_at[0]
    assert all(t > 0.0 for t in log.took)


def test_tomography_counters(tmp_path):
    result = _traced_result(workloads.TomoSweep(0, tmp_path))
    values = run.per_layer(result, {})
    assert values["tomography.error_bars.resamples"] == (
        workloads.TOMO_SWEEP_ROWS * workloads.TOMO_SWEEP_RESAMPLES)
    assert values["tomography.minimize.iters"] > 0.0
    # one record per simulated row and per resample, each reconstructed once
    assert values["tomography.TomographyRecord.calls"] == values["tomography.reconstruct.calls"]


@pytest.fixture(scope="module")
def fig2a_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2a")
    assert belldyn.cli.main(["run", "fig2a", "--out", str(out)]) == 0
    csv_text = (out / "sweep.csv").read_text()
    txt = (out / "landmarks.txt").read_text()
    reference = (workloads.REFERENCE_DIR / "fig2a.landmarks.txt").read_text()
    return out, csv_text, txt, reference


def _problems(*args):
    return workloads.check_sweep(*args)[0]


def test_sweep_check_accepts_the_seed_outputs(fig2a_outputs):
    _, csv_text, txt, reference = fig2a_outputs
    assert _problems(csv_text, txt, txt, reference) == []


def _replace_column(csv_text: str, column: str, row: int, value: str) -> str:
    lines = csv_text.splitlines()
    j = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[j] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("column, row, value", [("Q", 100, "0.5"), ("lambda2", 5, "0.3"),
                                                ("C", 0, "1.00001")])
def test_sweep_check_catches_a_corrupted_csv(fig2a_outputs, column, row, value):
    _, csv_text, txt, reference = fig2a_outputs
    bad = _replace_column(csv_text, column, row, value)
    assert _problems(bad, txt, txt, reference) != []


def test_sweep_check_catches_a_corrupted_landmark(fig2a_outputs):
    _, csv_text, txt, reference = fig2a_outputs
    bad = txt.replace("ree_death_x = 188.457657", "ree_death_x = 188.457957")
    assert bad != txt
    assert _problems(csv_text, txt, bad, reference) != []  # printed differs from landmarks.txt
    assert _problems(csv_text, bad, bad, reference) != []  # both differ from the reference
    moved_peak = txt.replace("q_revival_peak_x = 546", "q_revival_peak_x = 544")
    assert moved_peak != txt
    assert _problems(csv_text, moved_peak, moved_peak, reference) != []
    dropped = "".join(ln + "\n" for ln in txt.splitlines() if not ln.startswith("q_dip ="))
    assert _problems(csv_text, dropped, dropped, reference) != []


def test_sweep_check_passes_a_last_digit_rewrite(fig2a_outputs, tmp_path):
    """Moving every value by up to 1e-9 relative, more than a 1e-12 rewrite can
    move the nine printed digits, keeps the outputs within tolerance."""
    _, csv_text, _, reference = fig2a_outputs
    header, rows = workloads.parse_csv(csv_text)
    rng = np.random.default_rng(5)
    rows[:, 1:] *= 1.0 + 1e-9 * rng.choice([-1.0, 1.0], size=rows[:, 1:].shape)
    lines = [",".join(header)] + [",".join(f"{v:.9g}" for v in row) for row in rows]
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    code, printed = workloads._main_quiet(["landmarks", str(path)])
    assert code == 0
    assert _problems(path.read_text(), printed, printed, reference) == []


def test_noisy_check_requires_positive_errors_off_the_boundary(tmp_path):
    w = workloads.TomoSweep(3, tmp_path)
    w.reset()
    assert w.op(0, 0) == 0
    noisy = (w.out / "noisy.csv").read_text()
    sweep = (w.out / "sweep.csv").read_text()
    assert workloads.check_noisy(noisy, sweep) == []
    lines = noisy.splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index("Q_err")] = "0"
    lines[2] = ",".join(cells)
    assert workloads.check_noisy("\n".join(lines) + "\n", sweep) != []
    assert workloads.check_noisy("\n".join(lines[:-1]) + "\n", sweep) != []


def test_oracle_closed_forms_match_the_library():
    rng = np.random.default_rng(3)
    for _ in range(5):
        lam = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        q, c, ree = workloads.closed_forms(lam)
        assert q == pytest.approx(belldyn.quantum_correlation_bell(lam), abs=1e-12)
        assert c == pytest.approx(belldyn.classical_correlation_bell(lam), abs=1e-12)
        assert ree == pytest.approx(belldyn.ree_bell(lam), abs=1e-12)


def test_dephased_state_matches_the_library():
    ka, kb = 0.97 * np.exp(0.4j), 0.96 * np.exp(-2.1j)
    assert np.allclose(workloads.dephased_state(ka, kb), belldyn.evolve_state(ka, kb), atol=0)


def test_importtime_parser_counts_outermost_entries_only():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |       scipy._lib",
        "import time:        40 |         45 |     scipy",
        "import time:        50 |         95 |   scipy.optimize",
        "import time:         1 |        126 | belldyn",
    ])
    assert run.outermost_cumulative_s(sample, "numpy") == pytest.approx(30e-6)
    assert run.outermost_cumulative_s(sample, "scipy") == pytest.approx(95e-6)
    assert run.outermost_cumulative_s(sample, "belldyn") == pytest.approx(126e-6)


def test_run_prints_the_result_object(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tomo-pure", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == workloads.OPS_PER_PASS
    assert all(m["value"] > 0.0 for m in last["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_an_op_that_fails_its_check_counts_as_failed():
    ok, bad = workloads.Outcome("a", True), workloads.Outcome("b", False, "wrong value")
    result = worker.summarize([([0.2, 0.1], [ok, bad]), ([0.1], [ok])])
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["failures"] == ["wrong value"]
    assert result["latencies"] == [[0.2, 0.1], [0.1]]


def test_plateau_tie_breaks_are_reported_not_failed(tmp_path):
    assert belldyn.cli.main(["run", "fig2b", "--out", str(tmp_path)]) == 0
    code, printed = workloads._main_quiet(["landmarks", str(tmp_path / "sweep.csv")])
    assert code == 0
    reference = (workloads.REFERENCE_DIR / "fig2b.landmarks.txt").read_text()
    problems, tie_breaks = workloads.check_sweep(
        (tmp_path / "sweep.csv").read_text(), (tmp_path / "landmarks.txt").read_text(),
        printed, reference)
    assert problems == []
    assert tie_breaks == ["printed vs landmarks.txt: q_revival_peak_x 478 vs 572"]
