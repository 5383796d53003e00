"""One workload process: set up, run a closed loop of ops, report as JSON lines.

Started by run.py with belldyn's source on PYTHONPATH and the BLAS thread
cap in its environment. It prints {"event": "ready"} once imports, inputs and
one untimed warm-up op are done, so the parent can time set-up from process
start, then a single {"event": "result", ...} line.

A pass is a fixed sequence of OPS_PER_PASS ops. Between ops the worker
times speed.py's fixed kernel every speed.CAL_INTERVAL_S (untimed for the
ops), so run.py can scale each op to the reference host speed.

Modes:
  probe    set up, report ready, exit (a set-up time sample)
  measure  set up, then whole passes until --seconds would be exceeded
  trace    as measure for half the time, then the same passes again with
           every layer wrapped in spans; outputs must match
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from speed import SpeedLog, kernel, scales
from tracer import TARGETS, Tracer
from workloads import OPS_PER_PASS, WORKLOADS, Outcome

PROTOCOL = sys.stdout
#: warm-up op address, never used by a timed pass
WARMUP_PASS = 999_999
MAX_DETAILS = 5


def emit(**payload) -> None:
    PROTOCOL.write(json.dumps(payload) + "\n")
    PROTOCOL.flush()


def run_pass(workload, pass_index: int, tracer=None, ops: int | None = None,
             speed: SpeedLog | None = None):
    """Run one pass; returns (latencies, outcomes). Checks are untimed.

    With `speed`, the kernel is timed between ops and each op's start is logged.
    """
    latencies, outcomes = [], []
    for index in range(OPS_PER_PASS if ops is None else ops):
        workload.reset()
        if speed is not None:
            speed.maybe_sample()
        error = None
        if tracer is not None:
            tracer.begin_op(pass_index * OPS_PER_PASS + index)
        start = time.perf_counter()
        try:
            raw = workload.op(pass_index, index)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if speed is not None:
            speed.op_at.append(start)
        if error is None:
            try:
                outcome = workload.finish(pass_index, index, raw)
            except Exception as exc:
                outcome = Outcome("", False, f"check raised {exc!r}")
                traceback.print_exc()
        else:
            outcome = Outcome("", False, f"op raised {error!r}")
            traceback.print_exception(error)
        latencies.append(elapsed)
        outcomes.append(outcome)
    return latencies, outcomes


def run_passes(workload, seconds: float, speed: SpeedLog, ops: int | None = None):
    """Whole passes until starting another would run past `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(workload, len(passes), ops=ops, speed=speed))
        last = time.perf_counter() - pass_start
        if time.perf_counter() - start + last > seconds:
            speed.sample()  # so the last ops have timings on both sides
            return passes


def summarize(passes) -> dict:
    """Latencies as [pass][op], and the ops that failed their check."""
    failed, attempted, details, points = 0, 0, [], 0
    for _, outcomes in passes:
        points += sum(o.sweep_points for o in outcomes)
        for o in outcomes:
            attempted += 1
            if not o.ok:
                failed += 1
                if len(details) < MAX_DETAILS:
                    details.append(o.detail)
    return {
        "latencies": [latencies for latencies, _ in passes],
        "attempted": attempted,
        "failed": failed,
        "failures": details,
        "sweep_points": points,
    }


def workload_notes(workload) -> dict:
    notes = {}
    if hasattr(workload, "tie_breaks"):
        notes["landmark_tie_breaks"] = sorted(set(workload.tie_breaks))
        notes["q_revival_start_x"] = workload.q_revival_start
    if hasattr(workload, "min_fidelity"):
        notes["min_fidelity"] = workload.min_fidelity
    return notes


def traced_phase(workload, n_passes: int, spans_path: Path | None, ops: int | None = None,
                 speed: SpeedLog | None = None):
    """Replay passes 0..n_passes-1 with every layer wrapped.

    Returns (passes, tracer), passes nested as run_passes returns them.
    """
    tracer = Tracer()
    tracer.install()
    try:
        passes = [run_pass(workload, p, tracer, ops=ops, speed=speed) for p in range(n_passes)]
        if speed is not None:
            speed.sample()
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write(spans_path)
    return passes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.reset()
    warm = workload.finish(WARMUP_PASS, 0, workload.op(WARMUP_PASS, 0))
    emit(event="ready")
    if args.mode == "probe":
        return 0
    for _ in range(3):  # warm the kernel up
        kernel()
    speed = SpeedLog()

    result = {
        "event": "result",
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "ops_per_pass": OPS_PER_PASS,
        "warmup_ok": warm.ok,
    }
    budget = args.seconds if args.mode == "measure" else args.seconds / 2.0
    untraced = run_passes(workload, budget, speed)
    result.update(summarize(untraced))
    result["speed"] = speed.as_lists()
    if args.mode == "trace":
        traced_speed = SpeedLog()
        traced, tracer = traced_phase(workload, len(untraced), workdir / "spans.npz",
                                      speed=traced_speed)
        digests = [o.digest for _, outcomes in untraced for o in outcomes]
        traced_digests = [o.digest for _, outcomes in traced for o in outcomes]
        result["traced"] = summarize(traced)
        result["traced"]["speed"] = traced_speed.as_lists()
        result["trace_mismatches"] = sum(a != b for a, b in zip(digests, traced_digests))
        # self times scaled to the reference host speed, as the op times are
        op_scale = scales(result["traced"]["speed"])
        result["layers"] = {name: list(v) for name, v in tracer.layer_totals(op_scale).items()}
        result["absent"] = sorted(set(TARGETS) - tracer.present)
        result["counters"] = tracer.counters
        result["spans"] = len(tracer.start)
    result.update(workload_notes(workload))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.reset()
    emit(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
