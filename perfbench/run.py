"""belldyn benchmark: one workload, measured end to end or traced layer by layer.

Usage, from the root of a checkout that holds belldyn's source under src/:

  python3 perfbench/run.py --workload <sweep|tomo-sweep|tomo-pure|oracle> \\
      --seed <n> --seconds <s> --trace <0|1>

Every run starts fresh worker processes (perfbench/worker.py), one client each
in a closed loop, with the BLAS thread cap in their environment. With
--trace 0 it times set-up in several fresh processes, then measures whole
passes of ops for --seconds and prints the end-to-end metrics of
BENCHMARK.json. With --trace 1 it runs the same passes untraced and then
traced, and prints the per-layer metrics. The last stdout line is the result
object; the line before it holds the run's provenance. Full results and the
spans land in .perfbench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh set-up processes per run, besides the measuring one; setup_s is
#: the median of all of them
SETUP_PROBES = 4
IMPORT_PROBES = 3
BLAS_THREAD_CAP = 1
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_VARIABLES:
        env[name] = str(min(BLAS_THREAD_CAP, os.cpu_count() or 1))
    return env


def start_worker(args, mode: str, workdir: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    try:
        ready = json.loads(line).get("event") == "ready"
    except ValueError:
        ready = False
    if not ready:
        finish_worker(proc)
        raise BenchError(f"{mode} worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen) -> dict | None:
    """Wait for the worker and return its result line, if it printed one."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def outermost_cumulative_s(importtime: str, prefix: str) -> float:
    """Summed cumulative import time of the outermost modules named prefix or prefix.*"""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total = 0
    stack: list[tuple[int, bool]] = []  # (level, this entry or an ancestor matches)
    # children are printed before their parent, so walk backwards from the roots
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        matches = name == prefix or name.startswith(prefix + ".")
        if matches and not inside:
            total += cumulative
        stack.append((level, inside or matches))
    return total / 1e6


def import_times() -> dict[str, float]:
    """Median over fresh interpreters of `python -X importtime -c "import belldyn.cli"`."""
    samples = {"numpy": [], "scipy": [], "belldyn": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import belldyn.cli"],
                              capture_output=True, text=True, env=worker_env(), cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S, check=True)
        for prefix, values in samples.items():
            values.append(outermost_cumulative_s(proc.stderr, prefix))
    return {f"setup.import_{k}_s": statistics.median(v) for k, v in samples.items()}


def scaled_latencies(latencies: list[list[float]], log: dict) -> list[list[float]]:
    """Latencies [pass][op] scaled to the reference host speed.

    `log` is the worker's SpeedLog, whose op start times are in the same
    order as the nested latencies.
    """
    factors = iter(speed.scales(log).tolist())
    return [[lat * next(factors) for lat in ops] for ops in latencies]


def pass_percentile(latencies: list[list[float]], q: float) -> float:
    """Median over passes of each pass's q-th latency percentile, in ms."""
    return 1e3 * statistics.median(float(np.percentile(lat, q)) for lat in latencies)


def ops_per_s(latencies: list[list[float]]) -> float:
    flat = [x for lat in latencies for x in lat]
    return len(flat) / sum(flat)


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics, timings scaled to the reference host speed.

    Each op is scaled by the kernel timings nearest to it. The set-ups are
    scaled together, by the kernel's median over the run: one set-up is too
    short to pair with a kernel timing (host speed also flips within a
    second), but a slow period that spans the run slows them all.
    """
    scaled = scaled_latencies(result["latencies"], result["speed"])
    return {
        "setup_s": statistics.median(setups) * speed.run_scale(result["speed"]),
        "ops_per_s": ops_per_s(scaled),
        "op_p50_ms": pass_percentile(scaled, 50),
        "op_p90_ms": pass_percentile(scaled, 90),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1.0 - result["failed"] / result["attempted"],
    }


def wall_clock(result: dict, setups: list[float]) -> dict[str, float]:
    """The timing metrics in unscaled wall time; reported in the provenance."""
    wall = result["latencies"]
    return {"setup_s": statistics.median(setups), "ops_per_s": ops_per_s(wall),
            "op_p50_ms": pass_percentile(wall, 50), "op_p90_ms": pass_percentile(wall, 90)}


def host_speed(log: dict) -> dict[str, float]:
    """The kernel's median, lowest and highest time over the run, as a share of REFERENCE_S."""
    took = np.asarray(log["took"]) / speed.REFERENCE_S
    return {"median": float(np.median(took)), "min": float(took.min()), "max": float(took.max()),
            "samples": int(took.size)}


def per_layer(result: dict, imports: dict[str, float]) -> dict[str, float]:
    traced = result["traced"]
    ops = traced["attempted"]
    values = dict(imports)
    for name, (calls, self_s) in result["layers"].items():
        values[f"{name}.calls"] = calls / ops
        values[f"{name}.self_s"] = self_s / ops
    for name, total in result["counters"].items():
        values[name] = total / ops
    points = traced["sweep_points"]
    values["qstate.validate_bell_spectrum.per_point"] = (
        values.get("qstate.validate_bell_spectrum.calls", 0.0) * ops / points if points else 0.0)
    # the untraced passes ran the same ops
    values["trace.overhead_ratio"] = (
        ops_per_s(scaled_latencies(traced["latencies"], traced["speed"]))
        / ops_per_s(scaled_latencies(result["latencies"], result["speed"])))
    values["trace.spans_per_op"] = result["spans"] / ops
    attempted = result["attempted"] + traced["attempted"]
    values["fail_ratio"] = (result["failed"] + traced["failed"]) / attempted
    return values


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "belldyn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run(args) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (result object, provenance)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "belldyn" / "__init__.py").is_file():
        raise BenchError(f"no belldyn source under {SRC}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_thread_cap": min(BLAS_THREAD_CAP, os.cpu_count() or 1),
        "loadavg_start": os.getloadavg(),
    }
    if args.trace:
        imports = import_times()
        proc, setup = start_worker(args, "trace", workdir)
        setups = [setup]
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, setup = start_worker(args, "probe", workdir)
            finish_worker(probe)
            setups.append(setup)
        proc, setup = start_worker(args, "measure", workdir)
        setups.append(setup)
    result = finish_worker(proc)
    if result is None or result.get("event") != "result":
        raise BenchError("worker printed no result")
    provenance["loadavg_end"] = os.getloadavg()
    provenance.update(
        versions=result["versions"], ops_per_pass=result["ops_per_pass"],
        passes=len(result["latencies"]),
        percentile_samples=result["ops_per_pass"], setup_samples_s=setups,
        host_speed=host_speed(result["speed"]),
        failures=result["failures"],
    )
    for key in ("landmark_tie_breaks", "q_revival_start_x", "min_fidelity"):
        if key in result:
            provenance[key] = result[key]
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and result["warmup_ok"]
    if args.trace:
        values = per_layer(result, imports)
        metrics = spec["per_layer"]
        provenance.update(absent_layers=result["absent"], trace_mismatches=result["trace_mismatches"],
                          traced_failures=result["traced"]["failures"],
                          spans_file=str((workdir / "spans.npz").relative_to(ROOT)))
        attempted += result["traced"]["attempted"]
        failed += result["traced"]["failed"]
        correct = correct and failed == 0 and result["trace_mismatches"] == 0
    else:
        values = end_to_end(result, setups)
        metrics = spec["end_to_end"]
        provenance["wall_clock"] = wall_clock(result, setups)
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing and not args.trace:
        raise BenchError(f"metrics not computed: {missing}")
    # a traced layer whose function no longer exists reads 0 and is listed as absent
    provenance["absent_metrics"] = missing
    out = {
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in metrics},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"result": out, "provenance": provenance, "latencies": result["latencies"],
         "speed": result["speed"]}, indent=1))
    return out, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out, provenance = run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
