"""Median and quartiles of each metric over a set of benchmark runs.

  python3 perfbench/summarize.py .perfbench_out/*-trace0.json > summary.json

Reads the per-run files that run.py writes and groups them by workload and
trace flag. Quartiles are statistics.quantiles(values, n=4); "spread" is
their distance as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths) -> dict:
    groups = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        prov = run["provenance"]
        groups[f"{prov['workload']}/trace{prov['trace']}"].append(run)
    out = {}
    for key, runs in sorted(groups.items()):
        first = runs[0]["provenance"]
        entry = {
            "runs": len(runs),
            "seeds": sorted(r["provenance"]["seed"] for r in runs),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "source_sha256": sorted({r["provenance"]["source_sha256"] for r in runs}),
            "git_commit": first.get("git_commit"),
            "versions": first.get("versions"),
            "nproc": first.get("nproc"),
            "metrics": {},
        }
        for name, metric in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            entry["metrics"][name] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out[key] = entry
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    sys.stdout.write("\n")
