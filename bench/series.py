#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise every metric.

    python3 bench/series.py --seeds 1 2 3 4 5 6 7 8 9 10 --output series.json

For each workload of BENCHMARK.json, at its run_seconds: one untraced run
per seed, one after another, and the median, quartiles and spread
((q3 - q1) / median, quartiles as `statistics.quantiles(values, n=4)` gives
them) of each end-to-end metric, plus attempted and failed counts; then one
traced run at the first seed for the per-layer metrics, including the
times that stay out of the JSON line.  The environment (CPU model, nproc, Python, numpy,
git SHA) is recorded with it.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--output", required=True)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    report = {
        "environment": {
            "cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha(),
        },
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        traced = run_once(workload, args.seeds[0], seconds, 1)
        with open(os.path.join(".bench_out", workload, "layers.json"), encoding="utf-8") as fh:
            layers = json.load(fh)
        metrics = {name: {"unit": runs[0]["metrics"][name]["unit"],
                          **summarise([r["metrics"][name]["value"] for r in runs])}
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": metrics,
            "per_layer": {"seed": args.seeds[0], "correct": traced["correct"], **layers},
        }
        for name, m in metrics.items():
            print(f"{workload:9s} {name:16s} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.3f}",
                  flush=True)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
