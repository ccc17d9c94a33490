#!/usr/bin/env python3
"""qspeedup benchmark: one workload per invocation, run from a checkout root.

    python3 bench/run.py --workload survey --seed 1 --seconds 40 --trace 0

With --trace 0 it sets the workload up seven times (median reported as
setup_s), repeats the workload's fixed pass until --seconds would be
exceeded (always at least one pass, two for survey and points), checks
every output after the timing and prints the end-to-end metrics.  Times are
taken part by part (a figure, a check pass, a request), each at the
reference host speed of `hostspeed`, and each part counts with its median
over the passes.  With --trace 1 it runs one untraced and one traced pass
and prints the per-layer metrics instead (all of them also go to
.bench_out/<workload>/layers.json).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads
from hostspeed import HostSpeed

SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qspeedup; "
                "print(time.perf_counter() - t)")


def load_program():
    """Import qspeedup from the checkout's src/, and from nowhere else."""
    root = pathlib.Path.cwd()
    init = root / "src" / "qspeedup" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a "
                         "qspeedup checkout")
    sys.path.insert(0, str(root / "src"))
    import qspeedup
    for module in ("checks", "cli"):  # not imported by the package itself
        importlib.import_module(f"qspeedup.{module}")
    if pathlib.Path(qspeedup.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported qspeedup from {qspeedup.__file__}")
    return qspeedup


def fresh_import_seconds(env) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def tail_latency(samples: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it (max below 11)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return f"max of {n}", ordered[-1]
    return f"p{100.0 * (n - 10) / n:.4g} of {n}", ordered[n - 11]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(setup_times, passes, rss_mb, requests: bool):
    """Metrics of the untraced passes.  Every pass does the same work, so
    one pass is the sum over its parts of each part's median time over the
    passes, at the reference host speed.  A request workload's parts are its
    requests."""
    per_part = [statistics.median(times) for times in zip(*(p.reference_parts for p in passes))]
    wall = sum(per_part)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (passes[0].ops / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": (f"{len(per_part)} parts, each the median of {len(passes)} passes; "
                   f"as measured, median pass {statistics.median(p.seconds for p in passes):.6g} s "
                   f"at host speed {statistics.median(s for p in passes for s in p.speeds):.3g}"),
        "ops_per_s": f"{passes[0].ops} operations a pass",
    }
    if requests:
        latencies = [t for p in passes for t in p.reference_parts]
        tail_label, tail = tail_latency(latencies)
        metrics["latency_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
        metrics["latency_tail_ms"] = (1e3 * tail, "ms")
        notes["latency_p50_ms"] = f"median of {len(latencies)} requests"
        notes["latency_tail_ms"] = tail_label
    return metrics, notes


def per_layer(stats, import_times, overhead):
    """Layer metrics of the traced pass.  The first dict holds every metric
    the JSON line carries; the second the times of layers that only some
    workloads reach, which are printed but kept out of the JSON line."""
    c, ms = "count", "ms"
    rs, bs, pr, ep = ("spectral.reservoir_integral", "bound_state.find_bound_state",
                      "dynamics.population_rate", "dynamics.excited_population")
    segs, simpson = "quadrature.adaptive_simpson_segments", "quadrature.adaptive_simpson"
    ev, mono = "measures.evaluate_point", "measures.monotone_segments"
    fcc, oracle = "sweep.find_critical_coupling", "oracle.solve_collective"
    svg, main = "svg.render_figure", "cli.main"
    m = {
        f"{rs}.calls": (stats.calls(rs), c),
        f"{rs}.energies": (stats.count(rs), c),
        f"{rs}.self_ms": (stats.self_ms(rs), ms),
        f"{bs}.calls": (stats.calls(bs), c),
        f"{bs}.self_ms": (stats.self_ms(bs), ms),
        f"{bs}.iterations_mean": (stats.mean_count(bs, ok_only=True), c),
        f"{bs}.underflow": (stats.raised(bs), c),
        f"{pr}.calls": (stats.calls(pr), c),
        f"{pr}.samples": (stats.count(pr), c),
        f"{pr}.self_ms": (stats.self_ms(pr), ms),
        f"{ep}.calls": (stats.calls(ep), c),
        f"{ep}.samples": (stats.count(ep), c),
        f"{ep}.self_ms": (stats.self_ms(ep), ms),
        f"{segs}.calls": (stats.calls(segs), c),
        f"{segs}.segments": (stats.count(segs), c),
        f"{simpson}.calls": (stats.calls(simpson), c),
        f"{ev}.calls": (stats.calls(ev), c),
        f"{ev}.total_ms": (stats.total_ms(ev), ms),
        f"{ev}.self_ms": (stats.self_ms(ev), ms),
        f"{mono}.calls": (stats.calls(mono), c),
        f"{mono}.segments_mean": (stats.mean_count(mono), c),
        f"{mono}.self_ms": (stats.self_ms(mono), ms),
        "sweep.run_sweep.calls": (stats.calls("sweep.run_sweep"), c),
        f"{fcc}.calls": (stats.calls(fcc), c),
        f"{fcc}.evaluations": (stats.nested_calls(fcc, ev), c),
        f"{oracle}.calls": (stats.calls(oracle), c),
        f"{oracle}.steps": (stats.count(oracle), c),
        f"{svg}.calls": (stats.calls(svg), c),
        f"{svg}.bytes": (stats.count(svg), c),
        f"{main}.calls": (stats.calls(main), c),
        f"{main}.bytes_written": (stats.count(main), c),
        "cli.import_ms": (1e3 * statistics.median(import_times), ms),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    partial = {
        f"{segs}.self_ms": (stats.self_ms(segs), ms),
        f"{simpson}.self_ms": (stats.self_ms(simpson), ms),
        **{f"sweep.run_sweep.fig{k}_ms": (stats.nested_total_ms(f"bench.fig{k}",
                                                                "sweep.run_sweep"), ms)
           for k in workloads.Survey.FIGURES},
        f"{fcc}.total_ms": (stats.total_ms(fcc), ms),
        f"{oracle}.total_ms": (stats.total_ms(oracle), ms),
        **{f"{name}.ms": (stats.total_ms(name), ms)
           for name in stats.tracer.names if name.startswith("checks.")},
        f"{svg}.self_ms": (stats.self_ms(svg), ms),
        f"{main}.self_ms": (stats.self_ms(main), ms),
    }
    return m, partial


def print_metrics(metrics, notes=None, prefix=""):
    notes = notes or {}
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{prefix}{name:<{width}}  {value:.6g} {unit}{note}")


def pin_to_one_cpu() -> None:
    """Keep the benchmark, its host-speed probes and its child processes on
    one CPU: the two vCPUs of a shared host can differ in speed, and a child
    that lands on the other one escapes the probes."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args) -> dict:
    pin_to_one_cpu()
    lib = load_program()
    workdir = pathlib.Path.cwd() / ".bench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = workloads.child_env()

    host = HostSpeed()
    setup_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_times.append(fresh_import_seconds(env))
        workload = workloads.WORKLOADS[args.workload](lib, args.seed, str(workdir))
        setup_times.append((time.perf_counter() - start) * host.mark())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {sys.version.split()[0]}")
    if args.trace:
        plain = workload.run_pass("plain", host)
        tracer = spans.Tracer()
        with tracer:
            traced = workload.run_pass("traced", host, tracer)
        verdict = workload.check([plain, traced])
        tracer.write(workdir / "spans.tsv.gz")
        metrics, partial = per_layer(spans.LayerStats(tracer), import_times,
                                     sum(traced.reference_parts) / sum(plain.reference_parts))
        with open(workdir / "layers.json", "w", encoding="utf-8") as fh:
            json.dump({"absent": tracer.absent,
                       **{name: value for name, (value, _) in {**metrics, **partial}.items()}},
                      fh, indent=1)
        print_metrics(metrics)
        print_metrics(partial, prefix="(not in JSON) ")
        if tracer.absent:
            print("absent functions: " + ", ".join(tracer.absent))
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(workload.run_pass(f"pass{len(passes)}", host))
            elapsed = time.perf_counter() - start
            if (len(passes) >= workload.min_passes and elapsed
                    + statistics.median(p.seconds for p in passes) > args.seconds):
                break
        rss = peak_rss_mb(children=args.workload == "cli")
        verdict = workload.check(passes)
        metrics, notes = end_to_end(setup_times, passes, rss, workload.requests)
        print_metrics(metrics, notes)
        print("passes (s as measured / host speed): "
              + " ".join(f"{p.seconds:.4g}/{statistics.median(p.speeds):.3g}" for p in passes))

    print(f"error_rate {verdict.failed / verdict.attempted:.6g} "
          f"({verdict.failed} of {verdict.attempted} failed, "
          f"{verdict.unexpected} not explained by a known defect)")
    for note in verdict.notes[:20]:
        print("note: " + note)
    return {
        "correct": verdict.unexpected == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0 or not math.isfinite(args.seconds):
        ap.error("--seed must be >= 0 and --seconds a positive number")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
