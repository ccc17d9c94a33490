"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Every workload is one closed-loop caller in one process, one operation at a
time.  A workload object is built in the set-up phase (inputs, references,
warm-up), `run_pass` performs one fixed unit of work and times it part by
part, with the host's speed around each part (see `hostspeed`), and `check`
judges every output of every pass after the timing is over.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import reference
from hostspeed import HostSpeed
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
POINT_QUERIES = 2000
CLI_GROUPS = 4
DYNAMICS_STEPS = 4096
BOUND_RESIDUAL_TOL = 1e-10
PROBE_FLOOR = -1e-16  # the bound-state solver's documented probe floor
CHILD_TIMEOUT_S = 120


@dataclass
class Pass:
    parts: list[float]         # wall times of its parts, the same parts every pass
    speeds: list[float]        # host speed around each part
    ops: int                   # operations completed
    outputs: object = None     # kept for the checks

    @property
    def seconds(self) -> float:
        return sum(self.parts)

    @property
    def reference_parts(self) -> list[float]:
        """The parts' times at the reference host speed."""
        return [t * s for t, s in zip(self.parts, self.speeds)]


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    unexpected: int = 0        # failures no known defect explains
    notes: list[str] = field(default_factory=list)


def clear_caches(lib) -> None:
    """Drop the library's per-point memo caches, where it still has them."""
    clear = getattr(lib.measures, "clear_caches", None)
    if clear is not None:
        clear()


def warm_up(lib) -> None:
    params = lib.ModelParams(gamma0=1.0, n_atoms=2)
    lib.measures.evaluate_point(params, 1.0)
    lib.bound_state.find_bound_state(params)
    clear_caches(lib)


def stratified(rng, dims: int, count: int) -> np.ndarray:
    """Latin-hypercube sample in [0, 1)^dims: one value per stratum per column."""
    return (np.argsort(rng.random((dims, count)), axis=1)
            + rng.random((dims, count))) / count


def random_points(lib, seed: int, count: int, stream: int):
    """(params, tau) pairs: kind 50/50, N log-uniform on 1..64, theta ~ U[0, 1]
    for V-type, gamma0 ~ U[0.05, 6], lam = 2, tau log-uniform on [1, 1000]."""
    u = stratified(np.random.default_rng([seed, stream]), 5, count)
    points = []
    for kind_u, n_u, theta_u, g_u, tau_u in u.T:
        v_type = kind_u >= 0.5
        points.append((lib.ModelParams(
            gamma0=0.05 + 5.95 * float(g_u), lam=2.0,
            n_atoms=int(round(64.0 ** float(n_u))),
            theta=float(theta_u) if v_type else 0.0,
            kind=lib.AtomKind.THREE_LEVEL_V if v_type else lib.AtomKind.TWO_LEVEL),
            1000.0 ** float(tau_u)))
    return points


def underflow_is_real(lib, params) -> bool:
    """K(E) - E has not changed sign at the probe floor: the root lies above it."""
    return lib.bound_state.kernel_k(PROBE_FLOOR, params) - PROBE_FLOOR >= 0.0


def bound_state_ok(lib, params, outcome) -> bool:
    """A bound state satisfies K(E) = E; an underflow must be a real one."""
    if isinstance(outcome, lib.BracketFailureError):
        return underflow_is_real(lib, params)
    if isinstance(outcome, Exception) or not outcome.exists or not outcome.energy < 0:
        return False
    e = outcome.energy
    return abs(lib.bound_state.kernel_k(e, params) - e) <= BOUND_RESIDUAL_TOL * max(1.0, abs(e))


def _same(a, b) -> bool:
    """Equal outputs, NaN fields and exceptions included."""
    return type(a) is type(b) and repr(a) == repr(b)


class Survey:
    """Cold rebuild of preset figures 2-5 through `cli.main`, CSV plus SVG."""

    FIGURES = (2, 3, 4, 5)
    min_passes = 2  # one 21 s pass would give each figure a single sample
    requests = False

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.dir = workdir
        self.reference = {k: reference.load_survey(k) for k in self.FIGURES}
        self.rows = {}
        for k in self.FIGURES:
            cfg = lib.sweep.figure_preset(k).config
            self.rows[k] = len(cfg.n_atoms_list) * len(cfg.theta_list) * cfg.gamma0_grid[2]
        warm_up(lib)

    def _paths(self, tag, k):
        return (os.path.join(self.dir, f"{tag}-fig{k}.csv"),
                os.path.join(self.dir, f"{tag}-fig{k}.svg"))

    def _rebuild(self, tag: str, host: HostSpeed | None = None,
                 tracer: Tracer | None = None):
        """Exit code, wall time and host speed of each figure's `cli.main` call."""
        codes, times, speeds = {}, [], []
        for k in self.FIGURES:
            csv_path, svg_path = self._paths(tag, k)
            argv = ["sweep", "--figure", str(k), "--output", csv_path,
                    "--svg", svg_path, "--force"]
            span = tracer.span(f"bench.fig{k}") if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                codes[k] = self.lib.cli.main(argv)
                times.append(time.perf_counter() - t0)
            if host is not None:
                speeds.append(host.mark())
        return codes, times, speeds

    def run_pass(self, tag: str, host: HostSpeed, tracer: Tracer | None = None) -> Pass:
        clear_caches(self.lib)
        codes, times, speeds = self._rebuild(tag, host, tracer)
        return Pass(times, speeds, sum(self.rows.values()), (tag, codes))

    def check(self, passes: list[Pass]) -> Verdict:
        # a second, warm rebuild in the same process must reproduce every
        # timed (cold) one byte for byte
        self._rebuild("again")
        verdict = Verdict(attempted=sum(p.ops for p in passes))
        for p in passes:
            tag, codes = p.outputs
            for k in self.FIGURES:
                bad = self._figure_failures(tag, k, codes[k])
                if bad:
                    verdict.notes.append(f"{tag} figure {k}: {bad} bad rows")
                verdict.failed += bad
        verdict.unexpected = verdict.failed
        return verdict

    def _figure_failures(self, tag, k, code) -> int:
        if code != 0:
            return self.rows[k]
        try:
            for a, b in zip(self._paths(tag, k), self._paths("again", k)):
                with open(a, "rb") as fa, open(b, "rb") as fb:
                    if fa.read() != fb.read():
                        return self.rows[k]
            with open(self._paths(tag, k)[0], encoding="utf-8") as fh:
                return reference.survey_mismatches(fh.read(), self.reference[k])
        except OSError:
            return self.rows[k]


class Points:
    """Independent single-point queries: evaluate_point, then find_bound_state."""

    min_passes = 2  # two passes over the same queries: steadier, and comparable
    requests = True

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.queries = random_points(lib, seed, POINT_QUERIES, stream=0)
        warm_up(lib)

    def run_pass(self, tag: str, host: HostSpeed, tracer: Tracer | None = None) -> Pass:
        lib = self.lib
        clear_caches(lib)
        latencies, outputs = [], []
        for params, tau in self.queries:
            t0 = time.perf_counter()
            try:
                report = lib.measures.evaluate_point(params, tau)
                try:
                    state = lib.bound_state.find_bound_state(params)
                except lib.BracketFailureError as exc:  # documented underflow
                    state = exc
                out = (report, state)
            except Exception as exc:  # counted as a failed query
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        # a probe per query would outweigh the query: one speed for the pass
        speed = host.mark()
        return Pass(latencies, [speed] * len(latencies), len(self.queries), outputs)

    def judge(self, params, tau, out) -> str:
        """'ok', 'wrong', or the known defect that explains a wrong output."""
        if isinstance(out, Exception):
            return "wrong"
        report, state = out
        if not bound_state_ok(self.lib, params, state):
            return "wrong"
        backflow, ratio = reference.dense_reference(
            params, tau, self.lib.dynamics.excited_population)
        if reference.matches_reference(report, backflow, ratio):
            return "ok"
        return reference.known_defect(params, tau) or "wrong"

    def check(self, passes: list[Pass]) -> Verdict:
        first = passes[0].outputs
        verdicts = [self.judge(params, tau, out)
                    for (params, tau), out in zip(self.queries, first)]
        verdict = Verdict(attempted=sum(p.ops for p in passes))
        for p in passes:
            for i, out in enumerate(p.outputs):
                v = verdicts[i] if _same(out, first[i]) else "wrong"
                verdict.failed += v != "ok"
                verdict.unexpected += v == "wrong"
        verdict.notes.append(
            f"of {len(verdicts)} queries: {verdicts.count('aliasing')} fail by "
            f"aliasing, {verdicts.count('overflow')} by envelope overflow, "
            f"{verdicts.count('wrong')} otherwise")
        return verdict


class Validate:
    """The full `checks.run_checks(quick=False)`, caches cleared first."""

    min_passes = 1
    requests = False

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib

    def run_pass(self, tag: str, host: HostSpeed, tracer: Tracer | None = None) -> Pass:
        clear_caches(self.lib)
        start = time.perf_counter()
        results = self.lib.checks.run_checks(quick=False)
        seconds = time.perf_counter() - start
        return Pass([seconds], [host.mark()], 1, results)

    def check(self, passes: list[Pass]) -> Verdict:
        verdict = Verdict(attempted=len(passes))
        for p in passes:
            failing = [r.name for r in p.outputs if not r.passed]
            if failing:
                verdict.failed += 1
                verdict.notes.append("failed checks: " + ", ".join(failing))
        verdict.unexpected = verdict.failed
        return verdict


class Cli:
    """Fresh-process CLI calls: qsl with a JSON report, bound-state, and
    dynamics written as CSV and as JSON at 4096 steps."""

    min_passes = 1
    requests = True

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.dir = workdir
        self.points = random_points(lib, seed, CLI_GROUPS, stream=1)
        self.env = child_env()

    @staticmethod
    def _model_flags(params) -> list[str]:
        return ["--kind", params.kind.value, "--n", str(params.n_atoms),
                "--theta", repr(params.theta), "--gamma0", repr(params.gamma0),
                "--lambda", repr(params.lam)]

    def calls(self, tag: str):
        """(kind, params, tau, output path, argv) of every call in one pass."""
        out = []
        for i, (params, tau) in enumerate(self.points):
            flags = self._model_flags(params)
            window = ["--tau", repr(tau)]
            q = os.path.join(self.dir, f"{tag}-{i}-qsl.json")
            d_csv = os.path.join(self.dir, f"{tag}-{i}-dyn.csv")
            d_json = os.path.join(self.dir, f"{tag}-{i}-dyn.json")
            steps = ["--steps", str(DYNAMICS_STEPS)]
            out += [
                ("qsl", params, tau, q, ["qsl", *flags, *window, "--output", q, "--force"]),
                ("bound-state", params, tau, None, ["bound-state", *flags]),
                ("dynamics-csv", params, tau, d_csv,
                 ["dynamics", *flags, *window, *steps, "--output", d_csv,
                  "--format", "csv", "--force"]),
                ("dynamics-json", params, tau, d_json,
                 ["dynamics", *flags, *window, *steps, "--output", d_json,
                  "--format", "json", "--force"]),
            ]
        return out

    def run_pass(self, tag: str, host: HostSpeed, tracer: Tracer | None = None) -> Pass:
        latencies, outputs = [], []
        for n, call in enumerate(self.calls(tag)):
            argv = call[4]
            if tracer is None:
                cmd = [sys.executable, "-m", "qspeedup.cli", *argv]
            else:
                spans_path = os.path.join(self.dir, f"{tag}-{n}.spans.gz")
                cmd = [sys.executable, os.path.join(BENCH_DIR, "spans.py"),
                       spans_path, *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            latencies.append(time.perf_counter() - t0)
            outputs.append((call, proc.returncode, proc.stdout))
            if tracer is not None and proc.returncode in (0, 2):
                tracer.extend(Tracer.read(spans_path))
        speed = host.mark()  # one speed for the pass, as for points
        return Pass(latencies, [speed] * len(latencies), len(outputs), outputs)

    def judge(self, call, code: int, stdout: str) -> bool:
        kind, params, tau, path, _ = call
        lib = self.lib
        try:
            if kind == "bound-state":
                try:
                    state = lib.bound_state.find_bound_state(params)
                except lib.BracketFailureError:
                    return code == 2 and underflow_is_real(lib, params)
                return (code == 0 and bound_state_ok(lib, params, state)
                        and f"energy     = {state.energy:.12g}" in stdout.splitlines())
            if code != 0:
                return False
            if kind == "qsl":
                report = lib.measures.evaluate_point(params, tau)
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)
                return (f"ratio            = {report.ratio:.12g}" in stdout.splitlines()
                        and repr(payload["report"]["ratio"]) == repr(report.ratio))
            if kind == "dynamics-csv":
                with open(path, encoding="utf-8", newline="") as fh:
                    rows = list(csv.reader(fh))
                return (len(rows) == DYNAMICS_STEPS + 2
                        and all(len(r) == 5 and all(math.isfinite(float(x)) for x in r)
                                for r in rows[1:]))
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return payload["schema"] == 1 and len(payload["rows"]) == DYNAMICS_STEPS + 1
        except (OSError, ValueError, KeyError, TypeError):
            return False

    def check(self, passes: list[Pass]) -> Verdict:
        verdict = Verdict(attempted=sum(p.ops for p in passes))
        for p in passes:
            for call, code, stdout in p.outputs:
                if not self.judge(call, code, stdout):
                    # the CLI only has to agree with the library, so of the
                    # known defects only the NaN envelope shows here
                    overflow = reference.known_defect(call[1], call[2]) == "overflow"
                    verdict.failed += 1
                    verdict.unexpected += not overflow
                    verdict.notes.append(f"{call[0]} exit {code}: failed"
                                         + (" (overflow)" if overflow else ""))
        return verdict


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {"survey": Survey, "points": Points, "validate": Validate, "cli": Cli}
