"""Span tracing of the qspeedup layers, applied from outside the library.

The tracer replaces public functions of the `qspeedup` modules at every name
their callers look them up by (for example both `qspeedup.measures.evaluate_point`
and `qspeedup.sweep.evaluate_point`), records one span per call and puts the
originals back afterwards.  Spans hold name, start, end, parent, one count
(samples, segments, bytes, ...) and whether the call raised.  They are kept in
compact arrays in memory and written out when the run ends.

Run as a script it traces one CLI invocation in a fresh process:

    python3 bench/spans.py SPANS_FILE sweep --figure 2 ...
"""

from __future__ import annotations

import array
import contextlib
import gzip
import importlib
import inspect
import os
import sys
import time

import numpy as np


def _size(index):
    """Count taken from the size of the index-th positional argument."""
    return lambda args, kwargs, result: float(np.size(args[index]))


def _length(args, kwargs, result):
    return 0.0 if result is None else float(len(result))


def _iterations(args, kwargs, result):
    return float(result.iterations)


def _utf8_bytes(args, kwargs, result):
    return float(len(result.encode("utf-8")))


def _written_bytes(args, kwargs, result):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    total = 0
    for flag in ("--output", "--svg"):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                total += os.path.getsize(path)
    return float(total)


def _arg(module, func, name):
    """Count read from a named argument, falling back to its default."""
    params = list(inspect.signature(getattr(module, func)).parameters.values())
    names = [p.name for p in params]
    pos = names.index(name)
    default = params[pos].default

    def get(args, kwargs, result):
        if name in kwargs:
            return float(kwargs[name])
        return float(args[pos] if len(args) > pos else default)
    return get


def _segment_count(args, kwargs, result):
    return float(len(args[1]))


# (span name, count extractor or None, modules that look the function up)
TARGETS = (
    ("spectral.reservoir_integral", _size(0), ("spectral", "bound_state", "checks")),
    ("bound_state.find_bound_state", _iterations, ("bound_state", "sweep", "cli")),
    ("dynamics.population_rate", _size(0), ("dynamics", "measures")),
    ("dynamics.excited_population", _size(0), ("dynamics", "measures")),
    ("quadrature.adaptive_simpson_segments", _segment_count, ("quadrature", "measures")),
    ("quadrature.adaptive_simpson", None, ("quadrature", "spectral")),
    ("measures.evaluate_point", None, ("measures", "sweep", "cli")),
    ("measures.monotone_segments", _length, ("measures",)),
    ("sweep.run_sweep", None, ("sweep", "cli")),
    ("sweep.find_critical_coupling", None, ("sweep",)),
    ("oracle.solve_collective", "steps", ("oracle",)),
    ("svg.render_figure", _utf8_bytes, ("svg", "cli")),
    ("cli.main", _written_bytes, ("cli",)),
)


class Tracer:
    """In-memory span store plus the patching of the library's lookup names."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.value = array.array("d")
        self.raised = array.array("b")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.value.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, value: float = 0.0, raised: bool = False) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.value[idx] = value
        self.raised[idx] = raised
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        idx = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self._close(idx, raised=True)
            raise
        self._close(idx)

    def wrap(self, fn, name: str, count):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, raised=True)
                raise
            tracer._close(idx, count(args, kwargs, result) if count else 0.0)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at each module-level name it is looked up by."""
        for name, count, lookups in TARGETS:
            home, func = name.split(".")
            home_mod = importlib.import_module(f"qspeedup.{home}")
            original = getattr(home_mod, func, None)
            if original is None:
                self.absent.append(name)
                continue
            if count == "steps":
                count = _arg(home_mod, func, "steps")
            traced = self.wrap(original, name, count)
            for mod_name in lookups:
                mod = importlib.import_module(f"qspeedup.{mod_name}")
                if getattr(mod, func, None) is original:
                    self._patched.append((mod, func, original))
                    setattr(mod, func, traced)
        checks = importlib.import_module("qspeedup.checks")
        original_checks = getattr(checks, "ALL_CHECKS", None)
        if original_checks is not None:
            wrapped = tuple(
                self.wrap(fn, "checks." + fn.__name__.removeprefix("check_")
                          .replace("_", "-"), None)
                for fn in original_checks)
            self._patched.append((checks, "ALL_CHECKS", original_checks))
            checks.ALL_CHECKS = wrapped

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()

    def extend(self, other: "Tracer") -> None:
        """Append another tracer's spans (one child process) to this one."""
        offset = len(self.start)
        for i in range(len(other.start)):
            self.name_id.append(self._id(other.names[other.name_id[i]]))
            parent = other.parent[i]
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.start.append(other.start[i])
            self.end.append(other.end[i])
            self.value.append(other.value[i])
            self.raised.append(other.raised[i])
        self.absent = sorted(set(self.absent) | set(other.absent))

    def write(self, path) -> None:
        """Spans as gzipped TSV: name, start_ns, end_ns, parent, count, raised."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("#absent\t" + ",".join(self.absent) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.value[i]!r}\t"
                         f"{self.raised[i]}\n")

    @classmethod
    def read(cls, path) -> "Tracer":
        tracer = cls()
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            absent = fh.readline().rstrip("\n").split("\t")[1]
            tracer.absent = [a for a in absent.split(",") if a]
            for line in fh:
                name, start, end, parent, value, raised = line.rstrip("\n").split("\t")
                tracer.name_id.append(tracer._id(name))
                tracer.start.append(int(start))
                tracer.end.append(int(end))
                tracer.parent.append(int(parent))
                tracer.value.append(float(value))
                tracer.raised.append(int(raised))
        return tracer

    def arrays(self):
        """Spans as numpy arrays: name ids, start, end, parent, count, raised."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.value, dtype=np.float64),
                np.frombuffer(self.raised, dtype=np.int8))


class LayerStats:
    """Per-name aggregates of a span set: calls, total and self time, counts."""

    def __init__(self, tracer: Tracer):
        names, start, end, parent, value, raised = tracer.arrays()
        self.tracer = tracer
        self._names, self._start, self._end = names, start, end
        self._value, self._raised = value, raised
        dur = (end - start).astype(np.float64)
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self._dur = dur
        self._self = dur - covered

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.tracer._ids:
            return np.zeros(len(self._names), dtype=bool)
        return self._names == self.tracer._ids[name]

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total_ms(self, name: str) -> float:
        return float(self._dur[self._mask(name)].sum()) / 1e6

    def self_ms(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum()) / 1e6

    def count(self, name: str) -> float:
        return float(self._value[self._mask(name)].sum())

    def mean_count(self, name: str, ok_only: bool = False) -> float:
        mask = self._mask(name)
        if ok_only:
            mask &= self._raised == 0
        return float(self._value[mask].mean()) if mask.any() else 0.0

    def raised(self, name: str) -> int:
        return int((self._mask(name) & (self._raised != 0)).sum())

    def nested_calls(self, outer: str, inner: str) -> int:
        """Calls of inner made inside any span of outer (one thread, so nested)."""
        starts = np.sort(self._start[self._mask(inner)])
        total = 0
        for s, e in zip(self._start[self._mask(outer)], self._end[self._mask(outer)]):
            total += int(np.searchsorted(starts, e) - np.searchsorted(starts, s))
        return total

    def nested_total_ms(self, outer: str, inner: str) -> float:
        """Total time of inner spans that sit inside spans of outer."""
        inner_mask = self._mask(inner)
        s_in, e_in = self._start[inner_mask], self._end[inner_mask]
        total = 0
        for s, e in zip(self._start[self._mask(outer)], self._end[self._mask(outer)]):
            inside = (s_in >= s) & (e_in <= e)
            total += int((e_in[inside] - s_in[inside]).sum())
        return total / 1e6


def main(argv: list[str]) -> int:
    """Trace one `qspeedup.cli.main(argv)` call and write its spans."""
    spans_path, cli_argv = argv[0], argv[1:]
    from qspeedup import cli
    tracer = Tracer()
    with tracer:
        code = cli.main(cli_argv)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
