"""Tests of the benchmark's own code.  From the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import qspeedup  # noqa: E402
from qspeedup import cli, measures  # noqa: E402,F401

import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Pass  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_inputs(tmp_path):
    a = workloads.random_points(qspeedup, 7, 200, stream=0)
    b = workloads.random_points(qspeedup, 7, 200, stream=0)
    c = workloads.random_points(qspeedup, 8, 200, stream=0)
    assert a == b
    assert a != c
    calls = [workloads.Cli(qspeedup, 7, str(tmp_path)).calls("t") for _ in range(2)]
    assert [call[4] for call in calls[0]] == [call[4] for call in calls[1]]


def test_point_distribution_bounds():
    points = workloads.random_points(qspeedup, 1, 500, stream=0)
    kinds = [p.kind for p, _ in points]
    assert kinds.count(qspeedup.AtomKind.TWO_LEVEL) == 250
    for params, tau in points:
        assert 1 <= params.n_atoms <= 64
        assert 0.05 <= params.gamma0 <= 6.0
        assert 1.0 <= tau <= 1000.0


def test_metric_names_match_the_spec():
    spec = _benchmark_spec()
    tracer = spans.Tracer()
    with tracer:
        cli.main(["bound-state", "--gamma0", "1", "--lambda", "2"])
        qspeedup.measures.evaluate_point(qspeedup.ModelParams(gamma0=2.0, n_atoms=3), 5.0)
    layer, partial = run.per_layer(spans.LayerStats(tracer), [0.2], 1.1)
    passes = [Pass([0.5, 0.5], [1.0, 1.0], 2)]
    e2e, _ = run.end_to_end([0.3], passes, 40.0, requests=False)
    requests, _ = run.end_to_end([0.3], passes, 40.0, requests=True)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in [*layer, *partial, *requests]:
        assert NAME.fullmatch(name), name
    assert layer["measures.evaluate_point.calls"][0] == 1
    assert layer["cli.main.calls"][0] == 1


def test_tracer_restores_the_library():
    original = qspeedup.sweep.evaluate_point
    with spans.Tracer():
        assert qspeedup.sweep.evaluate_point is not original
    assert qspeedup.sweep.evaluate_point is original
    assert qspeedup.measures.evaluate_point is original


def test_dense_reference_passes_a_known_good_point():
    params = qspeedup.ModelParams(gamma0=2.0, n_atoms=3)
    report = measures.evaluate_point(params, 5.0)
    backflow, ratio = reference.dense_reference(
        params, 5.0, qspeedup.excited_population)
    assert report.nonmarkov > 0.0
    assert reference.matches_reference(report, backflow, ratio)
    assert not reference.aliased(params, 5.0)


def test_dense_reference_flags_the_long_window_repro():
    params = qspeedup.ModelParams(gamma0=3.0, n_atoms=30)
    report = measures.evaluate_point(params, 2000.0)
    backflow, ratio = reference.dense_reference(
        params, 2000.0, qspeedup.excited_population)
    assert abs(backflow - 0.1627) < 1e-3
    assert abs(ratio - 0.1677) < 1e-3
    assert not reference.matches_reference(report, backflow, ratio)
    assert reference.known_defect(params, 2000.0) == "aliasing"


def test_overdamped_long_window_overflow_is_classified():
    params = qspeedup.ModelParams(gamma0=0.2538657140559239, n_atoms=1)
    report = measures.evaluate_point(params, 894.6)
    backflow, ratio = reference.dense_reference(
        params, 894.6, qspeedup.excited_population)
    assert not reference.matches_reference(report, backflow, ratio)
    assert reference.known_defect(params, 894.6) == "overflow"
    assert reference.known_defect(params, 500.0) is None


def test_each_part_counts_its_median_at_reference_speed():
    passes = [Pass([1.0, 3.0], [1.0, 1.0], 2), Pass([4.0, 5.0], [0.5, 0.5], 2),
              Pass([6.0, 3.0], [1.0, 0.5], 2)]
    metrics, _ = run.end_to_end([0.2, 0.4, 0.3], passes, 40.0, requests=True)
    assert metrics["wall_s"] == (4.5, "s")
    assert metrics["ops_per_s"] == (2 / 4.5, "1/s")
    assert metrics["setup_s"] == (0.3, "s")
    assert metrics["latency_p50_ms"] == (2250.0, "ms")


def test_host_speed_is_one_at_the_reference_probe_time(monkeypatch):
    ref = hostspeed.REFERENCE_S
    times = iter([ref, ref, 2 * ref])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(times))
    host = hostspeed.HostSpeed()
    assert host.mark() == 1.0
    assert abs(host.mark() - 2 / 3) < 1e-12


def test_tail_latency_leaves_ten_samples_beyond():
    label, value = run.tail_latency([float(i) for i in range(2000)])
    assert value == 1989.0 and label.startswith("p99.5")
    assert run.tail_latency([3.0, 1.0, 2.0]) == ("max of 3", 3.0)


def test_survey_mismatch_counting():
    ref = reference.load_survey(2)
    text = "\n".join(ref) + "\n"
    assert reference.survey_mismatches(text, ref) == 0
    fields = ref[5].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    assert reference.survey_mismatches("\n".join([*ref[:5], ",".join(fields),
                                                  *ref[6:]]), ref) == 1
    assert reference.survey_mismatches("\n".join(ref[:-3]), ref) == 3
