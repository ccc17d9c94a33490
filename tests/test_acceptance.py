"""Acceptance gate: every shipped guarantee, one printed line each.

Each test prints a single PASS/FAIL line (visible even under plain pytest)
and then asserts.  Criterion 04 checks the onset constants lam/(2N) and
lam/(4N) through the finite-window law: an onset measured within a window
tau sits at (lam**2 + d**2)/(2*lam*N*(1+theta)), where |d| is the envelope
frequency at which the first population rise enters [0, tau].  The companion
test next to it pins the measured onsets themselves.
"""

import math
import time

import numpy as np
import pytest

from qspeedup import cli
from qspeedup.bound_state import BracketFailureError, find_bound_state
from qspeedup.dynamics import alpha1, density_trajectory, nu1, trajectory
from qspeedup.measures import evaluate_point, qsl_generic
from qspeedup.oracle import solve_collective
from qspeedup.spectral import AtomKind, ModelParams
from qspeedup.sweep import OnsetCriterion, find_critical_coupling

from test_bound_state import dense_scan_energy

TAU = 5.0
LAM = 2.0
GAMMA0_GRID = (0.1, 0.5, 1.0, 2.0, 3.0)
N_GRID = (1, 3, 8, 30)


def _emit(capsys, label, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"{label:<44s} {verdict}  {detail}")


def _grid_points():
    points = []
    for g0 in GAMMA0_GRID:
        for n in N_GRID:
            points.append(ModelParams(gamma0=g0, n_atoms=n))
            for theta in (0.0, 1.0):
                points.append(ModelParams(gamma0=g0, n_atoms=n, theta=theta,
                                          kind=AtomKind.THREE_LEVEL_V))
    return points


def _first_rise_frequency(n_atoms):
    """|d| at which the first population rise enters [0, TAU].

    For N >= 2 the rise starts at the first envelope-derivative zero,
    t = 2*pi/|d|.  For N = 1 the population touches zero first, at
    t = 2*(pi - atan(|d|/lam))/|d|, which falls with |d|.
    """
    if n_atoms >= 2:
        return 2 * math.pi / TAU
    lo, hi = 0.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * (math.pi - math.atan(mid / LAM)) / mid > TAU:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def onsets():
    """Critical couplings of both detectors, both emitter kinds, all N."""
    table = {}
    for kind, theta in ((AtomKind.TWO_LEVEL, 0.0),
                        (AtomKind.THREE_LEVEL_V, 1.0)):
        for n in N_GRID:
            for crit in OnsetCriterion:
                table[kind, n, crit] = find_critical_coupling(
                    kind, n, theta=theta, criterion=crit)
    return table


def test_01_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for params in _grid_points():
        closed = trajectory(params, TAU)
        oracle = solve_collective(params, TAU, steps=16384)
        worst = max(worst, float(np.abs(closed.amplitude
                                        - oracle.amplitude).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _emit(capsys, "criterion 01 oracle equivalence", ok,
          f"worst={worst:.2e} (tol 1e-06), runtime={elapsed:.1f}s (limit 10s)")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_02_speedup_backflow_identity(capsys):
    worst = 0.0
    for g0 in GAMMA0_GRID:
        for n in N_GRID:
            params = ModelParams(gamma0=g0, n_atoms=n)
            report = evaluate_point(params, TAU)
            loss = 1.0 - abs(alpha1(TAU, params)) ** 2
            recomposed = TAU / (2.0 * report.nonmarkov / loss + 1.0)
            worst = max(worst, abs(report.tau_qsl - recomposed))
    ok = worst < 1e-9 * TAU
    _emit(capsys, "criterion 02 speed-limit/backflow identity", ok,
          f"worst={worst:.2e} (tol {1e-9 * TAU:.0e})")
    assert ok


def test_03_generic_estimator_matches_closed_form(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        params = ModelParams(gamma0=float(rng.uniform(0.3, 3.5)),
                             n_atoms=int(rng.integers(1, 31)))
        times, rhos, rates = density_trajectory(params, TAU, steps=16384)
        got = qsl_generic(times, rhos, rho_rates=rates).tau_qsl
        want = evaluate_point(params, TAU).tau_qsl
        worst = max(worst, abs(got - want) / want)
    ok = worst < 1e-6
    _emit(capsys, "criterion 03 trajectory-level estimator", ok,
          f"worst rel={worst:.2e} (tol 1e-06), 10 random points")
    assert ok


def test_04_critical_coupling_constants(onsets, capsys):
    rows = []
    worst = 0.0
    # aligned V-type dipoles (theta = 1) double the collective factor
    for kind, scale, theta in ((AtomKind.TWO_LEVEL, 2.0, 0.0),
                               (AtomKind.THREE_LEVEL_V, 4.0, 1.0)):
        for n in N_GRID:
            asserted = LAM / (scale * n)
            window = (_first_rise_frequency(n) ** 2
                      / (2 * LAM * n * (1 + theta)))
            for crit in OnsetCriterion:
                got = onsets[kind, n, crit] - window
                dev = abs(got - asserted)
                worst = max(worst, dev)
                if dev >= 1e-3:
                    rows.append(f"{kind.value} N={n} {crit.value}: "
                                f"measured {got:.6f} after the window term, "
                                f"asserted {asserted:.6f}")
    ok = worst < 1e-3
    _emit(capsys, "criterion 04 onset constants lam/(2N), lam/(4N)", ok,
          f"worst={worst:.2e} (tol 1e-03), {len(rows)} of 16 points off")
    assert ok, ("onsets less the finite-window term d**2/(2*lam*N*(1+theta)) "
                "miss lam/(2N), lam/(4N): " + "; ".join(rows))


def test_04_companion_finite_window_onsets(onsets, capsys):
    sp, nm = OnsetCriterion.SPEEDUP, OnsetCriterion.NONMARKOV
    worst = 0.0
    # both onsets sit where the first population rise enters the window
    for n in N_GRID:
        predicted = (LAM**2 + _first_rise_frequency(n) ** 2) / (2 * LAM * n)
        for crit in (sp, nm):
            worst = max(worst, abs(onsets[AtomKind.TWO_LEVEL, n, crit]
                                   - predicted))
    # both detectors see the same transition
    for kind in (AtomKind.TWO_LEVEL, AtomKind.THREE_LEVEL_V):
        for n in N_GRID:
            assert abs(onsets[kind, n, sp] - onsets[kind, n, nm]) < 1e-3

    # aligned dipoles double the effective coupling: onsets exactly halve
    for n in N_GRID:
        worst = max(worst, abs(onsets[AtomKind.THREE_LEVEL_V, n, nm]
                               - onsets[AtomKind.TWO_LEVEL, n, nm] / 2))

    frozen = {1: 1.281805, 3: 0.464940, 8: 0.174354, 30: 0.046496}
    for n, value in frozen.items():
        worst = max(worst, abs(onsets[AtomKind.TWO_LEVEL, n, nm] - value))

    ok = worst < 2e-3
    _emit(capsys, "criterion 04 companion: measured onsets", ok,
          f"worst={worst:.2e} (tol 2e-03)")
    assert ok


def test_05_steady_population(capsys):
    worst = 0.0
    for n in (3, 8, 30):
        params = ModelParams(gamma0=1.0, n_atoms=n)
        worst = max(worst, abs(abs(alpha1(50.0, params)) - (n - 1) / n))
    ok = worst < 1e-6
    _emit(capsys, "criterion 05 steady population (N-1)/N", ok,
          f"worst={worst:.2e} (tol 1e-06)")
    assert ok


def test_06_bound_state_solver(capsys):
    kinds = [(AtomKind.TWO_LEVEL, 0.0), (AtomKind.THREE_LEVEL_V, 0.0),
             (AtomKind.THREE_LEVEL_V, 1.0)]
    worst_res = 0.0
    energies = {}
    for kind, theta in kinds:
        for n in N_GRID:
            series = []
            for g0 in np.linspace(0.0, 4.0, 101):
                params = ModelParams(gamma0=float(g0), n_atoms=n, theta=theta,
                                     kind=kind)
                try:
                    result = find_bound_state(params)
                except BracketFailureError:
                    continue
                if not result.exists:
                    continue
                worst_res = max(worst_res, result.residual)
                series.append((float(g0), result.energy))
            energies[kind, theta, n] = dict(series)
            # strictly decreasing in gamma0 along each series
            values = [e for _, e in series]
            assert all(b < a for a, b in zip(values, values[1:]))

    # strictly decreasing in N and theta at couplings every series covers
    for g0 in (1.0, 2.0, 3.0, 4.0):
        for kind, theta in kinds:
            by_n = [energies[kind, theta, n][g0] for n in N_GRID]
            assert all(b < a for a, b in zip(by_n, by_n[1:]))
        for n in N_GRID:
            flat = energies[AtomKind.THREE_LEVEL_V, 0.0, n][g0]
            aligned = energies[AtomKind.THREE_LEVEL_V, 1.0, n][g0]
            assert aligned < flat

    spots = [ModelParams(gamma0=2.0, n_atoms=3),
             ModelParams(gamma0=3.0, n_atoms=1),
             ModelParams(gamma0=4.0, n_atoms=30),
             ModelParams(gamma0=2.0, n_atoms=8, theta=1.0,
                         kind=AtomKind.THREE_LEVEL_V),
             ModelParams(gamma0=1.5, n_atoms=3, theta=0.5,
                         kind=AtomKind.THREE_LEVEL_V)]
    worst_scan = 0.0
    for params in spots:
        solved = find_bound_state(params).energy
        scanned, _ = dense_scan_energy(params)
        worst_scan = max(worst_scan, abs(solved - scanned) / abs(scanned))
    ok = worst_res < 1e-10 and worst_scan < 1e-6
    _emit(capsys, "criterion 06 bound-state solver", ok,
          f"worst residual={worst_res:.2e} (tol 1e-10), "
          f"worst scan dev={worst_scan:.2e} (tol 1e-06 rel)")
    assert worst_res < 1e-10
    assert worst_scan < 1e-6


def test_07_reduction_mappings(capsys):
    worst = 0.0
    root2 = math.sqrt(2.0)
    for g0, n in ((1.0, 1), (2.0, 3), (3.0, 8)):
        two = ModelParams(gamma0=g0, n_atoms=n)
        flat = ModelParams(gamma0=g0, n_atoms=n, kind=AtomKind.THREE_LEVEL_V)
        doubled = ModelParams(gamma0=2 * g0, n_atoms=n)
        aligned = ModelParams(gamma0=g0, n_atoms=n, theta=1.0,
                              kind=AtomKind.THREE_LEVEL_V)
        t = trajectory(two, TAU).times
        for vee, ref in ((flat, two), (aligned, doubled)):
            worst = max(worst, float(np.abs(
                root2 * nu1(t, vee) - alpha1(t, ref)).max()))
            worst = max(worst, float(np.abs(
                trajectory(vee, TAU).population
                - trajectory(ref, TAU).population).max()))
            rep_v = evaluate_point(vee, TAU)
            rep_r = evaluate_point(ref, TAU)
            worst = max(worst, abs(rep_v.tau_qsl - rep_r.tau_qsl),
                        abs(rep_v.nonmarkov - rep_r.nonmarkov))
    ok = worst < 1e-10
    _emit(capsys, "criterion 07 reduction mappings", ok,
          f"worst={worst:.2e} (tol 1e-10)")
    assert ok


def test_08_speedup_monotone_in_emitter_count(capsys):
    ratios = [evaluate_point(ModelParams(gamma0=2.0, n_atoms=n), TAU).ratio
              for n in N_GRID]
    ok = ratios[3] < ratios[2] < ratios[1] < ratios[0]
    _emit(capsys, "criterion 08 speed-up grows with N", ok,
          "ratios N=1,3,8,30: " + ", ".join(f"{r:.4f}" for r in ratios))
    assert ok


def test_09_backflow_not_monotone_in_emitter_count(capsys):
    inversions = []
    for g0 in np.linspace(0.1, 4.0, 40):
        r8 = evaluate_point(ModelParams(gamma0=float(g0), n_atoms=8),
                            TAU).nonmarkov
        r30 = evaluate_point(ModelParams(gamma0=float(g0), n_atoms=30),
                             TAU).nonmarkov
        if r8 > r30:
            inversions.append(float(g0))
    ok = bool(inversions)
    detail = (f"{len(inversions)} couplings with R(N=8) > R(N=30), "
              f"first at gamma0={inversions[0]:.2f}" if inversions
              else "no inversion found in [0, 4]")
    _emit(capsys, "criterion 09 backflow inversion exists", ok, detail)
    assert ok


def test_10_figure_regeneration_determinism(tmp_path, capsys):
    def regenerate(tag):
        paths = {}
        for fig in (2, 3, 4, 5):
            out = tmp_path / f"fig{fig}-{tag}.csv"
            assert cli.main(["sweep", "--figure", str(fig),
                             "--output", str(out)]) == 0
            paths[fig] = out
        return paths

    first = regenerate("a")
    t0 = time.perf_counter()
    second = regenerate("b")
    elapsed = time.perf_counter() - t0
    identical = all(first[f].read_bytes() == second[f].read_bytes()
                    for f in first)
    ok = identical and elapsed < 30.0
    _emit(capsys, "criterion 10 figure regeneration", ok,
          f"byte-identical={identical}, cold rebuild {elapsed:.1f}s "
          "(limit 30s)")
    assert identical
    assert elapsed < 30.0
