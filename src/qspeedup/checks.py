"""Built-in consistency checks wired to the `validate` CLI command.

Each check pits two independent routes to the same quantity against each
other (closed form vs kernel integration, reduction mappings, onset
detectors) or asserts a structural invariant.  All of them hold for a
correct build; any failure exits the CLI with a nonzero status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import bound_state, dynamics, measures, oracle, sweep
from .spectral import (AtomKind, ModelParams, channel_coefficients, reservoir_integral,
                       reservoir_integral_quad)

TAU = 5.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


def _oracle_points(quick: bool):
    gammas = (0.5, 3.0) if quick else (0.1, 0.5, 1.0, 2.0, 3.0)
    ns = (1, 8) if quick else (1, 3, 8, 30)
    for g0 in gammas:
        for n in ns:
            yield ModelParams(gamma0=g0, n_atoms=n)
            for theta in (0.0, 1.0):
                yield ModelParams(gamma0=g0, n_atoms=n, theta=theta,
                                  kind=AtomKind.THREE_LEVEL_V)


def check_oracle_equivalence(quick: bool = False) -> CheckResult:
    """Closed-form trajectories against direct memory-kernel integration.

    dynamics.unit_amplitude reads the envelope once per point, on the
    times of the oracle's record.  Its A gives the amplitude A/sqrt(m) and
    the population A**2, the bits of dynamics.amplitude and
    dynamics.excited_population.  The oracle integrates the points in
    blocks, each row with the bits of oracle.solve_collective.
    """
    steps = 8192 if quick else 16384
    points = list(_oracle_points(quick))
    channels = dynamics.ChannelColumns.of(points)
    worst = 0.0
    for i, ref in enumerate(oracle.collective_trajectories(points, TAU, steps)):
        params = points[i]
        a = dynamics.unit_amplitude(ref.times, channels.a[i], channels.b[i],
                                    channels.lam[i], channels.n_atoms[i])[0]
        initial = math.sqrt(1.0 / channel_coefficients(params.kind, params.theta)[1])
        # the oracle's amplitude is real: its real part gives the same gap
        worst = max(worst,
                    float(np.abs(initial * a - ref.amplitude.real).max()),
                    float(np.abs(a * a - ref.population).max()))
        del a  # freed before the next row is integrated and its envelope read
    return CheckResult("oracle-equivalence", worst < 1e-6, worst, 1e-6,
                       f"{len(points)} parameter points")


def check_speedup_backflow_identity(quick: bool = False) -> CheckResult:
    """tau_qsl recomputed from the backflow and the final population."""
    gammas = (1.0, 2.0) if quick else (0.5, 1.0, 2.0, 3.0)
    ns = (1, 8) if quick else (1, 3, 8, 30)
    points = [params for g0 in gammas for n in ns
              for params in (ModelParams(gamma0=g0, n_atoms=n),
                             ModelParams(gamma0=g0, n_atoms=n, theta=1.0,
                                         kind=AtomKind.THREE_LEVEL_V))]
    tau_qsl, _, backflow, final, _ = measures.evaluate_columns(
        dynamics.ChannelColumns.of(points), TAU)
    loss = 1.0 - final
    moved = loss > 0.0
    recomputed = TAU / (2.0 * backflow[moved] / loss[moved] + 1.0)
    worst = float(np.abs(tau_qsl[moved] - recomputed).max(initial=0.0))
    return CheckResult("speedup-backflow-identity", worst < 1e-9 * TAU, worst,
                       1e-9 * TAU, f"{np.count_nonzero(moved)} parameter points")


def check_reduction_mappings(quick: bool = False) -> CheckResult:
    """V-type limits: theta=0 matches two-level, theta=1 matches doubled gamma0."""
    gammas = (1.5,) if quick else (0.5, 1.5, 3.0)
    ns = (3,) if quick else (1, 3, 8)
    t = np.linspace(0.0, TAU, 1025)
    limits = [(ModelParams(gamma0=g0, n_atoms=n, theta=theta, kind=AtomKind.THREE_LEVEL_V),
               ModelParams(gamma0=(1.0 + theta) * g0, n_atoms=n))
              for g0 in gammas for n in ns for theta in (0.0, 1.0)]
    # tau_qsl, ratio, backflow and final population; V-type rows alternate
    # with their references
    columns = np.array(measures.evaluate_columns(
        dynamics.ChannelColumns.of([p for pair in limits for p in pair]), TAU)[:4])
    worst = float(np.abs(columns[:, 0::2] - columns[:, 1::2]).max())
    for v_params, ref_params in limits:
        worst = max(worst, float(np.abs(
            dynamics.nu1(t, v_params) * math.sqrt(2.0)
            - dynamics.alpha1(t, ref_params)).max()))
    return CheckResult("reduction-mappings", worst < 1e-10, worst, 1e-10,
                       f"{len(gammas) * len(ns)} parameter points, both limits")


def check_bound_state_solver(quick: bool = False) -> CheckResult:
    """Residuals, closed-form vs quadrature integrals, monotone ordering."""
    pts = [ModelParams(gamma0=1.0),
           ModelParams(gamma0=2.0, n_atoms=3),
           ModelParams(gamma0=1.5, n_atoms=1, theta=1.0, kind=AtomKind.THREE_LEVEL_V)]
    if not quick:
        pts += [ModelParams(gamma0=3.0, n_atoms=8),
                ModelParams(gamma0=2.5, n_atoms=30, theta=0.5,
                            kind=AtomKind.THREE_LEVEL_V)]

    def point(g0, n, theta=0.0, kind=AtomKind.TWO_LEVEL):
        return ModelParams(gamma0=g0, n_atoms=n, theta=theta, kind=kind)

    # each chain must bind strictly deeper from left to right
    chains = ((point(1.0, 3), point(2.0, 3), point(3.0, 3)),
              (point(2.0, 1), point(2.0, 3), point(2.0, 8)),
              tuple(point(2.0, 3, theta, AtomKind.THREE_LEVEL_V)
                    for theta in (0.0, 0.5, 1.0)))
    points = pts + list(dict.fromkeys(p for chain in chains for p in chain))
    coupled, underflow, energies, residuals, *_ = bound_state.solve_bound_states(
        dynamics.ChannelColumns.of(points), label=lambda i: repr(points[i]))
    missing = ~coupled | underflow
    if missing.any():  # every point here binds, above the probe floor
        raise bound_state.BracketFailureError(
            f"no bound state for {points[int(np.argmax(missing))]!r}")
    worst = float(residuals[:len(pts)].max())
    # both routes to I(E) on the columns of pts, one quadrature batch
    reservoir, e = dynamics.ChannelColumns.of(pts), energies[:len(pts)]
    closed = reservoir_integral(e, reservoir)
    quad = reservoir_integral_quad(e, reservoir)
    quad_ok = bool(np.all(np.abs(closed - quad) < 1e-8 * np.abs(closed)))
    energy = dict(zip(points, energies.tolist()))
    ordered = all(energy[a] > energy[b] for chain in chains for a, b in pairwise(chain))
    passed = worst < 1e-10 and ordered and quad_ok
    detail = (f"{len(pts)} residuals; ordering {'ok' if ordered else 'violated'}; "
              f"quadrature {'ok' if quad_ok else 'off'}")
    return CheckResult("bound-state-solver", passed, worst, 1e-10, detail)


def check_onset_agreement(quick: bool = False) -> CheckResult:
    """The speedup and backflow detectors locate the same critical coupling.

    Both fire at the first population rise inside the window, so they land
    within 1e-3 of each other at every N.  At N = 1 the first backflow is
    quadratically shallow and the backflow threshold fires ~1e-4 late; the
    cases here sample N >= 3, and the acceptance suite covers N = 1.
    """
    cases = [(AtomKind.TWO_LEVEL, 8, 0.0)]
    if not quick:
        cases += [(AtomKind.TWO_LEVEL, 30, 0.0), (AtomKind.THREE_LEVEL_V, 3, 1.0)]
    worst = 0.0
    for kind, n, theta in cases:
        a = sweep.find_critical_coupling(kind, n, theta,
                                         criterion=sweep.OnsetCriterion.SPEEDUP)
        b = sweep.find_critical_coupling(kind, n, theta,
                                         criterion=sweep.OnsetCriterion.NONMARKOV)
        worst = max(worst, abs(a - b))
    return CheckResult("onset-agreement", worst < 1e-3, worst, 1e-3,
                       f"{len(cases)} cases")


def check_steady_population(quick: bool = False) -> CheckResult:
    """The excited emitter's long-time amplitude settles at (N-1)/N."""
    worst = 0.0
    for n in (3, 8, 30):
        params = ModelParams(gamma0=1.0, n_atoms=n)
        amp = dynamics.alpha1(50.0, params)
        worst = max(worst, abs(abs(amp) - (n - 1) / n))
    return CheckResult("steady-population", worst < 1e-6, worst, 1e-6, "N in {3, 8, 30}")


def check_speedup_monotone_in_n(quick: bool = False) -> CheckResult:
    """More emitters accelerate the evolution: ratio falls with N at gamma0=2."""
    ratios = measures.evaluate_columns(dynamics.ChannelColumns.of(
        [ModelParams(gamma0=2.0, n_atoms=n) for n in (1, 3, 8, 30)]), TAU)[1]
    gaps = np.diff(ratios)
    worst = float(max(0.0, gaps.max()))
    return CheckResult("speedup-monotone-in-n", bool(np.all(gaps < 0)), worst, 0.0,
                       "N in {1, 3, 8, 30} at gamma0=2")


def check_norm_ordering(quick: bool = False) -> CheckResult:
    """Schatten norms: inf <= 2 <= 1, plus the triangle inequality."""
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(8 if quick else 24):
        dim = int(rng.integers(2, 4))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        n1 = measures.schatten_norm(a, 1)
        n2 = measures.schatten_norm(a, 2)
        ninf = measures.schatten_norm(a, math.inf)
        worst = max(worst, ninf - n2, n2 - n1,
                    measures.schatten_norm(a + b, 1) - n1 - measures.schatten_norm(b, 1))
    return CheckResult("norm-ordering", worst < 1e-12, max(worst, 0.0), 1e-12,
                       "random matrices, seed 7")


ALL_CHECKS = (
    check_oracle_equivalence,
    check_speedup_backflow_identity,
    check_reduction_mappings,
    check_bound_state_solver,
    check_onset_agreement,
    check_steady_population,
    check_speedup_monotone_in_n,
    check_norm_ordering,
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        try:
            results.append(fn(quick))
        except Exception as exc:  # a crashed check is a failed check
            name = fn.__name__.removeprefix("check_").replace("_", "-")
            results.append(CheckResult(name, False, math.inf, 0.0,
                                       f"raised {exc!r}"))
    return results
