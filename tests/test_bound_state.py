import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qspeedup import bound_state, checks, spectral
from qspeedup.bound_state import (BRACKET_FLOOR, BisectionStallError, BoundStateResult,
                                  BracketFailureError, find_bound_state, kernel_k,
                                  MAX_STEPS, RESIDUAL_TOL, solve_bound_states)
from qspeedup.dynamics import ChannelColumns
from qspeedup.quadrature import adaptive_simpson
from qspeedup.spectral import (AtomKind, ModelParams, reservoir_integral,
                               reservoir_integral_quad)


def dense_scan_energy(params, rel=1e-9, top=3.0):
    """Independent root: brute-force sign scan of K(E) - E on a log grid
    from |E| = 10**top down to 1e-8."""
    e = -np.logspace(top, -8.0, 1_000_000)
    h = kernel_k(e, params) - e
    sign = np.sign(h)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    assert len(flips) == 1, "kernel must cross the diagonal exactly once"
    lo, hi = float(e[flips[0]]), float(e[flips[0] + 1])

    def f(x):
        return float(kernel_k(x, params)) - x

    f_lo = f(lo)
    while (hi - lo) > rel * abs(hi):
        mid = -math.sqrt(lo * hi)
        val = f(mid)
        if (val > 0) == (f_lo > 0):
            lo, f_lo = mid, val
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


SPOT_POINTS = [
    ModelParams(gamma0=1.0),
    ModelParams(gamma0=2.0, n_atoms=3),
    ModelParams(gamma0=3.0, n_atoms=8),
    ModelParams(gamma0=1.5, theta=1.0, kind=AtomKind.THREE_LEVEL_V),
    ModelParams(gamma0=2.5, n_atoms=30, theta=0.5, kind=AtomKind.THREE_LEVEL_V),
]


class TestFindBoundState:
    def test_zero_coupling_has_no_bound_state(self):
        res = find_bound_state(ModelParams(gamma0=0.0, n_atoms=4))
        assert res == find_bound_state(ModelParams(gamma0=0.0, n_atoms=4))
        assert not res.exists and res.energy is None and res.bracket is None

    @pytest.mark.parametrize("params", SPOT_POINTS)
    def test_result_invariants(self, params):
        res = find_bound_state(params)
        assert res.exists
        lo, hi = res.bracket
        assert lo < res.energy < hi <= 0.0
        assert res.iterations <= MAX_STEPS
        assert res.residual < 1e-10 * max(1.0, abs(res.energy))
        assert abs(kernel_k(res.energy, params) - res.energy) == res.residual

    @pytest.mark.parametrize("params", SPOT_POINTS)
    def test_against_dense_scan(self, params):
        res = find_bound_state(params)
        ref, (lo, hi) = dense_scan_energy(params)
        assert lo <= res.energy <= hi
        assert res.energy == pytest.approx(ref, rel=1e-6)

    def test_weak_coupling_raises_bracket_failure(self):
        with pytest.raises(BracketFailureError, match="probe floor"):
            find_bound_state(ModelParams(gamma0=0.05))

    def test_near_floor_root_still_meets_residual(self):
        res = find_bound_state(ModelParams(gamma0=0.25))
        assert res.exists and -1e-10 < res.energy < -1e-16
        assert res.residual < 1e-10

    def test_strong_collective_root_is_deep(self):
        res = find_bound_state(ModelParams(gamma0=4.0, n_atoms=30, theta=1.0,
                                           kind=AtomKind.THREE_LEVEL_V))
        assert res.energy < -10.0
        assert res.residual < 1e-10

    def test_aligned_v_equals_doubled_two_level(self):
        v = find_bound_state(ModelParams(gamma0=1.3, n_atoms=4, theta=1.0,
                                         kind=AtomKind.THREE_LEVEL_V))
        two = find_bound_state(ModelParams(gamma0=2.6, n_atoms=4))
        assert v.energy == pytest.approx(two.energy, rel=1e-12)


class TestMonotonicity:
    @given(st.floats(0.5, 4.0), st.floats(0.05, 1.0))
    def test_deeper_for_stronger_coupling(self, g0, dg):
        e1 = find_bound_state(ModelParams(gamma0=g0)).energy
        e2 = find_bound_state(ModelParams(gamma0=g0 + dg)).energy
        assert e2 < e1

    def test_deeper_for_more_atoms(self):
        energies = [find_bound_state(ModelParams(gamma0=2.0, n_atoms=n)).energy
                    for n in (1, 2, 3, 8, 30)]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_deeper_for_aligned_dipoles(self):
        energies = [find_bound_state(
            ModelParams(gamma0=2.0, n_atoms=3, theta=th,
                        kind=AtomKind.THREE_LEVEL_V)).energy
            for th in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b < a for a, b in zip(energies, energies[1:]))


class TestKernel:
    def test_kernel_value_at_root_is_fixed_point(self):
        params = ModelParams(gamma0=2.0, n_atoms=3)
        e = find_bound_state(params).energy
        assert kernel_k(e, params) == pytest.approx(e, abs=1e-10)

    def test_kernel_decreasing_toward_zero(self):
        params = ModelParams(gamma0=1.0, n_atoms=2)
        e = -np.logspace(2, -10, 2000)
        k = kernel_k(e, params)
        assert np.all(np.diff(k) < 0)

    def test_kernel_approaches_omega0_far_out(self):
        params = ModelParams(gamma0=1.0)
        assert kernel_k(-1e10, params) == pytest.approx(params.omega0, abs=1e-8)


TWO, VEE = AtomKind.TWO_LEVEL, AtomKind.THREE_LEVEL_V


def batch_rows(points):
    """solve_bound_states on points, one tuple of Python scalars a row:
    (coupled, underflow, energy, residual, lo, hi, iterations)."""
    return list(zip(*(column.tolist()
                      for column in solve_bound_states(ChannelColumns.of(points)))))


def point_row(params):
    """The row find_bound_state(params) reads: (coupled, underflow) and, for
    a solved point, (energy, residual, iterations) of its result."""
    try:
        result = find_bound_state(params)
    except BracketFailureError as exc:
        assert "probe floor" in str(exc)
        return True, True
    if not result.exists:
        assert result == BoundStateResult(False, None, None, None, 0)
        return False, False
    lo, hi = result.bracket
    assert lo < result.energy < hi
    return True, False, result.energy, result.residual, result.iterations


def short_row(row):
    """A batch row cut to the fields of point_row."""
    coupled, underflow, energy, residual, _, _, iterations = row
    if not coupled or underflow:
        return coupled, underflow
    return coupled, underflow, energy, residual, iterations


@settings(max_examples=15, deadline=None)
# zero coupling, an underflow beside a solvable point, roots near the floor
# (E ~ -2e-15 for gamma0 = 0.22) and the deepest survey root in one batch
@example([(TWO, 1, 0.0, 0.0), (TWO, 1, 0.0, 0.05), (VEE, 30, 1.0, 4.0),
          (TWO, 1, 0.0, 0.22), (TWO, 1, 0.0, 0.25), (VEE, 1, 0.5, 0.12)])
@given(st.lists(st.tuples(st.sampled_from([TWO, VEE]), st.integers(1, 30),
                          st.floats(0.0, 1.0),
                          st.one_of(st.just(0.0), st.floats(0.0, 0.3),
                                    st.floats(0.0, 4.0))),
                min_size=1, max_size=4))
def test_batch_rows_equal_single_point_solves(rows):
    points = [ModelParams(gamma0=g0, n_atoms=n, theta=theta if kind is VEE else 0.0,
                          kind=kind) for kind, n, theta, g0 in rows]
    batch = batch_rows(points)
    assert len(batch) == len(points)
    for params, entry in zip(points, batch):
        # every column of the row holds the bits of the point's batch of one
        assert repr(entry) == repr(batch_rows([params])[0])
        if params.gamma0 == 0.0:
            assert short_row(entry) == (False, False)
            assert point_row(params) == short_row(entry)
            continue
        underflow = kernel_k(BRACKET_FLOOR, params) - BRACKET_FLOOR >= 0.0
        assert entry[1] == underflow
        if underflow:
            with pytest.raises(BracketFailureError, match="probe floor"):
                find_bound_state(params)
            continue
        single = point_row(params)
        assert short_row(entry) == single
        assert repr(short_row(entry)) == repr(single)
        energy = entry[2]
        if energy < -1e-7:  # inside the dense scan's energy range
            ref, _ = dense_scan_energy(params)
            assert energy == pytest.approx(ref, rel=1e-6)


def test_empty_batch():
    assert batch_rows([]) == []
    assert all(len(column) == 0 for column in solve_bound_states(ChannelColumns.of([])))


def test_outer_bracket_failure_stays_with_its_point():
    # gamma0 = 1e200 puts the root near -8e99, past any fixed ladder of outer
    # probes (a ladder to -2**200 missed it); the search's outer edge scales
    # with the coupling.  At strong coupling |E|**2 -> c*W*s, the balance of
    # |E| against the 1/|E| tail of the reservoir integral.
    absurd = ModelParams(gamma0=1e200)
    alone = find_bound_state(absurd)
    slope = (0.5 * math.pi + math.atan(absurd.omega0 / absurd.lam)) / absurd.lam
    weight = absurd.gamma0 * absurd.lam ** 2 / (2.0 * math.pi)
    assert alone.energy == pytest.approx(-math.sqrt(weight * slope), rel=1e-12)
    assert kernel_k(alone.energy, absurd) == pytest.approx(alone.energy, rel=1e-15)
    lo, hi = alone.bracket
    assert math.isfinite(lo) and lo < alone.energy < hi
    params = ModelParams(gamma0=2.0, n_atoms=3)
    solved, deep, zero, weak = map(short_row, batch_rows(
        [params, absurd, ModelParams(gamma0=0.0), ModelParams(gamma0=0.05)]))
    assert solved == point_row(params)
    assert deep == point_row(absurd)
    assert not zero[0]
    assert weak == (True, True) == point_row(ModelParams(gamma0=0.05))


def test_search_is_far_shorter_than_bisection():
    # Newton on log|E| from the weak- or strong-coupling seed: 1-5
    # evaluations where a bisection on log|E| needs about 40 (up to 6
    # without the SETTLE step, which saves the last one)
    for params in SPOT_POINTS + [ModelParams(gamma0=0.25)]:
        assert find_bound_state(params).iterations <= 5


def test_newton_roots_match_the_independent_routes():
    # a seeded batch of both kinds: roots from the probe floor to |E| ~ 1e4
    rng = np.random.default_rng(20190101)
    points = []
    for _ in range(40):
        kind = VEE if rng.random() < 0.5 else TWO
        points.append(ModelParams(
            gamma0=float(10.0 ** rng.uniform(-2.0, 6.0)), n_atoms=int(rng.integers(1, 40)),
            theta=float(rng.random()) if kind is VEE else 0.0, kind=kind))
    batch = map(short_row, batch_rows(points))
    solved = 0
    for params, entry in zip(points, batch):
        if entry[1]:  # underflow
            assert kernel_k(BRACKET_FLOOR, params) - BRACKET_FLOOR >= 0.0
            continue
        assert entry == point_row(params)
        assert repr(entry) == repr(point_row(params))
        solved += 1
        e = entry[2]
        # the kernel by quadrature, not by the closed form the search uses
        k_quad = params.omega0 - params.collective_factor() * reservoir_integral_quad(e, params)
        assert abs(k_quad - e) < RESIDUAL_TOL * max(1.0, abs(e))
        assert reservoir_integral_quad(e, params) == pytest.approx(
            reservoir_integral(e, params), rel=1e-12)
        if abs(e) > 1e-7:  # inside the dense scan's energy range
            ref, (lo, hi) = dense_scan_energy(params, top=math.log10(abs(e)) + 1.0)
            assert lo <= e <= hi
            assert e == pytest.approx(ref, rel=1e-6)
    assert solved >= 30


@pytest.mark.parametrize("gamma0", [1e4, 1e8, 1e12, 1e20, 1e30, 1e100, 1e200])
def test_search_length_does_not_grow_with_the_coupling(gamma0):
    # regula falsi took 11 / 17 / 23 / 35 / 51 / 65 (its cap) steps from
    # gamma0 = 1e4 to 1e100.  Newton from the strong-coupling balance takes
    # 2-4: a short step or a residual within 16 float spacings of |E| ends
    # the search where the residual cannot fall to 0.01 * tol
    params = ModelParams(gamma0=gamma0, n_atoms=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = find_bound_state(params)
    assert result.iterations <= 12
    assert kernel_k(result.energy, params) == pytest.approx(result.energy, rel=1e-15)


@pytest.mark.parametrize("params", [
    ModelParams(gamma0=4e307),  # K(-1e-16) lies past float range
    ModelParams(gamma0=1e10, lam=1e150),  # so does gamma0 * lam**2
    ModelParams(gamma0=1.0, omega0=1e200),  # and omega0**2
    # the search's outer edge over the floor, lo/hi, passes float range
    ModelParams(gamma0=1.84e-05, lam=106.1, n_atoms=1969, omega0=3.10e296),
])
def test_extreme_admissible_points_raise_no_warning(params):
    with np.errstate(over="ignore"):  # K(-1e-16) = -inf is the reference here
        underflow = kernel_k(BRACKET_FLOOR, params) - BRACKET_FLOOR >= 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = find_bound_state(params)
        except BracketFailureError:
            assert underflow
            return
    assert not underflow
    assert result.residual < RESIDUAL_TOL * max(1.0, abs(result.energy))
    lo, hi = result.bracket
    assert math.isfinite(lo) and lo < result.energy < hi


def test_large_roots_stop_at_float_resolution():
    # E = -4.4e4: the residual cannot fall to 0.01 * tol in absolute terms,
    # so an absolute stop ran the search until the bracket collapsed (24 steps)
    params = ModelParams(gamma0=1e8, n_atoms=30)
    result = find_bound_state(params)
    assert result.iterations < 24
    assert result.residual < RESIDUAL_TOL * max(1.0, abs(result.energy))
    assert kernel_k(result.energy, params) == pytest.approx(result.energy, rel=1e-15)


def test_residual_gate_raises_for_the_batch(monkeypatch):
    monkeypatch.setattr(bound_state, "MAX_STEPS", 2)
    params = ModelParams(gamma0=2.0, n_atoms=3)
    with pytest.raises(BisectionStallError, match="root search stalled"):
        find_bound_state(params)
    points = [ModelParams(gamma0=0.0), params]
    with pytest.raises(BisectionStallError, match="n_atoms=3"):
        solve_bound_states(ChannelColumns.of(points), label=lambda i: repr(points[i]))


def test_a_point_without_a_bound_state_fails_the_check(monkeypatch):
    # a floor below every root of the check: each of its points underflows
    monkeypatch.setattr(bound_state, "BRACKET_FLOOR", -1e6)
    with pytest.raises(BracketFailureError, match="no bound state for ModelParams"):
        checks.check_bound_state_solver(quick=True)
    (result,) = [r for r in checks.run_checks(quick=True) if r.name == "bound-state-solver"]
    assert not result.passed and "BracketFailureError" in result.detail


def test_the_check_integrates_its_points_in_one_quadrature_batch(monkeypatch):
    calls = []

    def counting(f, a, b, tol):
        calls.append(np.size(a))
        return adaptive_simpson(f, a, b, tol)

    monkeypatch.setattr(spectral, "adaptive_simpson", counting)
    result = checks.check_bound_state_solver()
    assert result.passed and "quadrature ok" in result.detail
    assert 1 <= len(calls) <= 2 and sum(calls) == 15  # 5 points, 3 pieces each


def test_a_settled_tangent_seed_is_the_energy():
    # the tangent seed -1.4092376e-12 is already the root (h = -3.5e-18
    # there), and its first step settles; the strong-coupling jump once
    # moved that step's end to -exp(balance) = -2.5e4, which became the
    # energy unevaluated and missed the gate by a residual of 4.6e4
    params = ModelParams(gamma0=0.049993694058727306, lam=6504.034821439798,
                         omega0=22787.18232260179, n_atoms=589094,
                         theta=0.3616925968836283, kind=VEE)
    result = find_bound_state(params)
    assert result.energy == pytest.approx(-1.4092376e-12, rel=1e-7)
    assert result.residual < RESIDUAL_TOL * max(1.0, abs(result.energy), params.omega0)


@pytest.mark.parametrize("params, energy", [
    (ModelParams(gamma0=1138.6521477765136, lam=320357.6494831029,
                 omega0=16926074.03757828, n_atoms=1400517), -0.0100360),
    (ModelParams(gamma0=3059616.4865094232, lam=68928954.86855517,
                 omega0=38766507.36612774, n_atoms=3), -1.7248e-7),
])
def test_residual_gate_scales_with_omega0(params, energy):
    # K(E) = omega0 - c*I cancels two terms of size omega0 ~ 1e7, so the
    # float residual carries about 1e-9 of error even at the root (the
    # reference energies are from a 60-digit root); a gate of 1e-10 * max(1,
    # |E|) raised BisectionStallError at residuals of 1.3e-9 and 8.6e-9
    result = find_bound_state(params)
    assert result.energy == pytest.approx(energy, rel=1e-4)
    assert result.residual < RESIDUAL_TOL * max(1.0, abs(result.energy), params.omega0)
