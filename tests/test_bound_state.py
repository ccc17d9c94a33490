import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qspeedup import bound_state
from qspeedup.bound_state import (BRACKET_FLOOR, BisectionStallError, BoundStateResult,
                                  BracketFailureError, find_bound_state,
                                  find_bound_states, kernel_k, MAX_BISECTIONS)
from qspeedup.spectral import AtomKind, ModelParams


def dense_scan_energy(params, rel=1e-9):
    """Independent root: brute-force sign scan of K(E) - E on a log grid."""
    e = -np.logspace(3.0, -8.0, 1_000_000)
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
        assert res.iterations <= MAX_BISECTIONS
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
    batch = find_bound_states(points)
    assert len(batch) == len(points)
    for params, entry in zip(points, batch):
        if params.gamma0 == 0.0:
            assert entry == BoundStateResult(False, None, None, None, 0)
            assert find_bound_state(params) == entry
            continue
        underflow = kernel_k(BRACKET_FLOOR, params) - BRACKET_FLOOR >= 0.0
        assert isinstance(entry, BracketFailureError) == underflow
        if underflow:
            with pytest.raises(BracketFailureError, match="probe floor"):
                find_bound_state(params)
            continue
        single = find_bound_state(params)
        assert entry == single
        assert repr(entry) == repr(single)
        if entry.energy < -1e-7:  # inside the dense scan's energy range
            ref, _ = dense_scan_energy(params)
            assert entry.energy == pytest.approx(ref, rel=1e-6)


def test_empty_batch():
    assert find_bound_states([]) == []


def test_outer_bracket_failure_stays_with_its_point():
    # gamma0 = 1e200 keeps K(E) - E <= 0 down to the last outer probe
    absurd = ModelParams(gamma0=1e200)
    with pytest.raises(BracketFailureError, match="bracket probes"):
        find_bound_state(absurd)
    params = ModelParams(gamma0=2.0, n_atoms=3)
    solved, failed, zero = find_bound_states([params, absurd, ModelParams(gamma0=0.0)])
    assert solved == find_bound_state(params)
    assert isinstance(failed, BracketFailureError)
    assert "bracket probes" in str(failed)
    assert not zero.exists


def test_search_is_far_shorter_than_bisection():
    # regula falsi with the Illinois weight: about 7 steps where a bisection
    # on log|E| needs about 40
    for params in SPOT_POINTS + [ModelParams(gamma0=0.25)]:
        assert find_bound_state(params).iterations <= 12


def test_residual_gate_raises_for_the_batch(monkeypatch):
    monkeypatch.setattr(bound_state, "MAX_BISECTIONS", 2)
    params = ModelParams(gamma0=2.0, n_atoms=3)
    with pytest.raises(BisectionStallError, match="bisection stalled"):
        find_bound_state(params)
    with pytest.raises(BisectionStallError, match="n_atoms=3"):
        find_bound_states([ModelParams(gamma0=0.0), params])
