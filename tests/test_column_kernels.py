"""A seeded sample of the whole admissible box through both column
kernels at once: about 2,000 points of both kinds with gamma0 over 40
decades, lam over 32 and N up to 1e8, as one ChannelColumns."""

import warnings

import numpy as np
import pytest

from qspeedup.bound_state import (BRACKET_FLOOR, BracketFailureError, RESIDUAL_TOL,
                                  find_bound_state, kernel_k, solve_bound_states)
from qspeedup.dynamics import ChannelColumns
from qspeedup.measures import ReportStatus, evaluate_columns, evaluate_point
from qspeedup.spectral import AtomKind, ModelParams

def wide_box_points(seed=20261019, count=2000):
    """Admissible points drawn log-uniformly: gamma0 on 1e-12..1e12, lam
    and a transition frequency omega0 on 1e-8..1e8, N on 1..1e8, both kinds
    (theta uniform on [0, 1] for V-type).  Each draw is taken in units of
    its omega0, as (gamma0/omega0, lam/omega0).  A draw ModelParams refuses
    is dropped."""
    rng = np.random.default_rng(seed)
    gamma0 = 10.0 ** rng.uniform(-12.0, 12.0, count)
    lam = 10.0 ** rng.uniform(-8.0, 8.0, count)
    omega0 = 10.0 ** rng.uniform(-8.0, 8.0, count)
    n_atoms = np.floor(10.0 ** rng.uniform(0.0, 8.0, count)).astype(int)
    vee = rng.random(count) < 0.5
    theta = np.where(vee, rng.random(count), 0.0)
    points = []
    for g0, l, w0, n, v, th in zip(gamma0.tolist(), lam.tolist(), omega0.tolist(),
                                   n_atoms.tolist(), vee.tolist(), theta.tolist()):
        kind = AtomKind.THREE_LEVEL_V if v else AtomKind.TWO_LEVEL
        try:
            points.append(ModelParams(gamma0=g0 / w0, lam=l / w0, n_atoms=n,
                                      theta=th, kind=kind))
        except ValueError:  # a channel or reservoir constant past float range
            pass
    return points


@pytest.fixture(scope="module")
def box():
    """The points, their ChannelColumns and a fixed sample of rows: every
    97th, so both kinds and solved and underflowing rows take part."""
    points = wide_box_points()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        channels = ChannelColumns.of(points)
    return points, channels, range(0, len(points), 97)


@pytest.mark.parametrize("tau", [1e-4, 7.3, 1e7])
def test_functional_columns_stay_finite_and_in_range(box, tau):
    points, channels, sample = box
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau_qsl, ratio, backflow, final, stationary = evaluate_columns(channels, tau)
    for column in (tau_qsl, ratio, backflow, final):
        assert np.isfinite(column).all()
    assert ((0.0 <= ratio) & (ratio <= 1.0)).all()
    assert (backflow >= 0.0).all()
    assert ((0.0 <= final) & (final <= 1.0)).all()
    for i in sample:
        report = evaluate_point(points[i], tau)
        row = (tau_qsl[i], ratio[i], backflow[i], final[i])
        assert [v.hex() for v in row] == [
            v.hex() for v in (report.tau_qsl, report.ratio, report.nonmarkov,
                              report.final_population)]
        assert (report.status is ReportStatus.STATIONARY) == stationary[i]


def test_bound_state_rows_meet_their_gates(box):
    points, channels, sample = box
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coupled, underflow, energy, residual, lo, hi, iterations = solve_bound_states(
            channels)
    assert coupled.all()  # gamma0 >= 1e-12
    solved = ~underflow
    assert solved.any() and underflow.any()
    gate = RESIDUAL_TOL * np.maximum(1.0, np.abs(energy))
    assert (residual[solved] < gate[solved]).all()
    assert ((lo <= energy) & (energy <= hi))[solved].all()
    assert (energy[solved] < 0.0).all()
    # K - E falls as E rises, so an underflowing root lies below the floor
    # exactly when h >= 0 there; K(-1e-16) itself may pass float range
    with np.errstate(over="ignore"):
        for i in np.flatnonzero(underflow).tolist():
            assert kernel_k(BRACKET_FLOOR, points[i]) - BRACKET_FLOOR >= 0.0
    for i in sample:
        if underflow[i]:
            with pytest.raises(BracketFailureError):
                find_bound_state(points[i])
            continue
        result = find_bound_state(points[i])
        assert (result.energy.hex(), result.residual.hex(), result.iterations) == (
            energy[i].hex(), residual[i].hex(), iterations[i])
