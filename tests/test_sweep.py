import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qspeedup import bound_state, cli, measures, spectral
from qspeedup.bound_state import BracketFailureError, find_bound_state
from qspeedup.dynamics import ChannelColumns
from qspeedup.measures import evaluate_point
from qspeedup.spectral import AtomKind, ModelParams
from qspeedup.svg import render_figure
from qspeedup.sweep import (FigurePreset, NoTransitionError, OnsetCriterion,
                            SweepConfig, figure_preset,
                            find_critical_coupling, run_sweep)

SMALL = SweepConfig(kind=AtomKind.TWO_LEVEL, n_atoms_list=(1, 3),
                    gamma0_grid=(0.0, 2.0, 11))


def per_point_row(params: ModelParams, tau: float) -> tuple:
    """The row of one point from the public one-point calls: (gamma0,
    n_atoms, theta, ratio, nonmarkov, bound_energy, status)."""
    report = evaluate_point(params, tau)
    try:
        state = find_bound_state(params)
    except BracketFailureError:
        bound, status = 0.0, "bound-underflow"
    else:
        bound = state.energy if state.exists else None
        status = report.status.value
    return (params.gamma0, params.n_atoms, params.theta, report.ratio,
            report.nonmarkov, bound, status)


def table_rows(table) -> list[tuple]:
    """The grid points of a SweepTable as per_point_row tuples, zipped from
    its columns in curve-major order."""
    keys = ((g0, n, theta) for n, theta in table.curves for g0 in table.gamma0)
    values = zip(table.ratio, table.nonmarkov, table.bound_energy, table.status)
    return [(*key, *value) for key, value in zip(keys, values)]


@st.composite
def sweep_configs(draw):
    kind = draw(st.sampled_from(AtomKind))
    thetas = (0.0,) if kind is AtomKind.TWO_LEVEL else tuple(
        draw(st.lists(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
                      min_size=1, max_size=3)))
    # lo = 0 is stationary; weak couplings at small N underflow the probes
    lo = draw(st.sampled_from((0.0, 0.05)) | st.floats(0.0, 2.0))
    return SweepConfig(
        kind=kind,
        n_atoms_list=tuple(draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))),
        theta_list=thetas,
        gamma0_grid=(lo, lo + draw(st.floats(0.0, 4.0)), draw(st.integers(2, 9))),
        lam=draw(st.floats(0.2, 5.0)),
        omega0=draw(st.floats(0.25, 4.0)),
        tau=draw(st.sampled_from((5.0, 200.0)) | st.floats(0.1, 200.0)))


class TestSweepConfig:
    def test_grid_endpoints(self):
        values = SMALL.gamma0_values()
        assert values[0] == 0.0 and values[-1] == 2.0
        assert len(values) == 11

    @pytest.mark.parametrize("kwargs", [
        dict(n_atoms_list=()),
        dict(n_atoms_list=(0,)),
        dict(theta_list=()),
        dict(gamma0_grid=(-0.1, 2.0, 5)),
        dict(gamma0_grid=(2.0, 1.0, 5)),
        dict(gamma0_grid=(0.0, 2.0, 1)),
        dict(tau=0.0),
        dict(tau=math.inf),
        dict(tau=math.nan),
        dict(gamma0_grid=(0.0, math.inf, 5)),
        dict(gamma0_grid=(math.nan, 2.0, 5)),
        dict(n_atoms_list=(2.7,)),  # would run and label N = 2
        dict(n_atoms_list=(True,)),  # would run N = 1
        dict(gamma0_grid=(0.0, 2.0, 5.0)),  # np.linspace would raise TypeError
        dict(gamma0_grid=(0.0, 2.0, 2.5)),
        dict(gamma0_grid=(0.0, 2.0, True)),
        dict(gamma0_grid=(0.0, 2.0, np.float64(5.0))),
    ])
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(kind=AtomKind.TWO_LEVEL, **kwargs)


class TestRunSweep:
    def test_row_order_and_statuses(self):
        table = run_sweep(SMALL)
        rows = table_rows(table)
        assert len(table) == len(rows) == 22
        assert [n for _, n, *_ in rows] == [1] * 11 + [3] * 11
        assert [g0 for g0, *_ in rows[:3]] == [0.0, 0.2, 0.4]
        (_, _, _, ratio, _, bound, status), underflow, strong = rows[0], rows[1], rows[10]
        assert status == "stationary" and bound is None and ratio == 1.0
        # gamma0 = 0.2 at N = 1 underflows the bound-state probe floor
        assert underflow[5:] == (0.0, "bound-underflow")
        assert strong[6] == "normal" and strong[5] < 0

    def test_rows_match_direct_evaluation(self):
        for g0, n, theta, ratio, backflow, bound, status in table_rows(run_sweep(SMALL)):
            params = ModelParams(gamma0=g0, n_atoms=n, theta=theta)
            report = evaluate_point(params, SMALL.tau)
            assert ratio == report.ratio
            assert backflow == report.nonmarkov
            if status == "normal" and g0 > 0:
                assert bound == find_bound_state(params).energy

    @pytest.mark.parametrize("config", [
        SweepConfig(kind=AtomKind.TWO_LEVEL, n_atoms_list=(1, 2, 30),
                    gamma0_grid=(0.0, 4.0, 21), tau=200.0),
        SweepConfig(kind=AtomKind.THREE_LEVEL_V, n_atoms_list=(1, 30),
                    theta_list=(0.0, 0.5, 1.0), gamma0_grid=(0.0, 4.0, 21),
                    tau=200.0),
        SweepConfig(kind=AtomKind.THREE_LEVEL_V, n_atoms_list=(1, 3),
                    theta_list=(1.0,), gamma0_grid=(0.0, 1.0, 11)),
    ])
    def test_rows_match_per_point_public_api(self, config):
        rows = table_rows(run_sweep(config))
        points = [ModelParams(gamma0=float(g0), lam=config.lam, n_atoms=n,
                              theta=theta, omega0=config.omega0, kind=config.kind)
                  for n in config.n_atoms_list for theta in config.theta_list
                  for g0 in config.gamma0_values()]
        assert len(rows) == len(points)
        for (g0, n, theta, ratio, backflow, bound, status), params in zip(rows, points):
            assert (g0, n, theta) == (params.gamma0, params.n_atoms, params.theta)
            report = evaluate_point(params, config.tau)
            assert ratio == report.ratio
            assert backflow == report.nonmarkov
            try:
                state = find_bound_state(params)
            except BracketFailureError:
                assert (status, bound) == ("bound-underflow", 0.0)
                continue
            assert status == report.status.value
            assert bound == (state.energy if state.exists else None)
        # the grid reaches every status, windows of many envelope periods,
        # and single emitters whose first turning point, the amplitude zero
        # 2 (pi - atan(|d|/lam))/|d|, lies inside the window
        assert {r[-1] for r in rows} == {"stationary", "bound-underflow", "normal"}
        omega = ChannelColumns.of(points).d.imag
        single = np.array([p.n_atoms == 1 for p in points]) & (omega > 0.0)
        first_zero = 2.0 * (math.pi - np.arctan(omega[single] / config.lam)) / omega[single]
        assert (first_zero < config.tau).any()
        if config.tau > 100.0:
            assert (config.tau * omega / (2.0 * math.pi)).max() > 500.0

    @settings(max_examples=40, deadline=None)
    @example(SMALL)
    @example(SweepConfig(kind=AtomKind.THREE_LEVEL_V, n_atoms_list=(1, 30),
                         theta_list=(0.0, 0.5, 1.0), gamma0_grid=(0.0, 4.0, 9),
                         lam=0.7, omega0=2.0, tau=200.0))
    @given(sweep_configs())
    def test_rows_equal_the_one_point_calls(self, config):
        rows = table_rows(run_sweep(config))
        points = [ModelParams(gamma0=g0, lam=config.lam, n_atoms=n, theta=theta,
                              omega0=config.omega0, kind=config.kind)
                  for n in config.n_atoms_list for theta in config.theta_list
                  for g0 in config.gamma0_values().tolist()]
        assert list(map(repr, rows)) == [repr(per_point_row(p, config.tau))
                                         for p in points]

    def test_grid_points_build_no_objects(self, monkeypatch):
        built = {cls: 0 for cls in (spectral.ModelParams, measures.SpeedupReport,
                                    bound_state.BoundStateResult)}
        for cls in built:
            def counting(self, *args, __init__=cls.__init__, cls=cls, **kwargs):
                built[cls] += 1
                __init__(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        preset = figure_preset(4)
        config = preset.config
        table = run_sweep(config)
        curves = len(config.n_atoms_list) * len(config.theta_list)
        assert len(table) == curves * config.gamma0_grid[2]
        # nor do the writers, which read the table's columns
        cli._rows_csv(table)
        cli._rows_json(table, {})
        render_figure(cli._sweep_panels(table, preset))
        # the ModelParams checks run at each curve's two ends only
        assert built.pop(spectral.ModelParams) <= 2 * curves
        assert set(built.values()) == {0}

    def test_curve_end_overflow_is_refused(self):
        # gamma0 = 0 passes; further up the curve, its top end included,
        # 2*gamma0*lam*N overflows
        config = SweepConfig(kind=AtomKind.TWO_LEVEL, n_atoms_list=(10 ** 308,),
                             gamma0_grid=(0.0, 4.0, 3))
        with pytest.raises(ValueError, match="channel constant"):
            run_sweep(config)

    def test_deterministic_across_calls(self):
        first = run_sweep(SMALL)
        second = run_sweep(SMALL)
        assert first == second

    def test_theta_grid_multiplies_rows(self):
        config = SweepConfig(kind=AtomKind.THREE_LEVEL_V, n_atoms_list=(2,),
                             theta_list=(0.0, 1.0), gamma0_grid=(0.0, 2.0, 3))
        rows = table_rows(run_sweep(config))
        assert [(n, theta, g0) for g0, n, theta, *_ in rows] == [
            (2, 0.0, 0.0), (2, 0.0, 1.0), (2, 0.0, 2.0),
            (2, 1.0, 0.0), (2, 1.0, 1.0), (2, 1.0, 2.0)]


class TestFigurePresets:
    @pytest.mark.parametrize("figure, kind, thetas, right", [
        (2, AtomKind.TWO_LEVEL, (0.0,), "nonmarkov"),
        (3, AtomKind.TWO_LEVEL, (0.0,), "bound_energy"),
        (4, AtomKind.THREE_LEVEL_V, (0.0, 1.0), "nonmarkov"),
        (5, AtomKind.THREE_LEVEL_V, (0.0, 1.0), "bound_energy"),
    ])
    def test_preset_table(self, figure, kind, thetas, right):
        preset = figure_preset(figure)
        assert isinstance(preset, FigurePreset)
        assert preset.figure == figure
        assert preset.config.kind is kind
        assert preset.config.theta_list == thetas
        assert preset.right_axis == right
        assert preset.config.n_atoms_list == (1, 3, 8, 30)
        assert preset.config.gamma0_grid == (0.0, 4.0, 401)

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="2, 3, 4, 5"):
            figure_preset(6)


class TestCriticalCoupling:
    def test_regression_value(self):
        onset = find_critical_coupling(AtomKind.TWO_LEVEL, 3)
        assert onset == pytest.approx(0.464940, abs=2e-3)

    def test_detectors_agree(self):
        speedup = find_critical_coupling(AtomKind.TWO_LEVEL, 3,
                                         criterion=OnsetCriterion.SPEEDUP)
        backflow = find_critical_coupling(AtomKind.TWO_LEVEL, 3,
                                          criterion=OnsetCriterion.NONMARKOV)
        assert abs(speedup - backflow) < 1e-3

    def test_aligned_dipoles_halve_the_onset(self):
        flat = find_critical_coupling(AtomKind.THREE_LEVEL_V, 3, theta=0.0)
        aligned = find_critical_coupling(AtomKind.THREE_LEVEL_V, 3, theta=1.0)
        assert aligned == pytest.approx(flat / 2, abs=2e-3)

    def test_onset_decreases_with_emitter_count(self):
        onsets = [find_critical_coupling(AtomKind.TWO_LEVEL, n, tol=1e-4)
                  for n in (3, 8, 30)]
        assert onsets[0] > onsets[1] > onsets[2]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_rejects_invalid_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            find_critical_coupling(AtomKind.TWO_LEVEL, 3, tol=tol)

    def test_tol_below_float_spacing_ends_at_the_bracket_edge(self):
        # the bracket reaches float spacing long before a width of 1e-300
        onset = find_critical_coupling(AtomKind.TWO_LEVEL, 1, tol=1e-300)
        assert onset == pytest.approx(find_critical_coupling(AtomKind.TWO_LEVEL, 1),
                                      abs=1e-6)
        assert onset == pytest.approx(1.281805, abs=2e-3)

    def test_no_transition_raises(self):
        with pytest.raises(NoTransitionError, match="no transition"):
            find_critical_coupling(AtomKind.TWO_LEVEL, 3, gamma0_max=0.05)

    def test_result_is_a_genuine_boundary(self):
        onset = find_critical_coupling(AtomKind.TWO_LEVEL, 8, tol=1e-6)
        below = evaluate_point(ModelParams(gamma0=onset - 1e-5, n_atoms=8), 5.0)
        above = evaluate_point(ModelParams(gamma0=onset + 1e-5, n_atoms=8), 5.0)
        # below the onset the decay is still monotone: no speed-up at all
        assert below.ratio == 1.0
        assert below.nonmarkov == 0.0
        assert above.ratio < 1.0
