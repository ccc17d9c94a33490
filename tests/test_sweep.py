import dataclasses
import math

import numpy as np
import pytest

from qspeedup import bound_state, checks, cli, measures, spectral, sweep
from qspeedup.bound_state import BracketFailureError, find_bound_state
from qspeedup.dynamics import ChannelColumns
from qspeedup.measures import evaluate_point
from qspeedup.spectral import AtomKind, ModelParams
from qspeedup.svg import render_figure
from qspeedup.sweep import (FigurePreset, NoTransitionError, OnsetCriterion,
                            SweepConfig, SweepTable, figure_preset,
                            find_critical_coupling, find_critical_couplings, run_sweep)


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
    """The grid points of a SweepTable as per_point_row tuples, curve by
    curve, each curve's columns zipped with the shared gamma0 list."""
    return [(g0, n, theta, *values) for n, theta, *columns in table.curves
            for g0, *values in zip(table.gamma0, *columns)]


class TestSweepConfig:
    def test_only_kind_and_theta_list_are_fields(self):
        assert [f.name for f in dataclasses.fields(SweepConfig)] == ["kind", "theta_list"]
        assert (SweepConfig.n_atoms_list, SweepConfig.gamma0_grid) == ((1, 3, 8, 30),
                                                                       (0.0, 4.0, 401))
        assert (SweepConfig.lam, SweepConfig.tau) == (2.0, 5.0)

    def test_grid_endpoints(self):
        values = figure_preset(2).config.gamma0_values()
        assert values[0] == 0.0 and values[-1] == 4.0
        assert len(values) == 401

    @pytest.mark.parametrize("kwargs", [
        dict(theta_list=(1.5,)),
        dict(theta_list=(-0.1,)),
        dict(theta_list=(math.nan,)),
        dict(theta_list=(math.inf,)),
        dict(theta_list=(0.0, 2.0)),  # one bad angle among good ones
        dict(theta_list=(0.0, math.nan)),
        dict(kind="three-level-v"),  # the value, not the AtomKind
        dict(kind=None),
    ])
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**{"kind": AtomKind.THREE_LEVEL_V, **kwargs})

    @pytest.mark.parametrize("name", ["n_atoms_list", "gamma0_grid", "lam", "tau"])
    def test_survey_constants_are_not_settable(self, name):
        with pytest.raises(TypeError, match=name):
            SweepConfig(kind=AtomKind.TWO_LEVEL, **{name: getattr(SweepConfig, name)})

    def test_rejects_an_empty_theta_list(self):
        with pytest.raises(ValueError, match="theta_list"):
            SweepConfig(kind=AtomKind.THREE_LEVEL_V, theta_list=())

    def test_refuses_a_two_level_curve_with_theta(self):
        # a ModelParams rule of the curve, checked where the config is built
        with pytest.raises(ValueError, match="theta must be 0 for two-level"):
            SweepConfig(kind=AtomKind.TWO_LEVEL, theta_list=(0.5,))


class TestRunSweep:
    def test_row_order_and_statuses(self):
        table = run_sweep(figure_preset(3).config)
        rows = table_rows(table)
        assert len(table) == len(rows) == 4 * 401
        assert [n for _, n, *_ in rows] == [1] * 401 + [3] * 401 + [8] * 401 + [30] * 401
        assert [g0 for g0, *_ in rows[:3]] == [0.0, 0.01, 0.02]
        (_, _, _, ratio, _, bound, status), underflow, strong = rows[0], rows[8], rows[400]
        assert status == "stationary" and bound is None and ratio == 1.0
        # gamma0 = 0.08 at N = 1 underflows the bound-state probe floor
        assert underflow[5:] == (0.0, "bound-underflow")
        assert strong[6] == "normal" and strong[5] < 0

    @pytest.mark.parametrize("figure", [3, 5])
    def test_rows_equal_the_one_point_calls(self, figure):
        # every 8th gamma0 of every curve: 612 rows over both figures
        config = figure_preset(figure).config
        count = config.gamma0_grid[2]
        rows = [row for i, row in enumerate(table_rows(run_sweep(config)))
                if i % count % 8 == 0]
        points = [ModelParams(gamma0=g0, lam=config.lam, n_atoms=n, theta=theta,
                              kind=config.kind)
                  for n in config.n_atoms_list for theta in config.theta_list
                  for g0 in config.gamma0_values().tolist()[::8]]
        assert list(map(repr, rows)) == [repr(per_point_row(p, config.tau))
                                         for p in points]
        # the rows reach every status, and single emitters whose first
        # turning point, the amplitude zero 2 (pi - atan(|d|/lam))/|d|, lies
        # inside the window
        assert {r[-1] for r in rows} == {"stationary", "bound-underflow", "normal"}
        omega = ChannelColumns.of(points).b
        single = np.array([p.n_atoms == 1 for p in points]) & (omega > 0.0)
        first_zero = 2.0 * (math.pi - np.arctan(omega[single] / config.lam)) / omega[single]
        assert (first_zero < config.tau).any()

    def test_grid_points_build_no_objects(self, monkeypatch):
        # the preset's config checks its curves before the count starts
        preset = figure_preset(4)
        config = preset.config
        built = {cls: 0 for cls in (spectral.ModelParams, measures.SpeedupReport,
                                    bound_state.BoundStateResult)}
        for cls in built:
            def counting(self, *args, __init__=cls.__init__, cls=cls, **kwargs):
                built[cls] += 1
                __init__(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        table = run_sweep(config)
        curves = len(config.n_atoms_list) * len(config.theta_list)
        assert len(table) == curves * config.gamma0_grid[2]
        # nor do the writers, which read the table's columns
        cli._rows_csv(table)
        cli._rows_json(table)
        render_figure(table, preset.right_axis)
        assert set(built.values()) == {0}

    def test_deterministic_across_calls(self):
        config = figure_preset(3).config
        assert run_sweep(config) == run_sweep(config)

    def test_only_gamma0_and_curves_are_fields(self):
        assert [f.name for f in dataclasses.fields(SweepTable)] == ["gamma0", "curves"]

    def test_theta_grid_multiplies_rows(self):
        table = run_sweep(figure_preset(5).config)
        assert [(n, theta) for n, theta, *_ in table.curves] == [
            (n, theta) for n in (1, 3, 8, 30) for theta in (0.0, 1.0)]
        rows = table_rows(table)
        top = table.gamma0[-1]
        assert [(n, theta, g0) for g0, n, theta, *_ in rows[400:403]] == [
            (1, 0.0, top), (1, 1.0, 0.0), (1, 1.0, 0.01)]
        for table in (run_sweep(figure_preset(3).config), table):
            for _, _, *columns in table.curves:
                assert [len(column) for column in columns] == [len(table.gamma0)] * 4


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


# both kinds, both criteria, N in {1, 3, 30} and theta in {0, 0.5, 1}: 24 searches
MIXED_SEARCHES = tuple(
    (kind, n_atoms, theta, criterion)
    for kind, thetas in ((AtomKind.TWO_LEVEL, (0.0,)), (AtomKind.THREE_LEVEL_V, (0.0, 0.5, 1.0)))
    for theta in thetas for n_atoms in (1, 3, 30) for criterion in OnsetCriterion)


def sequential_onset(kind, n_atoms, theta, criterion):
    """find_critical_coupling as a plain bisection of (0, 4] to width 1e-6:
    one evaluate_point per midpoint, each decided before the next midpoint
    is formed."""
    def fires(g0):
        report = evaluate_point(ModelParams(gamma0=g0, n_atoms=n_atoms, theta=theta,
                                            kind=kind), 5.0)
        if criterion is OnsetCriterion.SPEEDUP:
            return report.ratio < 1.0
        return report.nonmarkov > sweep.BACKFLOW_ONSET_TOL

    lo, hi = 0.0, 4.0
    assert fires(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if fires(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestCriticalCoupling:
    @pytest.mark.parametrize("kind, theta", [(AtomKind.TWO_LEVEL, 0.0),
                                             (AtomKind.THREE_LEVEL_V, 1.0),
                                             (AtomKind.THREE_LEVEL_V, 0.5)])
    @pytest.mark.parametrize("criterion", list(OnsetCriterion))
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 5, 8, 30, 100])
    def test_grid_walk_equals_the_sequential_bisection(self, kind, theta, criterion,
                                                       n_atoms):
        onset = find_critical_coupling(kind, n_atoms, theta, criterion=criterion)
        expected = sequential_onset(kind, n_atoms, theta, criterion)
        assert onset.hex() == expected.hex()

    def test_levels_stop_at_the_first_width_within_1e_6(self):
        assert 4 / 2 ** sweep._LEVELS <= 1e-6 < 4 / 2 ** (sweep._LEVELS - 1)

    @pytest.mark.parametrize("count", [1, 2, 6])
    def test_search_evaluates_six_levels_a_call(self, monkeypatch, count):
        # every top in one call, then 22 halvings for all the searches at
        # once: three calls of 6 levels (63 midpoints a search), one of 4 (15)
        sizes = []

        def recording(channels, tau, _fn=sweep.evaluate_columns):
            sizes.append(len(channels.gamma0))
            return _fn(channels, tau)

        monkeypatch.setattr(sweep, "evaluate_columns", recording)
        find_critical_couplings(MIXED_SEARCHES[:count])
        assert sizes == [count, 63 * count, 63 * count, 63 * count, 15 * count]

    @pytest.mark.parametrize("criterion", list(OnsetCriterion))
    @pytest.mark.parametrize("kind, n_atoms, theta", [
        (AtomKind.TWO_LEVEL, 1, 0.0), (AtomKind.TWO_LEVEL, 8, 0.0),
        (AtomKind.THREE_LEVEL_V, 3, 1.0), (AtomKind.THREE_LEVEL_V, 30, 0.5)])
    def test_onset_sits_between_its_bracket_edges(self, kind, n_atoms, theta, criterion):
        # through the one-point call: the indicator is quiet at the final
        # bracket's lower edge and fires at its upper edge
        onset = find_critical_coupling(kind, n_atoms, theta, criterion=criterion)
        fired = []
        for g0 in (onset - sweep.ONSET_STEP / 2, onset + sweep.ONSET_STEP / 2):
            report = evaluate_point(ModelParams(gamma0=g0, n_atoms=n_atoms, theta=theta,
                                                kind=kind), 5.0)
            fired.append(report.ratio < 1.0 if criterion is OnsetCriterion.SPEEDUP
                         else report.nonmarkov > sweep.BACKFLOW_ONSET_TOL)
        assert fired == [False, True]

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
        onsets = [find_critical_coupling(AtomKind.TWO_LEVEL, n)
                  for n in (3, 8, 30)]
        assert onsets[0] > onsets[1] > onsets[2]

    @pytest.mark.parametrize("criterion", ["speedup", "nonmarkov", "SPEEDUP", None])
    def test_rejects_a_criterion_that_is_not_an_onset_criterion(self, criterion):
        # any such value would otherwise run the backflow detector
        with pytest.raises(ValueError, match="OnsetCriterion"):
            find_critical_coupling(AtomKind.TWO_LEVEL, 1, criterion=criterion)

    @pytest.mark.parametrize("name, value", [("gamma0_max", 4.0), ("tol", 1e-6)])
    def test_search_range_is_not_settable(self, name, value):
        with pytest.raises(TypeError, match=name):
            find_critical_coupling(AtomKind.TWO_LEVEL, 1, **{name: value})

    def test_curve_end_overflow_is_refused(self):
        # the top point gamma0 = 4 vouches for the search: there
        # 2*gamma0*lam*N overflows
        with pytest.raises(ValueError, match="channel constant"):
            find_critical_coupling(AtomKind.TWO_LEVEL, 10 ** 308)

    def test_no_transition_raises(self):
        # the backflow at gamma0 = 4 is 1.26e-11 here, below BACKFLOW_ONSET_TOL
        with pytest.raises(NoTransitionError, match="no transition"):
            find_critical_coupling(AtomKind.TWO_LEVEL, 10 ** 22,
                                   criterion=OnsetCriterion.NONMARKOV)

    @pytest.mark.parametrize("count", [1, 6])
    def test_search_builds_one_point_per_search(self, monkeypatch, count):
        # the tops and the midpoints go to the kernel as columns: only each
        # search's top point, gamma0 = 4, is a ModelParams, checked once,
        # and no search builds a report
        built = {cls: 0 for cls in (spectral.ModelParams, measures.SpeedupReport)}
        for cls in built:
            def counting(self, *args, __init__=cls.__init__, cls=cls, **kwargs):
                built[cls] += 1
                __init__(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        find_critical_couplings(MIXED_SEARCHES[:count])
        assert built == {spectral.ModelParams: count, measures.SpeedupReport: 0}

    def test_lockstep_batch_equals_the_batches_of_one(self):
        onsets = find_critical_couplings(MIXED_SEARCHES)
        assert len(onsets) == len(MIXED_SEARCHES) == 24
        assert [onset.hex() for onset in onsets] == [
            find_critical_coupling(*search).hex() for search in MIXED_SEARCHES]

    @pytest.mark.parametrize("position", [0, 2, 5])
    def test_batch_names_the_search_without_a_transition(self, position):
        searches = list(MIXED_SEARCHES[:5])
        searches.insert(position, (AtomKind.TWO_LEVEL, 10 ** 22, 0.0,
                                   OnsetCriterion.NONMARKOV))
        with pytest.raises(NoTransitionError,
                           match=r"for nonmarkov at two-level, N = 10{22}, theta = 0$"):
            find_critical_couplings(searches)

    def test_batch_refuses_a_criterion_that_is_not_an_onset_criterion(self):
        searches = [*MIXED_SEARCHES[:3], (AtomKind.TWO_LEVEL, 3, 0.0, "speedup")]
        with pytest.raises(ValueError, match="OnsetCriterion"):
            find_critical_couplings(searches)

    def test_result_is_a_genuine_boundary(self):
        onset = find_critical_coupling(AtomKind.TWO_LEVEL, 8)
        below = evaluate_point(ModelParams(gamma0=onset - 1e-5, n_atoms=8), 5.0)
        above = evaluate_point(ModelParams(gamma0=onset + 1e-5, n_atoms=8), 5.0)
        # below the onset the decay is still monotone: no speed-up at all
        assert below.ratio == 1.0
        assert below.nonmarkov == 0.0
        assert above.ratio < 1.0


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize("shift", [0, -1, 1])
def test_onset_check_reads_the_bracket_edges(monkeypatch, shift, quick):
    # both onsets moved by one grid step still agree, so only the edges of
    # the final bracket can tell; they go to the kernel as one batch
    search, sizes, batches = find_critical_couplings, [], []

    def shifted(searches):
        batches.append(len(searches))
        return [onset + shift * sweep.ONSET_STEP for onset in search(searches)]

    def recording(channels, tau, _fn=measures.evaluate_columns):
        sizes.append(len(channels.gamma0))
        return _fn(channels, tau)

    monkeypatch.setattr(sweep, "find_critical_couplings", shifted)
    monkeypatch.setattr(sweep, "evaluate_columns", recording)
    monkeypatch.setattr(measures, "evaluate_columns", recording)
    result = checks.check_onset_agreement(quick)
    cases = 1 if quick else 3
    assert result.passed == (shift == 0) and result.worst < 1e-3
    assert result.detail == f"{cases} cases; brackets {'violated' if shift else 'ok'}"
    # one lockstep call for both criteria of every case: the tops, the four
    # level groups, then every edge at once
    searches = 2 * cases
    assert batches == [searches]
    assert sizes == [searches, 63 * searches, 63 * searches, 63 * searches,
                     15 * searches, 4 * cases]
