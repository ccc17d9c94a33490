import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qspeedup.dynamics import (ChannelColumns, alpha1, density_trajectory,
                               excited_population, nu1, population_rate, trajectory)
from qspeedup.measures import (ReportStatus, SpeedupReport, bures_angle,
                               evaluate_columns, evaluate_point, qsl_generic)
from qspeedup.spectral import AtomKind, ModelParams

TWO = ModelParams(gamma0=1.0, n_atoms=3)
VEE = ModelParams(gamma0=1.0, n_atoms=3, theta=0.4, kind=AtomKind.THREE_LEVEL_V)
# gamma0 = lam = 2, N = 1: d = 2i, so g(t) = exp(-t)(cos t + sin t) and the
# population rate vanishes inside [0, 5] only at 3*pi/4 (g = 0) and pi
# (g' = 0); the single ascending segment lifts p from 0 to exp(-2*pi)
RESONANT = ModelParams(gamma0=2.0, n_atoms=1)


def batch_reports(points, tau):
    """The rows of evaluate_columns on points, each as a SpeedupReport."""
    *columns, stationary = evaluate_columns(ChannelColumns.of(points), tau)
    status = [ReportStatus.STATIONARY if s else ReportStatus.NORMAL
              for s in stationary.tolist()]
    return [SpeedupReport(tau, *row) for row in zip(*(c.tolist() for c in columns), status)]


class TestBuresAngle:
    def test_reference_angles(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        down = np.diag([0.0, 1.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert bures_angle(up, up) == pytest.approx(0.0, abs=1e-12)
        assert bures_angle(up, down) == pytest.approx(math.pi / 2)
        assert bures_angle(up, plus) == pytest.approx(math.pi / 4)

    def test_accepts_array_likes(self):
        # nested lists of real entries read as the complex matrix they spell
        up, plus = [[1, 0], [0, 0]], [[0.5, 0.5], [0.5, 0.5]]
        assert bures_angle(up, plus) == bures_angle(np.array(up, complex),
                                                    np.array(plus, complex))
        assert bures_angle(up, plus) == pytest.approx(math.pi / 4)

    def test_requires_pure_initial(self):
        mixed = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError, match="pure"):
            bures_angle(mixed, mixed)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_states(self, value):
        # a NaN used to pass the purity test and clamp the fidelity to 0,
        # so the angle read pi/2
        up = np.diag([1.0, 0.0]).astype(complex)
        bad = up.copy()
        bad[1, 1] = value
        for initial, target in ((up, bad), (bad, up)):
            with pytest.raises(ValueError, match="finite"):
                bures_angle(initial, target)


def _omega(params):
    """|d| of the symmetric channel: d**2 = lam**2 - 2 gamma0 c lam N."""
    c = 1.0 + params.theta if params.kind is AtomKind.THREE_LEVEL_V else 1.0
    return math.sqrt(2.0 * params.gamma0 * c * params.lam * params.n_atoms - params.lam ** 2)


def _extrema(params, tau):
    """Envelope extrema t_k = 2 pi k/|d| inside (0, tau]."""
    step = 2.0 * math.pi / _omega(params)
    return step * np.arange(1, math.floor(tau / step) + 1)


def _amplitude_zeros(params, tau):
    """N = 1 zeros of g at 2 (pi k - atan(|d|/lam))/|d| inside (0, tau]."""
    omega = _omega(params)
    zeros = 2.0 * (math.pi * np.arange(1, math.floor(tau * omega / math.pi) + 2)
                   - math.atan(omega / params.lam)) / omega
    return zeros[zeros <= tau]


class TestTurningPoints:
    """The cuts between monotone segments of p, on which the closed-form
    backflow rests: the population rate vanishes at every envelope extremum
    and, for N = 1, at every amplitude zero."""

    def test_known_zero_structure(self):
        points = np.sort(np.concatenate([_amplitude_zeros(RESONANT, 5.0),
                                         _extrema(RESONANT, 5.0)]))
        assert np.allclose(points, [3 * math.pi / 4, math.pi], rtol=0, atol=1e-12)
        assert np.abs(population_rate(points, RESONANT)).max() < 1e-15

    def test_collective_points_are_envelope_extrema(self):
        # N >= 2: only g' vanishes, at multiples of 2 pi/|d|; |d| = 2 sqrt(5)
        params = ModelParams(gamma0=2.0, n_atoms=3)
        points = _extrema(params, 12.0)
        step = 2 * math.pi / (2 * math.sqrt(5.0))
        assert np.allclose(points, step * np.arange(1, 9), rtol=0, atol=1e-12)
        assert np.abs(population_rate(points, params)).max() < 1e-15
        # between them the rate keeps its sign: falling, then rising
        mid = np.concatenate(([0.5 * points[0]], 0.5 * (points[1:] + points[:-1])))
        signs = np.sign(population_rate(mid, params))
        assert signs.tolist() == [-1.0, 1.0] * 4

    def test_overdamped_channel_has_none(self):
        for params, tau in ((ModelParams(gamma0=0.1), 1e4),
                            (ModelParams(gamma0=0.0, n_atoms=5), 10.0)):
            assert ChannelColumns.of([params]).b[0] == 0.0
            t = np.linspace(0.0, tau, 4097)
            assert population_rate(t, params).max() <= 0.0
            assert evaluate_point(params, tau).nonmarkov == 0.0


class TestFunctionals:
    def test_backflow_closed_form_value(self):
        assert evaluate_point(RESONANT, 5.0).nonmarkov == pytest.approx(
            math.exp(-2 * math.pi), abs=1e-10)

    def test_monotone_regime_is_exact(self):
        weak = ModelParams(gamma0=0.1, n_atoms=1)
        report = evaluate_point(weak, 5.0)
        assert report.nonmarkov == 0.0
        assert report.ratio == 1.0
        assert abs(report.tau_qsl - 5.0) < 1e-12
        assert report.status is ReportStatus.NORMAL

    def test_stationary_point(self):
        report = evaluate_point(ModelParams(gamma0=0.0, n_atoms=4), 5.0)
        assert report.status is ReportStatus.STATIONARY
        assert report.tau_qsl == 0.0
        assert report.ratio == 1.0
        assert report.nonmarkov == 0.0
        assert report.final_population == 1.0

    @pytest.mark.parametrize("params", [RESONANT, TWO, VEE])
    def test_rate_integral_identity(self, params):
        # (1 - p_tau) + 2 R must equal the independently sampled
        # integral of |dp/dt|
        tau = 5.0
        report = evaluate_point(params, tau)
        t = np.linspace(0.0, tau, 2**17 + 1)
        dense = np.trapezoid(np.abs(population_rate(t, params)), t)
        assembled = (1.0 - report.final_population) + 2.0 * report.nonmarkov
        assert assembled == pytest.approx(dense, abs=1e-6)
        assert report.tau_qsl == pytest.approx(
            tau * (1.0 - report.final_population) / assembled, abs=1e-12)

    def test_flat_v_backflow_matches_two_level(self):
        flat = ModelParams(gamma0=2.0, n_atoms=3, kind=AtomKind.THREE_LEVEL_V)
        two = ModelParams(gamma0=2.0, n_atoms=3)
        flat_report, two_report = evaluate_point(flat, 5.0), evaluate_point(two, 5.0)
        assert flat_report.nonmarkov == pytest.approx(two_report.nonmarkov, abs=1e-10)
        assert flat_report.tau_qsl == pytest.approx(two_report.tau_qsl, abs=1e-10)

    def test_backflow_grows_with_the_window(self):
        values = [evaluate_point(RESONANT, tau).nonmarkov for tau in (2.5, 5.0, 10.0)]
        assert values[0] < values[1] < values[2]
        # windows past the last rate zero pick up whole e**(-2 pi k) rises
        assert values[2] == pytest.approx(
            sum(math.exp(-2 * math.pi * k) for k in (1, 2, 3)), abs=1e-10)

    def test_long_window_does_not_alias(self):
        # rate zeros 2 pi/|d| ~ 0.33 apart, far closer than tau/4096 ~ 0.49
        report = evaluate_point(ModelParams(gamma0=3.0, n_atoms=30), 2000.0)
        assert report.nonmarkov == pytest.approx(0.16271, abs=1e-5)
        assert report.ratio == pytest.approx(0.16767, abs=1e-5)

    def test_long_overdamped_window_is_finite(self):
        report = evaluate_point(ModelParams(gamma0=0.2539, n_atoms=1), 894.6)
        assert report.status is ReportStatus.NORMAL
        assert report.ratio == 1.0 and report.nonmarkov == 0.0
        assert report.final_population == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_finite_or_empty_window(self, tau):
        with pytest.raises(ValueError, match="tau"):
            evaluate_point(TWO, tau)

    @pytest.mark.parametrize("params", [
        ModelParams(gamma0=1e200),           # |d| = 2e100: about 1.6e100 periods
        ModelParams(gamma0=1.0, n_atoms=10 ** 21),
        ModelParams(gamma0=5e9, kind=AtomKind.THREE_LEVEL_V),
    ])
    def test_rejects_windows_of_too_many_periods(self, params):
        # the backflow is a geometric sum, so a window of any number of
        # envelope periods gets a finite answer
        for report in (evaluate_point(params, 5.0),
                       batch_reports([TWO, params, VEE], 5.0)[1]):
            assert report.status is ReportStatus.NORMAL
            assert math.isfinite(report.tau_qsl) and math.isfinite(report.nonmarkov)
            assert 0.0 <= report.ratio <= 1.0 and report.nonmarkov >= 0.0

    def test_infinite_window_limit(self):
        # N = 30, gamma0 = 3: the envelope is gone by tau = 2000, so R is
        # its closed-form limit sum over every rise of the population
        params = ModelParams(gamma0=3.0, n_atoms=30)
        long, longer = evaluate_point(params, 2000.0), evaluate_point(params, 1e6)
        assert longer.ratio == long.ratio and longer.nonmarkov == long.nonmarkov
        n, r = 30, math.exp(-math.pi * params.lam / _omega(params))
        rises = r / (1.0 - r)           # sum_k r**k (1 + r), k odd
        alternating = r * r / (1.0 + r * r)  # sum_k r**2k (1 - r**2), k odd
        limit = (2.0 * (n - 1) * rises - alternating) / n ** 2
        assert longer.nonmarkov == pytest.approx(limit, rel=1e-14)
        assert longer.ratio == pytest.approx(
            (2.0 - 1.0 / n) / n / ((2.0 - 1.0 / n) / n + 2.0 * limit), rel=1e-14)

    def test_large_n_keeps_its_digits(self):
        # at fixed gamma0*N the ratio has a finite large-N limit; 1 - a**2
        # would round the loss of the N = 10**21 point to 0
        far, near = (evaluate_point(ModelParams(gamma0=90.0 / n, n_atoms=n), 5.0)
                     for n in (10 ** 21, 10 ** 9))
        assert far.ratio > 0.0
        assert far.ratio == pytest.approx(near.ratio, rel=1e-8)

    def test_underflowing_damping_ratio_is_finite(self):
        # x = pi*lam/|d| underflows to 0 (r = 1): each geometric sum takes
        # its count, not 0/0
        params = ModelParams(gamma0=1e300, lam=1e-200, n_atoms=10 ** 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_point(params, 5.0)
        assert report.status is ReportStatus.NORMAL
        assert math.isfinite(report.nonmarkov) and report.nonmarkov > 0.0
        assert 0.0 < report.ratio < 1.0

    def test_non_finite_population_is_a_numerical_failure(self, skew_envelope):
        # ModelParams refuses overflowing channel constants, so the NaN
        # envelope of one channel (lam = 3) is injected
        bad = ModelParams(gamma0=1.0, lam=3.0)
        skew_envelope(lambda lam: np.where(np.equal(lam, bad.lam), math.nan, 1.0))
        with pytest.raises(FloatingPointError, match="not finite"):
            evaluate_point(bad, 5.0)
        with pytest.raises(FloatingPointError, match="not finite"):
            evaluate_columns(ChannelColumns.of([TWO, bad]), 5.0)

    def test_batch_rows_equal_single_points(self):
        def bits(report):
            return (report.tau_qsl.hex(), report.ratio.hex(), report.nonmarkov.hex(),
                    report.final_population.hex(), report.status)

        mixed = [TWO, VEE, RESONANT, ModelParams(gamma0=0.0, n_atoms=2),
                 ModelParams(gamma0=3.0, n_atoms=30)]
        # omega/lam of the N >= 2 row overflows: only the N = 1 formula reads it
        overflow = [ModelParams(gamma0=2.0),
                    ModelParams(gamma0=8e307, lam=1e-300, n_atoms=10 ** 10)]
        for points, taus in ((mixed, (0.5, 5.0, 2000.0)), (overflow, (1e-4, 7.3, 1e7))):
            for tau in taus:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = batch_reports(points, tau)
                assert [bits(r) for r in rows] == [
                    bits(evaluate_point(p, tau)) for p in points]
        assert batch_reports([], 5.0) == []
        with pytest.raises(ValueError, match="tau"):
            evaluate_point(TWO, math.nan)

    def test_row_classes_do_not_depend_on_their_batch(self):
        # monotone, oscillating N = 1 and oscillating N >= 2 rows: a batch of
        # any of the classes, in any order, leaves the others' sums empty
        classes = {"monotone": [ModelParams(gamma0=0.1, n_atoms=1),
                                ModelParams(gamma0=0.01, n_atoms=2)],
                   "single": [RESONANT, ModelParams(gamma0=5.0, lam=0.5)],
                   "many": [TWO, VEE]}
        for tau in (0.5, 5.0, 2000.0):
            whole = [p for points in classes.values() for p in points]
            expected = dict(zip(whole, batch_reports(whole, tau)))
            for r in (1, 2, 3):
                for names in itertools.permutations(classes, r):
                    points = [p for name in names for p in classes[name]]
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        rows = batch_reports(points, tau)
                    assert rows == [expected[p] for p in points]

    def test_final_population_is_excited_population(self):
        points = [TWO, VEE, RESONANT, ModelParams(gamma0=0.1, n_atoms=7),
                  ModelParams(gamma0=2.5, n_atoms=1, theta=0.3, kind=AtomKind.THREE_LEVEL_V),
                  ModelParams(gamma0=3.0, n_atoms=30)]
        for tau in (0.5, 5.0, 2000.0):
            finals = evaluate_columns(ChannelColumns.of(points), tau)[3].tolist()
            assert [f.hex() for f in finals] == [
                excited_population(tau, p).hex() for p in points]

    @pytest.mark.parametrize("params", [TWO, VEE])
    def test_functionals_read_the_shared_envelope(self, params, skew_envelope):
        # the batched population goes through dynamics.envelope, as alpha1
        # and nu1 do, so a skewed envelope reaches both alike
        before = evaluate_point(params, 5.0).final_population
        skew_envelope(lambda lam: 1.001)
        after = evaluate_point(params, 5.0).final_population
        assert after != before
        assert after == pytest.approx(excited_population(5.0, params), rel=1e-15)
        amp = (alpha1 if params.kind is AtomKind.TWO_LEVEL else nu1)(5.0, params)
        scale = 1.0 if params.kind is AtomKind.TWO_LEVEL else 2.0
        assert after == pytest.approx(scale * abs(amp) ** 2, rel=1e-12)


class TestGenericQsl:
    def test_matches_population_functionals(self):
        times, rhos, rates = density_trajectory(TWO, 5.0, steps=8192)
        result = qsl_generic(times, rhos, rho_rates=rates)
        assert result.status is ReportStatus.NORMAL
        assert result.tau_qsl == pytest.approx(evaluate_point(TWO, 5.0).tau_qsl, rel=1e-5)
        pop = trajectory(TWO, 5.0).population[-1]
        assert math.sin(result.bures) ** 2 == pytest.approx(1 - pop, abs=1e-12)

    @pytest.mark.parametrize("params", [TWO, VEE])  # 2x2 and 3x3 rates
    def test_rate_hierarchy(self, params):
        times, rhos, rates = density_trajectory(params, 5.0, steps=4096)
        lam1, lam2, lam_inf = qsl_generic(times, rhos, rho_rates=rates).rates
        assert lam_inf <= lam2 <= lam1

    def test_rates_and_time_are_floats(self):
        times, rhos, rates = density_trajectory(TWO, 5.0, steps=4096)
        result = qsl_generic(times, rhos, rho_rates=rates)
        assert type(result.tau_qsl) is float and type(result.bures) is float
        assert [type(r) for r in result.rates] == [float] * 3

    def test_rates_equal_the_singular_value_route(self):
        # random Hermitian rates with complex coherences, which no
        # density_trajectory builds, against the stacked SVD they replace
        times, rhos, _ = density_trajectory(VEE, 5.0, steps=4096)
        rng = np.random.default_rng(11)
        half = rng.normal(size=rhos.shape) + 1j * rng.normal(size=rhos.shape)
        rates = half + half.conj().swapaxes(1, 2)
        sv = np.linalg.svd(rates, compute_uv=False)
        span = times[-1] - times[0]
        want = [np.trapezoid(column, times) / span for column in (
            sv.sum(axis=1), np.sqrt((sv * sv).sum(axis=1)), sv[:, 0])]
        got = qsl_generic(times, rhos, rho_rates=rates).rates
        assert got == pytest.approx(want, rel=1e-13)

    def test_non_hermitian_rates_are_refused(self):
        times, rhos, rates = density_trajectory(VEE, 5.0, steps=4096)
        scale = np.abs(rates).max()
        skewed = rates.copy()
        skewed[100, 0, 1] += 1e-14 * scale  # inside HERMITIAN_TOL
        assert qsl_generic(times, rhos, rho_rates=skewed).rates == pytest.approx(
            qsl_generic(times, rhos, rho_rates=rates).rates, rel=1e-12)
        for entry in (1e-9 * scale, 1j * scale):
            skewed = rates.copy()
            skewed[100, 0, 1] += entry
            with pytest.raises(ValueError, match="Hermitian"):
                qsl_generic(times, rhos, rho_rates=skewed)

    def test_stationary_stack(self):
        times = np.linspace(0.0, 5.0, 4097)
        rhos = np.broadcast_to(np.diag([1.0, 0.0]).astype(complex),
                               (4097, 2, 2)).copy()
        result = qsl_generic(times, rhos, rho_rates=np.zeros_like(rhos))
        assert result.status is ReportStatus.STATIONARY
        assert result.tau_qsl == 0.0

    def test_input_validation(self):
        times, rhos, rates = density_trajectory(TWO, 5.0, steps=4096)
        with pytest.raises(ValueError, match="4096"):
            qsl_generic(times[:100], rhos[:100], rho_rates=rates[:100])
        bad_times = times.copy()
        bad_times[5] = bad_times[4]
        with pytest.raises(ValueError, match="increasing"):
            qsl_generic(bad_times, rhos, rho_rates=rates)
        for index, value in ((2000, math.nan), (-1, math.inf)):
            bad_times = times.copy()
            bad_times[index] = value
            with pytest.raises(ValueError, match="finite"):
                qsl_generic(bad_times, rhos, rho_rates=rates)
        for bad_rhos in (rhos[:-1], np.array(1.0), rhos[:, 0]):
            with pytest.raises(ValueError, match="one state per snapshot"):
                qsl_generic(times, bad_rhos, rho_rates=rates)
        with pytest.raises(ValueError, match="match rhos"):
            qsl_generic(times, rhos, rho_rates=rates[:-1])
        mixed = np.broadcast_to(np.eye(2, dtype=complex) / 2,
                                rhos.shape).copy()
        with pytest.raises(ValueError, match="pure"):
            qsl_generic(times, mixed, rho_rates=rates)
        # a NaN final state, with exact rates, used to give status normal
        # and a speed-limit time beyond the window
        nan_final = rhos.copy()
        nan_final[-1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            qsl_generic(times, nan_final, rho_rates=rates)
        # the angle reads only the end states, so a NaN inside the stack
        # passed with status normal
        nan_inside = rhos.copy()
        nan_inside[100] = math.nan
        with pytest.raises(ValueError, match="finite"):
            qsl_generic(times, nan_inside, rho_rates=rates)
        # a NaN rate stalled the SVD with LinAlgError
        nan_rate = rates.copy()
        nan_rate[100] = math.nan
        with pytest.raises(ValueError, match="finite"):
            qsl_generic(times, rhos, rho_rates=nan_rate)



def _dense_scan(params, tau):
    """Backflow and ratio from the sampled population rate alone.

    Sign changes of the rate on a grid much finer than any rate zero
    spacing are bisected to the turning points; R sums the population
    rises between them.
    """
    t = np.linspace(0.0, tau, int(min(2**19, 4096 + 512 * tau)) + 1)
    s = np.sign(population_rate(t, params))
    flip = np.nonzero(s[1:-1] * s[2:] < 0)[0] + 1
    lo, hi = t[flip], t[flip + 1]
    s_lo = s[flip]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = np.sign(population_rate(mid, params)) == s_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    cuts = np.concatenate(([0.0], 0.5 * (lo + hi), [tau]))
    p = excited_population(cuts, params)
    rise = np.maximum(np.diff(p), 0.0).sum()
    loss = 1.0 - p[-1]
    return rise, loss / (loss + 2.0 * rise)


@settings(max_examples=30, deadline=None)
# strong coupling over the longest window, where a 4096-point rate grid
# aliases, and a single emitter, whose population also touches zero
@example(AtomKind.TWO_LEVEL, 30, 4.0, 0.0, 3.0)
@example(AtomKind.THREE_LEVEL_V, 30, 4.0, 1.0, 3.0)
@example(AtomKind.TWO_LEVEL, 1, 3.0, 0.0, 1.0)
@example(AtomKind.THREE_LEVEL_V, 1, 3.0, 0.5, 1.0)
@given(st.sampled_from(list(AtomKind)), st.integers(1, 30),
       st.floats(0.05, 4.0), st.floats(0.0, 1.0), st.floats(-1.0, 3.0))
def test_functionals_match_dense_scan(kind, n, gamma0, theta, log_tau):
    if kind is AtomKind.TWO_LEVEL:
        theta = 0.0
    params = ModelParams(gamma0=gamma0, n_atoms=n, theta=theta, kind=kind)
    tau = 10.0 ** log_tau
    report = evaluate_point(params, tau)
    rise, ratio = _dense_scan(params, tau)
    assert report.nonmarkov == pytest.approx(rise, abs=1e-7)
    assert report.ratio == pytest.approx(ratio, abs=1e-7)


def seeded_dense_points(seed=20261019, count=200):
    """count points with gamma0 and lam log-uniform on 1e-4..1e4, N on
    1..1000, both kinds and tau log-uniform on 0.01..1000; a draw whose
    window holds more than 300 envelope periods is passed over.  A third
    log-uniform draw, once the transition frequency omega0, is made and
    unused, so the later draws keep their values (the dynamics never read
    omega0)."""
    rng = np.random.default_rng(seed)
    draws = 4 * count
    gamma0, lam, _ = (10.0 ** rng.uniform(-4.0, 4.0, draws) for _ in range(3))
    n_atoms = np.floor(10.0 ** rng.uniform(0.0, 3.0, draws)).astype(int)
    vee = rng.random(draws) < 0.5
    theta = np.where(vee, rng.random(draws), 0.0)
    tau = 10.0 ** rng.uniform(-2.0, 3.0, draws)
    points = []
    for g0, l, n, v, th, t in zip(gamma0.tolist(), lam.tolist(), n_atoms.tolist(),
                                  vee.tolist(), theta.tolist(), tau.tolist()):
        params = ModelParams(gamma0=g0, lam=l, n_atoms=n, theta=th,
                             kind=AtomKind.THREE_LEVEL_V if v else AtomKind.TWO_LEVEL)
        if t * ChannelColumns.of([params]).b[0] <= 300 * 2.0 * math.pi:
            points.append((params, t))
    assert len(points) >= count
    return points[:count]


def test_backflow_matches_dense_scan_over_seeded_points():
    # eight decades in each reservoir constant, where the hypothesis test
    # above keeps lam = 2
    for params, tau in seeded_dense_points():
        report = evaluate_point(params, tau)
        rise, ratio = _dense_scan(params, tau)
        assert report.nonmarkov == pytest.approx(rise, rel=1e-9)
        assert report.ratio == pytest.approx(ratio, abs=1e-9)


def _turning_point_reference(params, tau):
    """Backflow and ratio from the population read at its turning points.

    The cuts are the envelope extrema and, for N = 1, the amplitude zeros
    inside the window; R sums max(0, Delta p) between consecutive cuts.
    """
    cuts = [0.0, tau]
    if ChannelColumns.of([params]).b[0] > 0.0:
        cuts += _extrema(params, tau).tolist()
        if params.n_atoms == 1:
            cuts += _amplitude_zeros(params, tau).tolist()
    p = excited_population(np.sort(cuts), params)
    rise = np.maximum(np.diff(p), 0.0).sum()
    loss = 1.0 - p[-1]
    return rise, loss / (loss + 2.0 * rise)


@settings(max_examples=60, deadline=None)
# long windows: about 6e3 periods at N = 30, a weakly damped N = 1 point;
# windows that end on a rise: from an amplitude zero (N = 1) and from an
# odd extremum (N = 3)
@example(AtomKind.TWO_LEVEL, 30, 3.0, 0.0, 2.0, 2000.0)
@example(AtomKind.THREE_LEVEL_V, 39, 4.0, 1.0, 0.5, 1500.0)
@example(AtomKind.TWO_LEVEL, 1, 3.0, 0.0, 0.2, 300.0)
@example(AtomKind.TWO_LEVEL, 1, 2.0, 0.0, 2.0, 2.5)
@example(AtomKind.THREE_LEVEL_V, 1, 2.0, 0.5, 2.0, 4.0)
@example(AtomKind.TWO_LEVEL, 3, 2.0, 0.0, 2.0, 2.0)
@given(st.sampled_from(list(AtomKind)), st.integers(1, 39), st.floats(0.01, 4.0),
       st.floats(0.0, 1.0), st.floats(0.1, 5.0), st.floats(0.1, 2000.0))
def test_closed_form_backflow_matches_turning_point_reference(kind, n, gamma0, theta,
                                                              lam, tau):
    if kind is AtomKind.TWO_LEVEL:
        theta = 0.0
    params = ModelParams(gamma0=gamma0, lam=lam, n_atoms=n, theta=theta, kind=kind)
    report = evaluate_point(params, tau)
    rise, ratio = _turning_point_reference(params, tau)
    assert report.nonmarkov == pytest.approx(rise, abs=1e-12)
    assert report.ratio == pytest.approx(ratio, abs=1e-12)
