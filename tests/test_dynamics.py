import cmath
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qspeedup import dynamics
from qspeedup.dynamics import (ChannelColumns, alpha1, amplitude, density_trajectory,
                               envelope, excited_population, nu1, population_rate,
                               trajectory, unit_amplitude)
from qspeedup.oracle import solve_collective
from qspeedup.spectral import AtomKind, ModelParams

TWO = ModelParams(gamma0=1.0, n_atoms=3)
VEE = ModelParams(gamma0=1.0, n_atoms=3, theta=0.4, kind=AtomKind.THREE_LEVEL_V)


def principal_root(x):
    """The channel's d for a discriminant x, on the principal branch."""
    return cmath.sqrt(complex(x, 0.0))


class TestEnvelope:
    def test_frozen_value(self):
        g = envelope(1.0, math.sqrt(2.0), 0.0, 2.0)[0]
        assert g.dtype == np.float64
        assert g == pytest.approx(0.8630574847803386, rel=1e-14)

    def test_exactly_one_at_time_zero(self):
        assert envelope(0.0, 1.3, 0.0, 2.0)[0] == 1.0
        assert envelope(0.0, 0.0, 2.7, 2.0)[0] == 1.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            envelope(-0.5, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            envelope(np.array([0.0, -1.0]), 1.0, 0.0, 2.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            envelope(t, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="finite"):
            envelope(np.array([0.0, t]), 1.0, 0.0, 2.0)

    def test_degenerate_channel_is_continuous(self):
        t = np.linspace(0.0, 5.0, 64)
        near = envelope(t, 1e-9, 0.0, 2.0)[0]
        at = envelope(t, 0.0, 0.0, 2.0)[0]
        assert np.abs(near - at).max() < 1e-12

    def test_degenerate_channel_closed_form(self):
        # d = 0: g(t) = exp(-lam t/2) (1 + lam t/2)
        lam, t = 2.0, 1.7
        expected = math.exp(-lam * t / 2) * (1 + lam * t / 2)
        assert envelope(t, 0.0, 0.0, lam)[0] == pytest.approx(expected, rel=1e-14)

    def test_long_overdamped_window_stays_finite(self):
        # d t/2 ~ 750: cosh and sinh alone overflow, exp(-lam t/2) underflows
        lam, t = 2.0, 894.6
        d = principal_root(lam * lam - 2.0 * 0.2539 * lam)
        decay = math.exp(-0.5 * (lam - d.real) * t)
        w = 0.5 * (lam * lam - d.real ** 2)
        g, dg = envelope(t, d.real, d.imag, lam)
        assert g == pytest.approx(0.5 * (1.0 + lam / d.real) * decay, rel=1e-12)
        assert dg == pytest.approx(-0.5 * w / d.real * decay, rel=1e-12)

    def test_oscillatory_channel_is_real(self):
        # d = 3i: g(t) = exp(-t) (cos(3t/2) + (2/3) sin(3t/2))
        t = np.linspace(0, 5, 257)
        g = envelope(t, 0.0, 3.0, 2.0)[0]
        assert g.dtype == np.float64
        expected = np.exp(-t) * (np.cos(1.5 * t) + np.sin(1.5 * t) / 1.5)
        assert np.abs(g - expected).max() < 1e-15

    def test_derivative_matches_finite_differences(self):
        lam = 2.0
        for d in (1.2 + 0j, 2.9j, 0j):
            for t in (0.05, 0.7, 2.3, 4.9):
                h = 1e-6
                fd = (envelope(t + h, d.real, d.imag, lam)[0]
                      - envelope(t - h, d.real, d.imag, lam)[0]) / (2 * h)
                assert envelope(t, d.real, d.imag, lam)[1] == pytest.approx(fd, abs=5e-10)

    def test_derivative_zero_at_time_zero(self):
        assert envelope(0.0, 1.5, 0.0, 2.0)[1] == 0.0

    @given(st.floats(0.0, 20.0), st.floats(0.01, 6.0), st.floats(0.1, 4.0))
    def test_bounded_by_one(self, t, w, lam):
        d = principal_root(lam * lam - 2.0 * w * lam)
        assert abs(envelope(t, d.real, d.imag, lam)[0]) <= 1.0 + 1e-9

    @pytest.mark.parametrize("output", [0, 1], ids=["g", "dg"])
    def test_real_return_types(self, output):
        # both outputs are real float64, shaped like t broadcast on the channel
        for d in (1.3 + 0j, 2.7j, 0j):
            assert type(envelope(0.7, d.real, d.imag, 2.0)[output]) is np.float64
            for t in (np.linspace(0.0, 5.0, 9), np.zeros((2, 3))):
                out = envelope(t, d.real, d.imag, 2.0)[output]
                assert out.dtype == np.float64 and out.shape == t.shape
        column = envelope(0.7, np.array([1.3, 0.0, 0.0]), np.array([0.0, 2.7, 0.0]),
                          2.0)[output]
        assert column.dtype == np.float64 and column.shape == (3,)


def complex_reference(t, d, lam):
    """The complex-arithmetic envelope parts the real kernel replaced:
    exp(-lam*t/2) times cosh(d*t/2) and sinh(d*t/2)/d over a complex d."""
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=complex)
    grow = np.exp(0.5 * (d.real - lam) * t)
    half_m = 0.5 * np.expm1(-d.real * t)
    phase = 0.5 * d.imag * t
    cos_b, sin_b = np.cos(phase), np.sin(phase)
    even, odd = grow * (1.0 + half_m), grow * half_m
    cosh_part = even * cos_b - 1j * (odd * sin_b)
    sinh_part = 1j * (even * sin_b) - odd * cos_b
    if d.all():
        return cosh_part, sinh_part / d
    degenerate = d == 0
    return cosh_part, np.where(degenerate, 0.5 * t * cosh_part,
                               sinh_part / np.where(degenerate, 1.0, d))


def reference_g(t, d, lam):
    cosh_part, sinh_over_d = complex_reference(t, d, lam)
    return (cosh_part + lam * sinh_over_d).real


def reference_g_dt(t, d, lam):
    w = 0.5 * (lam * lam - np.square(d)).real
    return (-w * complex_reference(t, d, lam)[1]).real


def assert_same_bits(got, want):
    """Equal values with equal hex; only the sign of an exact zero may differ."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert ([v.hex() for v in (got + 0.0).ravel().tolist()]
            == [v.hex() for v in (want + 0.0).ravel().tolist()])


@st.composite
def envelope_channels(draw):
    """(d, lam) of an overdamped, oscillating or degenerate channel."""
    lam = draw(st.floats(0.01, 8.0))
    regime = draw(st.sampled_from(("overdamped", "oscillating", "degenerate")))
    if regime == "degenerate":
        return 0j, lam
    weight = (st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
              if regime == "overdamped" else st.floats(0.5, 50.0, exclude_min=True))
    return principal_root(dynamics.channel_discriminant(draw(weight), lam, lam, 1.0)), lam


@settings(max_examples=150, deadline=None)
# d*t/2 past 710 on an overdamped row, and tau = 2000, where g underflows
@example([(principal_root(64.0 - 2.0 * 0.01 * 8.0), 8.0), (3.9j, 2.0), (0j, 2.0)],
         2000.0, 64)
@example([(principal_root(4.0 - 2.0 * 0.2539 * 2.0), 2.0)], 894.6, 16)
@example([(principal_root(-12.0), 2.0), (principal_root(4.0 - 1.0), 2.0)], 5.0, 8)
@given(st.lists(envelope_channels(), min_size=1, max_size=5),
       st.floats(1e-3, 2000.0), st.integers(1, 64))
def test_real_envelope_equals_the_complex_path(channels, tau, steps):
    """Both outputs of envelope, g and g' (the operation order of its
    prefactor included), are the real part of the complex path, bit for
    bit: on mixed-row (n, 1) batches, on one column at a scalar t and on
    each channel alone."""
    d = np.array([c[0] for c in channels], dtype=complex)
    lam = np.array([c[1] for c in channels])
    t = np.linspace(0.0, tau, steps + 1)

    def assert_envelope(t, d, lam):
        g, dg = envelope(t, d.real, d.imag, lam)
        assert_same_bits(g, reference_g(t, d, lam))
        assert_same_bits(dg, reference_g_dt(t, d, lam))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_envelope(t, d[:, None], lam[:, None])
        assert_envelope(tau, d, lam)
        for d_i, lam_i in channels:
            assert_envelope(tau, d_i, lam_i)
            assert_envelope(t, d_i, lam_i)


class TestChannelConstants:
    def test_principal_branch(self):
        # x = 4 - 4*gamma0 at lam = 2, N = 1: d = 2 (a real root), then 2i
        channels = ChannelColumns.build(np.array([0.0, 2.0]), 2.0, 1.0, 1.0, 1.0)
        assert channels.a.tolist() == [2.0, 0.0]
        assert channels.b.tolist() == [0.0, 2.0]

    def test_channel_discriminants(self):
        channels = ChannelColumns.of([
            ModelParams(gamma0=1.0, n_atoms=2),
            ModelParams(gamma0=1.0, n_atoms=2, theta=0.5,
                        kind=AtomKind.THREE_LEVEL_V)])
        lam = 2.0
        for i, c in enumerate((1.0, 1.5)):
            d = principal_root(lam * lam - 2 * c * lam * 2)
            assert (channels.a[i], channels.b[i]) == (d.real, d.imag)
        minus = dynamics.channel_discriminant(1.0, lam, 2.0, 0.5)
        assert minus == lam * lam - 2 * 0.5 * lam * 2

    # x = 0 exactly, then channel constants 2*gamma0*c*lam*N near float max
    @example([(1.0, 2.0, 1, 0.0)])
    @example([(8.9e307, 1.0, 1, 0.0), (4.4e307, 1.0, 1, 1.0), (1.0, 1e154, 1, 0.0),
              (1e-300, 1e-300, 1, 0.5), (0.0, 2.0, 10 ** 300, 1.0)])
    @given(st.lists(st.tuples(st.floats(0.0, 10.0) | st.floats(0.0, 1e300),
                              st.floats(0.01, 10.0) | st.floats(1e-300, 1e150),
                              st.integers(1, 40) | st.integers(1, 10 ** 300),
                              st.floats(0.0, 1.0)),
                    min_size=1, max_size=6))
    def test_array_channel_is_bitwise_principal_sqrt(self, consts):
        points = []
        for g0, lam, n, theta in consts:
            try:
                points.append(ModelParams(gamma0=g0, lam=lam, n_atoms=n, theta=theta,
                                          kind=AtomKind.THREE_LEVEL_V))
            except ValueError:  # channel constant past float range
                pass
        assume(points)
        gamma0, lam, n, theta = (np.array([getattr(p, f) for p in points], dtype=float)
                                 for f in ("gamma0", "lam", "n_atoms", "theta"))

        two_level_points = [ModelParams(gamma0=p.gamma0, lam=p.lam, n_atoms=p.n_atoms)
                            for p in points]
        # one curve per kind: every gamma0 at the first point's lam, N, theta
        curves = []
        for first, c in ((points[0], 1.0 + points[0].theta),
                         (two_level_points[0], 1.0)):
            curve = []
            for g0 in gamma0.tolist():
                try:
                    curve.append(ModelParams(gamma0=g0, lam=first.lam,
                                             n_atoms=first.n_atoms, theta=first.theta,
                                             kind=first.kind))
                except ValueError:  # channel constant past float range
                    pass
            curves.append((curve, (first.lam, 1.0, first.n_atoms, c)))

        def column_bits(channels):
            # every column is real: a complex d cannot come back
            assert {getattr(channels, f.name).dtype for f in fields(channels)} == {
                np.dtype(np.float64)}
            return [[v.hex() for v in getattr(channels, f.name).tolist()]
                    for f in fields(channels)]

        def bits(channels, i):
            return channels.a[i].hex(), channels.b[i].hex()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the three channels of each point; 1 - theta reaches build only
            arrays = [ChannelColumns.build(gamma0, lam, 1.0, n, c)
                      for c in (1.0, 1.0 + theta, 1.0 - theta)]
            vee = ChannelColumns.of(points)
            two_level = ChannelColumns.of(two_level_points)
            for curve, consts in curves:
                built = ChannelColumns.build(
                    np.array([p.gamma0 for p in curve], dtype=float), *consts)
                assert column_bits(built) == column_bits(ChannelColumns.of(curve))
        for i, p in enumerate(points):
            lam_i, n_i = p.lam, float(p.n_atoms)
            expected = [(d.real.hex(), d.imag.hex()) for d in (
                cmath.sqrt(complex(lam_i * lam_i - 2.0 * p.gamma0 * c * lam_i * n_i, 0.0))
                for c in (1.0, 1.0 + p.theta, 1.0 - p.theta))]
            assert [bits(channels, i) for channels in arrays] == expected
            assert [bits(two_level, i), bits(vee, i)] == expected[:2]
            # the bound-state kernel's collective factor, for both kinds
            assert vee.factor[i].hex() == p.collective_factor().hex()
            assert (two_level.factor[i].hex()
                    == two_level_points[i].collective_factor().hex())


class TestAmplitudes:
    def test_initial_values_exact(self):
        assert alpha1(0.0, TWO) == 1.0 + 0.0j
        assert nu1(0.0, VEE) == complex(math.sqrt(0.5))

    def test_kind_dispatch_guards(self):
        with pytest.raises(ValueError):
            alpha1(1.0, VEE)
        with pytest.raises(ValueError):
            nu1(1.0, TWO)

    def test_kind_aware_amplitude(self):
        amplitude = dynamics.amplitude
        t = np.linspace(0.0, 5.0, 257)
        assert np.array_equal(amplitude(t, TWO), alpha1(t, TWO))
        assert np.array_equal(amplitude(t, VEE), nu1(t, VEE))
        assert amplitude(0.0, TWO) == 1.0 and amplitude(0.0, VEE) == math.sqrt(0.5)

    @pytest.mark.parametrize("params", [
        TWO, VEE, ModelParams(gamma0=0.0, n_atoms=2, kind=AtomKind.THREE_LEVEL_V)])
    def test_population_starts_at_exactly_one(self, params):
        # 2*(sqrt(0.5) * 1)**2 would round to 1.0000000000000002; a**2 does not
        assert excited_population(0.0, params) == 1.0
        assert excited_population(np.zeros(3), params).tolist() == [1.0] * 3
        if params.gamma0 == 0.0:
            assert excited_population(7.5, params) == 1.0

    def test_single_atom_amplitude_is_envelope(self):
        params = ModelParams(gamma0=1.0)
        d = principal_root(dynamics.channel_discriminant(1.0, 2.0, 1.0, 1.0))
        t = np.linspace(0, 5, 33)
        assert np.allclose(alpha1(t, params), envelope(t, d.real, d.imag, 2.0)[0],
                           rtol=0, atol=1e-15)

    def test_flat_v_matches_two_level(self):
        flat = ModelParams(gamma0=1.0, n_atoms=3, kind=AtomKind.THREE_LEVEL_V)
        t = np.linspace(0, 5, 101)
        dev = np.abs(nu1(t, flat) * math.sqrt(2.0) - alpha1(t, TWO)).max()
        assert dev < 1e-14

    def test_aligned_v_matches_doubled_coupling(self):
        aligned = ModelParams(gamma0=1.0, n_atoms=3, theta=1.0,
                              kind=AtomKind.THREE_LEVEL_V)
        doubled = ModelParams(gamma0=2.0, n_atoms=3)
        t = np.linspace(0, 5, 101)
        dev = np.abs(nu1(t, aligned) * math.sqrt(2.0) - alpha1(t, doubled)).max()
        assert dev < 1e-14

    @pytest.mark.parametrize("n", [3, 8, 30])
    def test_steady_amplitude_fraction_survives(self, n):
        params = ModelParams(gamma0=1.0, n_atoms=n)
        assert abs(alpha1(60.0, params)) == pytest.approx((n - 1) / n, abs=1e-9)

    def test_rate_matches_finite_differences(self):
        h = 1e-5
        for params in (TWO, VEE, ModelParams(gamma0=3.0, n_atoms=1)):
            for t in (0.1, 0.9, 2.7, 4.4):
                pf = excited_population(t + h, params)
                pb = excited_population(t - h, params)
                pf2 = excited_population(t + 2 * h, params)
                pb2 = excited_population(t - 2 * h, params)
                fd = (8 * (pf - pb) - (pf2 - pb2)) / (12 * h)
                assert population_rate(t, params) == pytest.approx(fd, abs=1e-9)

    def test_amplitude_rate_matches_finite_differences(self):
        # nu1 = sqrt(1/2) A, and dA/dt = (dg/dt)/N
        channels = ChannelColumns.of([VEE])
        a, b, lam, n = channels.a[0], channels.b[0], channels.lam[0], channels.n_atoms[0]
        h = 1e-5
        for t in (0.3, 1.6, 3.9):
            fd = (nu1(t + h, VEE) - nu1(t - h, VEE)) / (2 * h)
            rate = math.sqrt(0.5) * unit_amplitude(t, a, b, lam, n)[1] / n
            assert rate == pytest.approx(fd, abs=1e-9)

    def test_population_rate_zero_at_origin(self):
        assert population_rate(0.0, TWO) == 0.0
        assert population_rate(0.0, VEE) == 0.0


def _bits(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


@settings(max_examples=40, deadline=None)
# N = 3 and 30: the division by N rounds; gamma0 = 0 does not move
@example(AtomKind.TWO_LEVEL, 3, 0.0, 1.3, 2.0, 5.0)
@example(AtomKind.THREE_LEVEL_V, 30, 1.0, 3.0, 2.0, 5.0)
@example(AtomKind.THREE_LEVEL_V, 8, 0.4, 0.0, 2.0, 5.0)
@given(st.sampled_from(list(AtomKind)), st.integers(1, 40), st.floats(0.0, 1.0),
       st.just(0.0) | st.floats(0.0, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 20.0))
def test_one_point_calls_equal_their_batch_rows(kind, n, theta, gamma0, lam, tau):
    """A scalar t gives the bits of the same t inside an array, and the
    trajectory's population is excited_population's."""
    if kind is AtomKind.TWO_LEVEL:
        theta = 0.0
    params = ModelParams(gamma0=gamma0, lam=lam, n_atoms=n, theta=theta, kind=kind)
    traj = trajectory(params, tau, steps=40)
    times = traj.times
    for fn, scalar_type in ((amplitude, complex), (population_rate, float),
                            (excited_population, float)):
        batch = fn(times, params)
        assert batch.dtype == np.dtype(scalar_type) and batch.shape == times.shape
        scalars = [fn(t, params) for t in times.tolist()]
        assert {type(v) for v in scalars} == {scalar_type}
        assert _bits(scalars) == _bits(batch)
        grid = fn(times[1:].reshape(5, 8), params)
        assert grid.shape == (5, 8) and _bits(grid.ravel()) == _bits(batch[1:])
    assert _bits(traj.population) == _bits(
        np.clip(excited_population(times, params), 0.0, 1.0))
    assert _bits(traj.amplitude) == _bits(amplitude(times, params))
    assert _bits(traj.population_rate) == _bits(population_rate(times, params))
    assert (traj.amplitude.dtype, traj.population.dtype, traj.population_rate.dtype) == (
        np.dtype(complex), np.dtype(float), np.dtype(float))


class TestTrajectory:
    def test_reads_the_envelope_once(self, monkeypatch):
        # amplitude, population and rate all come from one pass
        calls = []

        def counting(*args, _envelope=dynamics.envelope):
            calls.append(np.size(args[0]))
            return _envelope(*args)
        monkeypatch.setattr(dynamics, "envelope", counting)
        for params in (TWO, VEE):
            calls.clear()
            trajectory(params, 5.0)
            assert calls == [4097]

    def test_grid_convention(self):
        traj = trajectory(TWO, 5.0)
        assert len(traj) == 4097
        assert traj.times[0] == 0.0 and traj.times[-1] == 5.0
        assert traj.population[0] == 1.0
        assert traj.population_rate[0] == 0.0

    def test_population_bounds(self):
        for params in (TWO, VEE, ModelParams(gamma0=4.0, n_atoms=30)):
            traj = trajectory(params, 5.0, steps=512)
            assert traj.population.min() >= 0.0
            assert traj.population.max() <= 1.0

    def test_rate_consistent_with_gradient(self):
        traj = trajectory(TWO, 5.0, steps=2048)
        grad = np.gradient(traj.population, traj.times)
        interior = slice(8, -8)
        assert np.abs(traj.population_rate[interior] - grad[interior]).max() < 1e-4

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            trajectory(TWO, 0.0)
        with pytest.raises(ValueError):
            trajectory(TWO, 5.0, steps=0)

    @pytest.mark.parametrize("steps", [True, False, 4.5, 16384.0, "4096", None, 0, -4096])
    def test_rejects_a_step_count_that_is_not_an_integer(self, steps):
        for call in (trajectory, density_trajectory, solve_collective):
            with pytest.raises(ValueError, match="steps must be an integer"):
                call(TWO, 5.0, steps=steps)

    def test_accepts_numpy_integer_steps(self):
        assert len(trajectory(TWO, 5.0, steps=np.int64(8))) == 9
        assert len(density_trajectory(VEE, 5.0, steps=np.int32(8))[0]) == 9
        assert len(solve_collective(TWO, 5.0, steps=np.int64(4096))) == 4097

    def test_non_finite_population_is_a_numerical_failure(self, skew_envelope):
        # ModelParams refuses overflowing channel constants, so a NaN
        # envelope is injected
        skew_envelope(lambda lam: math.nan)
        with pytest.raises(FloatingPointError, match="not finite"):
            trajectory(TWO, 5.0, steps=16)
        with pytest.raises(FloatingPointError, match="not finite"):
            density_trajectory(TWO, 5.0, steps=16)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_window(self, tau):
        with pytest.raises(ValueError, match="tau"):
            trajectory(TWO, tau)
        with pytest.raises(ValueError, match="tau"):
            density_trajectory(VEE, tau)


def final_state(params, tau):
    """The reduced state at tau: the last row of a density trajectory."""
    return density_trajectory(params, tau, steps=16)[1][-1]


class TestDensityMatrix:
    def test_two_level_t0_is_pure_excited(self):
        rho = density_trajectory(TWO, 5.0, steps=16)[1][0]
        assert rho.shape == (2, 2)
        assert rho[0, 0] == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).max() == pytest.approx(1.0)

    def test_three_level_structure(self):
        rho = final_state(VEE, 0.8)
        q = abs(nu1(0.8, VEE)) ** 2
        assert rho.shape == (3, 3)
        assert rho[0, 0] == pytest.approx(q, abs=1e-15)
        assert rho[0, 1] == pytest.approx(q, abs=1e-15)
        assert rho[2, 2] == pytest.approx(1 - 2 * q, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 30, 1000])
    @pytest.mark.parametrize("kind", list(AtomKind))
    def test_rows_carry_the_trajectory_bits(self, kind, n):
        theta = 0.4 if kind is AtomKind.THREE_LEVEL_V else 0.0
        for params in (ModelParams(gamma0=0.3, n_atoms=n, theta=theta, kind=kind),
                       ModelParams(gamma0=4.0, lam=0.5, n_atoms=n, theta=theta, kind=kind)):
            times, rhos, rates = density_trajectory(params, 7.0, steps=256)
            traj = trajectory(params, 7.0, steps=256)
            m = rhos.shape[1] - 1
            q = traj.amplitude.real ** 2
            assert m == (2 if kind is AtomKind.THREE_LEVEL_V else 1)
            assert np.array_equal(times, traj.times)
            for i in range(m):
                for j in range(m):
                    assert np.array_equal(rhos[:, i, j], q)
                    assert np.array_equal(rates[:, i, j], traj.population_rate / m)
            assert np.array_equal(rhos[:, m, m], 1.0 - m * q)
            assert np.array_equal(rates[:, m, m], -m * (traj.population_rate / m))
            # the emitter starts excited: no excited-ground coherence
            for out in (rhos, rates):
                assert not out[:, :m, m].any() and not out[:, m, :m].any()
                assert not out.imag.any()

    @pytest.mark.parametrize("bad, match", [
        (np.array([[0.5, 0.1], [0.3, 0.5]], complex), "Hermitian"),
        (np.eye(2, dtype=complex), "trace"),
        (np.diag([1.5, -0.5]).astype(complex), "eigenvalue"),
        (np.full((2, 2), np.nan, complex), "Hermitian"),  # NaN fails every test
        (np.diag([0.6, 0.6, -0.2]).astype(complex), "eigenvalue"),  # a V-type state
    ])
    def test_state_check_flags_bad_matrices(self, bad, match):
        good = np.eye(len(bad), dtype=complex) / len(bad)  # maximally mixed
        dynamics._check_states(np.stack([good, good]))
        with pytest.raises(FloatingPointError, match=f"reduced state .*{match}"):
            dynamics._check_states(np.stack([good, bad]))

    def test_trajectory_rates_match_finite_differences(self):
        for params in (TWO, VEE):
            times, rhos, rates = density_trajectory(params, 5.0, steps=2048)
            fd = np.gradient(rhos, times, axis=0)
            assert np.abs(rates[4:-4] - fd[4:-4]).max() < 1e-4

    def test_states_stay_physical_along_the_path(self):
        times, rhos, _ = density_trajectory(VEE, 5.0, steps=512)
        assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(rhos).min() > -1e-12

    def test_long_time_limit(self):
        n = 3
        params = ModelParams(gamma0=1.0, n_atoms=n)
        rho = final_state(params, 80.0)
        frac = ((n - 1) / n) ** 2
        assert rho[0, 0].real == pytest.approx(frac, abs=1e-9)
        assert rho[1, 1].real == pytest.approx(1 - frac, abs=1e-9)
