import cmath
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qspeedup import dynamics
from qspeedup.dynamics import (ChannelColumns, DensityMatrix, ROOT_HALF, alpha1,
                               amplitude, amplitude_rate, density_matrix,
                               density_trajectory, excited_population, g_factor,
                               g_factor_dt, nu1, population_rate, principal_sqrt,
                               trajectory)
from qspeedup.spectral import AtomKind, ModelParams

TWO = ModelParams(gamma0=1.0, n_atoms=3)
VEE = ModelParams(gamma0=1.0, n_atoms=3, theta=0.4, kind=AtomKind.THREE_LEVEL_V)


class TestEnvelope:
    def test_frozen_value(self):
        g = g_factor(1.0, complex(math.sqrt(2.0)), 2.0)
        assert g.real == pytest.approx(0.8630574847803386, rel=1e-14)
        assert g.imag == 0.0

    def test_exactly_one_at_time_zero(self):
        assert g_factor(0.0, 1.3 + 0j, 2.0) == 1.0 + 0.0j
        assert g_factor(0.0, 2.7j, 2.0) == 1.0 + 0.0j

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            g_factor(-0.5, 1.0 + 0j, 2.0)
        with pytest.raises(ValueError):
            g_factor_dt(np.array([0.0, -1.0]), 1.0 + 0j, 2.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            g_factor(t, 1.0 + 0j, 2.0)
        with pytest.raises(ValueError, match="finite"):
            g_factor_dt(np.array([0.0, t]), 1.0 + 0j, 2.0)
        with pytest.raises(ValueError, match="finite"):
            density_matrix(t, TWO)

    def test_degenerate_channel_is_continuous(self):
        t = np.linspace(0.0, 5.0, 64)
        near = g_factor(t, complex(1e-9), 2.0)
        at = g_factor(t, complex(0.0), 2.0)
        assert np.abs(near - at).max() < 1e-12

    def test_degenerate_channel_closed_form(self):
        # d = 0: g(t) = exp(-lam t/2) (1 + lam t/2)
        lam, t = 2.0, 1.7
        expected = math.exp(-lam * t / 2) * (1 + lam * t / 2)
        assert g_factor(t, 0j, lam) == pytest.approx(expected, rel=1e-14)

    def test_long_overdamped_window_stays_finite(self):
        # d t/2 ~ 750: cosh and sinh alone overflow, exp(-lam t/2) underflows
        lam, t = 2.0, 894.6
        d = principal_sqrt(lam * lam - 2.0 * 0.2539 * lam)
        decay = math.exp(-0.5 * (lam - d.real) * t)
        w = 0.5 * (lam * lam - d.real ** 2)
        assert g_factor(t, d, lam).real == pytest.approx(
            0.5 * (1.0 + lam / d.real) * decay, rel=1e-12)
        assert g_factor_dt(t, d, lam).real == pytest.approx(
            -0.5 * w / d.real * decay, rel=1e-12)

    def test_oscillatory_channel_is_real(self):
        g = g_factor(np.linspace(0, 5, 257), 3j, 2.0)
        assert np.abs(g.imag).max() == 0.0

    def test_derivative_matches_finite_differences(self):
        lam = 2.0
        for d in (1.2 + 0j, 2.9j, 0j):
            for t in (0.05, 0.7, 2.3, 4.9):
                h = 1e-6
                fd = (g_factor(t + h, d, lam) - g_factor(t - h, d, lam)) / (2 * h)
                assert g_factor_dt(t, d, lam) == pytest.approx(fd, abs=5e-10)

    def test_derivative_zero_at_time_zero(self):
        assert g_factor_dt(0.0, 1.5 + 0j, 2.0) == 0.0 + 0.0j

    @given(st.floats(0.0, 20.0), st.floats(0.01, 6.0), st.floats(0.1, 4.0))
    def test_bounded_by_one(self, t, w, lam):
        d = principal_sqrt(lam * lam - 2.0 * w * lam)
        assert abs(g_factor(t, d, lam)) <= 1.0 + 1e-9


class TestChannelConstants:
    def test_principal_branch(self):
        assert principal_sqrt(4.0) == 2.0 + 0.0j
        assert principal_sqrt(-4.0) == 2.0j

    def test_channel_discriminants(self):
        two, plus = ChannelColumns.of([
            ModelParams(gamma0=1.0, n_atoms=2),
            ModelParams(gamma0=1.0, n_atoms=2, theta=0.5,
                        kind=AtomKind.THREE_LEVEL_V)]).d
        lam = 2.0
        assert two == principal_sqrt(lam * lam - 2 * 1.0 * lam * 2)
        assert plus == principal_sqrt(lam * lam - 2 * 1.5 * lam * 2)
        minus = principal_sqrt(dynamics.channel_discriminant(1.0, lam, 2.0, 0.5))
        assert minus == principal_sqrt(lam * lam - 2 * 0.5 * lam * 2)

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

        def bits(values):
            return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]

        def column_bits(channels):
            return [bits(getattr(channels, f.name)) for f in fields(channels)]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays = [principal_sqrt(dynamics.channel_discriminant(gamma0, lam, n, c))
                      for c in (1.0, 1.0 + theta, 1.0 - theta)]
            vee = ChannelColumns.of(points)
            two_level = ChannelColumns.of(two_level_points)
            for curve, consts in curves:
                built = ChannelColumns.build(
                    np.array([p.gamma0 for p in curve], dtype=float), *consts)
                assert column_bits(built) == column_bits(ChannelColumns.of(curve))
        for i, p in enumerate(points):
            lam_i, n_i = p.lam, float(p.n_atoms)
            expected = bits(cmath.sqrt(complex(lam_i * lam_i
                                               - 2.0 * p.gamma0 * c * lam_i * n_i, 0.0))
                            for c in (1.0, 1.0 + p.theta, 1.0 - p.theta))
            assert bits(d[i] for d in arrays) == expected
            assert bits((two_level.d[i], vee.d[i])) == expected[:2]
            # the bound-state kernel's collective factor, for both kinds
            assert vee.factor[i].hex() == p.collective_factor().hex()
            assert (two_level.factor[i].hex()
                    == two_level_points[i].collective_factor().hex())


class TestAmplitudes:
    def test_initial_values_exact(self):
        assert alpha1(0.0, TWO) == 1.0 + 0.0j
        assert nu1(0.0, VEE) == complex(ROOT_HALF)
        assert alpha1(0.0, TWO, initial=0.25) == 0.25 + 0j

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
        assert amplitude(0.0, TWO) == 1.0 and amplitude(0.0, VEE) == ROOT_HALF
        assert np.array_equal(amplitude(t, VEE, initial=0.3),
                              nu1(t, VEE, initial=0.3))

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
        d = ChannelColumns.of([params]).d[0]
        t = np.linspace(0, 5, 33)
        assert np.allclose(alpha1(t, params), g_factor(t, d, 2.0),
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
        h = 1e-5
        for t in (0.3, 1.6, 3.9):
            fd = (nu1(t + h, VEE) - nu1(t - h, VEE)) / (2 * h)
            assert amplitude_rate(t, VEE) == pytest.approx(fd, abs=1e-9)

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
    for fn, scalar_type in ((amplitude, complex), (amplitude_rate, complex),
                            (population_rate, float), (excited_population, float)):
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

    def test_non_finite_population_is_a_numerical_failure(self, monkeypatch):
        # ModelParams refuses overflowing channel constants, so a NaN
        # envelope is injected
        true_g = g_factor
        monkeypatch.setattr(dynamics, "g_factor",
                            lambda t, d, lam: math.nan * true_g(t, d, lam))
        with pytest.raises(FloatingPointError, match="not finite"):
            trajectory(TWO, 5.0, steps=16)
        with pytest.raises(FloatingPointError, match="not Hermitian"):
            density_trajectory(TWO, 5.0, steps=16)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_window(self, tau):
        with pytest.raises(ValueError, match="tau"):
            trajectory(TWO, tau)
        with pytest.raises(ValueError, match="tau"):
            density_trajectory(VEE, tau)


class TestDensityMatrix:
    def test_two_level_t0_is_pure_excited(self):
        rho = density_matrix(0.0, TWO)
        assert rho.dim == 2
        assert rho.entries[0, 0] == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho.entries).max() == pytest.approx(1.0)

    def test_three_level_structure(self):
        rho = density_matrix(0.8, VEE)
        q = abs(nu1(0.8, VEE)) ** 2
        assert rho.dim == 3
        assert rho.entries[0, 0] == pytest.approx(q, abs=1e-15)
        assert rho.entries[0, 1] == pytest.approx(q, abs=1e-15)
        assert rho.entries[2, 2] == pytest.approx(1 - 2 * q, abs=1e-15)

    def test_ground_amplitude_coherences(self):
        a0 = 0.6 * cmath.exp(0.3j)
        rho = density_matrix(1.1, TWO, ground_amplitude=a0)
        exc0 = math.sqrt(1 - abs(a0) ** 2)
        amp = alpha1(1.1, TWO, initial=exc0)
        assert rho.entries[0, 1] == pytest.approx(np.conjugate(a0) * amp, abs=1e-15)
        assert rho.entries[1, 0] == pytest.approx(a0 * np.conjugate(amp), abs=1e-15)

    def test_rejects_overweight_ground_amplitude(self):
        with pytest.raises(ValueError):
            density_matrix(0.5, TWO, ground_amplitude=1.2)

    def test_validate_flags_bad_matrices(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]], complex)).validate()
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex)).validate()
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex)).validate()
        with pytest.raises(ValueError, match="2x2 or 3x3"):
            DensityMatrix(np.eye(4, dtype=complex) / 4).validate()
        with pytest.raises(ValueError):
            DensityMatrix(np.full((2, 2), np.nan, complex)).validate()

    def test_trajectory_rates_match_finite_differences(self):
        for params, a0 in ((TWO, 0.0), (VEE, 0.3 + 0.2j)):
            times, rhos, rates = density_trajectory(params, 5.0, steps=2048,
                                                    ground_amplitude=a0)
            fd = np.gradient(rhos, times, axis=0)
            assert np.abs(rates[4:-4] - fd[4:-4]).max() < 1e-4

    def test_states_stay_physical_along_the_path(self):
        times, rhos, _ = density_trajectory(VEE, 5.0, steps=512,
                                            ground_amplitude=0.5)
        assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(rhos).min() > -1e-12

    def test_long_time_limit(self):
        n = 3
        params = ModelParams(gamma0=1.0, n_atoms=n)
        rho = density_matrix(80.0, params)
        frac = ((n - 1) / n) ** 2
        assert rho.entries[0, 0].real == pytest.approx(frac, abs=1e-9)
        assert rho.entries[1, 1].real == pytest.approx(1 - frac, abs=1e-9)
