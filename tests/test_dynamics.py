import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qspeedup import dynamics
from qspeedup.dynamics import (DensityMatrix, PropagatorParams, ROOT_HALF, alpha1,
                               amplitude_rate, density_matrix, density_trajectory,
                               excited_population, g_factor, g_factor_dt, nu1,
                               population_rate, population_turning_points,
                               principal_sqrt, propagate_three_level,
                               propagate_two_level, trajectory)
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


class TestPropagatorParams:
    def test_principal_branch(self):
        assert principal_sqrt(4.0) == 2.0 + 0.0j
        assert principal_sqrt(-4.0) == 2.0j

    def test_channel_discriminants(self):
        prop = PropagatorParams.from_model(
            ModelParams(gamma0=1.0, n_atoms=2, theta=0.5,
                        kind=AtomKind.THREE_LEVEL_V))
        lam = 2.0
        assert prop.d_two_level == principal_sqrt(lam * lam - 2 * 1.0 * lam * 2)
        assert prop.d_plus == principal_sqrt(lam * lam - 2 * 1.5 * lam * 2)
        assert prop.d_minus == principal_sqrt(lam * lam - 2 * 0.5 * lam * 2)


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

    def test_single_atom_amplitude_is_envelope(self):
        params = ModelParams(gamma0=1.0)
        prop = PropagatorParams.from_model(params)
        t = np.linspace(0, 5, 33)
        assert np.allclose(alpha1(t, params), g_factor(t, prop.d_two_level, 2.0),
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


class TestGeneralPropagation:
    def test_symmetric_initials_reduce_to_alpha1(self):
        init = np.zeros(3, complex)
        init[0] = 1.0
        amps = propagate_two_level(1.3, init, TWO)
        assert amps[0] == pytest.approx(alpha1(1.3, TWO), abs=1e-15)
        # the other emitters pick up equal shares
        assert amps[1] == amps[2] == pytest.approx((g_factor(
            1.3, PropagatorParams.from_model(TWO).d_two_level, 2.0) - 1.0) / 3,
            abs=1e-15)

    def test_collective_sum_follows_envelope(self):
        rng = np.random.default_rng(5)
        init = rng.normal(size=3) + 1j * rng.normal(size=3)
        amps = propagate_two_level(2.1, init, TWO)
        prop = PropagatorParams.from_model(TWO)
        assert amps.sum() == pytest.approx(
            g_factor(2.1, prop.d_two_level, 2.0) * init.sum(), abs=1e-12)

    def test_dark_states_are_frozen(self):
        init = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        amps = propagate_two_level(4.0, init.astype(complex), TWO)
        assert np.abs(amps - init).max() < 1e-15

    def test_three_level_standard_initial_matches_nu1(self):
        a0 = np.zeros(3, complex)
        b0 = np.zeros(3, complex)
        a0[0] = b0[0] = ROOT_HALF
        amps_a, amps_b = propagate_three_level(1.7, a0, b0, VEE)
        assert amps_a[0] == pytest.approx(nu1(1.7, VEE), abs=1e-15)
        assert amps_b[0] == pytest.approx(nu1(1.7, VEE), abs=1e-15)

    def test_antialigned_transition_rides_minus_channel(self):
        vee1 = ModelParams(gamma0=1.0, n_atoms=1, theta=0.4,
                           kind=AtomKind.THREE_LEVEL_V)
        a0 = np.array([ROOT_HALF + 0j])
        b0 = np.array([-ROOT_HALF + 0j])
        amps_a, amps_b = propagate_three_level(2.2, a0, b0, vee1)
        prop = PropagatorParams.from_model(vee1)
        expected = ROOT_HALF * g_factor(2.2, prop.d_minus, 2.0)
        assert amps_a[0] == pytest.approx(expected, abs=1e-14)
        assert amps_b[0] == pytest.approx(-expected, abs=1e-14)

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            propagate_two_level(1.0, np.ones(2, complex), TWO)
        with pytest.raises(ValueError):
            propagate_three_level(1.0, np.ones(3, complex), np.ones(2, complex), VEE)


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
        with pytest.raises(ValueError, match="tau"):
            population_turning_points(TWO, tau)


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
