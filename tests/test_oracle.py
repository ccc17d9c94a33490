import math

import numpy as np
import pytest

from qspeedup import dynamics
from qspeedup.oracle import (KernelSpec, StepSizeError, integrate_kernel_ode,
                             solve_collective)
from qspeedup.spectral import AtomKind, ModelParams


class TestKernelSpec:
    def test_channel_weights(self):
        two = ModelParams(gamma0=1.5, n_atoms=2)
        vee = ModelParams(gamma0=1.5, n_atoms=2, theta=0.4,
                          kind=AtomKind.THREE_LEVEL_V)
        assert KernelSpec.for_channel(two).weight == pytest.approx(1.5)
        assert KernelSpec.for_channel(vee, +1.0).weight == pytest.approx(2.1)
        assert KernelSpec.for_channel(vee, -1.0).weight == pytest.approx(0.9)
        assert KernelSpec.for_channel(two).decay == 2.0

    def test_rejects_bad_kernels(self):
        with pytest.raises(ValueError):
            KernelSpec(weight=-0.1, decay=2.0)
        with pytest.raises(ValueError):
            KernelSpec(weight=1.0, decay=0.0)


class TestIntegrator:
    def test_record_every_must_divide(self):
        spec = KernelSpec(weight=1.0, decay=2.0)
        with pytest.raises(ValueError, match="divide"):
            integrate_kernel_ode(spec, 1, 1.0, 5.0, steps=100, record_every=3)

    def test_recorded_grid_reaches_endpoint(self):
        spec = KernelSpec(weight=1.0, decay=2.0)
        times, s, z, _ = integrate_kernel_ode(spec, 1, 1.0, 5.0, steps=120,
                                              record_every=4)
        assert times[0] == 0.0 and times[-1] == 5.0
        assert len(times) == len(s) == len(z) == 31

    def test_fourth_order_convergence(self):
        # halving the step should cut the endpoint error by about 2**4
        params = ModelParams(gamma0=2.0, n_atoms=3)
        spec = KernelSpec.for_channel(params)
        prop = dynamics.PropagatorParams.from_model(params)
        exact = dynamics.g_factor(2.0, prop.d_two_level, params.lam).real
        errs = []
        for steps in (128, 256):
            _, s, _, _ = integrate_kernel_ode(spec, 3, 1.0, 2.0, steps,
                                              record_every=steps, lte_every=0)
            errs.append(abs(s[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 32.0

    def test_state_derivative_identity(self):
        # central difference of the recorded S should track -w z to O(h^2)
        spec = KernelSpec(weight=3.0, decay=2.0)
        times, s, z, _ = integrate_kernel_ode(spec, 4, 1.0, 3.0, steps=3000)
        h = times[1] - times[0]
        fd = (s[2:] - s[:-2]) / (2.0 * h)
        assert np.abs(fd + spec.weight * z[1:-1]).max() < 1e-4


class TestSolveCollective:
    def test_zero_coupling_stays_put(self):
        traj = solve_collective(ModelParams(gamma0=0.0, n_atoms=5), 5.0, steps=4096)
        assert np.all(traj.amplitude == 1.0 + 0.0j)
        assert np.all(traj.population == 1.0)
        assert np.all(traj.population_rate == 0.0)

    def test_grid_matches_closed_form_convention(self):
        traj = solve_collective(ModelParams(gamma0=1.0, n_atoms=3), 5.0, steps=8192)
        closed = dynamics.trajectory(ModelParams(gamma0=1.0, n_atoms=3), 5.0)
        assert len(traj) == len(closed) == 4097
        assert np.array_equal(traj.times, closed.times)

    @pytest.mark.parametrize("params", [
        ModelParams(gamma0=0.5, n_atoms=1),
        ModelParams(gamma0=3.0, n_atoms=8),
        ModelParams(gamma0=2.0, n_atoms=3, theta=0.7, kind=AtomKind.THREE_LEVEL_V),
    ])
    def test_agrees_with_closed_form(self, params):
        oracle = solve_collective(params, 5.0, steps=16384)
        closed = dynamics.trajectory(params, 5.0)
        assert np.abs(oracle.population - closed.population).max() < 1e-9
        assert np.abs(oracle.amplitude - closed.amplitude).max() < 1e-9
        assert np.abs(oracle.population_rate - closed.population_rate).max() < 1e-8

    def test_aligned_v_equals_doubled_two_level(self):
        vee = solve_collective(
            ModelParams(gamma0=1.0, n_atoms=1, theta=1.0,
                        kind=AtomKind.THREE_LEVEL_V), 5.0, steps=16384)
        two = solve_collective(ModelParams(gamma0=2.0, n_atoms=1), 5.0, steps=16384)
        assert np.abs(vee.population - two.population).max() < 1e-10

    def test_rejects_small_budgets(self):
        with pytest.raises(ValueError, match=">= 4096"):
            solve_collective(ModelParams(gamma0=1.0), 5.0, steps=1024)
        with pytest.raises(ValueError):
            solve_collective(ModelParams(gamma0=1.0), 0.0)
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau"):
                solve_collective(ModelParams(gamma0=1.0), tau)

    def test_step_doubling_catches_stiff_points(self):
        stiff = ModelParams(gamma0=400.0, n_atoms=30, theta=1.0,
                            kind=AtomKind.THREE_LEVEL_V)
        with pytest.raises(StepSizeError, match="increase steps"):
            solve_collective(stiff, 5.0, steps=4096)
        # the advertised remedy works
        traj = solve_collective(stiff, 5.0, steps=262144)
        assert traj.population[-1] == pytest.approx(
            dynamics.excited_population(5.0, stiff), abs=1e-7)
