import math

import numpy as np
import pytest

from qspeedup import dynamics
from qspeedup.checks import _oracle_points
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


def loop_reference(spec, n_atoms, s0, tau, steps, record_every=1, lte_every=64):
    """The scalar RK4 loop the step matrices replaced: (s, z, max_lte)."""
    w, lam, n = spec.weight, spec.decay, float(n_atoms)
    h = tau / steps

    def step(s, z, hh):
        k1s, k1z = -w * z, n * s - lam * z
        s2, z2 = s + 0.5 * hh * k1s, z + 0.5 * hh * k1z
        k2s, k2z = -w * z2, n * s2 - lam * z2
        s3, z3 = s + 0.5 * hh * k2s, z + 0.5 * hh * k2z
        k3s, k3z = -w * z3, n * s3 - lam * z3
        s4, z4 = s + hh * k3s, z + hh * k3z
        k4s, k4z = -w * z4, n * s4 - lam * z4
        return (s + hh / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s),
                z + hh / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z))

    s, z, max_lte = float(s0), 0.0, 0.0
    out_s, out_z = [s], [z]
    for i in range(steps):
        if lte_every and i % lte_every == 0:
            s_half, z_half = step(*step(s, z, 0.5 * h), 0.5 * h)
            s_full, z_full = step(s, z, h)
            max_lte = max(max_lte, abs(s_half - s_full) / 15.0,
                          abs(z_half - z_full) / 15.0)
        s, z = step(s, z, h)
        if (i + 1) % record_every == 0:
            out_s.append(s)
            out_z.append(z)
    return np.asarray(out_s), np.asarray(out_z), max_lte


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

    # every fifth validate point: both kinds, theta 0 and 1, N from 1 to 30
    @pytest.mark.parametrize("params", list(_oracle_points(quick=False))[::5],
                             ids=lambda p: f"{p.kind.value}-g{p.gamma0}-n{p.n_atoms}"
                                           f"-theta{p.theta}")
    def test_matches_the_scalar_loop(self, params):
        self._compare(params, steps=4096, record_every=1)

    @pytest.mark.parametrize("steps,record_every,lte_every", [
        (5000, 1, 64),    # not a multiple of 4096: every step is recorded
        (12288, 3, 64),   # record every 3, estimate every 64
        (8192, 2, 0),     # no estimate
        (4096, 1, 5000),  # only the first step is sampled
    ])
    def test_matches_the_scalar_loop_on_other_grids(self, steps, record_every,
                                                    lte_every):
        params = ModelParams(gamma0=3.0, n_atoms=30, theta=1.0,
                             kind=AtomKind.THREE_LEVEL_V)
        self._compare(params, steps, record_every, lte_every)

    @pytest.mark.parametrize("lte_every", [4096, 1024])
    def test_estimate_samples_the_same_steps(self, lte_every):
        # nearly undamped with |w z| peaking away from t = 0, so the largest
        # estimate depends on which steps are sampled: 0, lte_every, ...
        # below steps, never the final state
        params = ModelParams(gamma0=8e5, lam=1e-3)
        self._compare(params, 4096, 1, lte_every)

    @staticmethod
    def _compare(params, steps, record_every, lte_every=64):
        vee = params.kind is AtomKind.THREE_LEVEL_V
        spec = KernelSpec.for_channel(params, sign=1.0 if vee else 0.0)
        args = (spec, params.n_atoms, math.sqrt(2.0) if vee else 1.0, 5.0, steps,
                record_every, lte_every)
        _, s, z, lte = integrate_kernel_ode(*args)
        ref_s, ref_z, ref_lte = loop_reference(*args)
        assert len(s) == len(ref_s) == steps // record_every + 1
        assert np.abs(s - ref_s).max() < 1e-11
        assert np.abs(z - ref_z).max() < 1e-11
        assert abs(lte - ref_lte) < 1e-14
        assert (lte == 0.0) == (lte_every == 0)

    def test_overflowing_step_is_a_floating_point_error(self):
        spec = KernelSpec(weight=1e300, decay=2.0)
        with pytest.raises(FloatingPointError, match="not finite"):
            integrate_kernel_ode(spec, 30, 1.0, 5.0, 4096, lte_every=0)

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

    def test_never_returns_nan(self):
        # a finite channel constant whose RK4 step matrix overflows
        huge = ModelParams(gamma0=1e300, n_atoms=30)
        with pytest.raises(FloatingPointError, match="not finite"):
            solve_collective(huge, 5.0, steps=4096)

    def test_step_doubling_catches_stiff_points(self):
        stiff = ModelParams(gamma0=400.0, n_atoms=30, theta=1.0,
                            kind=AtomKind.THREE_LEVEL_V)
        with pytest.raises(StepSizeError, match="increase steps"):
            solve_collective(stiff, 5.0, steps=4096)
        # the advertised remedy works
        traj = solve_collective(stiff, 5.0, steps=262144)
        assert traj.population[-1] == pytest.approx(
            dynamics.excited_population(5.0, stiff), abs=1e-7)
