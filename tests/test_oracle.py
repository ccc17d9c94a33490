import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qspeedup import dynamics, oracle
from qspeedup.checks import TAU, _oracle_points, check_oracle_equivalence
from qspeedup.oracle import StepSizeError, collective_trajectories, solve_collective
from qspeedup.spectral import AtomKind, ModelParams


def integrate(weight, decay, n_atoms, s0, tau, steps):
    """One point through the oracle's block kernel: (times, s, z, max_lte).

    The kernel keeps every (steps // 4096)-th state when 4096 divides steps
    and every state otherwise, so the last record sits at t = tau.
    """
    states, max_lte = oracle._integrate(
        np.array([weight]), np.array([decay]), np.array([float(n_atoms)]),
        np.array([float(s0)]), tau, steps)
    oracle._check_finite(states)
    times = np.linspace(0.0, tau, states.shape[1])
    return times, states[0, :, 0], states[0, :, 1], float(max_lte[0])


class TestKernelSpec:
    """The exponential memory kernel w * exp(-lam * t) that the block kernel
    forms inline from each point's ModelParams."""

    def test_channel_weights(self, monkeypatch):
        seen = []

        def recording(weight, decay, *args, _fn=oracle._integrate, **kwargs):
            seen.append((weight.tolist(), decay.tolist()))
            return _fn(weight, decay, *args, **kwargs)

        monkeypatch.setattr(oracle, "_integrate", recording)
        two = ModelParams(gamma0=1.5, n_atoms=2)
        vee = ModelParams(gamma0=1.5, n_atoms=2, theta=0.4,
                          kind=AtomKind.THREE_LEVEL_V)
        list(collective_trajectories([two, vee], 5.0, 4096))
        (weights, decays), = seen
        # gamma0*lam/2, times (1 + theta) for the + channel of a V-type point;
        # the - channel starts at zero and is not integrated
        assert weights == pytest.approx([1.5, 2.1])
        assert weights == [channel_weight(two), channel_weight(vee)]
        assert decays == [2.0, 2.0]

    def test_rejects_bad_kernels(self):
        # the weight and the decay reach the kernel only through ModelParams
        for gamma0, lam in [(-0.1, 2.0), (math.nan, 2.0), (math.inf, 2.0),
                            (1.0, 0.0), (1.0, -1.0), (1.0, math.nan),
                            (1.0, math.inf)]:
            with pytest.raises(ValueError, match="gamma0|lam"):
                solve_collective(ModelParams(gamma0=gamma0, lam=lam), 5.0, steps=4096)


def channel_weight(params):
    """The kernel weight gamma0*lam/2 of a two-level point, times (1 + theta)
    for the + channel of a V-type one."""
    return 0.5 * params.gamma0 * params.lam * (1.0 + params.theta)


def loop_reference(w, lam, n_atoms, s0, tau, steps, record_every=1, lte_every=64):
    """The scalar RK4 loop the step matrices replaced: (s, z, max_lte)."""
    n = float(n_atoms)
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
    # a negative step count used to loop forever in the repeated squaring,
    # a zero one to divide by zero, and a negative N or a NaN tau to
    # integrate.  N, tau and steps reach the kernel only through
    # ModelParams and solve_collective; its record step and error-sample
    # spacing are its own.
    @pytest.mark.parametrize("change", [
        {"steps": 0}, {"steps": -4}, {"n_atoms": -3}, {"n_atoms": 0},
        {"n_atoms": 3.0}, {"n_atoms": True}, {"tau": math.nan}, {"tau": math.inf},
        {"tau": 0.0}, {"steps": 4096.0},
    ], ids=repr)
    def test_rejects_bad_arguments(self, change):
        args = {"n_atoms": 3, "tau": 5.0, "steps": 4096, **change}
        with pytest.raises(ValueError):
            solve_collective(ModelParams(gamma0=1.0, n_atoms=args["n_atoms"]),
                             args["tau"], args["steps"])

    def test_recorded_grid_reaches_endpoint(self):
        times, s, z, _ = integrate(1.0, 2.0, 1, 1.0, 5.0, steps=12288)
        assert times[0] == 0.0 and times[-1] == 5.0
        assert len(times) == len(s) == len(z) == 4097
        # every third state of the full loop, the last one after all 12288 steps
        ref_s, ref_z, _ = loop_reference(1.0, 2.0, 1, 1.0, 5.0, steps=12288)
        assert np.abs(s - ref_s[::3]).max() < 1e-13
        assert np.abs(z - ref_z[::3]).max() < 1e-13

    def test_fourth_order_convergence(self):
        # halving the step should cut the endpoint error by about 2**4
        params = ModelParams(gamma0=2.0, n_atoms=3)
        channels = dynamics.ChannelColumns.of([params])
        exact = dynamics.envelope(2.0, channels.a[0], channels.b[0], params.lam)[0]
        errs = []
        for steps in (128, 256):
            _, s, _, _ = integrate(channel_weight(params), params.lam, 3, 1.0, 2.0, steps)
            errs.append(abs(s[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 32.0

    # every fifth validate point: both kinds, theta 0 and 1, N from 1 to 30
    @pytest.mark.parametrize("params", list(_oracle_points(quick=False))[::5],
                             ids=lambda p: f"{p.kind.value}-g{p.gamma0}-n{p.n_atoms}"
                                           f"-theta{p.theta}")
    def test_matches_the_scalar_loop(self, params):
        self._compare(params, steps=4096, record_every=1)

    # the kernel picks the record step from steps; the error-sample
    # spacing is oracle.LTE_EVERY, 64 unless patched
    @pytest.mark.parametrize("steps,record_every,lte_every", [
        (5000, 1, 64),    # not a multiple of 4096: every step is recorded
        (12288, 3, 64),   # record every 3, estimate every 64
        (8192, 2, 1),     # estimate at every step
        (4096, 1, 5000),  # only the first step is sampled
    ])
    def test_matches_the_scalar_loop_on_other_grids(self, steps, record_every,
                                                    lte_every, monkeypatch):
        monkeypatch.setattr(oracle, "LTE_EVERY", lte_every)
        params = ModelParams(gamma0=3.0, n_atoms=30, theta=1.0,
                             kind=AtomKind.THREE_LEVEL_V)
        self._compare(params, steps, record_every)

    @pytest.mark.parametrize("lte_every", [4096, 1024])
    def test_estimate_samples_the_same_steps(self, lte_every, monkeypatch):
        # nearly undamped with |w z| peaking away from t = 0, so the largest
        # estimate depends on which steps are sampled: 0, lte_every, ...
        # below steps, never the final state
        monkeypatch.setattr(oracle, "LTE_EVERY", lte_every)
        params = ModelParams(gamma0=8e5, lam=1e-3)
        self._compare(params, 4096, 1)

    @staticmethod
    def _compare(params, steps, record_every):
        vee = params.kind is AtomKind.THREE_LEVEL_V
        args = (channel_weight(params), params.lam, params.n_atoms,
                math.sqrt(2.0) if vee else 1.0, 5.0, steps)
        _, s, z, lte = integrate(*args)
        ref_s, ref_z, ref_lte = loop_reference(*args, record_every, oracle.LTE_EVERY)
        assert len(s) == len(ref_s) == steps // record_every + 1
        assert np.abs(s - ref_s).max() < 1e-11
        assert np.abs(z - ref_z).max() < 1e-11
        assert abs(lte - ref_lte) < 1e-14

    def test_overflowing_step_is_a_floating_point_error(self):
        with pytest.raises(FloatingPointError, match="not finite"):
            integrate(1e300, 2.0, 30, 1.0, 5.0, 4096)

    def test_state_derivative_identity(self):
        # central difference of the recorded S should track -w z to O(h^2)
        times, s, z, _ = integrate(3.0, 2.0, 4, 1.0, 3.0, steps=3000)
        h = times[1] - times[0]
        fd = (s[2:] - s[:-2]) / (2.0 * h)
        assert np.abs(fd + 3.0 * z[1:-1]).max() < 1e-4


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


def test_oracle_check_worst_equals_the_one_point_closed_form():
    # the check reads the envelope once per point and forms the amplitude
    # and the population from it: the one-point calls give the same bits
    worst = 0.0
    for params in _oracle_points(quick=True):
        ref = solve_collective(params, TAU, steps=8192)
        worst = max(worst,
                    float(np.abs(dynamics.amplitude(ref.times, params)
                                 - ref.amplitude).max()),
                    float(np.abs(dynamics.excited_population(ref.times, params)
                                 - ref.population).max()))
    assert check_oracle_equivalence(quick=True).worst.hex() == worst.hex()


TWO, VEE = AtomKind.TWO_LEVEL, AtomKind.THREE_LEVEL_V
STIFF = ModelParams(gamma0=400.0, n_atoms=30, theta=1.0, kind=VEE)
HUGE = ModelParams(gamma0=1e300, n_atoms=30)
FIELDS = ("times", "amplitude", "population", "population_rate")


def batches():
    """Mixed batches of both kinds whose length is not a multiple of the
    block size, so the last block is partial."""
    point = st.builds(lambda kind, n, theta, g0: ModelParams(
        gamma0=g0, n_atoms=n, theta=theta if kind is VEE else 0.0, kind=kind),
        st.sampled_from([TWO, VEE]), st.integers(1, 30), st.floats(0.0, 1.0),
        st.floats(0.0, 3.0))
    return st.lists(point, min_size=1, max_size=3 * oracle._BLOCK).filter(
        lambda points: len(points) % oracle._BLOCK)


@settings(max_examples=20, deadline=None)
@example([ModelParams(gamma0=0.0, n_atoms=1),
          ModelParams(gamma0=3.0, n_atoms=30, theta=1.0, kind=VEE)] * 3, 16384)
# 12288 = 3 * 4096 is thinned to every third state, 6000 is recorded in full
@given(batches(), st.sampled_from([4096, 8192, 16384, 12288, 6000]))
def test_block_rows_equal_one_point_solves(points, steps):
    rows = list(collective_trajectories(points, TAU, steps))
    assert len(rows) == len(points)
    for params, row in zip(points, rows):
        single = solve_collective(params, TAU, steps)
        assert row.amplitude.dtype == single.amplitude.dtype == np.dtype(np.float64)
        for name in FIELDS:
            assert np.array_equal(getattr(row, name), getattr(single, name)), name


@settings(max_examples=15, deadline=None)
@given(batches(), st.lists(st.sampled_from([STIFF, HUGE]), min_size=1, max_size=2),
       st.lists(st.integers(0, 3 * oracle._BLOCK), min_size=2, max_size=2))
def test_a_failing_point_raises_its_one_point_error(points, bad, places):
    for params, place in zip(bad, places):
        points.insert(place % (len(points) + 1), params)
    first = next(p for p in points if p in (STIFF, HUGE))
    with pytest.raises((StepSizeError, FloatingPointError)) as single:
        solve_collective(first, TAU, 4096)
    with pytest.raises(single.type) as batch:
        list(collective_trajectories(points, TAU, 4096))
    assert str(batch.value) == str(single.value)


def test_oracle_check_integrates_in_blocks(monkeypatch):
    counts = {"_orbit": 0, "solve_collective": 0}
    for name in counts:
        def counting(*args, _fn=getattr(oracle, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(oracle, name, counting)
    points = len(list(_oracle_points(quick=False)))
    assert check_oracle_equivalence().passed
    # a record and an error sample per block, no one-point solve
    assert counts["_orbit"] <= 2 * math.ceil(points / oracle._BLOCK)
    assert counts["solve_collective"] == 0
