import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from qspeedup import spectral
from qspeedup.bound_state import find_bound_state
from qspeedup.dynamics import ChannelColumns
from qspeedup.quadrature import adaptive_simpson
from qspeedup.spectral import (AtomKind, ModelParams, lorentzian_j,
                               reservoir_integral, reservoir_integral_quad)

BASE = ModelParams(gamma0=1.0)
# int_0^inf J(w) dw of BASE: gamma0*lam/(2 pi) * (pi/2 + atan(omega0/lam))
TOTAL_WEIGHT = 0.6475836176504333


class TestModelParams:
    def test_defaults(self):
        assert BASE.lam == 2.0 and BASE.omega0 == 1.0 and BASE.n_atoms == 1
        assert BASE.kind is AtomKind.TWO_LEVEL

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(gamma0=-0.1), "gamma0"),
        (dict(gamma0=1.0, lam=0.0), "lam"),
        (dict(gamma0=1.0, omega0=0.0), "omega0"),
        (dict(gamma0=1.0, n_atoms=0), "n_atoms"),
        (dict(gamma0=1.0, n_atoms=2.5), "n_atoms"),
        (dict(gamma0=1.0, n_atoms=True), "n_atoms"),
        (dict(gamma0=1.0, theta=1.5, kind=AtomKind.THREE_LEVEL_V), "theta"),
        (dict(gamma0=1.0, theta=-0.1, kind=AtomKind.THREE_LEVEL_V), "theta"),
        (dict(gamma0=1.0, theta=0.5), "theta must be 0 for two-level"),
        (dict(gamma0=math.nan), "gamma0"),
        (dict(gamma0=math.inf), "gamma0"),
        (dict(gamma0=1.0, lam=math.nan), "lam"),
        (dict(gamma0=1.0, lam=math.inf), "lam"),
        (dict(gamma0=1.0, omega0=math.nan), "omega0"),
        (dict(gamma0=1.0, omega0=math.inf), "omega0"),
        (dict(gamma0=1.0, theta=math.nan, kind=AtomKind.THREE_LEVEL_V), "theta"),
        (dict(gamma0=1.0, n_atoms=10 ** 400), "n_atoms"),
        (dict(gamma0=1.0, lam=1e160), "channel constant lam"),
        (dict(gamma0=1e308), "channel constant 2"),
        (dict(gamma0=1.0, n_atoms=10 ** 308), "channel constant 2"),
        (dict(gamma0=3e307, theta=1.0, kind=AtomKind.THREE_LEVEL_V), "channel constant 2"),
        # omega0/lam past float range, and a slope pi/lam past it
        (dict(gamma0=1.09e45, lam=3.63e-140, n_atoms=1144, omega0=1.58e228),
         "reservoir constant omega0"),
        (dict(gamma0=1.0, lam=1e-310), "reservoir constant omega0"),
    ])
    def test_rejects_invalid(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ModelParams(**kwargs)

    def test_largest_finite_channel_constant_is_accepted(self):
        # 2*gamma0*lam*N = 1.2e308 for two-level; V-type with theta = 1
        # doubles it past float range (rejected above)
        assert ModelParams(gamma0=3e307).gamma0 == 3e307
        assert ModelParams(gamma0=1.0, lam=1e154).lam == 1e154
        # numpy scalars are checked without an overflow warning
        with pytest.raises(ValueError, match="channel constant lam"):
            ModelParams(gamma0=1.0, lam=np.float64(1e160))

    def test_collective_factor(self):
        assert ModelParams(gamma0=1.0, n_atoms=5).collective_factor() == 5.0
        v = ModelParams(gamma0=1.0, n_atoms=5, theta=0.6, kind=AtomKind.THREE_LEVEL_V)
        assert v.collective_factor() == pytest.approx(8.0, abs=1e-15)

    def test_hashable_for_caching(self):
        assert ModelParams(gamma0=1.0) == ModelParams(gamma0=1.0)
        assert len({ModelParams(gamma0=1.0), ModelParams(gamma0=1.0)}) == 1


class TestLorentzian:
    def test_peak_value(self):
        assert lorentzian_j(1.0, BASE) == pytest.approx(1.0 / (2 * math.pi))

    def test_symmetric_about_omega0(self):
        assert lorentzian_j(1.7, BASE) == pytest.approx(lorentzian_j(0.3, BASE))

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            lorentzian_j(-0.1, BASE)
        for omega in (math.nan, np.array([0.5, math.nan])):  # NaN fails
            with pytest.raises(ValueError, match="omega must be >= 0"):
                lorentzian_j(omega, BASE)

    def test_array_input(self):
        w = np.linspace(0, 10, 11)
        vals = lorentzian_j(w, BASE)
        assert vals.shape == (11,) and np.all(vals > 0)

    def test_total_weight_matches_quadrature(self):
        num, _ = integrate.quad(lambda w: lorentzian_j(w, BASE), 0, np.inf)
        assert num == pytest.approx(TOTAL_WEIGHT, rel=1e-10)


class TestReservoirIntegral:
    def test_frozen_value(self):
        assert reservoir_integral(-1.0, BASE) == pytest.approx(
            0.22593340425345534, rel=1e-14)

    def test_rejects_nonnegative_energy(self):
        with pytest.raises(ValueError):
            reservoir_integral(0.0, BASE)
        with pytest.raises(ValueError):
            reservoir_integral(np.array([-1.0, 0.5]), BASE)

    @pytest.mark.parametrize("e", [math.nan, -math.inf, np.array([-1.0, math.nan]),
                                   np.array([-math.inf, -1.0])])
    def test_rejects_non_finite_energy(self, e):
        # NaN passed the E < 0 test and came back NaN; -inf warned on its
        # way through the closed form and the quadrature
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for integral in (reservoir_integral, reservoir_integral_quad):
                with pytest.raises(ValueError, match="E < 0"):
                    integral(e, BASE)

    @pytest.mark.parametrize("e", [-1e-6, -1e-3, -0.1, -1.0, -10.0, -1e3])
    def test_closed_form_vs_own_quadrature(self, e):
        closed = reservoir_integral(e, BASE)
        assert reservoir_integral_quad(e, BASE) == pytest.approx(closed, rel=1e-8)

    def test_quadrature_keeps_its_bits(self):
        # each integral adds its finished intervals one at a time in
        # worklist order, and each point sums (body1 + body2) + tail; a
        # grouped or pairwise sum moves these last bits
        pinned = {(-1e-6, 1.0): "0x1.fdb395a90c40bp+0", (-1e-3, 1.0): "0x1.1c7692642dee3p+0",
                  (-0.1, 1.0): "0x1.086752345f8e0p-1", (-1.0, 1.0): "0x1.ceb62c32bd848p-3",
                  (-10.0, 1.0): "0x1.9458e1eff46ecp-5", (-1e3, 1.0): "0x1.51259721e6224p-11",
                  (-1.0, 1e4): "0x1.1a6ab079f82c4p+11"}
        for (e, g0), bits in pinned.items():
            assert reservoir_integral_quad(e, ModelParams(gamma0=g0)).hex() == bits

    def test_quadrature_work_does_not_grow_with_coupling(self, monkeypatch):
        # a tol that does not scale with I lies below its float resolution at
        # strong coupling, and every interval is refined to MAX_DEPTH
        samples = []

        def counting(f, a, b, tol):
            def counted(x, k):
                samples.append(np.size(x))
                return f(x, k)
            return adaptive_simpson(counted, a, b, tol)

        monkeypatch.setattr(spectral, "adaptive_simpson", counting)
        counts = {}
        for g0 in (1.0, 1e4):
            samples.clear()
            params = ModelParams(gamma0=g0)
            assert reservoir_integral_quad(-1.0, params) == pytest.approx(
                reservoir_integral(-1.0, params), rel=1e-12)
            counts[g0] = sum(samples)
        assert 0 < counts[1.0] and 0 < counts[1e4] <= 2 * counts[1.0]

    def test_columns_equal_the_one_point_calls(self):
        # the points of the bound-state-solver check at their bound-state
        # energies, then seeded points across the reservoir constants
        points = [ModelParams(gamma0=1.0), ModelParams(gamma0=2.0, n_atoms=3),
                  ModelParams(gamma0=1.5, theta=1.0, kind=AtomKind.THREE_LEVEL_V),
                  ModelParams(gamma0=3.0, n_atoms=8),
                  ModelParams(gamma0=2.5, n_atoms=30, theta=0.5, kind=AtomKind.THREE_LEVEL_V)]
        energies = [find_bound_state(p).energy for p in points]
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            lam, omega0 = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            points.append(ModelParams(gamma0=float(10.0 ** rng.uniform(-3.0, 5.0)),
                                      lam=float(lam), omega0=float(omega0)))
            energies.append(-float(10.0 ** rng.uniform(-6.0, 3.0)))
        batch = reservoir_integral_quad(np.array(energies), ChannelColumns.of(points))
        assert batch.shape == (len(points),)
        assert [v.hex() for v in batch.tolist()] == [
            reservoir_integral_quad(e, p).hex() for e, p in zip(energies, points)]
        # one point's constants shared by an array of energies, and one
        # energy shared by columns of constants
        assert reservoir_integral_quad(np.array(energies[:5]), BASE).tolist() == [
            reservoir_integral_quad(e, BASE) for e in energies[:5]]
        assert reservoir_integral_quad(-1.0, ChannelColumns.of(points[:5])).tolist() == [
            reservoir_integral_quad(-1.0, p) for p in points[:5]]

    @pytest.mark.parametrize("e", [-1e-4, -1.0, -50.0])
    def test_closed_form_vs_scipy(self, e):
        params = ModelParams(gamma0=1.7, lam=0.8, omega0=1.3)

        def body(w):
            return lorentzian_j(w, params) / (w - e)

        num, err = integrate.quad(body, 0, np.inf, limit=400)
        assert reservoir_integral(e, params) == pytest.approx(num, rel=1e-9)

    def test_far_negative_limit_recovers_total_weight(self):
        e = -1e8
        assert reservoir_integral(e, BASE) * (-e) == pytest.approx(
            TOTAL_WEIGHT, rel=1e-6)

    def test_survives_denormal_energies(self):
        val = reservoir_integral(-1e-300, BASE)
        assert math.isfinite(val) and val > 0

    def test_array_matches_scalars(self):
        e = np.array([-2.0, -0.5, -1e-5])
        batch = reservoir_integral(e, BASE)
        assert batch.shape == (3,)
        for i, ei in enumerate(e):
            assert batch[i] == reservoir_integral(float(ei), BASE)

    @given(st.floats(-1e3, -1e-6), st.floats(-1e3, -1e-6))
    def test_monotone_increasing_in_energy(self, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        if lo == hi:
            return
        assert reservoir_integral(lo, BASE) < reservoir_integral(hi, BASE)

    @given(st.floats(-500, -1e-4), st.floats(0.125, 8))
    def test_linear_in_coupling(self, e, g0):
        scaled = ModelParams(gamma0=g0)
        assert reservoir_integral(e, scaled) == pytest.approx(
            g0 * reservoir_integral(e, BASE), rel=1e-12)

    @given(st.floats(-1e6, -1e-9))
    def test_positive_below_zero(self, e):
        assert reservoir_integral(e, BASE) > 0
