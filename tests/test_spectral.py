import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from qspeedup.spectral import (AtomKind, ModelParams, lorentzian_j,
                               reservoir_integral, reservoir_integral_quad,
                               total_spectral_weight)

BASE = ModelParams(gamma0=1.0)


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

    def test_array_input(self):
        w = np.linspace(0, 10, 11)
        vals = lorentzian_j(w, BASE)
        assert vals.shape == (11,) and np.all(vals > 0)

    def test_total_weight_matches_quadrature(self):
        golden = 0.6475836176504333
        assert total_spectral_weight(BASE) == pytest.approx(golden, rel=1e-14)
        num, _ = integrate.quad(lambda w: lorentzian_j(w, BASE), 0, np.inf)
        assert num == pytest.approx(golden, rel=1e-10)


class TestReservoirIntegral:
    def test_frozen_value(self):
        assert reservoir_integral(-1.0, BASE) == pytest.approx(
            0.22593340425345534, rel=1e-14)

    def test_rejects_nonnegative_energy(self):
        with pytest.raises(ValueError):
            reservoir_integral(0.0, BASE)
        with pytest.raises(ValueError):
            reservoir_integral(np.array([-1.0, 0.5]), BASE)

    @pytest.mark.parametrize("e", [-1e-6, -1e-3, -0.1, -1.0, -10.0, -1e3])
    def test_closed_form_vs_own_quadrature(self, e):
        closed = reservoir_integral(e, BASE)
        assert reservoir_integral_quad(e, BASE) == pytest.approx(closed, rel=1e-8)

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
            total_spectral_weight(BASE), rel=1e-6)

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
