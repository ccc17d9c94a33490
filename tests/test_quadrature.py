import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qspeedup.quadrature import adaptive_simpson


def solo(f, a, b, tol):
    """One integral of f(x) as a batch of one."""
    (val,) = adaptive_simpson(lambda x, k: f(x), a, b, tol)
    return val


def near_singular(x):
    return 1.0 / np.sqrt(x + 1e-10)


def never_sampled(x):
    # inf with a divide-by-zero warning at the interval's one point
    return 1.0 / (x - 2.0)


def test_cubic_is_integrated_exactly():
    # Simpson's rule is exact through degree 3
    val = solo(lambda x: x ** 3, 0.0, 1.0, tol=1e-12)
    assert abs(val - 0.25) < 1e-15


def test_sine_over_half_period():
    val = solo(np.sin, 0.0, math.pi, tol=1e-13)
    assert abs(val - 2.0) < 1e-12


def test_empty_interval_is_zero():
    assert solo(np.exp, 2.0, 2.0, tol=1e-12) == 0.0


def test_near_singular_endpoint_stays_within_depth_cap():
    eps = 1e-10
    exact = 2.0 * (math.sqrt(1.0 + eps) - math.sqrt(eps))
    val = solo(near_singular, 0.0, 1.0, tol=1e-12)
    assert abs(val - exact) < 1e-9


def horner(coeffs):
    c0, c1, c2, c3 = coeffs
    return lambda x: c0 + x * (c1 + x * (c2 + x * c3))


# coefficients, left end and width of a cubic's integral
cubic = (st.tuples(*[st.floats(-3, 3) for _ in range(4)]), st.floats(-2, 2), st.floats(0.01, 3))


@given(*cubic)
def test_polynomials_match_antiderivative(coeffs, a, width):
    c0, c1, c2, c3 = coeffs
    b = a + width

    def cap_f(x):
        return x * (c0 + x * (c1 / 2 + x * (c2 / 3 + x * c3 / 4)))

    val = solo(horner(coeffs), a, b, tol=1e-13)
    scale = 1.0 + sum(abs(c) for c in coeffs)
    assert abs(val - (cap_f(b) - cap_f(a))) < 1e-10 * scale


@pytest.mark.filterwarnings("error")
@given(st.tuples(*cubic), st.tuples(*cubic))
def test_mixed_batch_gives_each_integral_its_solo_bits(first, second):
    # two polynomials at unequal tolerances, a half period of sin, the
    # near-singular endpoint and an empty interval whose integrand would
    # warn if it were sampled
    batch = [(horner(first[0]), first[1], first[1] + first[2], 1e-13),
             (np.sin, 0.0, math.pi, 1e-13),
             (never_sampled, 2.0, 2.0, 1e-12),
             (near_singular, 0.0, 1.0, 1e-12),
             (horner(second[0]), second[1], second[1] + second[2], 1e-8)]
    funcs, a, b, tol = zip(*batch)

    def mixed(x, k):
        out = np.empty_like(x)
        for j, f in enumerate(funcs):
            out[k == j] = f(x[k == j])
        return out

    vals = adaptive_simpson(mixed, a, b, tol)
    assert vals.dtype == np.float64 and vals.shape == (len(batch),)
    assert [v.hex() for v in vals.tolist()] == [
        solo(*integral).hex() for integral in batch]
    assert vals[2] == 0.0


def test_a_nan_integrand_gives_nan_without_refining():
    samples = []

    def nan_in_first(x, k):
        samples.append(x.size)
        assert sum(samples) < 1000, "the NaN interval is being refined"
        return np.where(k == 0, np.nan, x)

    vals = adaptive_simpson(nan_in_first, [0.0, 0.0], [1.0, 1.0], 1e-12)
    assert math.isnan(vals[0]) and vals[1] == solo(lambda x: x, 0.0, 1.0, tol=1e-12)
