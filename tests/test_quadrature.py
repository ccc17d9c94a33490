import math

import numpy as np
from hypothesis import given, strategies as st

from qspeedup.quadrature import adaptive_simpson


def test_cubic_is_integrated_exactly():
    # Simpson's rule is exact through degree 3
    val = adaptive_simpson(lambda x: x ** 3, 0.0, 1.0)
    assert abs(val - 0.25) < 1e-15


def test_sine_over_half_period():
    val = adaptive_simpson(np.sin, 0.0, math.pi, tol=1e-13)
    assert abs(val - 2.0) < 1e-12


def test_empty_interval_is_zero():
    assert adaptive_simpson(np.exp, 2.0, 2.0) == 0.0


def test_near_singular_endpoint_stays_within_depth_cap():
    eps = 1e-10
    exact = 2.0 * (math.sqrt(1.0 + eps) - math.sqrt(eps))
    val = adaptive_simpson(lambda x: 1.0 / np.sqrt(x + eps), 0.0, 1.0, tol=1e-12)
    assert abs(val - exact) < 1e-9


@given(st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
       st.floats(-2, 2), st.floats(0.01, 3))
def test_polynomials_match_antiderivative(coeffs, a, width):
    c0, c1, c2, c3 = coeffs
    b = a + width

    def f(x):
        return c0 + x * (c1 + x * (c2 + x * c3))

    def cap_f(x):
        return x * (c0 + x * (c1 / 2 + x * (c2 / 3 + x * c3 / 4)))

    val = adaptive_simpson(f, a, b, tol=1e-13)
    scale = 1.0 + sum(abs(c) for c in coeffs)
    assert abs(val - (cap_f(b) - cap_f(a))) < 1e-10 * scale
