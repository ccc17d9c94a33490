"""Adaptive Simpson quadrature with batched interval refinement.

The refinement loop is organised as a flat worklist of intervals that is
processed with vectorised integrand calls instead of the usual
per-interval recursion.  It backs the quadrature cross-check of the
closed-form reservoir integral.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]
MAX_DEPTH = 48


def adaptive_simpson(f: Integrand, a: float, b: float, tol: float = 1e-12) -> float:
    """Integrate a vectorised integrand over [a, b] to absolute tolerance tol.

    Each refinement level is one worklist of intervals evaluated with
    vectorised integrand calls; halves inherit half their parent's error
    budget.  Intervals still disagreeing at MAX_DEPTH contribute their
    Richardson-extrapolated estimate, which bounds the work near endpoints
    where the integrand is nearly singular.
    """
    if a == b:
        return 0.0

    a = np.asarray([a], dtype=float)
    b = np.asarray([b], dtype=float)
    m = 0.5 * (a + b)
    fa = np.asarray(f(a), dtype=float)
    fm = np.asarray(f(m), dtype=float)
    fb = np.asarray(f(b), dtype=float)
    coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    budget = np.full(1, float(tol))
    total = 0.0

    for depth in range(MAX_DEPTH + 1):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = np.asarray(f(lm), dtype=float)
        frm = np.asarray(f(rm), dtype=float)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - coarse) / 15.0
        done = (np.abs(err) <= budget) | (depth == MAX_DEPTH)
        # one interval at a time in worklist order (accumulate adds
        # sequentially): a pairwise sum would move the last bits of the
        # quadrature cross-check's reference values
        total = np.add.accumulate(np.concatenate([[total], (left + right + err)[done]]))[-1]
        keep = ~done
        if not np.any(keep):
            break
        a, b, m, fa, fb, fm, coarse = (
            np.concatenate([a[keep], m[keep]]),
            np.concatenate([m[keep], b[keep]]),
            np.concatenate([lm[keep], rm[keep]]),
            np.concatenate([fa[keep], fm[keep]]),
            np.concatenate([fm[keep], fb[keep]]),
            np.concatenate([flm[keep], frm[keep]]),
            np.concatenate([left[keep], right[keep]]),
        )
        budget = np.concatenate([budget[keep], budget[keep]]) * 0.5
    return float(total)
