"""Adaptive Simpson quadrature of a batch of integrals on one worklist.

The integrals are columns: a, b and tol hold one entry each.  All
intervals of all integrals form one flat worklist, refined level by level
with one vectorised integrand call per level instead of the usual
per-interval recursion; each sample is passed with the index of the
integral it belongs to.  Halving filters the worklist and appends the
right halves after the left ones, so each integral sees its intervals in
the order of a one-integral call, and its running total adds them one at
a time in that order.  Every integral of a batch thus has the bits of its
batch-of-one call.  The batch backs the quadrature cross-check of the
closed-form reservoir integral.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]
MAX_DEPTH = 48


def adaptive_simpson(f: Integrand, a, b, tol=1e-12) -> np.ndarray:
    """Integrate f over [a[k], b[k]] to absolute tolerance tol[k], for every k.

    a, b and tol are columns (or scalars, broadcast to the columns), one
    entry per integral; the result is one float per integral.  f(x, k)
    returns the integrand of integral k[i] at x[i], elementwise.  Each
    refinement level is one worklist of intervals evaluated with one
    integrand call; halves inherit half their parent's error budget.
    Intervals still disagreeing at MAX_DEPTH contribute their
    Richardson-extrapolated estimate, which bounds the work near endpoints
    where the integrand is nearly singular; an interval whose estimate is
    NaN is not refined, so a NaN sample makes its integral NaN.  An
    integral with a == b is 0.0 and is never sampled.
    """
    a, b, budget = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                         for v in (a, b, tol)))
    total = np.zeros(a.shape)
    k = np.flatnonzero(a != b)
    if not k.size:
        return total
    a, b, budget = a[k], b[k], budget[k]
    m = 0.5 * (a + b)
    fa, fm, fb = np.asarray(f(np.concatenate([a, m, b]), np.tile(k, 3)),
                            dtype=float).reshape(3, -1)
    coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    for depth in range(MAX_DEPTH + 1):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = np.asarray(f(np.concatenate([lm, rm]), np.concatenate([k, k])),
                              dtype=float).reshape(2, -1)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - coarse) / 15.0
        # a NaN estimate never converges: it is done, not doubled each level
        done = ~(np.abs(err) > budget) | (depth == MAX_DEPTH)
        # unbuffered, so each integral adds its finished intervals one at a
        # time in worklist order: a pairwise or reduceat sum would move the
        # last bits of the quadrature cross-check's reference values
        np.add.at(total, k[done], (left + right + err)[done])
        keep = np.flatnonzero(~done)
        if not keep.size:
            break
        # the left halves of the kept intervals, then their right halves
        halves = np.stack([a, m, lm, fa, fm, flm, left, 0.5 * budget,
                           m, b, rm, fm, fb, frm, right, 0.5 * budget])[:, keep]
        a, b, m, fa, fb, fm, coarse, budget = np.concatenate([halves[:8], halves[8:]], axis=1)
        k = np.concatenate([k[keep], k[keep]])
    return total
