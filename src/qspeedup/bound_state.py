"""Bound-state solver: the unique negative root of K(E) = E.

K(E) = omega0 - c * I(E) with c the collective multiplicity and I the
reservoir integral.  On E < 0, K is strictly decreasing from omega0 (at
E -> -inf) to -inf (at E -> 0-), so K(E) - E has exactly one sign change
whenever the coupling is nonzero.  Weak coupling pushes the root
exponentially close to zero, hence the bracketing probes and the root
search both work geometrically on the energy axis: the search is regula
falsi on log|E| with the Illinois weight, which keeps the bracket of a
bisection but needs about 7 steps where bisection needs about 40.

A batch of parameter points is solved together: solve_bound_states takes
the dynamics.ChannelColumns that measures.evaluate_columns also reads.
Each step is one array pass over the batch and acts on every point
separately, so find_bound_state, a batch of one, gives the same bits as
the point's entry in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelColumns
from .spectral import ModelParams, ReservoirIntegral, reservoir_integral

RESIDUAL_TOL = 1e-10
BRACKET_FLOOR = -1e-16
MAX_PROBES = 200
DOUBLINGS_PER_PASS = 16
MAX_BISECTIONS = 65  # cap on the steps of the root search
# inner bracket probes, from the outermost inward to the floor
INNER_PROBES = np.array([-1e-2, -1e-4, -1e-6, -1e-8, -1e-10, -1e-12, -1e-14,
                         BRACKET_FLOOR])
# outer bracket probes -1, -2, -4, ..., -2**MAX_PROBES
OUTER_PROBES = np.array([-(2.0 ** j) for j in range(MAX_PROBES + 1)])


class BracketFailureError(RuntimeError):
    """No sign change of K(E) - E found between the probe limits."""


class BisectionStallError(RuntimeError):
    """The root search ended with a residual above its target."""


# slotted: find_bound_states builds one per point of its list
@dataclass(frozen=True, slots=True)
class BoundStateResult:
    exists: bool
    energy: float | None
    residual: float | None
    bracket: tuple[float, float] | None
    iterations: int


def kernel_k(e, params: ModelParams):
    """The fixed-point map whose root below zero is the bound-state energy."""
    return params.omega0 - params.collective_factor() * reservoir_integral(e, params)


def solve_bound_states(channels: ChannelColumns, tol: float = RESIDUAL_TOL,
                       label="point {}".format) -> tuple:
    """Locate the unique E < 0 with K(E) = E for every point of a batch.

    Reads omega0, the collective factor, gamma0 and lam of each point, and
    returns the columns (coupled, underflow, failed, energy, residual, lo,
    hi, iterations).  coupled is False only for gamma0 = 0, where K is
    constant at omega0.  The bracket fails when the root lies beyond the
    probe floor of -1e-16 (underflow) or, at absurd couplings, beyond the
    last outer probe -2**MAX_PROBES (failed).  Raises BisectionStallError,
    naming point i by label(i), when a point misses the residual target.

    The inner bracket edge is the first probe with K(E) - E < 0, the outer
    one comes from doubling -1 until K(E) - E > 0.  The search then runs on
    u = log|E| for at most MAX_BISECTIONS steps: each step takes the secant
    root of the two edges (the Illinois weight halves the residual of an
    edge that stays put twice in a row) and falls back to the geometric
    midpoint where that point rounds onto an edge.  The energy is the step
    of smallest residual; each point stops once that residual is 100 times
    below tol, or within 16 float spacings of |E| for large |E|.
    """
    # (points, 1) columns, so E may be a column of one energy per point or
    # a row of energies shared by all points
    gamma0, omega0, factor = (channels.gamma0[:, None], channels.omega0[:, None],
                              channels.factor[:, None])
    integral = ReservoirIntegral(gamma0, channels.lam[:, None], omega0)

    def h(e):  # K(E) - E, point i on row i
        return omega0 - factor * integral(e) - e

    coupled = gamma0 != 0.0

    inner = h(INNER_PROBES)
    below = inner < 0.0
    # h decreases along the ladder, so only the floor probe decides underflow
    underflow = coupled & ~below[:, -1:]
    solve = coupled & ~underflow
    # h(E) rises as E falls: the first probe below zero is the lowest E and
    # the largest residual among those below
    hi = np.where(below, INNER_PROBES, BRACKET_FLOOR).min(axis=1, keepdims=True)
    h_hi = inner.max(axis=1, initial=-np.inf, where=below, keepdims=True)

    # outer edge: the first of -1, -2, -4, ... with K(E) - E > 0, doubling
    # DOUBLINGS_PER_PASS times per array pass
    lo, h_lo = np.full_like(hi, -1.0), np.ones_like(hi)
    searching = solve
    for start in range(0, MAX_PROBES + 1, DOUBLINGS_PER_PASS):
        ladder = OUTER_PROBES[start:start + DOUBLINGS_PER_PASS]
        outer = h(ladder)
        above = outer > 0.0
        found = searching & above.any(axis=1, keepdims=True)
        edge = np.where(above, ladder, -np.inf).max(axis=1, keepdims=True)
        lo = np.where(found, edge, lo)
        h_lo = np.where(found, outer.min(axis=1, initial=np.inf, where=above,
                                         keepdims=True), h_lo)
        searching = searching & ~found
        if not searching.any():
            break
    failed = searching
    solve = solve & ~failed

    # edges in u = log|E|; rows not solved get harmless values
    u_hi, u_lo = np.log(-hi), np.log(-lo)
    f_hi, f_lo = np.where(solve, h_hi, -1.0), np.where(solve, h_lo, 1.0)
    energy = hi
    residual = np.abs(f_hi)
    iterations = np.zeros(hi.shape, dtype=int)
    active = solve
    kept_hi = kept_lo = np.zeros_like(solve)
    for _ in range(MAX_BISECTIONS):
        if not active.any():
            break
        u = u_hi - f_hi * (u_lo - u_hi) / (f_lo - f_hi)
        mid = -np.exp(u)
        inside = (lo < mid) & (mid < hi)
        if not inside.all(where=active):
            mid = np.where(inside, mid, -np.sqrt(lo * hi))
            u = np.where(inside, u, np.log(-mid))
            active = active & (lo < mid) & (mid < hi)
        iterations += active
        val = h(mid)
        size = np.abs(val)
        better = active & (size < residual)
        energy = np.where(better, mid, energy)
        residual = np.where(better, size, residual)
        # an exact root (val == 0) moves neither edge and stops below
        up = active & (val > 0.0)
        down = active & (val < 0.0)
        f_hi = np.where(up & kept_hi, 0.5 * f_hi, f_hi)
        f_lo = np.where(down & kept_lo, 0.5 * f_lo, f_lo)
        lo, u_lo, f_lo = (np.where(up, mid, lo), np.where(up, u, u_lo),
                          np.where(up, val, f_lo))
        hi, u_hi, f_hi = (np.where(down, mid, hi), np.where(down, u, u_hi),
                          np.where(down, val, f_hi))
        kept_hi, kept_lo = up, down
        # stop 100 times below tol, or at the float resolution of the
        # residual where |E| is too large for that (the gate stays relative)
        done = np.maximum(0.01 * tol, 16.0 * np.spacing(np.abs(energy)))
        active = active & (residual >= done)

    stalled = solve & ~(residual < tol * np.maximum(1.0, np.abs(energy)))
    if stalled.any():
        i = int(np.argmax(stalled))
        raise BisectionStallError(
            f"bisection stalled at residual {residual[i, 0]:g} for {label(i)}")
    return tuple(c[:, 0] for c in (coupled, underflow, failed, energy, residual, lo, hi,
                                   iterations))


def find_bound_states(points, tol: float = RESIDUAL_TOL) -> list:
    """solve_bound_states of ModelParams: entry i is the BoundStateResult of
    points[i], or the BracketFailureError that find_bound_state raises."""
    points = list(points)
    if not points:
        return []
    columns = solve_bound_states(ChannelColumns.of(points), tol,
                                 label=lambda i: repr(points[i]))
    results = []
    for params, coupled, underflow, failed, e, r, a, b, n in zip(
            points, *(c.tolist() for c in columns)):
        if not coupled:
            results.append(BoundStateResult(False, None, None, None, 0))
        elif underflow:
            results.append(BracketFailureError(
                "no sign change of K(E) - E above the probe floor "
                f"{BRACKET_FLOOR:g}; coupling gamma0={params.gamma0:g} is too "
                "weak for the root to be representable"))
        elif failed:
            results.append(BracketFailureError(
                f"no sign change of K(E) - E within {MAX_PROBES} bracket probes"))
        else:
            # the best step may have become a bracket edge; keep it inside
            bracket = (math.nextafter(a, -math.inf) if e <= a else a,
                       math.nextafter(b, 0.0) if e >= b else b)
            results.append(BoundStateResult(True, e, r, bracket, n))
    return results


def find_bound_state(params: ModelParams, tol: float = RESIDUAL_TOL) -> BoundStateResult:
    """Locate the unique E < 0 with K(E) = E: find_bound_states of one point.

    Returns exists=False only for gamma0 = 0.  Raises BracketFailureError
    when the root lies beyond the probe floor of -1e-16 (or beyond the last
    outer probe).
    """
    (result,) = find_bound_states([params], tol)
    if isinstance(result, BracketFailureError):
        raise result
    return result
