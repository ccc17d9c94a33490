"""Bound-state solver: the unique negative root of K(E) = E.

K(E) = omega0 - c * I(E) with c the collective multiplicity and I the
reservoir integral.  On E < 0, K is strictly decreasing from omega0 (at
E -> -inf) to -inf (at E -> 0-), so h(E) = K(E) - E has exactly one sign
change whenever the coupling is nonzero.  Weak coupling pushes the root
exponentially close to zero, so the search works on u = log|E|, where h
rises with u and is nearly linear at weak coupling: Newton's iteration
with the closed-form derivative of I, kept inside a sign bracket, needs
about 4-5 evaluations per point.  One evaluation at the probe floor -1e-16
decides beforehand whether the root is representable at all.

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
MAX_STEPS = 64  # cap on the Newton evaluations of one point
SETTLE = 1e-7  # a Newton step on log|E| this short is taken unevaluated


class BracketFailureError(RuntimeError):
    """K(E) - E has no sign change above the probe floor."""


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

    Reads omega0, the collective factor c, gamma0 and lam of each point,
    and returns the columns (coupled, underflow, energy, residual, lo, hi,
    iterations).  coupled is False only for gamma0 = 0, where K is constant
    at omega0; underflow marks a root beyond the probe floor of -1e-16.
    Raises BisectionStallError, naming point i by label(i), when a point
    misses the residual target tol * max(1, |E|).

    The search is Newton's iteration on u = log|E| for h = K(E) - E, with
    the exact slope dh/du = -E - c * dI/du (ReservoirIntegral.unit), run on
    h scaled by 1/(c * max(1, gamma0/(2*pi))) so that it stays finite.
    The evaluation at the floor decides underflow and is the inner edge
    (hi) of a sign bracket; the outer edge (lo) starts beyond a proven
    bound of the root, and every evaluation moves the edge on its side.
    The seed is the smaller of the roots of h's two limiting forms: the
    tangent at the floor (weak coupling, where h is nearly linear in u)
    and the balance |E|**2 = c*T + omega0**2 (strong coupling, where the
    tail T/|E| of I balances |E|).  Where that seed lands below the root,
    the next point is at least the balance.  A step scales E by exp(-step);
    one that leaves the bracket or is longer than 3/4 of a unit of u
    bisects the bracket on the log axis instead.  The energy is the last
    point evaluated: a point stops once its residual there is 100 times
    below tol, or within 16 float spacings of |E| for large |E|, and after
    at most MAX_STEPS evaluations.  A step of at most SETTLE also stops
    it, and then the step's end is the energy, unevaluated, if it lies
    strictly inside the bracket.  The residual is evaluated at the energy
    afterwards.
    """
    omega0, factor = channels.omega0, channels.factor
    integral = ReservoirIntegral(channels.gamma0, channels.lam, omega0)
    # h / (c * big) is finite for every admissible point, where K(E) itself
    # passes float range near the floor at the largest couplings
    big = np.maximum(integral.scale, 1.0)
    small = integral.scale / big

    def newton(e):  # h / (c * big) and its slope on u at E = -exp(u)
        value, slope = integral.unit(e)
        return (omega0 - e) / factor / big - small * value, -e / factor / big - small * slope

    coupled = channels.gamma0 != 0.0
    hi = np.full(coupled.shape, BRACKET_FLOOR)
    h, dh = newton(hi)
    # h falls as E rises, so the root lies below the floor unless h < 0 there
    underflow = coupled & ~(h < 0.0)
    solve = coupled & ~underflow
    # with q = omega0 + |E|, h = q - c*I > 0 wherever |E|**2 >= c*T and
    # u >= o (T = W*s the tail of I, W, s and o its weight, slope and
    # offset), since there c*I < c*W*(q*s + o - u)/q**2 <= c*T/q < q.  The
    # outer edge starts one unit of u beyond that bound, so rounding cannot
    # put the root outside.
    balance = np.log(np.hypot(np.sqrt(factor * integral.tail), omega0))
    lo = -np.exp(np.maximum(balance, integral.offset) + 1.0)
    # the smaller seed: the tangent at the floor (only points being solved
    # divide) or the balance
    e = -np.exp(np.minimum(np.log(-hi) - np.divide(h, dh, out=np.zeros_like(h), where=solve),
                           balance))
    energy = hi
    iterations = np.zeros(coupled.shape, dtype=int)
    active = solve

    def midpoint(lo, hi):  # the geometric midpoint, without lo*hi
        # only the points being solved divide: lo/hi passes float range
        # near hypot(omega0, lam) ~ 1e291, where no point can be solved
        return hi * np.sqrt(np.divide(lo, hi, out=np.ones_like(hi), where=solve))

    mid = midpoint(lo, hi)
    for count in range(MAX_STEPS):
        if not active.any():
            break
        e = np.where((lo < e) & (e < hi), e, mid)
        iterations += active
        h, dh = newton(e)
        energy = np.where(active, e, energy)
        # an exact root (h == 0) moves neither edge and stops below
        lo = np.where(active & (h > 0.0), e, lo)
        hi = np.where(active & (h < 0.0), e, hi)
        mid = midpoint(lo, hi)
        step = np.divide(h, dh, out=np.zeros_like(h), where=active)
        # stop 100 times below tol, or at the float resolution of K where
        # |E| is too large for that (the gate stays relative)
        done = np.maximum(0.01 * tol, 16.0 * np.spacing(-e)) / factor / big
        active = active & (np.abs(h) >= done)
        # a step scales E, which keeps its own precision where u = log|E|
        # has less.  Past 3/4 of a unit of u Newton is far from the root (it
        # crawls by about one unit per step on an exponential flank), so a
        # longer step bisects the bracket instead.
        e = np.where(np.abs(step) <= 0.75, e * np.exp(-np.clip(step, -1.0, 1.0)), mid)
        if count == 0:  # a tangent seed below the root: strong coupling
            e = np.where(h < 0.0, np.minimum(e, -np.exp(balance)), e)
        # a step of at most SETTLE lands within about its square of the
        # root, so it ends the search: its end is the energy, unevaluated
        # (the gate below checks it), if strictly inside the bracket; a
        # step below float resolution stays on the edge just evaluated
        settled = active & (np.abs(step) <= SETTLE)
        energy = np.where(settled & (lo < e) & (e < hi), e, energy)
        active = active & ~settled

    residual = np.abs(omega0 - factor * integral(energy) - energy)
    stalled = solve & ~(residual < tol * np.maximum(1.0, np.abs(energy)))
    if stalled.any():
        i = int(np.argmax(stalled))
        raise BisectionStallError(
            f"root search stalled at residual {residual[i]:g} for {label(i)}")
    return coupled, underflow, energy, residual, lo, hi, iterations


def find_bound_states(points, tol: float = RESIDUAL_TOL) -> list:
    """solve_bound_states of ModelParams: entry i is the BoundStateResult of
    points[i], or the BracketFailureError that find_bound_state raises."""
    points = list(points)
    if not points:
        return []
    columns = solve_bound_states(ChannelColumns.of(points), tol,
                                 label=lambda i: repr(points[i]))
    results = []
    for params, coupled, underflow, e, r, a, b, n in zip(
            points, *(c.tolist() for c in columns)):
        if not coupled:
            results.append(BoundStateResult(False, None, None, None, 0))
        elif underflow:
            results.append(BracketFailureError(
                "no sign change of K(E) - E above the probe floor "
                f"{BRACKET_FLOOR:g}; coupling gamma0={params.gamma0:g} is too "
                "weak for the root to be representable"))
        else:
            # the best step may have become a bracket edge; keep it inside
            bracket = (math.nextafter(a, -math.inf) if e <= a else a,
                       math.nextafter(b, 0.0) if e >= b else b)
            results.append(BoundStateResult(True, e, r, bracket, n))
    return results


def find_bound_state(params: ModelParams, tol: float = RESIDUAL_TOL) -> BoundStateResult:
    """Locate the unique E < 0 with K(E) = E: find_bound_states of one point.

    Returns exists=False only for gamma0 = 0.  Raises BracketFailureError
    when the root lies beyond the probe floor of -1e-16.
    """
    (result,) = find_bound_states([params], tol)
    if isinstance(result, BracketFailureError):
        raise result
    return result
