"""Bound-state solver: the unique negative root of K(E) = E.

K(E) = 1 - c * I(E) in units of omega0, with c the collective multiplicity
and I the reservoir integral.  On E < 0, K is strictly decreasing from 1 (at
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


@dataclass(frozen=True, slots=True)
class BoundStateResult:
    exists: bool
    energy: float | None
    residual: float | None
    bracket: tuple[float, float] | None
    iterations: int


def kernel_k(e, params: ModelParams):
    """The fixed-point map whose root below zero is the bound-state energy."""
    return 1.0 - params.collective_factor() * reservoir_integral(e, params)


def solve_bound_states(channels: ChannelColumns) -> tuple:
    """Locate the unique E < 0 with K(E) = E for every point of a batch.

    Reads the collective factor c, gamma0 and lam of each point, and
    returns the columns (coupled, underflow, energy, residual, lo, hi,
    iterations).  coupled is False only for gamma0 = 0, where K is constant
    at 1; underflow marks a root beyond the probe floor of -1e-16.  Raises
    BisectionStallError, naming the first such point by the columns read
    here, when a point misses the residual target RESIDUAL_TOL *
    max(1, |E|): K(E) = 1 - c * I(E) cancels two terms of size 1, so the
    residual cannot resolve less than a few float spacings of 1.

    The search is Newton's iteration on u = log|E| for h = K(E) - E, with
    the exact slope dh/du = -E - c * dI/du (ReservoirIntegral.unit), run on
    h scaled by 1/(c * max(1, gamma0/(2*pi))) so that it stays finite.
    The evaluation at the floor decides underflow and is the inner edge
    (hi) of a sign bracket; the outer edge (lo) starts beyond a proven
    bound of the root, and every evaluation moves the edge on its side.
    The seed is the smaller of the roots of h's two limiting forms: the
    tangent at the floor (weak coupling, where h is nearly linear in u)
    and the balance |E|**2 = c*T + 1 (strong coupling, where the
    tail T/|E| of I balances |E|).  Where that seed lands below the root,
    the next point is at least the balance.  A step scales E by exp(-step);
    one that leaves the bracket or is longer than 3/4 of a unit of u
    bisects the bracket on the log axis instead.  The energy is the last
    point evaluated: a point stops once its residual there is 100 times
    below RESIDUAL_TOL, or within 16 float spacings of |E| for large |E|,
    and after at most MAX_STEPS evaluations.  A step of at most SETTLE
    also stops it, and then the step's end is the energy, unevaluated, if
    it lies strictly inside the bracket.  The residual is evaluated at the
    energy afterwards.
    """
    factor = channels.factor
    integral = ReservoirIntegral(channels.gamma0, channels.lam)
    # h / (c * big) is finite for every admissible point, where K(E) itself
    # passes float range near the floor at the largest couplings
    big = np.maximum(integral.scale, 1.0)
    small = integral.scale / big

    def newton(e):  # h / (c * big) and its slope on u at E = -exp(u)
        value, slope = integral.unit(e)
        return (1.0 - e) / factor / big - small * value, -e / factor / big - small * slope

    coupled = channels.gamma0 != 0.0
    hi = np.full(coupled.shape, BRACKET_FLOOR)
    h, dh = newton(hi)
    # h falls as E rises, so the root lies below the floor unless h < 0 there
    underflow = coupled & ~(h < 0.0)
    solve = coupled & ~underflow
    # with q = 1 + |E|, h = q - c*I > 0 wherever |E|**2 >= c*T and
    # u >= o (T = W*s the tail of I, W, s and o its weight, slope and
    # offset), since there c*I < c*W*(q*s + o - u)/q**2 <= c*T/q < q.  The
    # outer edge starts one unit of u beyond that bound, so rounding cannot
    # put the root outside.
    balance = np.log(np.hypot(np.sqrt(factor * integral.tail), 1.0))
    lo = -np.exp(np.maximum(balance, integral.offset) + 1.0)
    # the smaller seed: the tangent at the floor (only points being solved
    # divide) or the balance
    e = -np.exp(np.minimum(np.log(-hi) - np.divide(h, dh, out=np.zeros_like(h), where=solve),
                           balance))
    energy = hi
    iterations = np.zeros(coupled.shape, dtype=int)
    active = solve

    def midpoint(lo, hi):  # the geometric midpoint, without lo*hi
        return hi * np.sqrt(lo / hi)

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
        # stop 100 times below RESIDUAL_TOL, or at the float resolution of
        # K where |E| is too large for that (the gate stays relative)
        done = np.maximum(0.01 * RESIDUAL_TOL, 16.0 * np.spacing(-e)) / factor / big
        active = active & (np.abs(h) >= done)
        # a step scales E, which keeps its own precision where u = log|E|
        # has less.  Past 3/4 of a unit of u Newton is far from the root (it
        # crawls by about one unit per step on an exponential flank), so a
        # longer step bisects the bracket instead.
        e = np.where(np.abs(step) <= 0.75, e * np.exp(-np.clip(step, -1.0, 1.0)), mid)
        # a step of at most SETTLE lands within about its square of the
        # root, so it ends the search: its end is the energy, unevaluated
        # (the gate below checks it), if strictly inside the bracket; a
        # step below float resolution stays on the edge just evaluated
        settled = active & (np.abs(step) <= SETTLE)
        energy = np.where(settled & (lo < e) & (e < hi), e, energy)
        active = active & ~settled
        if count == 0:  # a tangent seed below the root: strong coupling
            # (only for points still searching: a settled seed is the root)
            e = np.where(active & (h < 0.0), np.minimum(e, -np.exp(balance)), e)

    residual = np.abs(1.0 - factor * integral(energy) - energy)
    gate = RESIDUAL_TOL * np.maximum(1.0, np.abs(energy))
    stalled = solve & ~(residual < gate)
    if stalled.any():
        i = int(np.argmax(stalled))
        point = ", ".join(f"{name}={getattr(channels, name)[i].item()!r}"
                          for name in ("gamma0", "lam", "n_atoms", "factor"))
        raise BisectionStallError(
            f"root search stalled at residual {residual[i]:g} for {point}")
    return coupled, underflow, energy, residual, lo, hi, iterations


def find_bound_state(params: ModelParams) -> BoundStateResult:
    """Locate the unique E < 0 with K(E) = E: row 0 of solve_bound_states
    on a batch of one.

    Returns exists=False only for gamma0 = 0.  Raises BracketFailureError
    when the root lies beyond the probe floor of -1e-16.
    """
    coupled, underflow, e, r, a, b, n = (
        column.item(0) for column in solve_bound_states(ChannelColumns.of([params])))
    if not coupled:
        return BoundStateResult(False, None, None, None, 0)
    if underflow:
        raise BracketFailureError(
            "no sign change of K(E) - E above the probe floor "
            f"{BRACKET_FLOOR:g}; coupling gamma0={params.gamma0:g} is too "
            "weak for the root to be representable")
    # the best step may have become a bracket edge; keep it inside
    bracket = (math.nextafter(a, -math.inf) if e <= a else a,
               math.nextafter(b, 0.0) if e >= b else b)
    return BoundStateResult(True, e, r, bracket, n)
