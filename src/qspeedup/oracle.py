"""Independent cross-check of the closed-form dynamics.

A Lorentzian reservoir hands the collective amplitude S(t) = sum_l a_l(t)
an exponential memory kernel,

    S'(t) = -w * int_0^t exp(-lam*(t-u)) * N * S(u) du,

with channel weight w = gamma0*lam/2 (two-level) or w = (1 +- theta) *
gamma0*lam/2 (V-type channels).  The auxiliary variable

    z(t) = N * int_0^t exp(-lam*(t-u)) * S(u) du

turns this into the local linear pair S' = -w z, z' = N S - lam z, which a
fixed-step classic Runge-Kutta integrator handles directly.  For x' = A x
with A = [[0, -w], [N, -lam]] one RK4 step is exactly x -> M x, with
M = I + hA + (hA)**2/2 + (hA)**3/6 + (hA)**4/24, so the trajectory is the
orbit of the initial state under M: the records are powers of M raised
to the record step and the step-doubling samples powers of M**LTE_EVERY,
both built by doubling in place of a Python loop over the steps.

Every kernel works on a block of P points at once: the step matrices are a
(P, 2, 2) stack built from columns of weights, decays and N, and the
orbit fills one preallocated (P, count, 2) record in place.  A one-point
call is a block of one, and each row of a block has the bits of its
one-point call, because the stacked products apply the same 2x2 arithmetic
to every point.

M is the integrator's own one-step map, a degree-4 polynomial in hA whose
error shrinks as h**4; it is not exp(hA) and not the envelope g(t).
Nothing here touches the closed-form envelope, so agreement with it is a
genuine check rather than a tautology.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Trajectory
from .spectral import AtomKind, ModelParams, validate_steps, validate_tau

LTE_TOL = 1e-8
MIN_STEPS = 4096
LTE_EVERY = 64  # steps between step-doubling error samples
_BLOCK = 12  # points per stacked integration in collective_trajectories


class StepSizeError(RuntimeError):
    """The fixed step failed its local truncation estimate."""


def _step_matrix(weight: np.ndarray, decay: np.ndarray, n: np.ndarray,
                 h: float) -> np.ndarray:
    """One classic RK4 step of x' = A x per point as a (P, 2, 2) stack: x -> M x.

    For a linear system the four stages collapse to the degree-4 Taylor
    polynomial of exp(hA), M = I + hA + (hA)**2/2 + (hA)**3/6 + (hA)**4/24,
    written here in Horner form.  weight, decay and n are columns of P points.
    """
    b = h * np.stack([np.zeros_like(weight), -weight, n, -decay], axis=-1).reshape(-1, 2, 2)
    eye = np.eye(2)
    return eye + b @ (eye + b / 2.0 @ (eye + b / 3.0 @ (eye + b / 4.0)))


def _power(m: np.ndarray, k: int) -> np.ndarray:
    """m**k of each matrix of a (P, 2, 2) stack by repeated squaring; k >= 0."""
    out = np.eye(2)
    while k:
        if k & 1:
            out = out @ m
        m = m @ m
        k >>= 1
    return out


def _orbit(m: np.ndarray, x0: np.ndarray, count: int) -> np.ndarray:
    """The states x0, m x0, m**2 x0, ... of each point, as a (P, count, 2) record.

    m is a (P, 2, 2) stack and x0 a (P, 2) column of initial states.  The
    record is allocated once and filled by doubling: each pass maps the j
    states so far through the current map (m raised to j) into the next j
    slots, then squares the map, so count states take about log2(count)
    stacked products and no copy of the record.
    """
    states = np.empty((len(m), count, 2))
    states[:, 0] = x0
    j = 1
    while j < count:
        k = min(j, count - j)
        np.matmul(states[:, :k], m.transpose(0, 2, 1), out=states[:, j:j + k])
        m = m @ m
        j += k
    return states


def _integrate(weight, decay, n, s0, tau: float, steps: int):
    """RK4 of a block of points over [0, tau] in steps steps from
    (S, z)(0) = (s0, 0); states unchecked.

    weight, decay, n and s0 are columns of P points.  Returns the (P,
    count, 2) record, every (steps // 4096)-th state when 4096 divides
    steps and every state otherwise, and the (P,) largest step-doubling
    estimates, sampled every LTE_EVERY steps below steps.
    """
    h = tau / steps
    record_every = steps // 4096 if steps % 4096 == 0 else 1
    x0 = np.stack([s0, np.zeros_like(s0)], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        full = _step_matrix(weight, decay, n, h)
        states = _orbit(_power(full, record_every), x0, steps // record_every + 1)
        half = _step_matrix(weight, decay, n, 0.5 * h)
        sampled = _orbit(_power(full, LTE_EVERY), x0, (steps - 1) // LTE_EVERY + 1)
        error = sampled @ (half @ half - full).transpose(0, 2, 1)
    return states, np.abs(error).max(axis=(1, 2)) / 15.0


def _check_finite(states: np.ndarray) -> None:
    if not np.isfinite(states).all():
        raise FloatingPointError("RK4 state is not finite: the step overflows "
                                 "for this kernel")


def collective_trajectories(points, tau: float, steps: int = 16384):
    """solve_collective's Trajectory of each point of a sequence, in order.

    The points are integrated _BLOCK at a time, each block as one stack of
    step matrices, and each point's amplitude and population are formed
    from its own row, so every trajectory has the bits of the one-point
    call.  The trajectories of a block share one times array.  A point that
    fails raises its one-point error when the iteration reaches it.
    """
    tau = validate_tau(tau)
    steps = validate_steps(steps, MIN_STEPS)
    for start in range(0, len(points), _BLOCK):
        # one block's record at a time: it is freed before the next is built
        yield from _block_trajectories(points[start:start + _BLOCK], tau, steps)


def _block_trajectories(points, tau: float, steps: int):
    """Trajectories of a block of points, integrated as one stack; each
    point's guards run on its own row."""
    # theta is 0 for two-level points, so (1 + theta) is their weight's 1
    weights = [0.5 * p.gamma0 * p.lam * (1.0 + p.theta) for p in points]
    # V-type: the symmetric initial state excites only the + channel, read
    # through both upper levels; the - channel starts at zero and the
    # homogeneous system keeps it there.
    levels = [2 if p.kind is AtomKind.THREE_LEVEL_V else 1 for p in points]
    states, max_lte = _integrate(
        np.array(weights), np.array([p.lam for p in points]),
        np.array([float(p.n_atoms) for p in points]),
        np.array([math.sqrt(m) for m in levels]), tau, steps)
    times = np.linspace(0.0, tau, states.shape[1])
    for params, weight, m, record, lte in zip(points, weights, levels, states,
                                              max_lte.tolist()):
        _check_finite(record)
        if not lte <= LTE_TOL:  # NaN fails too
            raise StepSizeError(f"truncation estimate {lte:g} exceeds {LTE_TOL:g}; "
                                "increase steps")
        yield _trajectory(times, record[:, 0], record[:, 1], weight, params.n_atoms, m)


def _trajectory(times, s, z, weight: float, n: int, levels: int) -> Trajectory:
    """The excited emitter's amplitude, population and rate from S and z.

    A function of its own so that its temporaries are freed before the
    caller reads the trajectory: they would add to the block's record."""
    s0 = math.sqrt(levels)
    amp = (s0 + (s - s0) / n) / levels
    damp = -weight * z / n / levels
    return Trajectory(times, amp, levels * amp * amp, 2.0 * levels * amp * damp)


def solve_collective(params: ModelParams, tau: float, steps: int = 16384) -> Trajectory:
    """Trajectory of one excited emitter among N, by direct kernel integration.

    The record holds steps + 1 points, except that a multiple of 4096 steps
    is thinned to 4097 points; dynamics.trajectory never thins and always
    records steps + 1.  Raises StepSizeError when the step-doubling
    estimate exceeds LTE_TOL (or is NaN), the sign that steps is too small
    for the parameter point, and FloatingPointError when a state is not
    finite.
    """
    return next(collective_trajectories([params], tau, steps))
