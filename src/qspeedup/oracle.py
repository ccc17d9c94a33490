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
orbit of the initial state under M: the records are powers of
M**record_every and the step-doubling samples powers of M**lte_every, both
built by doubling in place of a Python loop over the steps.

M is the integrator's own one-step map, a degree-4 polynomial in hA whose
error shrinks as h**4; it is not exp(hA) and not the envelope g(t).
Nothing here touches the closed-form envelope, so agreement with it is a
genuine check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .spectral import AtomKind, ModelParams, validate_steps, validate_tau

LTE_TOL = 1e-8
MIN_STEPS = 4096


class StepSizeError(RuntimeError):
    """The fixed step failed its local truncation estimate."""


@dataclass(frozen=True)
class KernelSpec:
    """Exponential memory kernel w * exp(-decay * t) of one channel."""

    weight: float
    decay: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("kernel weight must be >= 0")
        if not self.decay > 0:
            raise ValueError("kernel decay must be > 0")

    @classmethod
    def for_channel(cls, params: ModelParams, sign: float = 0.0) -> "KernelSpec":
        """sign = 0 for two-level, +1 / -1 for the V-type channels."""
        return cls(weight=0.5 * params.gamma0 * params.lam * (1.0 + sign * params.theta),
                   decay=params.lam)


def _step_matrix(spec: KernelSpec, n: float, h: float) -> np.ndarray:
    """One classic RK4 step of x' = A x as a matrix: x -> M x.

    For a linear system the four stages collapse to the degree-4 Taylor
    polynomial of exp(hA), M = I + hA + (hA)**2/2 + (hA)**3/6 + (hA)**4/24,
    written here in Horner form.
    """
    b = h * np.array([[0.0, -spec.weight], [n, -spec.decay]])
    eye = np.eye(2)
    return eye + b @ (eye + b / 2.0 @ (eye + b / 3.0 @ (eye + b / 4.0)))


def _power(m: np.ndarray, k: int) -> np.ndarray:
    """m**k by repeated squaring."""
    out = np.eye(2)
    while k:
        if k & 1:
            out = out @ m
        m = m @ m
        k >>= 1
    return out


def _orbit(m: np.ndarray, x0: np.ndarray, count: int) -> np.ndarray:
    """The states x0, m x0, m**2 x0, ... as count rows, by doubling.

    Each pass maps the rows so far through the current map (m raised to
    their number) and appends them, then squares the map, so count states
    take about log2(count) small products.
    """
    states = x0[np.newaxis, :]
    while len(states) < count:
        states = np.concatenate([states, states[:count - len(states)] @ m.T])
        m = m @ m
    return states


def integrate_kernel_ode(spec: KernelSpec, n_atoms: int, s0: float, tau: float,
                         steps: int, record_every: int = 1, lte_every: int = 64):
    """RK4 on S' = -w z, z' = N S - lam z from (S, z)(0) = (s0, 0).

    Returns (times, s, z, max_lte): the recorded subgrid, the two state
    components on it, and the largest step-doubling error estimate seen.
    The estimate (M_{h/2}**2 x - M_h x)/15 is taken on the state x before
    every lte_every-th step (none for lte_every = 0).  Only the recorded
    states and the sampled ones are formed.  Raises FloatingPointError when
    a state is not finite: the step overflows for this kernel.
    """
    if steps % record_every != 0:
        raise ValueError("record_every must divide steps")
    n = float(n_atoms)
    h = tau / steps
    x0 = np.array([float(s0), 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        full = _step_matrix(spec, n, h)
        states = _orbit(_power(full, record_every), x0, steps // record_every + 1)
        max_lte = 0.0
        if lte_every:
            half = _step_matrix(spec, n, 0.5 * h)
            sampled = _orbit(_power(full, lte_every), x0, (steps - 1) // lte_every + 1)
            max_lte = float(np.abs(sampled @ (half @ half - full).T).max()) / 15.0
    if not np.isfinite(states).all():
        raise FloatingPointError("RK4 state is not finite: the step overflows "
                                 "for this kernel")
    # record_every always divides steps, so the last record sits at t = tau
    times = np.linspace(0.0, tau, len(states))
    return times, states[:, 0], states[:, 1], max_lte


def solve_collective(params: ModelParams, tau: float, steps: int = 16384) -> Trajectory:
    """Trajectory of one excited emitter among N, by direct kernel integration.

    Matches the grid convention of dynamics.trajectory: steps divisible by
    4096 are thinned to a 4097-point record, anything else is recorded in
    full.  Raises StepSizeError when the step-doubling estimate exceeds
    LTE_TOL (or is NaN), the sign that steps is too small for the parameter
    point, and FloatingPointError when a state is not finite.
    """
    tau = validate_tau(tau)
    steps = validate_steps(steps, MIN_STEPS)
    record_every = steps // 4096 if steps % 4096 == 0 else 1
    n = params.n_atoms
    # V-type: the symmetric initial state excites only the + channel, read
    # through both upper levels; the - channel starts at zero and the
    # homogeneous system keeps it there.
    vee = params.kind is AtomKind.THREE_LEVEL_V
    levels = 2 if vee else 1
    spec = KernelSpec.for_channel(params, sign=1.0 if vee else 0.0)
    s0 = math.sqrt(levels)
    times, s, z, lte = integrate_kernel_ode(spec, n, s0, tau, steps, record_every)
    if not lte <= LTE_TOL:  # NaN fails too
        raise StepSizeError(f"truncation estimate {lte:g} exceeds {LTE_TOL:g}; "
                            "increase steps")
    amp = (s0 + (s - s0) / n) / levels
    damp = -spec.weight * z / n / levels
    pop = levels * amp * amp
    rate = 2.0 * levels * amp * damp
    return Trajectory(times, amp.astype(complex), pop, rate)
