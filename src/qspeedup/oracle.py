"""Independent cross-check of the closed-form dynamics.

A Lorentzian reservoir hands the collective amplitude S(t) = sum_l a_l(t)
an exponential memory kernel,

    S'(t) = -w * int_0^t exp(-lam*(t-u)) * N * S(u) du,

with channel weight w = gamma0*lam/2 (two-level) or w = (1 +- theta) *
gamma0*lam/2 (V-type channels).  The auxiliary variable

    z(t) = N * int_0^t exp(-lam*(t-u)) * S(u) du

turns this into the local linear pair S' = -w z, z' = N S - lam z, which a
fixed-step classic Runge-Kutta integrator handles directly.  Nothing here
touches the closed-form envelope, so agreement with it is a genuine check
rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ROOT_HALF, Trajectory
from .spectral import AtomKind, ModelParams, validate_tau

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


def integrate_kernel_ode(spec: KernelSpec, n_atoms: int, s0: float, tau: float,
                         steps: int, record_every: int = 1, lte_every: int = 64):
    """RK4 on S' = -w z, z' = N S - lam z from (S, z)(0) = (s0, 0).

    Returns (times, s, z, max_lte): the recorded subgrid, the two state
    components on it, and the largest step-doubling error estimate seen.
    """
    if steps % record_every != 0:
        raise ValueError("record_every must divide steps")
    w, lam, n = spec.weight, spec.decay, float(n_atoms)
    h = tau / steps
    s, z = float(s0), 0.0
    out_s = [s]
    out_z = [z]
    max_lte = 0.0

    def step(si, zi, hh):
        k1s = -w * zi
        k1z = n * si - lam * zi
        s2 = si + 0.5 * hh * k1s
        z2 = zi + 0.5 * hh * k1z
        k2s = -w * z2
        k2z = n * s2 - lam * z2
        s3 = si + 0.5 * hh * k2s
        z3 = zi + 0.5 * hh * k2z
        k3s = -w * z3
        k3z = n * s3 - lam * z3
        s4 = si + hh * k3s
        z4 = zi + hh * k3z
        k4s = -w * z4
        k4z = n * s4 - lam * z4
        return (si + hh / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s),
                zi + hh / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z))

    for i in range(steps):
        if lte_every and i % lte_every == 0:
            s_full, z_full = step(s, z, h)
            sh, zh = step(s, z, 0.5 * h)
            s_half, z_half = step(sh, zh, 0.5 * h)
            est = max(abs(s_half - s_full), abs(z_half - z_full)) / 15.0
            if est > max_lte:
                max_lte = est
            s, z = s_full, z_full
        else:
            s, z = step(s, z, h)
        if (i + 1) % record_every == 0:
            out_s.append(s)
            out_z.append(z)
    # record_every always divides steps, so the last record sits at t = tau
    times = np.linspace(0.0, tau, len(out_s))
    return times, np.asarray(out_s), np.asarray(out_z), max_lte


def solve_collective(params: ModelParams, tau: float, steps: int = 16384) -> Trajectory:
    """Trajectory of the symmetric initial state, by direct kernel integration.

    Matches the grid convention of dynamics.trajectory: steps divisible by
    4096 are thinned to a 4097-point record, anything else is recorded in
    full.  Raises StepSizeError when the step-doubling estimate exceeds
    LTE_TOL, the sign that steps is too small for the parameter point.
    """
    tau = validate_tau(tau)
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be >= {MIN_STEPS}")
    record_every = steps // 4096 if steps % 4096 == 0 else 1
    n = params.n_atoms

    if params.kind is AtomKind.TWO_LEVEL:
        spec = KernelSpec.for_channel(params)
        times, s, z, lte = integrate_kernel_ode(spec, n, 1.0, tau, steps, record_every)
        if lte > LTE_TOL:
            raise StepSizeError(f"truncation estimate {lte:g} exceeds {LTE_TOL:g}; "
                                "increase steps")
        amp = 1.0 + (s - 1.0) / n
        damp = -spec.weight * z / n
        pop = amp * amp
        rate = 2.0 * amp * damp
        return Trajectory(times, amp.astype(complex), pop, rate)

    # V-type: the symmetric initial state excites only the + channel; the
    # - channel starts at zero and the homogeneous system keeps it there.
    spec = KernelSpec.for_channel(params, sign=+1.0)
    times, s, z, lte = integrate_kernel_ode(spec, n, math.sqrt(2.0), tau, steps,
                                            record_every)
    if lte > LTE_TOL:
        raise StepSizeError(f"truncation estimate {lte:g} exceeds {LTE_TOL:g}; "
                            "increase steps")
    nu_plus = math.sqrt(2.0) + (s - math.sqrt(2.0)) / n
    amp = 0.5 * nu_plus
    damp = 0.5 * (-spec.weight * z / n)
    pop = 2.0 * amp * amp
    rate = 4.0 * amp * damp
    return Trajectory(times, amp.astype(complex), pop, rate)
