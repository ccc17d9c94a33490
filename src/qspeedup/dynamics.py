"""Closed-form single-excitation dynamics in a shared Lorentzian reservoir.

Everything reduces to one scalar envelope

    g(t) = exp(-lam*t/2) * (cosh(d*t/2) + (lam/d) * sinh(d*t/2)),

where d = sqrt(lam**2 - 2*w*lam) carries the effective kernel weight w of
the channel: w = gamma0*N for N two-level emitters and w = gamma0*N*(1 +- theta)
for the symmetric/antisymmetric channels of V-type emitters.  d is real in
the overdamped regime and switches to a positive imaginary value once the
collective coupling is strong enough for the envelope to oscillate.  Either
way g is exactly real, and envelope evaluates it and its derivative in
real arithmetic from the two parts of d, one of which is 0.  Every
library path reads those parts from a ChannelColumns, so envelope checks
only t.

One emitter starts excited and the other N - 1 start in their ground
state as spectators.  Only the symmetric channel couples to the reservoir,
and the excited emitter's amplitude follows it as A = 1 + (g - 1)/N, read
through m excited levels: m = 1 for two-level emitters, m = 2 for V-type
ones in the equal superposition of both upper levels
(spectral.channel_coefficients decides this once).  amplitude (kind-guarded
aliases alpha1 / nu1) is A/sqrt(m), real like g, and the population A**2.
One kernel, unit_amplitude, reads the envelope once for A and g'; every
one-point function, trajectory and density_trajectory included, forms all
its outputs from one such pass on the caller's own t, with the point's
channel constants as scalars.

A batch of parameter points is a ChannelColumns: six float64 columns
(gamma0, lam, N, the collective factor N*c and the two parts a and b of
d), built in one place, ChannelColumns.build.  It is the input of both
column kernels, measures.evaluate_columns and
bound_state.solve_bound_states, and one-point calls read theirs from a
batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (AtomKind, ModelParams, channel_coefficients, validate_steps,
                       validate_tau)


def channel_discriminant(gamma0, lam, n_atoms, c):
    """lam**2 - 2*gamma0*c*lam*N (c = 1 or 1 +- theta); scalars or arrays."""
    return lam * lam - 2.0 * gamma0 * c * lam * n_atoms


def envelope(t, a, b, lam):
    """(g, dg/dt) of channels with d = a + ib, unchecked; finite t >= 0.

    a, b and lam may be scalars or arrays broadcasting against t (one channel
    per row of a batch).  d is real (b = 0, overdamped) or imaginary (a = 0,
    oscillating), so both parts of exp(-lam*t/2) cosh(d*t/2) and
    sinh(d*t/2)/d are real and are computed in real arithmetic:
    cosh(d*t/2) = cosh(a*t/2)*cos(b*t/2) and
    sinh(d*t/2)/d = (cosh(a*t/2)*sin(b*t/2) + sinh(a*t/2)*cos(b*t/2))/(a + b).
    The damping is folded into the growing exponential, exp((a - lam)*t/2),
    which never exceeds 1 because a <= lam; the rest of the hyperbolic
    functions is written through expm1(-a*t).  Nothing overflows on long
    overdamped windows, and the degenerate channel d = 0 (critical coupling)
    takes the limit sinh(d*t/2)/d = t/2.  Multiplying by 1/(a + b) gives
    the bits of numpy's complex division by d, which multiplies by that
    reciprocal.  The derivative -w*exp(-lam*t/2)*sinh(d*t/2)/d recovers its
    prefactor w = (lam**2 - d**2)/2 from d, so both share one
    parametrisation.
    """
    t = np.asarray(t, dtype=float)
    if not (t.min(initial=0.0) >= 0.0 and t.max(initial=0.0) < math.inf):  # NaN fails
        raise ValueError("t must be finite and >= 0")
    grow = np.exp(0.5 * (a - lam) * t)
    half_m = 0.5 * np.expm1(-a * t)
    even, odd = grow * (1.0 + half_m), grow * half_m
    # the phase b*t/2 is 0 on overdamped rows, with cos 1.0 and sin 0.0
    if np.count_nonzero(b):
        phase = 0.5 * b * t
        cos_b, sin_b = np.cos(phase), np.sin(phase)
    else:
        cos_b, sin_b = 1.0, 0.0
    cosh_part = even * cos_b
    sinh_part = even * sin_b - odd * cos_b
    part = a + b  # the nonzero part of d, 0 for d = 0
    if np.count_nonzero(part) == np.size(part):
        sinh_over_d = sinh_part * (1.0 / part)
    else:
        degenerate = part == 0.0
        sinh_over_d = np.where(degenerate, 0.5 * t * cosh_part,
                               sinh_part * (1.0 / np.where(degenerate, 1.0, part)))
    return (cosh_part + lam * sinh_over_d,
            -(0.5 * (lam * lam - (a * a - b * b))) * sinh_over_d)


def unit_amplitude(t, a, b, lam, n):
    """(A, dg/dt) of channels with d = a + ib and n emitters, broadcast as
    in envelope: A = 1 + (g - 1)/N, exactly 1 at t = 0, is the amplitude
    times sqrt(m) and its square the population of either kind."""
    g, dg = envelope(t, a, b, lam)
    return 1.0 + (g - 1.0) / n, dg


def _point(t, params: ModelParams):
    """(A, dg/dt, N, m) of one point on the caller's t, read with the
    point's channel constants as scalars; m is the excited levels of its kind."""
    channels = ChannelColumns.of([params])
    n = channels.n_atoms[0]
    amp, dg = unit_amplitude(t, channels.a[0], channels.b[0], channels.lam[0], n)
    return amp, dg, n, channel_coefficients(params.kind, params.theta)[1]


def _population_rate(amp, dg, n, m: int):
    """d/dt of m*amplitude**2 from A; + 0.0 writes -0.0 (t = 0) as 0.0."""
    root = math.sqrt(1.0 / m)
    return 2.0 * m * ((root * amp) * (root * dg / n)) + 0.0


def _shaped(value, t):
    """value as computed for an array t, as a float for a scalar t."""
    return value if np.ndim(t) else float(value)


def amplitude(t, params: ModelParams):
    """Excited emitter's real amplitude per level, A/sqrt(m): alpha1 or nu1
    by emitter kind; amplitude(0) = 1/sqrt(m) exactly."""
    amp, _, _, m = _point(t, params)
    return _shaped(math.sqrt(1.0 / m) * amp, t)


def alpha1(t, params: ModelParams):
    """amplitude of N two-level emitters; alpha1(0) = 1 exactly."""
    if params.kind is not AtomKind.TWO_LEVEL:
        raise ValueError("alpha1 applies to two-level emitters")
    return amplitude(t, params)


def nu1(t, params: ModelParams):
    """amplitude of N V-type emitters, per transition (symmetric channel)."""
    if params.kind is not AtomKind.THREE_LEVEL_V:
        raise ValueError("nu1 applies to V-type emitters")
    return amplitude(t, params)


def excited_population(t, params: ModelParams):
    """Excited population m*amplitude**2 = A**2: alpha1**2 or 2*nu1**2,
    for scalar or array t >= 0."""
    amp = _point(t, params)[0]
    return _shaped(amp * amp, t)


def population_rate(t, params: ModelParams):
    """Analytic d/dt of excited_population."""
    return _shaped(_population_rate(*_point(t, params)), t)


@dataclass(frozen=True, eq=False)
class ChannelColumns:
    """Symmetric-channel constants of a batch of points, one entry per point.

    The one input format of the column kernels: measures.evaluate_columns
    reads the envelope constants, bound_state.solve_bound_states the
    reservoir constants and the collective factor.
    """

    gamma0: np.ndarray
    lam: np.ndarray
    n_atoms: np.ndarray  # as floats
    factor: np.ndarray   # collective factor N*c of the bound-state kernel
    a: np.ndarray        # envelope frequency d = a + ib: a = sqrt(x) for x >= 0,
    b: np.ndarray        # b = sqrt(-x) below, x the channel_discriminant

    @classmethod
    def build(cls, gamma0, lam, n_atoms, c) -> "ChannelColumns":
        """Columns of the points of a 1-d gamma0; the other constants are
        columns of the same length or scalars shared by every point."""
        gamma0 = np.asarray(gamma0, dtype=float)
        lam, n_atoms, c = [
            v if np.ndim(v) else np.full(gamma0.shape, v, dtype=float)
            for v in (lam, n_atoms, c)]
        x = channel_discriminant(gamma0, lam, n_atoms, c)
        return cls(gamma0, lam, n_atoms, n_atoms * c,
                   np.sqrt(np.maximum(x, 0.0)), np.sqrt(np.maximum(-x, 0.0)))

    @classmethod
    def of(cls, points) -> "ChannelColumns":
        """The symmetric channel of each point, as arrays."""
        consts = np.array([(p.gamma0, p.lam, float(p.n_atoms),
                            channel_coefficients(p.kind, p.theta)[0]) for p in points],
                          dtype=float)
        return cls.build(*consts.reshape(-1, 4).T)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Real amplitude, population and analytic population rate on a uniform
    grid, all float64."""

    times: np.ndarray
    amplitude: np.ndarray
    population: np.ndarray
    population_rate: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def trajectory(params: ModelParams, tau: float, steps: int = 4096) -> Trajectory:
    """Sample the symmetric-channel evolution on steps+1 uniform points."""
    tau = validate_tau(tau)
    times = np.linspace(0.0, tau, validate_steps(steps) + 1)
    unit, dg, n, m = _point(times, params)
    pop = unit * unit
    rate = _population_rate(unit, dg, n, m)
    amp = math.sqrt(1.0 / m) * unit
    if not (np.isfinite(pop).all() and np.isfinite(rate).all()):
        raise FloatingPointError("population or its rate is not finite")
    if pop.min() < -1e-12 or pop.max() > 1.0 + 1e-12:
        raise FloatingPointError("population left [0, 1] beyond rounding slack")
    return Trajectory(times, amp, np.clip(pop, 0.0, 1.0), rate)


def density_trajectory(params: ModelParams, tau: float, steps: int = 4096):
    """Times, reduced states and analytic state rates on a uniform grid.

    m excited levels, each pair holding q = amplitude**2, and the ground
    level 1 - m*q; the emitter starts excited, so the excited-ground
    coherences are 0.  Each state is real, symmetric and of unit trace as
    built, with eigenvalues m*q, 1 - m*q and (for m = 2) 0, so trajectory's
    refusal of a non-finite population or one outside [0, 1] bounds them.
    """
    traj = trajectory(params, tau, steps)
    m = channel_coefficients(params.kind, params.theta)[1]
    q = traj.amplitude ** 2
    dq = traj.population_rate / m
    rho = np.zeros((len(traj), m + 1, m + 1), dtype=complex)
    rate = np.zeros_like(rho)
    rho[:, :m, :m] = q[:, None, None]
    rate[:, :m, :m] = dq[:, None, None]
    rho[:, m, m] = 1.0 - m * q
    rate[:, m, m] = -m * dq
    return traj.times, rho, rate
