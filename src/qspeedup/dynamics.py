"""Closed-form single-excitation dynamics in a shared Lorentzian reservoir.

Everything reduces to one scalar envelope

    g(t) = exp(-lam*t/2) * (cosh(d*t/2) + (lam/d) * sinh(d*t/2)),

where d = sqrt(lam**2 - 2*w*lam) carries the effective kernel weight w of
the channel: w = gamma0*N for N two-level emitters and w = gamma0*N*(1 +- theta)
for the symmetric/antisymmetric channels of V-type emitters.  d is real in
the overdamped regime and switches to a positive imaginary value once the
collective coupling is strong enough for the envelope to oscillate; both
regimes are covered by evaluating the same expression over the complex d.

The fully symmetric initial condition (every emitter sharing the excitation
equally) stays in the symmetric channel, read through m excited levels:
m = 1 for two-level emitters, m = 2 for V-type ones in the equal
superposition of both upper levels (spectral.channel_coefficients decides
this once).  amplitude (kind-guarded aliases alpha1 / nu1) starts at
1/sqrt(m) and the population is m*amplitude**2; the general propagators
accept arbitrary per-emitter initial amplitudes.

A batch of parameter points is a ChannelColumns: one array per channel
constant (gamma0, lam, omega0, N, the collective factor N*c, m and d),
built in one place, ChannelColumns.build.  It is the input of both column
kernels, measures.evaluate_columns and bound_state.solve_bound_states, and
of population_rows, whose real arithmetic every one-point function runs on
t as the one row of a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import AtomKind, ModelParams, channel_coefficients, validate_tau

ROOT_HALF = math.sqrt(0.5)


def principal_sqrt(x):
    """sqrt|x| for x >= 0, i*sqrt|x| below (scalar or array): the bits of
    cmath.sqrt(complex(x, 0.0)) on the principal branch, without a warning."""
    root = np.sqrt(np.abs(x))
    d = np.where(x >= 0.0, root, 1j * root)
    return d if d.ndim else complex(d)


def channel_discriminant(gamma0, lam, n_atoms, c):
    """lam**2 - 2*gamma0*c*lam*N (c = 1 or 1 +- theta); scalars or arrays."""
    return lam * lam - 2.0 * gamma0 * c * lam * n_atoms


def _damped_cosh_sinh(t, d, lam):
    """exp(-lam*t/2) times cosh(d*t/2) and sinh(d*t/2)/d; finite t >= 0.

    d and lam may be scalars or arrays broadcasting against t (one channel
    per row of a batch).  The damping is folded into the growing
    exponential, exp((Re d - lam)*t/2), which never exceeds 1 because
    Re d <= lam; the rest of the hyperbolic functions is written through
    expm1(-Re d * t).  Nothing overflows on long overdamped windows, an
    oscillating channel (Re d = 0) stays exactly real, and the degenerate
    channel d = 0 (critical coupling) takes the limit sinh(d*t/2)/d = t/2.
    """
    t = np.asarray(t, dtype=float)
    if not (t.min(initial=0.0) >= 0.0 and t.max(initial=0.0) < math.inf):  # NaN fails
        raise ValueError("t must be finite and >= 0")
    d = np.asarray(d, dtype=complex)
    grow = np.exp(0.5 * (d.real - lam) * t)
    half_m = 0.5 * np.expm1(-d.real * t)
    phase = 0.5 * d.imag * t
    cos_b, sin_b = np.cos(phase), np.sin(phase)
    even, odd = grow * (1.0 + half_m), grow * half_m
    cosh_part = even * cos_b - 1j * (odd * sin_b)
    sinh_part = 1j * (even * sin_b) - odd * cos_b
    if d.all():
        return cosh_part, sinh_part / d
    degenerate = d == 0
    return cosh_part, np.where(degenerate, 0.5 * t * cosh_part,
                               sinh_part / np.where(degenerate, 1.0, d))


def g_factor(t, d: complex, lam: float):
    """Decay envelope g(t); scalar or array of finite t >= 0.

    d and lam may also be arrays broadcasting against t, one channel per row.
    """
    cosh_part, sinh_over_d = _damped_cosh_sinh(t, d, lam)
    out = cosh_part + lam * sinh_over_d
    return out if out.ndim else complex(out)


def g_factor_dt(t, d: complex, lam: float):
    """Time derivative of the envelope: dg/dt = -w*exp(-lam*t/2)*sinh(d*t/2)/d.

    The prefactor w = (lam**2 - d**2)/2 is recovered from d itself, so the
    derivative shares the envelope's parametrisation exactly.
    """
    w = 0.5 * (lam * lam - np.square(d)).real
    out = -w * _damped_cosh_sinh(t, d, lam)[1]
    return out if out.ndim else complex(out)


def _amplitude(g, n, initial):
    """Symmetric amplitude from the envelope; (g - 1)/N keeps t = 0 exact."""
    return initial * (1.0 + (g - 1.0) / n)


def _batch_of_one(t, params: ModelParams, initial):
    """t as the one row of times of a batch of one, the point's d, lam and N
    as population_rows reads them, and initial (1/sqrt(m) unless given)."""
    channels = ChannelColumns.of([params])
    initial = math.sqrt(1.0 / channels.levels[0]) if initial is None else initial
    return (np.asarray(t, dtype=float).reshape(1, -1), channels.d[0], channels.lam[0],
            channels.n_atoms[0], initial)


def _complex_like(row: np.ndarray, t):
    """A row of a batch of one in the shape of t, as complex."""
    return row.reshape(np.shape(t)).astype(complex) if np.ndim(t) else complex(row[0, 0])


def amplitude(t, params: ModelParams, initial: complex | None = None):
    """Symmetric excited amplitude per level: alpha1 or nu1 by emitter kind.

    amplitude(0) = initial exactly, by default 1/sqrt(m) (1 or ROOT_HALF).
    """
    row, d, lam, n, initial = _batch_of_one(t, params, initial)
    return _complex_like(_amplitude(g_factor(row, d, lam).real, n, initial), t)


def alpha1(t, params: ModelParams, initial: complex = 1.0):
    """amplitude of N two-level emitters; alpha1(0) = initial exactly."""
    if params.kind is not AtomKind.TWO_LEVEL:
        raise ValueError("alpha1 applies to two-level emitters")
    return amplitude(t, params, initial)


def nu1(t, params: ModelParams, initial: complex = ROOT_HALF):
    """amplitude of N V-type emitters, per transition (symmetric channel)."""
    if params.kind is not AtomKind.THREE_LEVEL_V:
        raise ValueError("nu1 applies to V-type emitters")
    return amplitude(t, params, initial)


def amplitude_rate(t, params: ModelParams, initial: complex | None = None):
    """d/dt of amplitude (alpha1 or nu1) for the same initial value."""
    row, d, lam, n, initial = _batch_of_one(t, params, initial)
    return _complex_like(initial * g_factor_dt(row, d, lam).real / n, t)


def excited_population(t, params: ModelParams):
    """Excited population m*|amplitude|**2: |alpha1|**2 or 2*|nu1|**2.

    Scalar or array t >= 0; population_rows for a batch of one point.
    """
    t = np.asarray(t, dtype=float)
    out = population_rows(t.reshape(1, -1), ChannelColumns.of([params]))
    return out.reshape(t.shape) if t.ndim else float(out[0, 0])


def population_rate(t, params: ModelParams):
    """Analytic d/dt of excited_population; + 0.0 writes -0.0 (t = 0) as 0.0."""
    m = channel_coefficients(params.kind, params.theta)[1]
    return 2.0 * m * (amplitude(t, params).real * amplitude_rate(t, params).real) + 0.0


@dataclass(frozen=True, eq=False)
class ChannelColumns:
    """Symmetric-channel constants of a batch of points, one entry per point.

    The one input format of the column kernels: measures.evaluate_columns
    reads the envelope constants, bound_state.solve_bound_states the
    reservoir constants and the collective factor.
    """

    gamma0: np.ndarray
    lam: np.ndarray
    omega0: np.ndarray
    n_atoms: np.ndarray  # as floats
    factor: np.ndarray   # collective factor N*c of the bound-state kernel
    levels: np.ndarray   # m excited levels, as floats
    d: np.ndarray        # complex envelope parameter of the channel

    @classmethod
    def build(cls, gamma0, lam, omega0, n_atoms, c, levels) -> "ChannelColumns":
        """Columns of the points of a 1-d gamma0; the other constants are
        columns of the same length or scalars shared by every point."""
        gamma0 = np.asarray(gamma0, dtype=float)
        lam, omega0, n_atoms, c, levels = [
            v if np.ndim(v) else np.full(gamma0.shape, v, dtype=float)
            for v in (lam, omega0, n_atoms, c, levels)]
        x = channel_discriminant(gamma0, lam, n_atoms, c)
        return cls(gamma0, lam, omega0, n_atoms, n_atoms * c, levels, principal_sqrt(x))

    @classmethod
    def of(cls, points) -> "ChannelColumns":
        """The symmetric channel of each point, as arrays."""
        consts = np.array([(p.gamma0, p.lam, p.omega0, float(p.n_atoms),
                            *channel_coefficients(p.kind, p.theta)) for p in points],
                          dtype=float)
        return cls.build(*consts.reshape(-1, 6).T)

    def __len__(self) -> int:
        return len(self.lam)


def population_rows(times: np.ndarray, channels: ChannelColumns) -> np.ndarray:
    """excited_population of each point of a batch on its own row of times.

    The population m * (a/sqrt(m))**2 of either kind is a**2, with
    a = 1 + (g - 1)/N the symmetric amplitude scaled to start at 1, so it
    starts at exactly 1.  With d real or imaginary the envelope is exactly
    real, so the rest is real arithmetic.
    """
    g = g_factor(times, channels.d[:, None], channels.lam[:, None]).real
    amp = _amplitude(g, channels.n_atoms[:, None], 1.0)
    return amp * amp


def propagate_two_level(t: float, initials, params: ModelParams) -> np.ndarray:
    """Evolve arbitrary per-emitter amplitudes; returns the N amplitudes at t.

    Each amplitude moves only through the collective sum s0 of the initial
    ones: a_l(t) = a_l(0) + (g(t) - 1) * s0 / N.
    """
    if params.kind is not AtomKind.TWO_LEVEL:
        raise ValueError("propagate_two_level applies to two-level emitters")
    initials = np.asarray(initials, dtype=complex)
    if initials.shape != (params.n_atoms,):
        raise ValueError("need one initial amplitude per emitter")
    g = g_factor(float(t), ChannelColumns.of([params]).d[0], params.lam)
    return initials + (g - 1.0) * initials.sum() / params.n_atoms


def propagate_three_level(t: float, initials_a, initials_b, params: ModelParams):
    """Evolve arbitrary per-emitter V-type amplitudes (both transitions).

    The +- combinations nu_a +- nu_b decouple; each obeys the two-level
    update with its own envelope.  Returns (amps_a, amps_b) at time t.
    """
    if params.kind is not AtomKind.THREE_LEVEL_V:
        raise ValueError("propagate_three_level applies to V-type emitters")
    a = np.asarray(initials_a, dtype=complex)
    b = np.asarray(initials_b, dtype=complex)
    if a.shape != (params.n_atoms,) or b.shape != (params.n_atoms,):
        raise ValueError("need one initial amplitude per emitter and transition")
    lam, n = params.lam, params.n_atoms
    c = np.array([1.0 + params.theta, 1.0 - params.theta])
    d_plus, d_minus = principal_sqrt(
        channel_discriminant(params.gamma0, lam, float(n), c)).tolist()
    plus = a + b
    minus = a - b
    g_plus = g_factor(float(t), d_plus, lam)
    g_minus = g_factor(float(t), d_minus, lam)
    plus_t = plus + (g_plus - 1.0) * plus.sum() / n
    minus_t = minus + (g_minus - 1.0) * minus.sum() / n
    return 0.5 * (plus_t + minus_t), 0.5 * (plus_t - minus_t)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Amplitude, population and analytic population rate on a uniform grid."""

    times: np.ndarray
    amplitude: np.ndarray
    population: np.ndarray
    population_rate: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def trajectory(params: ModelParams, tau: float, steps: int = 4096) -> Trajectory:
    """Sample the symmetric-channel evolution on steps+1 uniform points."""
    tau = validate_tau(tau)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    times = np.linspace(0.0, tau, steps + 1)
    amp = amplitude(times, params)
    pop = excited_population(times, params)
    rate = population_rate(times, params)
    if not (np.isfinite(pop).all() and np.isfinite(rate).all()):
        raise FloatingPointError("population or its rate is not finite")
    if pop.min() < -1e-12 or pop.max() > 1.0 + 1e-12:
        raise FloatingPointError("population left [0, 1] beyond rounding slack")
    return Trajectory(times, amp, np.clip(pop, 0.0, 1.0), rate)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A 2x2 or 3x3 reduced state with its physicality checks."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def validate(self) -> "DensityMatrix":
        m = self.entries
        if m.shape not in ((2, 2), (3, 3)):
            raise ValueError("density matrix must be 2x2 or 3x3")
        _check_states(m, ValueError, "density matrix")
        return self


def _density_ops(times: np.ndarray, params: ModelParams, ground_amplitude: complex):
    """Vectorised reduced states and their analytic rates on a time grid.

    m excited levels, each pair holding |amplitude|**2, plus the ground level.
    """
    a0 = complex(ground_amplitude)
    if abs(a0) > 1.0:
        raise ValueError("ground amplitude exceeds normalization")
    m = channel_coefficients(params.kind, params.theta)[1]
    exc0 = math.sqrt(max(0.0, (1.0 - abs(a0) ** 2) / m))
    amp = amplitude(times, params, initial=exc0).real
    damp = amplitude_rate(times, params, initial=exc0).real
    q = amp * amp
    dq = 2.0 * (amp * damp)
    rho = np.zeros((len(times), m + 1, m + 1), dtype=complex)
    rate = np.zeros_like(rho)
    for out, level, coherence in ((rho, q, amp), (rate, dq, damp)):
        out[:, :m, :m] = level[:, None, None]
        out[:, :m, m] = (np.conjugate(a0) * coherence)[:, None]
        out[:, m, :m] = (a0 * coherence)[:, None]
    rho[:, m, m] = 1.0 - m * q
    rate[:, m, m] = -m * dq
    return rho, rate


def _check_states(rhos: np.ndarray, error: type, what: str) -> None:
    """Hermitian, unit trace, no negative eigenvalue; a NaN fails every test."""
    if not np.abs(rhos - np.conjugate(np.swapaxes(rhos, -1, -2))).max() <= 1e-14:
        raise error(f"{what} is not Hermitian")
    if not np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0).max() <= 1e-12:
        raise error(f"{what} trace is not 1")
    if not np.linalg.eigvalsh(rhos).min() >= -1e-12:
        raise error(f"{what} has a negative eigenvalue")


def density_matrix(t: float, params: ModelParams,
                   ground_amplitude: complex = 0.0) -> DensityMatrix:
    """Reduced state of one emitter at time t (shared ground amplitude a0)."""
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    rho, _ = _density_ops(np.asarray([float(t)]), params, ground_amplitude)
    return DensityMatrix(rho[0]).validate()


def density_trajectory(params: ModelParams, tau: float, steps: int = 4096,
                       ground_amplitude: complex = 0.0):
    """Times, reduced states and analytic state rates on a uniform grid."""
    tau = validate_tau(tau)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    times = np.linspace(0.0, tau, steps + 1)
    rhos, rates = _density_ops(times, params, ground_amplitude)
    _check_states(rhos, FloatingPointError, "reduced state")
    return times, rhos, rates
