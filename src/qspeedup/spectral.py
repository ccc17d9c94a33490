"""Lorentzian reservoir: spectral density and its negative-energy integral.

The reservoir seen by the atoms is a Lorentzian of width lam centred on the
atomic frequency omega0,

    J(w) = gamma0 * lam**2 / (2*pi*((w - omega0)**2 + lam**2)),

restricted to w >= 0.  Everything downstream (bound-state kernels, decay
envelopes) is driven by the principal integral

    I(E) = int_0^inf J(w) / (w - E) dw,  E < 0,

which is finite for all negative E because the denominator never vanishes.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .quadrature import adaptive_simpson


class AtomKind(enum.Enum):
    TWO_LEVEL = "two-level"
    THREE_LEVEL_V = "three-level-v"


def channel_coefficients(kind: AtomKind, theta: float) -> tuple[float, int]:
    """(c, m): kernel weight gamma0*N*c and m excited levels of the symmetric
    channel; the one place the emitter kind enters."""
    if kind is AtomKind.THREE_LEVEL_V:
        return 1.0 + theta, 2
    return 1.0, 1


def _check_n_atoms(n) -> None:
    """ValueError unless N is an integer (not a bool) in [1, float max]."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("n_atoms must be an integer >= 1")
    if not 1 <= n <= sys.float_info.max:  # N enters as a float
        raise ValueError("n_atoms must be >= 1 and representable as a float")


@dataclass(frozen=True, slots=True)
class ModelParams:
    """One ensemble of identical emitters coupled to a shared reservoir.

    All frequencies are in units of omega0 unless omega0 is set explicitly.
    theta is the relative orientation of the two dipoles of a V-type emitter
    (cos of the angle between them); it must be 0 for two-level emitters,
    where the second transition does not exist.
    """

    gamma0: float
    lam: float = 2.0
    n_atoms: int = 1
    theta: float = 0.0
    omega0: float = 1.0
    kind: AtomKind = AtomKind.TWO_LEVEL

    def __post_init__(self):
        _check_n_atoms(self.n_atoms)
        for name in ("gamma0", "lam", "omega0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.omega0 > 0:
            raise ValueError("omega0 must be > 0")
        if not self.lam > 0:
            raise ValueError("lam must be > 0")
        if self.gamma0 < 0:
            raise ValueError("gamma0 must be >= 0")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.kind is AtomKind.TWO_LEVEL and self.theta != 0.0:
            raise ValueError("theta must be 0 for two-level emitters")
        # the channel constants under the envelope frequency d; past float
        # range every envelope sample would be NaN.  Python floats, so numpy
        # scalars overflow without a warning.
        lam = float(self.lam)
        if not math.isfinite(lam * lam):
            raise ValueError("channel constant lam**2 is not finite")
        if not math.isfinite(2.0 * float(self.gamma0) * (1.0 + float(self.theta)) * lam
                             * float(self.n_atoms)):
            raise ValueError("channel constant 2*gamma0*(1+theta)*lam*N is not finite")
        # the reservoir-integral constants (ReservoirIntegral): the slope
        # (pi/2 + atan(omega0/lam))/lam of I(E), times omega0 as in I near E = 0
        omega0 = float(self.omega0)
        if not math.isfinite(omega0 * ((0.5 * math.pi + math.atan(omega0 / lam)) / lam)):
            raise ValueError("reservoir constant omega0*(pi/2 + atan(omega0/lam))/lam "
                             "is not finite")

    def collective_factor(self) -> float:
        """Multiplicity of the reservoir integral in the bound-state kernel.

        N identical two-level emitters act as a single emitter with N times
        the coupling; a V-type emitter contributes both dipoles, (1 + theta)
        per atom, through its symmetric channel.
        """
        return self.n_atoms * channel_coefficients(self.kind, self.theta)[0]


def validate_tau(tau) -> float:
    """The observation window as a float; ValueError unless finite and > 0."""
    tau = float(tau)
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be finite and > 0")
    return tau


def validate_steps(steps, least: int = 1) -> int:
    """A time grid's step count; ValueError unless an integer (not a bool)
    >= least."""
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < least:
        raise ValueError(f"steps must be an integer >= {least}")
    return int(steps)


def lorentzian_j(omega, params: ModelParams):
    """Spectral density at frequency omega (scalar or array, omega >= 0).

    The reservoir constants of params may also be arrays broadcasting
    against omega, one entry per sample."""
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega >= 0):  # NaN fails
        raise ValueError("omega must be >= 0")
    num = params.gamma0 * params.lam ** 2
    den = 2.0 * np.pi * ((omega - params.omega0) ** 2 + params.lam ** 2)
    out = num / den
    return out if out.ndim else float(out)


def _check_energies(e) -> np.ndarray:
    """E as a float array; ValueError unless every E is finite and < 0."""
    e = np.asarray(e, dtype=float)
    if not (e.max(initial=-1.0) < 0.0 and e.min(initial=-1.0) > -math.inf):  # NaN fails
        raise ValueError("reservoir integral requires finite E < 0")
    return e


def reservoir_integral(e, params: ModelParams):
    """I(E) = int_0^inf J(w)/(w - E) dw for E < 0, in closed form.

    Scalar or array E; the reservoir constants of params are scalars (a
    ModelParams) or columns, one entry per E (a ChannelColumns).  The log
    of the squared energy is written as a difference of logs so the
    expression survives |E| down to the smallest normal floats (E**2 would
    underflow long before).
    """
    e = _check_energies(e)
    out = ReservoirIntegral(params.gamma0, params.lam, params.omega0)(e)
    return out if out.ndim else float(out)


class ReservoirIntegral:
    """reservoir_integral for fixed reservoir constants, E < 0 unchecked.

    gamma0, lam and omega0 are scalars or arrays (one entry per parameter
    point, shaped to broadcast against E), so a batch of points is one
    pass; the parts that do not depend on E are computed once.  With
    q = omega0 - E and H = hypot(q, lam) the closed form is

        I(E) = scale * (lam/H)**2 * (q*slope + offset - log(-E)),

    scale = gamma0/(2*pi).  (lam/H)**2 <= 1 stands for lam**2/(q**2 + lam**2)
    without forming either square, so I is finite wherever its value is,
    even where gamma0*lam**2 or q**2 alone would pass float range; lam/H is
    applied as two factors, so no subnormal (lam/H)**2 costs precision.
    """

    def __init__(self, gamma0, lam, omega0):
        self.omega0, self.lam = omega0, lam
        self.scale = gamma0 / (2.0 * np.pi)
        angle = 0.5 * np.pi + np.arctan(omega0 / lam)
        self.slope = angle / lam
        self.offset = np.log(np.hypot(omega0, lam))
        # I(E) -> tail / |E| as E -> -inf
        self.tail = self.scale * lam * angle

    def __call__(self, e):
        return self.scale * self.unit(e)[0]

    def unit(self, e):
        """(I(E), dI/du) / scale on u = log(-E), where

            dI/du = E * dI/dE
                  = scale * (lam/H)**2 * (E*(2q/H**2*(q*slope + offset - u) - slope) - 1).
        """
        q = self.omega0 - e
        hyp = np.hypot(q, self.lam)
        ratio = self.lam / hyp  # applied twice, so (lam/H)**2 is never formed
        num = q * self.slope + self.offset - np.log(-e)
        return (ratio * (ratio * num),
                ratio * (ratio * (e * (2.0 * (q / hyp / hyp) * num - self.slope) - 1.0)))


def reservoir_integral_quad(e, params: ModelParams):
    """I(E) by direct quadrature; slow cross-check for the closed form.

    Scalar or array E.  The reservoir constants gamma0, lam and omega0 of
    params are scalars (a ModelParams) or columns, one entry per E (a
    ChannelColumns).  Each point's integral splits at omega0 and
    omega0 + 10 lam, and its tail maps through u = 1/w so the infinite
    range becomes a finite smooth integral; the three pieces of every point
    are integrals of one adaptive_simpson batch, summed per point as
    (body1 + body2) + tail.  The tolerance 1e-13 is absolute up to
    gamma0 = 2 pi and scales with gamma0/(2 pi) above, as I does, so
    strong couplings are not refined past float resolution.
    """
    e = _check_energies(e)
    columns = np.broadcast_arrays(e, *(np.asarray(v, dtype=float)
                                       for v in (params.gamma0, params.lam, params.omega0)))
    shape = columns[0].shape
    e, gamma0, lam, w0 = (v.ravel() for v in columns)
    n = e.size
    cut = w0 + 10.0 * lam
    # per integral k: the body on [0, omega0], on [omega0, cut], then the tail
    consts = np.tile(np.stack([gamma0, lam, w0, e]), 3)

    def integrand(x, k):
        out = np.empty_like(x)
        body = k < 2 * n
        g0k, lamk, w0k, ek = consts[:, k[body]]
        w = x[body]
        out[body] = lorentzian_j(w, SimpleNamespace(gamma0=g0k, lam=lamk, omega0=w0k)) / (w - ek)
        # J(1/u)/((1/u) - e) * du-Jacobian (1/u**2), simplified to stay
        # finite at u = 0
        tail = ~body
        g0k, lamk, w0k, ek = consts[:, k[tail]]
        u = x[tail]
        out[tail] = g0k * lamk ** 2 * u / (2.0 * np.pi * ((1.0 - w0k * u) ** 2 + (lamk * u) ** 2)
                                           * (1.0 - ek * u))
        return out

    zero = np.zeros(n)
    pieces = adaptive_simpson(integrand, np.concatenate([zero, w0, zero]),
                              np.concatenate([w0, cut, 1.0 / cut]),
                              np.tile(1e-13 * np.maximum(1.0, gamma0 / (2.0 * np.pi)), 3))
    out = ((pieces[:n] + pieces[n:2 * n]) + pieces[2 * n:]).reshape(shape)
    return out if out.ndim else float(out)
