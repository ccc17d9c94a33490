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


# slotted: list callers (evaluate_points, find_bound_states) pass one per point
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


def lorentzian_j(omega, params: ModelParams):
    """Spectral density at frequency omega (scalar or array, omega >= 0)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("omega must be >= 0")
    num = params.gamma0 * params.lam ** 2
    den = 2.0 * np.pi * ((omega - params.omega0) ** 2 + params.lam ** 2)
    out = num / den
    return out if out.ndim else float(out)


def total_spectral_weight(params: ModelParams) -> float:
    """int_0^inf J(w) dw, the full weight of the positive-frequency band."""
    return params.gamma0 * params.lam / (2.0 * np.pi) * (
        0.5 * np.pi + math.atan(params.omega0 / params.lam))


def reservoir_integral(e, params: ModelParams):
    """I(E) = int_0^inf J(w)/(w - E) dw for E < 0, in closed form.

    Scalar or array E.  The log of the squared energy is written as a
    difference of logs so the expression survives |E| down to the smallest
    normal floats (E**2 would underflow long before).
    """
    e = np.asarray(e, dtype=float)
    if np.any(e >= 0):
        raise ValueError("reservoir integral requires E < 0")
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


def reservoir_integral_quad(e: float, params: ModelParams, tol: float = 1e-13) -> float:
    """I(E) by direct quadrature; slow cross-check for the closed form.

    Splits at omega0 and omega0 + 10 lam, then maps the tail through
    u = 1/w so the infinite range becomes a finite smooth integral.
    """
    e = float(e)
    if e >= 0:
        raise ValueError("reservoir integral requires E < 0")
    w0, lam = params.omega0, params.lam

    def body(w):
        return lorentzian_j(w, params) / (w - e)

    cut = w0 + 10.0 * lam

    def tail(u):
        # J(1/u)/((1/u) - e) * du-Jacobian (1/u**2), simplified to stay
        # finite at u = 0
        num = params.gamma0 * lam ** 2 * u
        den = 2.0 * np.pi * ((1.0 - w0 * u) ** 2 + (lam * u) ** 2) * (1.0 - e * u)
        return num / den

    return (adaptive_simpson(body, 0.0, w0, tol)
            + adaptive_simpson(body, w0, cut, tol)
            + adaptive_simpson(tail, 0.0, 1.0 / cut, tol))
