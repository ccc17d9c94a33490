"""State-space measures: Schatten norms, Bures angle, trace distance, the
quantum-speed-limit time and the information-backflow measure.

For the symmetric initial states the excited population p(t) carries the
whole story.  Splitting [0, tau] at the zeros of dp/dt gives monotone
segments.  Those turning points are enumerated in closed form
(dynamics.population_turning_points), so p is read off only at them and
at the window ends.  With R the total rise of p over the ascending
segments (population returning from the reservoir), the exact decomposition

    int_0^tau |dp/dt| dt = (p(0) - p(tau)) + 2 R,    p(0) = 1,

assembles both functionals:

    tau_qsl = tau * (1 - p(tau)) / [(1 - p(tau)) + 2 R],    backflow = R.

Both emitter kinds share this structure: the two-level population is
|alpha1|**2 and the V-type one is 2*|nu1|**2, each starting at exactly 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix, excited_population, population_turning_points
from .spectral import AtomKind, ModelParams


class ReportStatus(enum.Enum):
    NORMAL = "normal"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class SpeedupReport:
    """Speed-limit and backflow summary of one parameter point."""

    tau: float
    tau_qsl: float
    ratio: float
    nonmarkov: float
    final_population: float
    status: ReportStatus
    bound_energy: float | None = None


@dataclass(frozen=True)
class GenericQslResult:
    """Output of the trajectory-level speed-limit estimator."""

    tau_qsl: float
    bures: float
    rates: tuple[float, float, float]
    status: ReportStatus


def _entries(state) -> np.ndarray:
    m = state.entries if isinstance(state, DensityMatrix) else state
    return np.asarray(m, dtype=complex)


def schatten_norm(matrix, order) -> float:
    """Schatten norm of order 1, 2 or inf via singular values."""
    m = _entries(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    sv = np.linalg.svd(m, compute_uv=False)
    if order == 1:
        return float(sv.sum())
    if order == 2:
        return float(math.sqrt(float((sv * sv).sum())))
    if order == math.inf:
        return float(sv[0])
    raise ValueError("order must be 1, 2 or inf")


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    ma, mb = _entries(a), _entries(b)
    if ma.shape != mb.shape:
        raise ValueError("states must have equal dimension")
    return 0.5 * schatten_norm(ma - mb, 1)


def bures_angle(initial, target) -> float:
    """Bures angle between a pure initial state and an arbitrary target."""
    rho0, rho = _entries(initial), _entries(target)
    if rho0.shape != rho.shape:
        raise ValueError("states must have equal dimension")
    w, v = np.linalg.eigh(rho0)
    if w[-1] < 1.0 - 1e-8:
        raise ValueError("initial state must be pure")
    phi = v[:, -1]
    fid = float(np.real(np.conjugate(phi) @ rho @ phi))
    fid = min(1.0, max(0.0, fid))
    return math.acos(math.sqrt(fid))


@dataclass(frozen=True)
class _Functionals:
    backflow: float
    rate_abs_integral: float
    final_population: float
    status: ReportStatus


def _functionals(params: ModelParams, tau: float) -> _Functionals:
    """Backflow and |rate| integral of the excited population on [0, tau]."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be finite and > 0")
    if params.gamma0 == 0.0:
        return _Functionals(0.0, 0.0, 1.0, ReportStatus.STATIONARY)
    cuts = np.concatenate(([0.0], population_turning_points(params, tau), [tau]))
    p = excited_population(cuts, params)
    backflow = float(np.maximum(np.diff(p), 0.0).sum())
    p_tau = float(p[-1])
    rate_abs = (1.0 - p_tau) + 2.0 * backflow
    if rate_abs == 0.0:
        return _Functionals(0.0, 0.0, p_tau, ReportStatus.STATIONARY)
    return _Functionals(backflow, rate_abs, p_tau, ReportStatus.NORMAL)


def nonmarkov_two_level(params: ModelParams, tau: float) -> float:
    """Information backflow of N two-level emitters over [0, tau]."""
    if params.kind is not AtomKind.TWO_LEVEL:
        raise ValueError("nonmarkov_two_level applies to two-level emitters")
    return _functionals(params, float(tau)).backflow


def nonmarkov_three_level(params: ModelParams, tau: float) -> float:
    """Information backflow of N V-type emitters over [0, tau]."""
    if params.kind is not AtomKind.THREE_LEVEL_V:
        raise ValueError("nonmarkov_three_level applies to V-type emitters")
    return _functionals(params, float(tau)).backflow


def _qsl_from(f: _Functionals, tau: float) -> float:
    if f.status is ReportStatus.STATIONARY:
        return 0.0
    return tau * (1.0 - f.final_population) / f.rate_abs_integral


def qsl_two_level(params: ModelParams, tau: float) -> float:
    """Speed-limit time of the two-level evolution over [0, tau]."""
    if params.kind is not AtomKind.TWO_LEVEL:
        raise ValueError("qsl_two_level applies to two-level emitters")
    return _qsl_from(_functionals(params, float(tau)), float(tau))


def qsl_three_level(params: ModelParams, tau: float) -> float:
    """Speed-limit time of the V-type evolution over [0, tau]."""
    if params.kind is not AtomKind.THREE_LEVEL_V:
        raise ValueError("qsl_three_level applies to V-type emitters")
    return _qsl_from(_functionals(params, float(tau)), float(tau))


def evaluate_point(params: ModelParams, tau: float) -> SpeedupReport:
    """Full speed-limit/backflow summary of one parameter point.

    The ratio is assembled as (1 - p)/[(1 - p) + 2 R], which collapses to
    exactly 1.0 whenever the population decays monotonically (R = 0).
    """
    tau = float(tau)
    f = _functionals(params, tau)
    if f.status is ReportStatus.STATIONARY:
        return SpeedupReport(tau, 0.0, 1.0, 0.0, f.final_population, f.status)
    loss = 1.0 - f.final_population
    return SpeedupReport(
        tau=tau,
        tau_qsl=tau * loss / f.rate_abs_integral,
        ratio=loss / f.rate_abs_integral,
        nonmarkov=f.backflow,
        final_population=f.final_population,
        status=f.status,
    )


def qsl_generic(times, rhos, rho_rates=None) -> GenericQslResult:
    """Speed-limit time from a sampled state trajectory alone.

    times must be >= 4096 strictly increasing snapshots; rhos the matching
    stack of states with a pure first snapshot.  When rho_rates is omitted
    the rates come from second-order finite differences of the stack.  The
    bound uses the best (largest) of the inverse time-averaged Schatten
    rates of order 1, 2 and inf.
    """
    times = np.asarray(times, dtype=float)
    rhos = np.asarray(rhos, dtype=complex)
    if times.ndim != 1 or len(times) < 4096:
        raise ValueError("need at least 4096 snapshots")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if rhos.shape[0] != len(times) or rhos.ndim != 3:
        raise ValueError("rhos must stack one state per snapshot")
    w, v = np.linalg.eigh(rhos[0])
    if w[-1] < 1.0 - 1e-8:
        raise ValueError("first snapshot must be pure")
    if rho_rates is None:
        rho_rates = np.gradient(rhos, times, axis=0)
    else:
        rho_rates = np.asarray(rho_rates, dtype=complex)
        if rho_rates.shape != rhos.shape:
            raise ValueError("rho_rates must match rhos in shape")

    sv = np.linalg.svd(rho_rates, compute_uv=False)
    span = times[-1] - times[0]
    lam1 = float(np.trapezoid(sv.sum(axis=1), times)) / span
    lam2 = float(np.trapezoid(np.sqrt((sv * sv).sum(axis=1)), times)) / span
    lam_inf = float(np.trapezoid(sv[:, 0], times)) / span
    rates = (lam1, lam2, lam_inf)
    if max(rates) == 0.0:
        return GenericQslResult(0.0, 0.0, rates, ReportStatus.STATIONARY)

    phi = v[:, -1]
    fid = float(np.real(np.conjugate(phi) @ rhos[-1] @ phi))
    fid = min(1.0, max(0.0, fid))
    angle = math.acos(math.sqrt(fid))
    tau_qsl = math.sin(angle) ** 2 / min(r for r in rates if r > 0.0)
    return GenericQslResult(tau_qsl, angle, rates, ReportStatus.NORMAL)
