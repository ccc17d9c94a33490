"""State-space measures: Schatten norms, the Bures angle, the
quantum-speed-limit time and the information-backflow measure.

For one excited emitter among N, its excited population p(t) carries the
whole story.  With R the total rise of p over its ascending segments
(population returning from the reservoir), the exact decomposition

    int_0^tau |dp/dt| dt = (p(0) - p(tau)) + 2 R,    p(0) = 1,

assembles both functionals:

    tau_qsl = tau * (1 - p(tau)) / [(1 - p(tau)) + 2 R],    backflow = R.

Both emitter kinds share this structure: p = a**2 with a = 1 + (g - 1)/N
(|alpha1|**2 for two-level emitters, 2*|nu1|**2 for V-type ones).  The
turning points of p are the extrema t_k = 2 pi k/|d| of an oscillating
envelope, where g = (-1)**k exp(-pi k lam/|d|), and for N = 1 also the
zeros of g, so R is a sum of geometric series in closed form, one for
N = 1 and one for N >= 2, each run only on its own rows; an overdamped
envelope gives R = 0.  evaluate_columns assembles a whole batch of points
(a dynamics.ChannelColumns) at once, reading the envelope of each point
once, at tau; evaluate_point reads row 0 of a batch of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import ChannelColumns
from .spectral import AtomKind, ModelParams, validate_tau


class ReportStatus(enum.Enum):
    NORMAL = "normal"
    STATIONARY = "stationary"


@dataclass(frozen=True, slots=True)
class SpeedupReport:
    """Speed-limit and backflow summary of one parameter point."""

    tau: float
    tau_qsl: float
    ratio: float
    nonmarkov: float
    final_population: float
    status: ReportStatus


@dataclass(frozen=True)
class GenericQslResult:
    """Output of the trajectory-level speed-limit estimator."""

    tau_qsl: float
    bures: float
    rates: tuple[float, float, float]
    status: ReportStatus


def schatten_norm(matrix, order) -> float:
    """Schatten norm of order 1, 2 or inf via singular values."""
    m = np.asarray(matrix, dtype=complex)
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


def bures_angle(initial, target) -> float:
    """Bures angle between a pure initial state and an arbitrary target."""
    rho0, rho = np.asarray(initial, dtype=complex), np.asarray(target, dtype=complex)
    if rho0.shape != rho.shape:
        raise ValueError("states must have equal dimension")
    # a NaN would pass the purity test and be clamped to fidelity 0
    if not (np.isfinite(rho0).all() and np.isfinite(rho).all()):
        raise ValueError("states must be finite")
    w, v = np.linalg.eigh(rho0)
    if w[-1] < 1.0 - 1e-8:
        raise ValueError("initial state must be pure")
    phi = v[:, -1]
    fid = float(np.real(np.conjugate(phi) @ rho @ phi))
    fid = min(1.0, max(0.0, fid))
    return math.acos(math.sqrt(fid))


def _extrema(lam, omega, tau):
    """(log r, phase, K) of oscillating rows, omega = |d| > 0: the extrema
    t_k = 2 pi k/omega hold g_k = (-1)**k r**k, r = exp(-pi*lam/omega), the
    phase tau*omega/2 of g(tau) is pi k at t_k, and K of them lie in the window."""
    # -5e-324 stands for a log r that underflows to 0: each sum of M terms
    # r**j then takes its limit M, not 0/0
    log_r = np.minimum(-math.pi * lam / omega, -5e-324)
    phase = (0.5 * tau) * omega
    return log_r, phase, np.floor(phase / math.pi)


def _single_rises(lam, omega, tau, final):
    """Backflow R of oscillating N = 1 rows, final = p(tau): each full rise
    runs from an amplitude zero to t_k and gains r**2k."""
    log_r, phase, k = _extrema(lam, omega, tau)
    # sum_{k <= K} r**2k = r**2 (r**2K - 1)/(r**2 - 1), plus p(tau) once
    # tau passes the next amplitude zero 2 (pi (K + 1) - atan(omega/lam))/omega,
    # where p rises from 0
    log_r2 = 2.0 * log_r
    rises = np.exp(log_r2) * np.expm1(k * log_r2) / np.expm1(log_r2)
    return rises + final * (np.arctan(omega / lam) > math.pi * (k + 1.0) - phase)


def _many_rises(n, lam, omega, tau, g, u):
    """Backflow R of oscillating N >= 2 rows, g = g(tau) and u = (1 - g)/N
    the fall of the amplitude a = 1 - u: each full rise runs from odd k to
    k + 1 and gains (a_k+1 - a_k)(a_k + a_k+1).  Every 1 - r**j of both
    sums is an expm1 and every ratio in powers of r <= 1."""
    log_r, _, k = _extrema(lam, omega, tau)
    # the full rises end at the first 2J = K - (K mod 2) extrema.  With
    # em = r**2J - 1, over odd k < 2J: sum r**k (1 + r) = sum_{k <= 2J} r**k
    # = r em/(r - 1), and sum r**2k (1 - r**2) = alternating
    odd = np.fmod(k, 2.0)
    em, r = np.expm1((k - odd) * log_r), np.exp(log_r)
    up2 = 2.0 * r * em / np.expm1(log_r)
    r2 = r * r
    alternating = r2 * (em * (-2.0 - em)) / (1.0 + r2)
    rises = (up2 - (up2 + alternating) / n) / n
    # odd K: tau lies on the rise from g_K = -r**K
    rk = np.exp(k * log_r)
    return rises + odd * np.maximum((g + rk) / n * (2.0 - u - (1.0 + rk) / n), 0.0)


def evaluate_columns(channels: ChannelColumns, tau: float):
    """(tau_qsl, ratio, nonmarkov, final, stationary) columns of the rows.

    ratio = (1 - p)/[(1 - p) + 2 R] is exactly 1.0 when the decay is
    monotone (R = 0).  gamma0 = 0 (p = 1) and a population that does not
    move are stationary: ratio 1, tau_qsl 0, no backflow.  Each row is
    computed on its own (elementwise arithmetic), so a batch of one gives
    the bits of its row in any batch.
    """
    n, lam, omega = channels.n_atoms, channels.lam, channels.b
    # through the module, so the functionals read the same envelope as dynamics
    g = dynamics.envelope(tau, channels.a, omega, lam)[0]
    u = (1.0 - g) / n
    a = 1.0 - u  # dynamics.unit_amplitude's 1 + (g - 1)/N, bit for bit
    final = a * a
    loss = u * (2.0 - u)  # 1 - a**2 without cancelling at large N
    # R = 0 where an overdamped or degenerate channel (b = 0) decays monotonically
    oscillating = omega > 0.0
    single = np.flatnonzero(oscillating & (n == 1.0))
    many = np.flatnonzero(oscillating & (n != 1.0))
    backflow = np.zeros(len(n))
    backflow[single] = _single_rises(lam[single], omega[single], tau, final[single])
    backflow[many] = _many_rises(n[many], lam[many], omega[many], tau, g[many], u[many])
    rate_abs = loss + 2.0 * backflow
    if not np.isfinite(rate_abs).all():  # carries any NaN or inf of R and p
        raise FloatingPointError("the population is not finite inside the window")
    uncoupled = channels.gamma0 == 0.0
    stationary = uncoupled | (rate_abs == 0.0)
    rate_abs[stationary] = 1.0  # no division by zero
    tau_qsl, ratio = tau * loss / rate_abs, loss / rate_abs
    tau_qsl[stationary], ratio[stationary], backflow[stationary] = 0.0, 1.0, 0.0
    final[uncoupled] = 1.0
    return tau_qsl, ratio, backflow, final, stationary


def evaluate_point(params: ModelParams, tau: float) -> SpeedupReport:
    """Full speed-limit/backflow summary of one parameter point: row 0 of
    evaluate_columns on a batch of one."""
    tau = validate_tau(tau)
    *columns, stationary = evaluate_columns(ChannelColumns.of([params]), tau)
    status = ReportStatus.STATIONARY if stationary[0] else ReportStatus.NORMAL
    return SpeedupReport(tau, *(column.item(0) for column in columns), status)


def qsl_two_level(params: ModelParams, tau: float) -> float:
    """Speed-limit time over [0, tau] of two-level emitters."""
    if params.kind is not AtomKind.TWO_LEVEL:
        raise ValueError("qsl_two_level applies to two-level emitters")
    return evaluate_point(params, tau).tau_qsl


def qsl_generic(times, rhos, rho_rates) -> GenericQslResult:
    """Speed-limit time from a sampled state trajectory and its rates.

    times must be >= 4096 finite, strictly increasing snapshots; rhos the
    matching finite stack of states with a pure first snapshot, and
    rho_rates their finite time derivatives.  The bound uses the best
    (largest) of the inverse time-averaged Schatten rates of order 1, 2
    and inf.
    """
    times = np.asarray(times, dtype=float)
    rhos = np.asarray(rhos, dtype=complex)
    if times.ndim != 1 or len(times) < 4096:
        raise ValueError("need at least 4096 snapshots")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("time grid must be finite and strictly increasing")
    if rhos.ndim != 3 or rhos.shape[0] != len(times):
        raise ValueError("rhos must stack one state per snapshot")
    # the angle reads only the end states, and a NaN rate stalls the SVD
    if not np.isfinite(rhos).all():
        raise ValueError("rhos must be finite")
    angle = bures_angle(rhos[0], rhos[-1])
    rho_rates = np.asarray(rho_rates, dtype=complex)
    if rho_rates.shape != rhos.shape:
        raise ValueError("rho_rates must match rhos in shape")
    if not np.isfinite(rho_rates).all():
        raise ValueError("rho_rates must be finite")

    sv = np.linalg.svd(rho_rates, compute_uv=False)
    span = float(times[-1] - times[0])
    lam1 = float(np.trapezoid(sv.sum(axis=1), times)) / span
    lam2 = float(np.trapezoid(np.sqrt((sv * sv).sum(axis=1)), times)) / span
    lam_inf = float(np.trapezoid(sv[:, 0], times)) / span
    rates = (lam1, lam2, lam_inf)
    if max(rates) == 0.0:
        return GenericQslResult(0.0, 0.0, rates, ReportStatus.STATIONARY)

    tau_qsl = math.sin(angle) ** 2 / min(r for r in rates if r > 0.0)
    return GenericQslResult(tau_qsl, angle, rates, ReportStatus.NORMAL)
