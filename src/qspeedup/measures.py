"""State-space measures: Schatten norms, Bures angle, trace distance, the
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
zeros of g, so R is a sum of geometric series in closed form; an
overdamped envelope gives R = 0.  evaluate_columns assembles a whole batch
of points (a dynamics.ChannelColumns) at once, reading the envelope of
each point once, at tau.  evaluate_points wraps it for ModelParams.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import dynamics
from .dynamics import ChannelColumns, DensityMatrix
from .spectral import AtomKind, ModelParams, validate_tau


class ReportStatus(enum.Enum):
    NORMAL = "normal"
    STATIONARY = "stationary"


# slotted: evaluate_points builds one per point of its list
@dataclass(frozen=True, slots=True)
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


def _rises(n, lam, omega, tau, g, u, final):
    """Backflow R of oscillating rows (omega = |d| > 0), in closed form.

    g, u and final are g(tau), the fall u = (1 - g)/N of the amplitude
    a = 1 - u, and p(tau) = a**2.  The envelope extrema t_k = 2 pi k/omega
    hold g_k = (-1)**k r**k, r = exp(-pi*lam/omega), and K of them lie in
    the window.  For N >= 2 each full rise runs from odd k to k + 1 and
    gains (a_k+1 - a_k)(a_k + a_k+1); for N = 1 each one runs from an
    amplitude zero to t_k and gains r**2k.  Both sums are geometric, with
    every 1 - r**j an expm1 and every ratio in powers of r <= 1.
    """
    # -5e-324 stands for a log r that underflows to 0: each sum of M terms
    # r**j then takes its limit M, not 0/0
    log_r = np.minimum(-math.pi * lam / omega, -5e-324)
    phase = (0.5 * tau) * omega  # the phase of g(tau), pi k at t_k
    k = np.floor(phase / math.pi)
    single = n == 1.0
    mixed = single.any()
    if mixed:
        # sum_{k <= K} r**2k = r**2 (r**2K - 1)/(r**2 - 1), plus p(tau) once
        # tau passes the next amplitude zero 2 (pi (K + 1) - atan(omega/lam))/omega,
        # where p rises from 0
        log_r2 = 2.0 * log_r
        one = np.exp(log_r2) * np.expm1(k * log_r2) / np.expm1(log_r2)
        one += final * (np.arctan(omega / lam) > math.pi * (k + 1.0) - phase)
        if single.all():
            return one
    # the full rises end at the first 2J = K - (K mod 2) extrema.  With
    # em = r**2J - 1, over odd k < 2J: sum r**k (1 + r) = sum_{k <= 2J} r**k
    # = r em/(r - 1), and sum r**2k (1 - r**2) = alternating
    odd = np.fmod(k, 2.0)
    em, r = np.expm1((k - odd) * log_r), np.exp(log_r)
    up2 = 2.0 * r * em / np.expm1(log_r)
    r2 = r * r
    alternating = r2 * (em * (-2.0 - em)) / (1.0 + r2)
    many = (up2 - (up2 + alternating) / n) / n
    # odd K: tau lies on the rise from g_K = -r**K
    rk = np.exp(k * log_r)
    many += odd * np.maximum((g + rk) / n * (2.0 - u - (1.0 + rk) / n), 0.0)
    return np.where(single, one, many) if mixed else many


def evaluate_columns(channels: ChannelColumns, tau: float):
    """(tau_qsl, ratio, nonmarkov, final, stationary) columns of the rows.

    ratio = (1 - p)/[(1 - p) + 2 R] is exactly 1.0 when the decay is
    monotone (R = 0).  gamma0 = 0 (p = 1) and a population that does not
    move are stationary: ratio 1, tau_qsl 0, no backflow.  Each row is
    computed on its own (elementwise arithmetic), so a batch of one gives
    the bits of its row in any batch.
    """
    n, omega = channels.n_atoms, channels.d.imag
    # through the module, so the functionals read the same envelope as dynamics
    g = dynamics.g_factor(tau, channels.d, channels.lam).real
    u = (1.0 - g) / n
    a = 1.0 - u  # population_rows' 1 + (g - 1)/N, bit for bit
    final = a * a
    loss = u * (2.0 - u)  # 1 - a**2 without cancelling at large N
    rows = omega > 0.0  # an overdamped or degenerate channel decays monotonically
    if rows.all():
        backflow = _rises(n, channels.lam, omega, tau, g, u, final)
    else:
        backflow = np.zeros(len(n))
        if rows.any():
            backflow[rows] = _rises(n[rows], channels.lam[rows], omega[rows], tau,
                                    g[rows], u[rows], final[rows])
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


def evaluate_points(points, tau: float) -> list[SpeedupReport]:
    """evaluate_point for every point of a batch, as array passes.

    Each row is computed on its own, so entry i equals
    evaluate_point(points[i], tau) bit for bit.
    """
    tau = validate_tau(tau)
    channels = ChannelColumns.of(points)
    if not len(channels):
        return []
    *columns, stationary = evaluate_columns(channels, tau)
    status = [ReportStatus.STATIONARY if s else ReportStatus.NORMAL
              for s in stationary.tolist()]
    return list(map(SpeedupReport, repeat(tau), *(c.tolist() for c in columns), status))


def evaluate_point(params: ModelParams, tau: float) -> SpeedupReport:
    """Full speed-limit/backflow summary of one parameter point."""
    return evaluate_points([params], tau)[0]


def qsl_time(params: ModelParams, tau: float) -> float:
    """Speed-limit time over [0, tau], for either emitter kind."""
    return evaluate_point(params, tau).tau_qsl


def nonmarkov(params: ModelParams, tau: float) -> float:
    """Information backflow over [0, tau], for either emitter kind."""
    return evaluate_point(params, tau).nonmarkov


def qsl_two_level(params: ModelParams, tau: float) -> float:
    """qsl_time restricted to two-level emitters."""
    if params.kind is not AtomKind.TWO_LEVEL:
        raise ValueError("qsl_two_level applies to two-level emitters")
    return qsl_time(params, tau)


def qsl_generic(times, rhos, rho_rates=None) -> GenericQslResult:
    """Speed-limit time from a sampled state trajectory alone.

    times must be >= 4096 finite, strictly increasing snapshots; rhos the
    matching stack of states with a pure first snapshot.  When rho_rates is
    omitted the rates come from second-order finite differences of the
    stack.  The bound uses the best (largest) of the inverse time-averaged
    Schatten rates of order 1, 2 and inf.
    """
    times = np.asarray(times, dtype=float)
    rhos = np.asarray(rhos, dtype=complex)
    if times.ndim != 1 or len(times) < 4096:
        raise ValueError("need at least 4096 snapshots")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("time grid must be finite and strictly increasing")
    if rhos.shape[0] != len(times) or rhos.ndim != 3:
        raise ValueError("rhos must stack one state per snapshot")
    angle = bures_angle(rhos[0], rhos[-1])
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

    tau_qsl = math.sin(angle) ** 2 / min(r for r in rates if r > 0.0)
    return GenericQslResult(tau_qsl, angle, rates, ReportStatus.NORMAL)
