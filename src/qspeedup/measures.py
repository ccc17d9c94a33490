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
evaluate_columns assembles a whole batch of points (a
dynamics.ChannelColumns) at once: one envelope evaluation over a
(points x turning points) array padded with tau, in row blocks of at most
BATCH_ELEMENTS entries.  evaluate_points wraps it for ModelParams.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dynamics import (ChannelColumns, DensityMatrix, population_rows,
                       turning_point_table, window_periods)
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


# Rows per batch are capped so that a batch's (rows x turning points)
# arrays stay small next to the rest of a survey.  At the survey's tau = 5
# the widest preset curve holds 401 x 74 entries; 8192 splits it into four
# batches and leaves the other curves whole.  Without a cap the survey's
# peak RSS rises by 0.9 MB, with a cap of 16384 by 0.5 MB; from 8192 down
# it is flat.
BATCH_ELEMENTS = 1 << 13


def _batches(channels: ChannelColumns, tau: float) -> list:
    """Consecutive row blocks whose turning-point tables fit BATCH_ELEMENTS.

    A row's width is bounded by its window ends plus two turning points per
    period of the envelope; every block takes as many rows as the widest
    row of the batch allows.
    """
    if len(channels) == 1:  # turning_point_table checks its window itself
        return [channels]
    widest = 4 + 2 * math.floor(window_periods(channels, tau).max())
    step = max(1, BATCH_ELEMENTS // widest)
    return [channels.rows(slice(start, start + step))
            for start in range(0, len(channels), step)]


def _report_rows(channels: ChannelColumns, tau: float):
    """Backflow R, |rate| integral, final population and 1 - p(tau) of each row.

    p is read at [0, turning points, tau]; the padding repeats tau, so it
    adds Delta p = 0.  R accumulates strictly left to right (cumsum, not a
    pairwise sum), so the padding cannot change how a row's terms round.
    """
    table = turning_point_table(channels, tau)
    cuts = np.empty((len(channels), table.shape[1] + 2))
    cuts[:, 0], cuts[:, 1:-1], cuts[:, -1] = 0.0, table, tau
    p = population_rows(cuts, channels)
    backflow = np.maximum(p[:, 1:] - p[:, :-1], 0.0).cumsum(axis=1)[:, -1]
    final = p[:, -1]
    loss = 1.0 - final
    rate_abs = loss + 2.0 * backflow
    if not np.isfinite(rate_abs).all():  # carries any NaN or inf of R and p
        raise FloatingPointError("the population is not finite inside the window")
    return backflow, rate_abs, final, loss


def evaluate_columns(channels: ChannelColumns, tau: float):
    """(tau_qsl, ratio, nonmarkov, final, stationary) columns of the rows.

    ratio = (1 - p)/[(1 - p) + 2 R] is exactly 1.0 when the decay is
    monotone (R = 0).  gamma0 = 0 (p = 1) and a population that does not
    move are stationary: ratio 1, tau_qsl 0, no backflow.
    """
    parts = [_report_rows(batch, tau) for batch in _batches(channels, tau)]
    backflow, rate_abs, final, loss = (parts[0] if len(parts) == 1
                                       else map(np.concatenate, zip(*parts)))
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


def _kind_alias(measure, kind: AtomKind, name: str, emitters: str):
    def alias(params: ModelParams, tau: float) -> float:
        if params.kind is not kind:
            raise ValueError(f"{name} applies to {emitters} emitters")
        return measure(params, tau)

    alias.__name__ = alias.__qualname__ = name
    alias.__doc__ = f"{measure.__name__} restricted to {emitters} emitters."
    return alias


qsl_two_level = _kind_alias(qsl_time, AtomKind.TWO_LEVEL, "qsl_two_level", "two-level")
qsl_three_level = _kind_alias(qsl_time, AtomKind.THREE_LEVEL_V, "qsl_three_level",
                              "V-type")
nonmarkov_two_level = _kind_alias(nonmarkov, AtomKind.TWO_LEVEL, "nonmarkov_two_level",
                                  "two-level")
nonmarkov_three_level = _kind_alias(nonmarkov, AtomKind.THREE_LEVEL_V,
                                    "nonmarkov_three_level", "V-type")


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
