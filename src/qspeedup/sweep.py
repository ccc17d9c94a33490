"""Coupling-strength sweeps and the preset grids behind the survey figures."""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bound_state import solve_bound_states
from .dynamics import ChannelColumns
from .measures import evaluate_columns, evaluate_point
from .spectral import (AtomKind, ModelParams, _check_n_atoms, channel_coefficients,
                       validate_tau)

BACKFLOW_ONSET_TOL = 1e-10
_DEPTH = 6  # bisection levels of find_critical_coupling per kernel call


class OnsetCriterion(enum.Enum):
    SPEEDUP = "speedup"
    NONMARKOV = "nonmarkov"


class NoTransitionError(RuntimeError):
    """The onset indicator never fires inside the searched coupling range."""


@dataclass(frozen=True)
class SweepConfig:
    """A grid over gamma0 for one emitter kind at fixed lam, tau."""

    kind: AtomKind
    n_atoms_list: tuple[int, ...] = (1, 3, 8, 30)
    theta_list: tuple[float, ...] = (0.0,)
    gamma0_grid: tuple[float, float, int] = (0.0, 4.0, 401)
    lam: float = 2.0
    omega0: float = 1.0
    tau: float = 5.0

    def __post_init__(self):
        if not self.n_atoms_list:
            raise ValueError("n_atoms_list must not be empty")
        for n in self.n_atoms_list:  # ModelParams's rule, so int(n) is exact
            _check_n_atoms(n)
        if not self.theta_list:
            raise ValueError("theta_list must not be empty")
        lo, hi, count = self.gamma0_grid
        if not (0 <= lo <= hi and math.isfinite(hi)):
            raise ValueError("gamma0_grid must satisfy 0 <= lo <= hi < inf")
        if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
            raise ValueError("gamma0_grid count must be an integer")
        if count < 2:
            raise ValueError("gamma0_grid needs at least 2 points")
        validate_tau(self.tau)

    def gamma0_values(self) -> np.ndarray:
        lo, hi, count = self.gamma0_grid
        return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class SweepTable:
    """A sweep as columns, one entry per grid point in curve-major order.

    Every (n_atoms, theta) curve in `curves` runs over the one shared
    `gamma0` grid, so curve k holds entries k*len(gamma0) up to the next
    curve's.  The columns are plain Python floats, None and str.
    """

    curves: tuple[tuple[int, float], ...]
    gamma0: list[float]
    ratio: list[float]
    nonmarkov: list[float]
    bound_energy: list[float | None]
    status: list[str]

    def __len__(self) -> int:
        return len(self.ratio)

    def curve_columns(self) -> Iterator[tuple[int, float, list, list, list, list]]:
        """(n_atoms, theta, ratio, nonmarkov, bound_energy, status) of each
        curve in order, the value columns sliced to the curve."""
        count = len(self.gamma0)
        for k, (n, theta) in enumerate(self.curves):
            part = slice(k * count, (k + 1) * count)
            yield (n, theta, self.ratio[part], self.nonmarkov[part],
                   self.bound_energy[part], self.status[part])


def run_sweep(config: SweepConfig) -> SweepTable:
    """Evaluate every (n_atoms, theta, gamma0) point of the grid, in order.

    The grid is one ChannelColumns in curve-major order that
    evaluate_columns and solve_bound_states each take whole, and the
    results become the table's columns with no per-point objects; each row
    of the table equals the single-point calls for its point exactly.
    """
    gamma0 = config.gamma0_values()
    g0_list, size = gamma0.tolist(), len(gamma0)
    curves = tuple((int(n), float(theta)) for n in config.n_atoms_list
                   for theta in config.theta_list)
    points = [partial(ModelParams, lam=config.lam, n_atoms=n, theta=theta,
                      omega0=config.omega0, kind=config.kind) for n, theta in curves]
    for point in points:
        # every ModelParams check is independent of gamma0 or monotone in
        # it (gamma0 >= 0, finiteness, the channel-constant overflow), so
        # the curve's smallest and largest gamma0 vouch for all its points
        point(gamma0=min(g0_list))
        point(gamma0=max(g0_list))
    n_atoms, c = (np.repeat(np.array(column, dtype=float), size) for column in zip(
        *((n, channel_coefficients(config.kind, theta)[0]) for n, theta in curves)))
    channels = ChannelColumns.build(np.tile(gamma0, len(curves)), config.lam, config.omega0,
                                    n_atoms, c)
    _, ratio, nonmarkov, _, stationary = evaluate_columns(channels, config.tau)
    coupled, lost, energy, *_ = solve_bound_states(
        channels, label=lambda i: repr(points[i // size](gamma0=g0_list[i % size])))
    # lost: the root lies below the probe floor
    bounds = np.where(coupled, np.where(lost, 0.0, energy), None).tolist()
    statuses = np.where(lost, "bound-underflow",
                        np.where(stationary, "stationary", "normal")).tolist()
    return SweepTable(curves, g0_list, ratio.tolist(), nonmarkov.tolist(), bounds, statuses)


@dataclass(frozen=True)
class FigurePreset:
    """Sweep grid plus the quantity drawn on the right axis of each panel."""

    figure: int
    config: SweepConfig
    right_axis: str  # "nonmarkov" or "bound_energy"


_PRESETS = {
    2: (AtomKind.TWO_LEVEL, (0.0,), "nonmarkov"),
    3: (AtomKind.TWO_LEVEL, (0.0,), "bound_energy"),
    4: (AtomKind.THREE_LEVEL_V, (0.0, 1.0), "nonmarkov"),
    5: (AtomKind.THREE_LEVEL_V, (0.0, 1.0), "bound_energy"),
}


def figure_preset(figure: int) -> FigurePreset:
    """Preset grids 2-5: emitter kind, dipole angles and the paired quantity."""
    if figure not in _PRESETS:
        raise ValueError("figure must be one of 2, 3, 4, 5")
    kind, thetas, right = _PRESETS[figure]
    return FigurePreset(figure, SweepConfig(kind=kind, theta_list=thetas), right)


def find_critical_coupling(kind: AtomKind, n_atoms: int, theta: float = 0.0,
                           lam: float = 2.0, tau: float = 5.0, omega0: float = 1.0,
                           criterion: OnsetCriterion = OnsetCriterion.SPEEDUP,
                           gamma0_max: float = 4.0, tol: float = 1e-6) -> float:
    """Smallest gamma0 in (0, gamma0_max] where the chosen indicator fires.

    SPEEDUP looks for ratio < 1, NONMARKOV for backflow > BACKFLOW_ONSET_TOL.
    evaluate_columns gives a ratio of exactly 1.0 while the decay is
    monotone, so both detect the first population rise inside the window
    and agree closely for every N, N = 1 included.  Bisection to width tol,
    or until the midpoint rounds onto an edge.  One evaluate_columns call
    takes the midpoints of the next _DEPTH levels below the bracket (63
    points) as one ChannelColumns, and the bisection then walks down that
    subtree, so the result is the one-midpoint-at-a-time bisection's, bit
    for bit.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and > 0")

    def fires(ratio, backflow):
        if criterion is OnsetCriterion.SPEEDUP:
            return ratio < 1.0
        return backflow > BACKFLOW_ONSET_TOL

    # every ModelParams check is independent of gamma0 or monotone in it,
    # so the top point vouches for every midpoint in (0, gamma0_max]
    top = evaluate_point(ModelParams(gamma0=gamma0_max, lam=lam, n_atoms=n_atoms,
                                     theta=theta, omega0=omega0, kind=kind), tau)
    if not fires(top.ratio, top.nonmarkov):
        raise NoTransitionError(
            f"no transition in range (0, {gamma0_max:g}] for {criterion.value}")
    tau, c = top.tau, channel_coefficients(kind, theta)[0]
    lo, hi = 0.0, gamma0_max
    size = 1 << _DEPTH
    while True:
        # the subtree in heap order: node k brackets edges[k] and splits it
        # at mids[k] into nodes 2k (lower half) and 2k + 1.  A node where the
        # bisection stops (width tol reached, or the midpoint rounds onto an
        # edge) has no midpoint.
        edges, mids = {1: (lo, hi)}, {}
        for k in range(1, size):
            if k in edges:
                a, b = edges[k]
                mid = 0.5 * (a + b)
                if b - a > tol and a < mid < b:
                    mids[k] = mid
                    edges[2 * k], edges[2 * k + 1] = (a, mid), (mid, b)
        channels = ChannelColumns.build(list(mids.values()), lam, omega0, float(n_atoms), c)
        _, ratio, backflow, *_ = evaluate_columns(channels, tau)
        fired = dict(zip(mids, fires(ratio, backflow).tolist()))
        k = 1
        while k < size:
            if k not in mids:
                return 0.5 * (lo + hi)
            if fired[k]:
                hi, k = mids[k], 2 * k
            else:
                lo, k = mids[k], 2 * k + 1
