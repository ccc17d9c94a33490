"""Coupling-strength sweeps and the preset grids behind the survey figures."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bound_state import solve_bound_states
from .dynamics import ChannelColumns
from .measures import evaluate_columns
from .spectral import AtomKind, ModelParams, channel_coefficients

BACKFLOW_ONSET_TOL = 1e-10
_DEPTH = 6  # bisection levels of find_critical_coupling per kernel call
_LEVELS = 22  # halvings of (0, 4]: 4/2**22 = 9.5e-7 is the first width <= 1e-6
ONSET_STEP = 4.0 / 2 ** _LEVELS  # find_critical_coupling's grid step and final width


class OnsetCriterion(enum.Enum):
    SPEEDUP = "speedup"
    NONMARKOV = "nonmarkov"


class NoTransitionError(RuntimeError):
    """The onset indicator never fires inside the searched coupling range."""


@dataclass(frozen=True)
class SweepConfig:
    """The survey grid for one emitter kind and its dipole angles.

    N, the gamma0 grid, lam, omega0 and tau are the same for every figure
    and are class constants.  Construction builds one ModelParams per
    (n_atoms, theta) curve at the top of gamma0_grid: every ModelParams
    check is independent of gamma0 or monotone in it, so that point
    vouches for all the curve's points.
    """

    n_atoms_list: ClassVar[tuple[int, ...]] = (1, 3, 8, 30)
    gamma0_grid: ClassVar[tuple[float, float, int]] = (0.0, 4.0, 401)
    lam: ClassVar[float] = 2.0
    omega0: ClassVar[float] = 1.0
    tau: ClassVar[float] = 5.0

    kind: AtomKind
    theta_list: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if not self.theta_list:
            raise ValueError("theta_list must not be empty")
        for n in self.n_atoms_list:
            for theta in self.theta_list:
                ModelParams(gamma0=self.gamma0_grid[1], lam=self.lam, n_atoms=n,
                            theta=theta, omega0=self.omega0, kind=self.kind)

    def gamma0_values(self) -> np.ndarray:
        lo, hi, count = self.gamma0_grid
        return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class SweepTable:
    """A sweep as its curves over one shared gamma0 grid.

    Each curve is (n_atoms, theta, ratio, nonmarkov, bound_energy, status):
    an (N, theta) pair of the grid and its four columns, one entry per
    gamma0 value, as plain Python floats, None and str.  The curves of one
    N are adjacent.
    """

    gamma0: list[float]
    curves: tuple[tuple[int, float, list, list, list, list], ...]

    def __len__(self) -> int:
        return len(self.gamma0) * len(self.curves)


def run_sweep(config: SweepConfig) -> SweepTable:
    """Evaluate every (n_atoms, theta, gamma0) point of the grid, in order.

    The grid is one ChannelColumns in curve-major order that
    evaluate_columns and solve_bound_states each take whole, and each
    result column splits once into the curves' columns, with no per-point
    objects (the config has checked every point); each entry of the table
    equals the single-point calls for its point exactly.
    """
    gamma0 = config.gamma0_values()
    pairs = tuple((n, float(theta)) for n in config.n_atoms_list
                  for theta in config.theta_list)
    n_atoms, c = (np.repeat(np.array(column, dtype=float), len(gamma0)) for column in zip(
        *((n, channel_coefficients(config.kind, theta)[0]) for n, theta in pairs)))
    channels = ChannelColumns.build(np.tile(gamma0, len(pairs)), config.lam, config.omega0,
                                    n_atoms, c)
    _, ratio, nonmarkov, _, stationary = evaluate_columns(channels, config.tau)
    coupled, lost, energy, *_ = solve_bound_states(channels)
    # lost: the root lies below the probe floor
    bounds = np.where(coupled, np.where(lost, 0.0, energy), None)
    statuses = np.where(lost, "bound-underflow", np.where(stationary, "stationary", "normal"))
    curves = zip(*(column.reshape(len(pairs), -1).tolist()
                   for column in (ratio, nonmarkov, bounds, statuses)))
    return SweepTable(gamma0.tolist(), tuple((*p, *curve) for p, curve in zip(pairs, curves)))


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


def _fires(criterion: OnsetCriterion, ratio, backflow):
    """The onset indicator of a criterion on evaluate_columns' ratio and backflow."""
    if criterion is OnsetCriterion.SPEEDUP:
        return ratio < 1.0
    return backflow > BACKFLOW_ONSET_TOL


def find_critical_couplings(searches) -> list[float]:
    """The onset of each (kind, n_atoms, theta, criterion) search, in order:
    find_critical_coupling's bisections run in lockstep.  Every bracket has
    the same width at every level, so one evaluate_columns call takes all
    the tops at gamma0 = 4 and one call per level group every search's
    midpoints, each search's in its own slice; the kernels are elementwise,
    so each onset has its batch-of-one bits.  A NoTransitionError names the
    search that raised it.
    """
    searches = list(searches)
    gamma0_max = SweepConfig.gamma0_grid[1]
    tops = []
    for kind, n_atoms, theta, criterion in searches:
        if not isinstance(criterion, OnsetCriterion):
            raise ValueError("criterion must be an OnsetCriterion")
        # every ModelParams check is independent of gamma0 or monotone in
        # it, so the top point vouches for every midpoint in (0, gamma0_max]
        tops.append(ModelParams(gamma0=gamma0_max, lam=SweepConfig.lam, n_atoms=n_atoms,
                                theta=theta, omega0=SweepConfig.omega0, kind=kind))
    top = ChannelColumns.of(tops)
    c = np.array([channel_coefficients(p.kind, p.theta)[0] for p in tops])
    _, ratio, backflow, *_ = evaluate_columns(top, SweepConfig.tau)
    for k, (kind, n_atoms, theta, criterion) in enumerate(searches):
        if not _fires(criterion, ratio[k], backflow[k]):
            raise NoTransitionError(
                f"no transition in range (0, {gamma0_max:g}] for {criterion.value} "
                f"at {kind.value}, N = {n_atoms}, theta = {theta:g}")
    lo, span = [0] * len(searches), 1 << _LEVELS
    while span > 1:
        # each walk narrows its bracket to one of its size parts, (a, b)
        size = min(1 << _DEPTH, span)
        stride, width = span // size, size - 1
        # grid indices, exact in float: each search's midpoints in a row
        mids = (np.add.outer(lo, stride * np.arange(1, size)) * ONSET_STEP).ravel()
        channels = ChannelColumns.build(mids, SweepConfig.lam, SweepConfig.omega0,
                                        np.repeat(top.n_atoms, width), np.repeat(c, width))
        _, ratio, backflow, *_ = evaluate_columns(channels, SweepConfig.tau)
        for k, (*_, criterion) in enumerate(searches):
            part = slice(k * width, (k + 1) * width)
            fired = _fires(criterion, ratio[part], backflow[part]).tolist()
            a, b = 0, size
            while b - a > 1:
                m = (a + b) // 2
                a, b = (a, m) if fired[m - 1] else (m, b)
            lo[k] += a * stride
        span = stride
    return [(start + 0.5) * ONSET_STEP for start in lo]


def find_critical_coupling(kind: AtomKind, n_atoms: int, theta: float = 0.0,
                           criterion: OnsetCriterion = OnsetCriterion.SPEEDUP) -> float:
    """Smallest gamma0 in the survey's range (0, 4] where the chosen
    indicator fires, at the survey's lam, omega0 and tau (SweepConfig's).

    SPEEDUP looks for ratio < 1, NONMARKOV for backflow > BACKFLOW_ONSET_TOL.
    evaluate_columns gives a ratio of exactly 1.0 while the decay is
    monotone, so both detect the first population rise inside the window
    and agree closely for every N, N = 1 included.  Bisection by _LEVELS
    halvings on the grid of ONSET_STEP, the bracket held as grid indices:
    one evaluate_columns call takes the grid points that split the bracket
    _DEPTH levels deep (63, then 15 for the last 4 levels) and the walk
    down them makes the one-midpoint-at-a-time bisection's decisions, so
    the result, the middle of the final bracket, is that bisection's bit
    for bit.  The batch of one of find_critical_couplings.
    """
    return find_critical_couplings([(kind, n_atoms, theta, criterion)])[0]
