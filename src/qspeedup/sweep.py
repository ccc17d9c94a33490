"""Coupling-strength sweeps and the preset grids behind the survey figures."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bound_state import BracketFailureError, find_bound_states
from .measures import SpeedupReport, evaluate_point, evaluate_points
from .spectral import AtomKind, ModelParams, validate_tau

BACKFLOW_ONSET_TOL = 1e-10


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
        if any(n < 1 for n in self.n_atoms_list):
            raise ValueError("n_atoms must be >= 1")
        if not self.theta_list:
            raise ValueError("theta_list must not be empty")
        lo, hi, count = self.gamma0_grid
        if not (0 <= lo <= hi and math.isfinite(hi)):
            raise ValueError("gamma0_grid must satisfy 0 <= lo <= hi < inf")
        if count < 2:
            raise ValueError("gamma0_grid needs at least 2 points")
        validate_tau(self.tau)

    def gamma0_values(self) -> np.ndarray:
        lo, hi, count = self.gamma0_grid
        return np.linspace(lo, hi, count)


# slotted: a survey holds one per grid point
@dataclass(frozen=True, slots=True)
class SweepRow:
    """One parameter point of a sweep, CSV-shaped."""

    gamma0: float
    n_atoms: int
    theta: float
    ratio: float
    nonmarkov: float
    bound_energy: float | None
    status: str


def _row(params: ModelParams, report: SpeedupReport, state) -> SweepRow:
    status = report.status.value
    bound: float | None
    if isinstance(state, BracketFailureError):
        # the root exists but sits below the representable probe floor (or,
        # at absurd couplings, beyond the last outer probe)
        bound = 0.0
        status = "bound-underflow"
    else:
        bound = state.energy if state.exists else None
    return SweepRow(
        gamma0=params.gamma0,
        n_atoms=params.n_atoms,
        theta=params.theta,
        ratio=report.ratio,
        nonmarkov=report.nonmarkov,
        bound_energy=bound,
        status=status,
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every (n_atoms, theta, gamma0) point of the grid, in order.

    Each (n_atoms, theta) curve goes through evaluate_points and
    find_bound_states as one batch; each row equals the single-point calls
    for its point exactly.
    """
    rows = []
    for n in config.n_atoms_list:
        for theta in config.theta_list:
            points = [ModelParams(gamma0=float(g0), lam=config.lam, n_atoms=int(n),
                                  theta=float(theta), omega0=config.omega0,
                                  kind=config.kind)
                      for g0 in config.gamma0_values()]
            rows += map(_row, points, evaluate_points(points, config.tau),
                        find_bound_states(points))
    return rows


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
    evaluate_point returns a ratio of exactly 1.0 while the decay is
    monotone, so both detect the first population rise inside the window
    and agree closely for every N, N = 1 included.  Bisection to width tol.
    """

    def fires(g0: float) -> bool:
        params = ModelParams(gamma0=g0, lam=lam, n_atoms=n_atoms, theta=theta,
                             omega0=omega0, kind=kind)
        report = evaluate_point(params, tau)
        if criterion is OnsetCriterion.SPEEDUP:
            return report.ratio < 1.0
        return report.nonmarkov > BACKFLOW_ONSET_TOL

    if not fires(gamma0_max):
        raise NoTransitionError(
            f"no transition in range (0, {gamma0_max:g}] for {criterion.value}")
    lo, hi = 0.0, gamma0_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fires(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
