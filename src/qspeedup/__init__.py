"""Collective decay of emitters sharing a Lorentzian reservoir: bound-state
energies, exact single-excitation dynamics, quantum-speed-limit times and
information backflow, plus the coupling-strength surveys built on them."""

from .bound_state import (BisectionStallError, BoundStateResult, BracketFailureError,
                          find_bound_state, kernel_k)
from .dynamics import (Trajectory, alpha1, density_trajectory, excited_population,
                       nu1, population_rate, trajectory)
from .measures import (GenericQslResult, ReportStatus, SpeedupReport, bures_angle,
                       evaluate_point, qsl_generic)
from .oracle import StepSizeError, solve_collective
from .spectral import (AtomKind, ModelParams, lorentzian_j, reservoir_integral,
                       reservoir_integral_quad)
from .sweep import (FigurePreset, NoTransitionError, OnsetCriterion, SweepConfig,
                    SweepTable, figure_preset, find_critical_coupling, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "AtomKind", "BisectionStallError", "BoundStateResult",
    "BracketFailureError", "FigurePreset", "GenericQslResult",
    "ModelParams", "NoTransitionError", "OnsetCriterion", "ReportStatus",
    "SpeedupReport", "StepSizeError", "SweepConfig", "SweepTable",
    "Trajectory", "alpha1", "bures_angle", "density_trajectory",
    "evaluate_point", "excited_population", "figure_preset",
    "find_bound_state", "find_critical_coupling", "kernel_k", "lorentzian_j",
    "nu1", "population_rate", "qsl_generic",
    "reservoir_integral", "reservoir_integral_quad", "run_sweep",
    "solve_collective", "trajectory",
]
