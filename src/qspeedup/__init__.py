"""Collective decay of emitters sharing a Lorentzian reservoir: bound-state
energies, exact single-excitation dynamics, quantum-speed-limit times and
information backflow, plus the coupling-strength surveys built on them."""

from .bound_state import (BisectionStallError, BoundStateResult, BracketFailureError,
                          find_bound_state, kernel_k)
from .dynamics import (DensityMatrix, Trajectory, alpha1, density_matrix,
                       density_trajectory, excited_population, g_factor,
                       g_factor_dt, nu1, population_rate, trajectory)
from .measures import (GenericQslResult, ReportStatus, SpeedupReport, bures_angle,
                       evaluate_point, nonmarkov, qsl_generic, qsl_time,
                       qsl_two_level, schatten_norm)
from .oracle import StepSizeError, solve_collective
from .spectral import (AtomKind, ModelParams, lorentzian_j, reservoir_integral,
                       reservoir_integral_quad, total_spectral_weight)
from .sweep import (FigurePreset, NoTransitionError, OnsetCriterion, SweepConfig,
                    SweepTable, figure_preset, find_critical_coupling, run_sweep)

__version__ = "0.1.0"

__all__ = [
    "AtomKind", "BisectionStallError", "BoundStateResult",
    "BracketFailureError", "DensityMatrix", "FigurePreset", "GenericQslResult",
    "ModelParams", "NoTransitionError", "OnsetCriterion", "ReportStatus",
    "SpeedupReport", "StepSizeError", "SweepConfig", "SweepTable",
    "Trajectory", "alpha1", "bures_angle", "density_matrix",
    "density_trajectory", "evaluate_point", "excited_population",
    "figure_preset", "find_bound_state", "find_critical_coupling", "g_factor",
    "g_factor_dt", "kernel_k", "lorentzian_j", "nonmarkov", "nu1",
    "population_rate", "qsl_generic", "qsl_time", "qsl_two_level",
    "reservoir_integral", "reservoir_integral_quad", "run_sweep",
    "schatten_norm", "solve_collective", "total_spectral_weight", "trajectory",
]
