"""Scalar linear-quadratic mean-field games: solvers and Monte Carlo checks."""

from .model import (
    Coefficient,
    ModelParams,
    TimeGrid,
    Trajectory,
    Variant,
    validate,
)
from .riccati import (
    SolveStatus,
    ValueCoefficients,
    assemble_value,
    solve_alpha,
    solve_beta,
    solve_eta,
    solve_gamma,
)
from .equilibrium import (
    BlowUpError,
    ConditionsReport,
    Equilibrium,
    NonConvergenceError,
    admissible_beta,
    admissibility_margin,
    apply_phi,
    check_conditions,
    solve_equilibrium_closed_form,
    solve_equilibrium_picard,
)
from .simulate import (
    MCEstimate,
    PathEnsemble,
    SaddleReport,
    SimConfig,
    estimate_log_girsanov_normalization,
    estimate_quadratic_value,
    per_path_cost,
    saddle_check,
    simulate_paths,
)

__version__ = "0.1.0"
