"""Scalar linear-quadratic mean-field games: solvers and Monte Carlo checks."""

from .model import (
    Coefficient,
    EffectiveCoefficients,
    ModelParams,
    TimeGrid,
    Trajectory,
    ValidationResult,
    Variant,
    effective_coefficients,
    validate,
)
from .riccati import (
    FiniteEscapeError,
    RiccatiSolution,
    SolveStatus,
    ValueCoefficients,
    assemble_value,
    closed_form_constant_riccati,
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
    admissibility_margin,
    apply_phi,
    check_conditions,
    solve_equilibrium_closed_form,
    solve_equilibrium_picard,
)
from .simulate import (
    MCEstimate,
    PathEnsemble,
    Policy,
    SaddleReport,
    SimConfig,
    estimate_exponential_cost,
    estimate_girsanov_normalization,
    estimate_risk_neutral_cost,
    per_path_cost,
    saddle_check,
    simulate_paths,
)

__version__ = "0.1.0"
