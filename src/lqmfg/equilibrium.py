"""Mean-field equilibrium: Picard iteration on the best-response map,
the closed form via the refined coefficient, and the existence /
uniqueness (admissibility + contraction) conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, TimeGrid, Trajectory, Variant
from .riccati import (
    SolveStatus,
    ValueCoefficients,
    _AlphaTables,
    _alpha_tables,
    assemble_value,
    solve_alpha,
    solve_beta,
    solve_eta,
    solve_gamma,
)

__all__ = [
    "Equilibrium",
    "ConditionsReport",
    "BlowUpError",
    "NonConvergenceError",
    "admissible_beta",
    "admissibility_margin",
    "apply_phi",
    "solve_equilibrium_picard",
    "solve_equilibrium_closed_form",
    "check_conditions",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200


class BlowUpError(Exception):
    """A Riccati solve blew up; the feedback law is not admissible."""

    def __init__(self, status: SolveStatus, which: str = "beta"):
        self.status = status
        self.which = which
        super().__init__(f"{which} blow-up at t = {status.blow_up_time:g}")


class NonConvergenceError(Exception):
    """Picard iteration failed to reach tolerance within max_iter."""

    def __init__(self, residual_history: list[float]):
        self.residual_history = residual_history
        super().__init__(
            f"no convergence after {len(residual_history)} iterations; "
            f"last residual {residual_history[-1]:.3e}")


@dataclass(frozen=True)
class Equilibrium:
    m: Trajectory
    beta: Trajectory
    alpha: Trajectory
    gamma: Trajectory
    value: ValueCoefficients
    iterations: int
    residual: float
    eta: Trajectory | None = None      # the closed form's refined coefficient
    residual_history: tuple[float, ...] = ()


@dataclass(frozen=True)
class ConditionsReport:
    admissible: bool
    margin: float          # min over nodes of the variant's admissibility expression
    g: float
    g_tilde: float
    eps: float
    exponent_norm: float
    lipschitz_bound: float
    contraction: bool
    # risk-sensitive only: same bound with the theta*sigma^2 term kept in g_tilde
    alt_g_tilde: float | None = None
    alt_lipschitz_bound: float | None = None


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of y over x, starting from 0 at x[0]."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def apply_phi(params: ModelParams, beta: Trajectory, m: Trajectory,
              grid: TimeGrid, *, tables: _AlphaTables | None = None) -> Trajectory:
    """One application of the best-response mean map.

    Phi[m](t) = m0 + int_0^t [(a+abar) m - lam (beta m + alpha[m])] ds,
    with alpha[m] the linear backward solve and the integral by the
    trapezoid rule on the grid.  tables, when given, are alpha's beta-only
    coefficient tables for this params, beta and grid.
    """
    alpha = solve_alpha(params, beta, m, grid, tables=tables)
    nodes = grid.nodes
    lam = np.asarray(params.lam(nodes), dtype=float)
    integrand = (params.a + params.abar) * m.values - lam * (beta.values * m.values + alpha.values)
    vals = params.m0 + _cumulative_trapezoid(integrand, nodes)
    return Trajectory(grid, vals)


def _finalize(params: ModelParams, beta: Trajectory, m: Trajectory,
              grid: TimeGrid, tables: _AlphaTables, iterations: int,
              residual: float, eta: Trajectory | None = None,
              history: tuple[float, ...] = ()) -> Equilibrium:
    alpha = solve_alpha(params, beta, m, grid, tables=tables)
    gamma = solve_gamma(params, beta, alpha, m, grid)
    value = assemble_value(params, beta, alpha, gamma)
    return Equilibrium(m=m, beta=beta, alpha=alpha, gamma=gamma, value=value,
                       iterations=iterations, residual=residual, eta=eta,
                       residual_history=history)


def admissible_beta(params: ModelParams, grid: TimeGrid) -> Trajectory:
    """beta on the grid, on which both routes and the conditions are built;
    BlowUpError when it escapes, as then no feedback law is admissible."""
    beta, status = solve_beta(params, grid)
    if not status.admissible:
        raise BlowUpError(status)
    return beta


def solve_equilibrium_picard(params: ModelParams, beta: Trajectory, grid: TimeGrid,
                             tol: float = DEFAULT_TOL,
                             max_iter: int = DEFAULT_MAX_ITER,
                             initial: Trajectory | None = None) -> Equilibrium:
    """Banach-Picard iteration m <- Phi[m] to the fixed-point mean path,
    with beta = admissible_beta(params, grid)."""
    m = initial if initial is not None else Trajectory.constant(grid, params.m0)
    tables = _alpha_tables(params, beta, grid)
    history: list[float] = []
    for it in range(1, max_iter + 1):
        phi = apply_phi(params, beta, m, grid, tables=tables)
        res = float(np.max(np.abs(phi.values - m.values)))
        history.append(res)
        m = phi
        if res <= tol:
            # residual of the returned iterate itself
            final = apply_phi(params, beta, m, grid, tables=tables)
            res = float(np.max(np.abs(final.values - m.values)))
            return _finalize(params, beta, m, grid, tables, it, res,
                             history=tuple(history))
    raise NonConvergenceError(history)


def solve_equilibrium_closed_form(params: ModelParams, beta: Trajectory,
                                  grid: TimeGrid) -> Equilibrium:
    """Equilibrium via the refined coefficient: m = m0 e^{int (a+abar-lam(beta+eta))},
    with beta = admissible_beta(params, grid); BlowUpError when eta escapes."""
    eta, eta_status = solve_eta(params, beta, grid)
    if not eta_status.admissible:
        raise BlowUpError(eta_status, which="eta")
    nodes = grid.nodes
    lam = np.asarray(params.lam(nodes), dtype=float)
    exponent = (params.a + params.abar) - lam * (beta.values + eta.values)
    m = Trajectory(grid, params.m0 * np.exp(_cumulative_trapezoid(exponent, nodes)))
    tables = _alpha_tables(params, beta, grid)
    phi = apply_phi(params, beta, m, grid, tables=tables)
    residual = float(np.max(np.abs(phi.values - m.values)))
    return _finalize(params, beta, m, grid, tables, 0, residual, eta=eta)


def admissibility_margin(params: ModelParams, grid: TimeGrid) -> float:
    """Min over nodes of the variant's admissibility expression.

    Positive margin means the variant's effective quadratic coefficient
    kappa = b^2/r [- c^2/s] [- theta sigma^2] stays positive.
    """
    return float(np.min(np.asarray(params.kappa(grid.nodes), dtype=float)))


def check_conditions(params: ModelParams, beta: Trajectory,
                     grid: TimeGrid) -> ConditionsReport:
    """Admissibility margin and the Gronwall/contraction constants.

    The bound is T [g + g_tilde (qbarT + eps e^{T |exponent|})] with the
    sup-norms taken as maxima over grid nodes.
    """
    nodes = grid.nodes
    bv = beta.values
    lam = np.asarray(params.lam(nodes), dtype=float)
    kap = lam - params.theta_term
    qbar = np.asarray(params.qbar(nodes), dtype=float)
    T = params.T

    g = float(np.max(np.abs(params.a + params.abar - lam * bv)))
    g_tilde = float(np.max(np.abs(lam)))
    eps = float(np.max(np.abs(params.abar * bv - qbar)))
    exponent_norm = float(np.max(np.abs(params.a - kap * bv)))
    bound = T * (g + g_tilde * (params.qbarT + eps * math.exp(T * exponent_norm)))

    margin = float(np.min(kap))

    alt_g_tilde = alt_bound = None
    if params.variant is Variant.RISK_SENSITIVE:
        alt_g_tilde = float(np.max(np.abs(kap)))
        alt_bound = T * (g + alt_g_tilde * (params.qbarT + eps * math.exp(T * exponent_norm)))

    return ConditionsReport(
        admissible=margin > 0.0,
        margin=margin,
        g=g,
        g_tilde=g_tilde,
        eps=eps,
        exponent_norm=exponent_norm,
        lipschitz_bound=bound,
        contraction=bound < 1.0,
        alt_g_tilde=alt_g_tilde,
        alt_lipschitz_bound=alt_bound,
    )
