"""Mean-field equilibrium: Picard iteration on the best-response map,
the closed form via the refined coefficient, and the existence /
uniqueness (admissibility + contraction) conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .model import ModelParams, TimeGrid, Trajectory, Variant, effective_coefficients
from .riccati import (
    DEFAULT_BLOWUP_CAP,
    RiccatiSolution,
    SolveStatus,
    ValueCoefficients,
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
    riccati: RiccatiSolution
    value: ValueCoefficients
    iterations: int
    residual: float
    residual_history: tuple[float, ...] = ()


@dataclass(frozen=True)
class ConditionsReport:
    variant: Variant
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


def apply_phi(params: ModelParams, beta: Trajectory, m: Trajectory,
              grid: TimeGrid) -> Trajectory:
    """One application of the best-response mean map.

    Phi[m](t) = m0 + int_0^t [(a+abar) m - lam (beta m + alpha[m])] ds,
    with alpha[m] the linear backward solve and the integral by the
    trapezoid rule on the grid.
    """
    eff = effective_coefficients(params)
    alpha = solve_alpha(params, beta, m, grid)
    nodes = grid.nodes
    lam = np.asarray(eff.lam(nodes), dtype=float)
    integrand = (params.a + params.abar) * m.values - lam * (beta.values * m.values + alpha.values)
    vals = params.m0 + cumulative_trapezoid(integrand, nodes, initial=0.0)
    return Trajectory(grid, vals)


def _finalize(params: ModelParams, beta: Trajectory, m: Trajectory,
              grid: TimeGrid, status: SolveStatus, iterations: int,
              residual: float, eta: Trajectory | None = None,
              history: tuple[float, ...] = ()) -> Equilibrium:
    alpha = solve_alpha(params, beta, m, grid)
    gamma = solve_gamma(params, beta, alpha, m, grid)
    sol = RiccatiSolution(beta, alpha, gamma, status, eta)
    value = assemble_value(params, beta, alpha, gamma)
    return Equilibrium(m=m, riccati=sol, value=value,
                       iterations=iterations, residual=residual,
                       residual_history=history)


def solve_equilibrium_picard(params: ModelParams, grid: TimeGrid,
                             tol: float = DEFAULT_TOL,
                             max_iter: int = DEFAULT_MAX_ITER,
                             cap: float = DEFAULT_BLOWUP_CAP,
                             initial: Trajectory | None = None) -> Equilibrium:
    """Banach-Picard iteration m <- Phi[m] to the fixed-point mean path."""
    beta, status = solve_beta(params, grid, cap=cap)
    if not status.admissible:
        raise BlowUpError(status)
    m = initial if initial is not None else Trajectory.constant(grid, params.m0)
    history: list[float] = []
    for it in range(1, max_iter + 1):
        phi = apply_phi(params, beta, m, grid)
        res = float(np.max(np.abs(phi.values - m.values)))
        history.append(res)
        m = phi
        if res <= tol:
            # residual of the returned iterate itself
            final = apply_phi(params, beta, m, grid)
            res = float(np.max(np.abs(final.values - m.values)))
            return _finalize(params, beta, m, grid, status, it, res,
                             history=tuple(history))
    raise NonConvergenceError(history)


def solve_equilibrium_closed_form(params: ModelParams, grid: TimeGrid,
                                  cap: float = DEFAULT_BLOWUP_CAP) -> Equilibrium:
    """Equilibrium via the refined coefficient: m = m0 e^{int (a+abar-lam(beta+eta))}."""
    beta, status = solve_beta(params, grid, cap=cap)
    if not status.admissible:
        raise BlowUpError(status)
    eta, eta_status = solve_eta(params, beta, grid, cap=cap)
    if not eta_status.admissible:
        raise BlowUpError(eta_status, which="eta")
    eff = effective_coefficients(params)
    nodes = grid.nodes
    lam = np.asarray(eff.lam(nodes), dtype=float)
    exponent = (params.a + params.abar) - lam * (beta.values + eta.values)
    m = Trajectory(grid, params.m0 * np.exp(cumulative_trapezoid(exponent, nodes, initial=0.0)))
    phi = apply_phi(params, beta, m, grid)
    residual = float(np.max(np.abs(phi.values - m.values)))
    return _finalize(params, beta, m, grid, status, 0, residual, eta=eta)


def admissibility_margin(params: ModelParams, grid: TimeGrid) -> float:
    """Min over nodes of the variant's admissibility expression.

    Positive margin means the variant's effective quadratic coefficient
    kappa = b^2/r [- c^2/s] [- theta sigma^2] stays positive.
    """
    eff = effective_coefficients(params)
    return float(np.min(np.asarray(eff.kappa(grid.nodes), dtype=float)))


def check_conditions(params: ModelParams, beta: Trajectory,
                     grid: TimeGrid) -> ConditionsReport:
    """Admissibility margin and the Gronwall/contraction constants.

    The bound is T [g + g_tilde (qbarT + eps e^{T |exponent|})] with the
    sup-norms taken as maxima over grid nodes.
    """
    eff = effective_coefficients(params)
    nodes = grid.nodes
    bv = beta.values
    lam = np.asarray(eff.lam(nodes), dtype=float)
    kap = np.asarray(eff.kappa(nodes), dtype=float)
    qbar = np.asarray(params.qbar(nodes), dtype=float)
    T = params.T

    g = float(np.max(np.abs(params.a + params.abar - lam * bv)))
    g_tilde = float(np.max(np.abs(lam)))
    eps = float(np.max(np.abs(params.abar * bv - qbar)))
    exponent_norm = float(np.max(np.abs(params.a - kap * bv)))
    bound = T * (g + g_tilde * (params.qbarT + eps * math.exp(T * exponent_norm)))

    margin = admissibility_margin(params, grid)

    alt_g_tilde = alt_bound = None
    if params.variant is Variant.RISK_SENSITIVE:
        alt_g_tilde = float(np.max(np.abs(kap)))
        alt_bound = T * (g + alt_g_tilde * (params.qbarT + eps * math.exp(T * exponent_norm)))

    return ConditionsReport(
        variant=params.variant,
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
