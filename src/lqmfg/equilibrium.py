"""Mean-field equilibrium: the fixed point of the best-response mean map
solved by one backward sweep, the closed form via the refined coefficient,
and the existence / uniqueness (admissibility + contraction) conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MAX_COUNT, ModelParams, TimeGrid, Trajectory
from .riccati import (
    Beta,
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
    "admissible_beta",
    "admissibility_margin",
    "apply_phi",
    "solve_equilibrium_picard",
    "solve_equilibrium_closed_form",
    "check_conditions",
]

class BlowUpError(Exception):
    """A Riccati solve blew up; the feedback law is not admissible."""

    def __init__(self, status: SolveStatus, which: str = "beta"):
        self.status = status
        self.which = which
        super().__init__(f"{which} blow-up at t = {status.blow_up_time:g}")


class NonConvergenceError(Exception):
    """The fixed-point route found no usable mean path.

    reason is "non_finite" (the mean path, alpha, gamma, the value or the
    residual left the floats), "singular" (a pivot of the backward sweep is
    <= 0) or "step_ratio" (a step ratio m_k+1 / m_k of the sweep is <= 0); see
    solve_equilibrium_picard.  residual_history holds the residual of each
    Phi application made; detail, if any, ends the message.
    """

    def __init__(self, residual_history: list[float], reason: str, detail: str = ""):
        self.residual_history = residual_history
        self.reason = reason
        super().__init__(f"no convergence ({reason}); last residual "
                         f"{residual_history[-1]:.3e}" + (f"; {detail}" if detail else ""))


@dataclass(frozen=True)
class Equilibrium:
    m: Trajectory
    beta: Beta
    alpha: Trajectory
    gamma: Trajectory
    value: ValueCoefficients
    iterations: int
    residual: float
    eta: Trajectory | None = None      # the closed form's refined coefficient


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
    # theta variants only: same bound with the theta*sigma^2 term kept in g_tilde
    alt_g_tilde: float | None = None
    alt_lipschitz_bound: float | None = None


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of y over x, starting from 0 at x[0]."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def apply_phi(params: ModelParams, beta: Beta, m: Trajectory,
              grid: TimeGrid) -> tuple[Trajectory, Trajectory]:
    """One application of the best-response mean map: (Phi[m], alpha[m]).

    Phi[m](t) = m0 + int_0^t [(a+abar) m - lam (beta m + alpha[m])] ds,
    with alpha[m] the linear backward solve and the integral by the
    trapezoid rule on the grid.
    """
    alpha = solve_alpha(params, beta, m, grid)
    nodes = grid.nodes
    lam = np.asarray(params.lam(nodes), dtype=float)
    integrand = (params.a + params.abar) * m.values - lam * (beta.values * m.values + alpha.values)
    return Trajectory(grid, params.m0 + _cumulative_trapezoid(integrand, nodes)), alpha


def _finalize(params: ModelParams, beta: Beta, m: Trajectory, alpha: Trajectory,
              grid: TimeGrid, iterations: int, residual: float,
              eta: Trajectory | None = None) -> Equilibrium:
    """The equilibrium at mean path m, with alpha = alpha[m] from its residual's Phi;
    NonConvergenceError "non_finite" when alpha, gamma or the value leave the floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = solve_gamma(params, beta, alpha, m, grid)
        value = assemble_value(params, beta, alpha, gamma)
    if not (np.isfinite(alpha.values).all() and np.isfinite(gamma.values).all()
            and math.isfinite(value.value_at_0)):
        raise NonConvergenceError([residual], "non_finite")
    return Equilibrium(m=m, beta=beta, alpha=alpha, gamma=gamma, value=value,
                       iterations=iterations, residual=residual, eta=eta)


def admissible_beta(params: ModelParams, grid: TimeGrid) -> Beta:
    """beta on the grid, on which both routes and the conditions are built;
    BlowUpError when it escapes, as then no feedback law is admissible."""
    beta, status = solve_beta(params, grid)
    if not status.admissible:
        raise BlowUpError(status)
    return beta


def solve_equilibrium_picard(params: ModelParams, beta: Beta, grid: TimeGrid) -> Equilibrium:
    """The fixed-point mean path m = Phi[m], with beta = admissible_beta(params, grid),
    by one backward sweep.

    On the grid the fixed point is a linear two-point boundary problem in
    (m, alpha) with m_0 = m0 and alpha_N = -qbarT m_N.  alpha's steps are
    affine, alpha_k = A_k alpha_k+1 + F_k (U_k m_k+1 + V_k m_k) with A = e^x
    (Beta.alpha_steps), and Phi's trapezoid links m_k, m_k+1, alpha_k and
    alpha_k+1 linearly, with c = a + abar - lam beta.  So alpha_k = E_k m_k
    holds exactly (Riccati decoupling; Ascher, Mattheij & Russell, Numerical
    Solution of Boundary Value Problems for ODEs, ch. 4).  From E_N = -qbarT,
    each step back takes G = A_k E_k+1 + F_k U_k, the pivot
    piv_k = 1 - h/2 (c_k+1 - lam_k+1 E_k+1 - lam_k G), the ratio
    R_k = m_k+1 / m_k = (1 + h/2 (c_k - lam_k F_k V_k)) / piv_k and
    E_k = G R_k + F_k V_k; then m = m0 cumprod(R).  One true Phi application
    gives the residual sup |Phi[m] - m|, at rounding level; iterations = 1
    counts it.

    NonConvergenceError "non_finite" when that residual is not finite (m,
    alpha or Phi[m] left the floats, e.g. at a = 1e300), otherwise
    "singular" when a pivot is <= 0, where m_k+1 is not fixed by m_k with
    the sign a resolved path keeps, otherwise "step_ratio" when a ratio
    R_k <= 0: the exact mean keeps its sign, but the trapezoid's ratio
    (1 + h c/2) / (1 - h c/2) tends to -1 as h c -> -inf, so m flips sign
    once h |c| passes about 2, at a residual of rounding level (q = 1e6 on
    the benchmark instance gave value_at_0 = -1900, not 519.9, at n_steps
    = 10); the message gives h max|c| and an n_steps that brings it to 1.
    On a long horizon with strong mean coupling (a = 1, abar = qbar = qbarT
    = 4, q = qT = 0, T = 3) the smallest pivot is -0.053, -16.2 and -1.79 at
    n_steps 150, 300 and 600, and m(T) is -281, -1124 and -4503: the
    residual, 1e-11 or less, bounds nothing there.  The smallest pivot is
    1.0 on the benchmark instances and 0.60 and 1.40 at a = +-800.
    """
    nodes = grid.nodes
    x, f, u, v = beta.solved_for(params, grid).alpha_steps
    half = np.diff(nodes) / 2
    lam = np.asarray(params.lam(nodes), dtype=float)
    # an overflow makes the residual non-finite, which is reported instead
    with np.errstate(over="ignore", invalid="ignore"):
        c = params.a + params.abar - lam * beta.values
        fv = f * v
        # step k: m_k+1 (p0 + p1 E_k+1 + p2 G) = m_k num
        steps = (np.exp(x), f * u, fv, 1.0 + half * (c[:-1] - lam[:-1] * fv),
                 1.0 - half * c[1:], half * lam[1:], half * lam[:-1])
        e = -params.qbarT
        ratios, pivots = [], []
        for a_k, fu_k, fv_k, num, p0, p1, p2 in zip(*(t[::-1].tolist() for t in steps)):
            g = a_k * e + fu_k
            piv = p0 + p1 * e + p2 * g
            r = num / piv if piv else 0.0     # a zero pivot is refused below
            e = g * r + fv_k
            ratios.append(r)
            pivots.append(piv)
        m = Trajectory(grid, params.m0 * np.cumprod([1.0, *ratios[::-1]]))
        phi, alpha = apply_phi(params, beta, m, grid)
        residual = float(np.max(np.abs(phi.values - m.values)))
    if not math.isfinite(residual):
        raise NonConvergenceError([residual], "non_finite")
    if min(pivots) <= 0.0:
        raise NonConvergenceError([residual], "singular")
    if min(ratios) <= 0.0:
        hc = grid.dt * float(np.max(np.abs(c)))
        n_min = math.ceil(min(grid.n_steps * hc, MAX_COUNT))
        raise NonConvergenceError([residual], "step_ratio", (
            f"h max|a + abar - lam beta| = {hc:.4g} must stay below 2 or the mean "
            f"changes sign; n_steps >= {n_min} brings it to 1 or below"))
    return _finalize(params, beta, m, alpha, grid, 1, residual)


def solve_equilibrium_closed_form(params: ModelParams, beta: Beta, grid: TimeGrid) -> Equilibrium:
    """Equilibrium via the refined coefficient: m = m0 e^{int (a+abar-lam(beta+eta))},
    with beta = admissible_beta(params, grid); BlowUpError when eta escapes."""
    eta, eta_status = solve_eta(params, beta, grid)
    if not eta_status.admissible:
        raise BlowUpError(eta_status, which="eta")
    nodes = grid.nodes
    lam = np.asarray(params.lam(nodes), dtype=float)
    # an m past the floats makes alpha non-finite, which _finalize reports
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = (params.a + params.abar) - lam * (beta.values + eta.values)
        m = Trajectory(grid, params.m0 * np.exp(_cumulative_trapezoid(exponent, nodes)))
        phi, alpha = apply_phi(params, beta, m, grid)
        residual = float(np.max(np.abs(phi.values - m.values)))
    return _finalize(params, beta, m, alpha, grid, 0, residual, eta=eta)


def admissibility_margin(params: ModelParams, grid: TimeGrid) -> float:
    """Min over nodes of the variant's admissibility expression.

    Positive margin means the variant's effective quadratic coefficient
    kappa = b^2/r [- c^2/s] [- theta sigma^2] stays positive.
    """
    return float(np.min(np.asarray(params.kappa(grid.nodes), dtype=float)))


def check_conditions(params: ModelParams, beta: Beta, grid: TimeGrid) -> ConditionsReport:
    """Admissibility margin and the Gronwall/contraction constants.

    The bound is T [g + g_tilde (qbarT + eps e^{T |exponent|})] with the
    sup-norms taken as maxima over grid nodes.  It is inf where the
    exponential overflows; a factor of 0 keeps its term at 0.
    """
    nodes = grid.nodes
    bv = beta.values
    lam = np.asarray(params.lam(nodes), dtype=float)
    kap = lam - params.theta_term
    qbar = np.asarray(params.qbar(nodes), dtype=float)
    T = params.T

    # a sup-norm past the floats is inf, and so is the bound
    with np.errstate(over="ignore", invalid="ignore"):
        g = float(np.max(np.abs(params.a + params.abar - lam * bv)))
        g_tilde = float(np.max(np.abs(lam)))
        eps = float(np.max(np.abs(params.abar * bv - qbar)))
        exponent_norm = float(np.max(np.abs(params.a - kap * bv)))
    try:
        growth = eps * math.exp(T * exponent_norm) if eps else 0.0
    except OverflowError:
        growth = math.inf

    def bound(g_tilde: float) -> float:
        return T * (g + (g_tilde * (params.qbarT + growth) if g_tilde else 0.0))

    margin = float(np.min(kap))

    alt_g_tilde = alt_bound = None
    if params.variant.uses_theta:
        alt_g_tilde = float(np.max(np.abs(kap)))
        alt_bound = bound(alt_g_tilde)

    lipschitz_bound = bound(g_tilde)
    return ConditionsReport(
        admissible=margin > 0.0,
        margin=margin,
        g=g,
        g_tilde=g_tilde,
        eps=eps,
        exponent_norm=exponent_norm,
        lipschitz_bound=lipschitz_bound,
        contraction=lipschitz_bound < 1.0,
        alt_g_tilde=alt_g_tilde,
        alt_lipschitz_bound=alt_bound,
    )
