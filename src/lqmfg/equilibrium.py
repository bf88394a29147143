"""Mean-field equilibrium: the fixed point of the best-response mean map
solved by GMRES, the closed form via the refined coefficient, and the
existence / uniqueness (admissibility + contraction) conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, TimeGrid, Trajectory
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

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
# the lower bound of cond_2(I - L) from which the fixed-point route calls
# I - L numerically singular; see solve_equilibrium_picard
SINGULAR_COND = 10.0


class BlowUpError(Exception):
    """A Riccati solve blew up; the feedback law is not admissible."""

    def __init__(self, status: SolveStatus, which: str = "beta"):
        self.status = status
        self.which = which
        super().__init__(f"{which} blow-up at t = {status.blow_up_time:g}")


class NonConvergenceError(Exception):
    """The fixed-point route stopped without a residual <= tol.

    reason is "max_iter" (the budget of Phi applications is spent),
    "non_finite" (a residual overflowed) or "singular" (I - L is
    numerically singular).
    """

    def __init__(self, residual_history: list[float], reason: str = "max_iter"):
        self.residual_history = residual_history
        self.reason = reason
        super().__init__(
            f"no convergence after {len(residual_history)} iterations ({reason}); "
            f"last residual {residual_history[-1]:.3e}")


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
    # theta variants only: same bound with the theta*sigma^2 term kept in g_tilde
    alt_g_tilde: float | None = None
    alt_lipschitz_bound: float | None = None


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of y over x, starting from 0 at x[0]."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def apply_phi(params: ModelParams, beta: Beta, m: Trajectory, grid: TimeGrid) -> Trajectory:
    """One application of the best-response mean map.

    Phi[m](t) = m0 + int_0^t [(a+abar) m - lam (beta m + alpha[m])] ds,
    with alpha[m] the linear backward solve and the integral by the
    trapezoid rule on the grid.
    """
    alpha = solve_alpha(params, beta, m, grid)
    nodes = grid.nodes
    lam = np.asarray(params.lam(nodes), dtype=float)
    integrand = (params.a + params.abar) * m.values - lam * (beta.values * m.values + alpha.values)
    vals = params.m0 + _cumulative_trapezoid(integrand, nodes)
    return Trajectory(grid, vals)


def _finalize(params: ModelParams, beta: Beta, m: Trajectory, grid: TimeGrid,
              iterations: int, residual: float, eta: Trajectory | None = None,
              history: tuple[float, ...] = ()) -> Equilibrium:
    alpha = solve_alpha(params, beta, m, grid)
    gamma = solve_gamma(params, beta, alpha, m, grid)
    value = assemble_value(params, beta, alpha, gamma)
    return Equilibrium(m=m, beta=beta, alpha=alpha, gamma=gamma, value=value,
                       iterations=iterations, residual=residual, eta=eta,
                       residual_history=history)


def admissible_beta(params: ModelParams, grid: TimeGrid) -> Beta:
    """beta on the grid, on which both routes and the conditions are built;
    BlowUpError when it escapes, as then no feedback law is admissible."""
    beta, status = solve_beta(params, grid)
    if not status.admissible:
        raise BlowUpError(status)
    return beta


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm, without numpy.linalg (whose first use pages in LAPACK)."""
    return math.sqrt(float(np.dot(v, v)))


def _gmres_cycle(apply_a, r0: np.ndarray, norm0: float, tol: float, max_iter: int,
                 history: list[float]) -> tuple[np.ndarray, float]:
    """One GMRES cycle on A d = r0 from d = 0, where norm0 = ||r0||_2.

    Arnoldi with modified Gram-Schmidt builds A V_k = V_{k+1} Hbar; Givens
    rotations on floats keep the least-squares problem min ||r0 - A V_k y||
    triangular.  Each new iterate's residual r_k = r0 - A V_k y follows from
    the last by r_k = s_k^2 r_k-1 + c_k g_k+1 v_k+1, with (c_k, s_k) the k-th
    rotation and g_k+1 the last entry of the rotated right-hand side, and
    its sup-norm is appended to history after each application of A.  The
    cycle ends when that reaches tol, on breakdown or when the basis spans the space,
    and raises NonConvergenceError when history reaches max_iter or a
    residual is not finite.  Returns the correction V_k y and
    max_j ||A v_j||, a lower bound of ||A||.
    """
    # no more steps than applications left, nor than the space has dimensions
    size = min(max_iter - len(history), r0.size)
    basis = np.empty((size + 1, r0.size))      # its rows are touched as used
    basis[0] = r0 / norm0
    tri: list[list[float]] = []        # Hbar's columns, rotated: upper triangular
    rotations: list[tuple[float, float]] = []
    rhs = [norm0]                      # norm0 e_1, rotated
    res = r0
    norm_a = 0.0
    for k in range(size):
        w = apply_a(basis[k])
        norm_a = max(norm_a, _norm(w))
        col = []
        for v in basis[:k + 1]:
            col.append(float(np.dot(w, v)))
            w -= col[-1] * v
        col.append(_norm(w))
        basis[k + 1] = w / col[-1] if col[-1] > 0.0 else 0.0
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        diag = math.hypot(col[k], col[k + 1])
        c, s = col[k] / diag, col[k + 1] / diag
        rotations.append((c, s))
        tri.append(col[:k] + [diag])
        rhs[k:] = [c * rhs[k], -s * rhs[k]]
        res = s * s * res + c * rhs[k + 1] * basis[k + 1]
        history.append(float(np.max(np.abs(res))))
        if not math.isfinite(history[-1]):
            raise NonConvergenceError(history, "non_finite")
        if len(history) >= max_iter:    # no Phi application is left to confirm it
            raise NonConvergenceError(history, "max_iter")
        if history[-1] <= tol or not col[k + 1] > 0.0:
            break
    y = [0.0] * (k + 1)
    for i in range(k, -1, -1):
        y[i] = (rhs[i] - sum(tri[j][i] * y[j] for j in range(i + 1, k + 1))) / tri[i][i]
    return np.dot(y, basis[:k + 1]), norm_a


def solve_equilibrium_picard(params: ModelParams, beta: Beta, grid: TimeGrid,
                             tol: float = DEFAULT_TOL,
                             max_iter: int = DEFAULT_MAX_ITER) -> Equilibrium:
    """The fixed-point mean path m = Phi[m], with beta = admissible_beta(params, grid).

    alpha[m] is linear in m and alpha[0] = 0, so Phi[m] = m0 + L m with
    L v = Phi[v] - m0, and the fixed point solves (I - L) m = m0.  GMRES
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) solves it from
    m = m0 wherever I - L is invertible; Picard's m <- Phi[m] would also
    need the spectral radius of L below 1.  The residual of an iterate x is
    Phi[x] - x.  The route returns only after a true Phi application shows
    its sup-norm <= tol, and restarts from x when it does not.  iterations
    counts the Phi applications, one residual_history entry each; the
    Krylov basis holds at most min(max_iter, n_steps + 1) + 1 mean paths.

    NonConvergenceError when max_iter is reached, when a residual is not
    finite, or when I - L is numerically singular: with A = I - L and
    d = x - m0, max_j ||A v_j|| ||d|| / ||A d|| is a certified lower bound
    of cond_2(A), and an x where it reaches SINGULAR_COND = 10 is refused.
    Measured at n_steps 200-1000, the bound is at most 1.82 wherever the
    route agrees with the closed form: 1.0-1.65 on the benchmark instances,
    1.65 and 1.82 at theta = 1.7 and 1.75 on the benchmark sweep (where
    rho(L) > 1), at most 1.31 over the corners of the route-agreement
    tests' instance box, 0.75 at a = +-800.  It is 74, 288 and 1139 at
    n_steps 150, 300 and 600 on a long horizon with strong mean coupling,
    where the residual reaches 1e-11 but m, 3e6 from the closed form, does
    not converge under refinement: there the residual bounds nothing.
    """
    def phi(v: np.ndarray) -> np.ndarray:
        return apply_phi(params, beta, Trajectory(grid, v), grid).values

    def i_minus_l(v: np.ndarray) -> np.ndarray:
        return v - (phi(v) - params.m0)

    x = np.full(grid.n_steps + 1, params.m0)
    history: list[float] = []
    norm_a = 0.0
    # an overflow makes a residual non-finite, which is reported instead
    with np.errstate(over="ignore", invalid="ignore"):
        r = first = phi(x) - x
        while True:
            history.append(float(np.max(np.abs(r))))
            if history[-1] <= tol:
                break
            norm = _norm(r)
            if not math.isfinite(norm):
                raise NonConvergenceError(history, "non_finite")
            if len(history) >= max_iter:
                raise NonConvergenceError(history, "max_iter")
            step, cycle_norm_a = _gmres_cycle(i_minus_l, r, norm, tol, max_iter, history)
            norm_a = max(norm_a, cycle_norm_a)
            x = x + step
            r = phi(x) - x
    # (I - L)(x - m0) = first - r
    if norm_a * _norm(x - params.m0) > SINGULAR_COND * _norm(first - r):
        raise NonConvergenceError(history, "singular")
    return _finalize(params, beta, Trajectory(grid, x), grid, len(history),
                     history[-1], history=tuple(history))


def solve_equilibrium_closed_form(params: ModelParams, beta: Beta, grid: TimeGrid) -> Equilibrium:
    """Equilibrium via the refined coefficient: m = m0 e^{int (a+abar-lam(beta+eta))},
    with beta = admissible_beta(params, grid); BlowUpError when eta escapes."""
    eta, eta_status = solve_eta(params, beta, grid)
    if not eta_status.admissible:
        raise BlowUpError(eta_status, which="eta")
    nodes = grid.nodes
    lam = np.asarray(params.lam(nodes), dtype=float)
    exponent = (params.a + params.abar) - lam * (beta.values + eta.values)
    m = Trajectory(grid, params.m0 * np.exp(_cumulative_trapezoid(exponent, nodes)))
    phi = apply_phi(params, beta, m, grid)
    residual = float(np.max(np.abs(phi.values - m.values)))
    return _finalize(params, beta, m, grid, 0, residual, eta=eta)


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
