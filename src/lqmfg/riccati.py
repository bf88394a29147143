"""Backward integration of the scalar Riccati system and the value assembly.

The unified system, with the variant's effective coefficients kappa and
lam (ModelParams.kappa, ModelParams.lam), is

    beta' + 2a beta - kappa beta^2 + q + qbar = 0,      beta(T) = qT + qbarT
    alpha' + a alpha + (abar beta - qbar) m - kappa alpha beta = 0,
                                                        alpha(T) = -qbarT m(T)
    gamma' + abar alpha m + (sigma^2/2) beta + (qbar/2) m^2
           - (kappa/2) alpha^2 = 0,                     gamma(T) = (qbarT/2) m(T)^2
    eta'  + [2a + abar - (kappa+lam) beta] eta - lam eta^2
           + (abar beta - qbar) = 0,                    eta(T) = -qbarT

Each of beta, alpha and eta is written as y' = c2(t) y^2 + c1(t) y + c0(t)
and integrated backward on a uniform grid by one propagator: with y = p/q
the pair (p, q) solves a linear system, each step is the exponential of a
fourth-order Magnus exponent built from the coefficients at the step's end,
midpoint and start (TimeGrid.substages), and the loop applies the resulting
Moebius map to y.  A solve that reads another solution samples it there too
(_substages).  beta does not involve m, so the Beta that solve_beta returns
carries its own substage values and alpha's steps, built once.  alpha is
linear (c2 = 0), so each of its steps is affine in alpha and in m: the
fixed-point route's sweep and solve_alpha's one float loop read them, and
the propagator serves beta and eta.
The propagator is exact for constant coefficients.  A finite escape
("blow-up") is a pole of y, i.e. q reaching zero, located inside its step;
it is reported as a status, never as an overflow.  gamma is a quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelParams, TimeGrid, Trajectory

__all__ = [
    "Beta",
    "SolveStatus",
    "ValueCoefficients",
    "solve_beta",
    "solve_alpha",
    "solve_gamma",
    "solve_eta",
    "assemble_value",
]

@dataclass(frozen=True)
class SolveStatus:
    blow_up_time: float | None   # None when the solve reached t = 0

    @property
    def admissible(self) -> bool:
        return self.blow_up_time is None


@dataclass(frozen=True)
class ValueCoefficients:
    """Value at t=0 and the linear feedback laws read off the solution."""
    value_at_0: float
    feedback_gain: Trajectory
    feedback_offset: Trajectory
    disturbance_gain: Trajectory | None = None
    disturbance_offset: Trajectory | None = None
    exp_value: float | None = None  # e^{theta * value_at_0}, risk-sensitive only


def _first_zero(g: float, delta: float) -> float:
    """First tau in (0, 1] where q(tau) = C(tau) + g S(tau) vanishes.

    C, S are cosh/cos(tau theta) and sinh/sin(tau theta)/theta with
    theta = sqrt(|delta|): the q component of exp(tau Omega)(y, 1), up to a
    positive factor.  The caller knows that q reaches 0 within the step;
    where only rounding says so, the zero is put at the step's end.
    """
    theta = math.sqrt(abs(delta))
    if delta < 0.0:
        return (math.pi / 2 + math.atan2(g, theta)) / theta
    if delta == 0.0:
        return -1.0 / g
    return math.atanh(-theta / g) / theta if g < -theta else 1.0


def _propagate(coefs: tuple, yT: float, grid: TimeGrid) -> tuple[np.ndarray, float | None]:
    """Integrate y' = c2(t) y^2 + c1(t) y + c0(t) backward from y(T) = yT,
    coefs = (c0, c1, c2) each a scalar or a table on grid.substages.

    With y = p/q, (p, q)' = A(t) (p, q) for A = [[c1, c0], [-c2, 0]], which
    is linear.  Each backward step from t1 to t1 - h is exp(Omega) with the
    fourth-order Magnus exponent
        Omega = -(h/6)(A(t1) + 4 A(t1 - h/2) + A(t1 - h))
                - (h^2/12) [A(t1), A(t1 - h)],
    built for every step at once; the loop then applies the Moebius map
    y <- (E00 y + E01) / (E10 y + E11) on floats.  A finite escape is q
    reaching 0, located on the step's own flow exp(tau Omega).  Returns
    (values, escape_time); values past an escape are zero and must not be
    consumed.  When an exponent overflows (a coefficient times the step
    beyond the float range), or y outgrows the floats under a step map
    without a pole (E10 = 0), the values are all NaN and there is no escape.
    The loop serves beta and eta; alpha's steps are the same map with
    c2 = 0 (Beta.alpha_steps).
    """
    n, h = grid.n_steps, grid.dt
    t1 = grid.nodes[1:]
    c0, c1, c2 = (np.broadcast_to(c, (3, n)) for c in coefs)
    # Omega = [[tr/2 + nn, w12], [w21, tr/2 - nn]]; the trace only scales (p, q)
    with np.errstate(over="ignore", invalid="ignore"):
        nn = -h / 12 * (c1[0] + 4 * c1[1] + c1[2]) - h * h / 12 * (c2[0] * c0[2] - c0[0] * c2[2])
        w12 = -h / 6 * (c0[0] + 4 * c0[1] + c0[2]) - h * h / 12 * (c1[0] * c0[2] - c1[2] * c0[0])
        w21 = h / 6 * (c2[0] + 4 * c2[1] + c2[2]) - h * h / 12 * (c2[2] * c1[0] - c2[0] * c1[2])
        delta = nn * nn + w12 * w21
    if not np.isfinite(delta).all():    # no step map in floats
        return np.full(n + 1, math.nan), None
    theta = np.sqrt(np.abs(delta))
    hyperbolic = delta >= 0.0
    # exp(Omega) / e^{tr/2} = C I + S (Omega - tr/2 I); only ratios enter the
    # map, so for delta >= 0 it is also divided by cosh(theta) to stay finite
    cosine = np.where(hyperbolic, 1.0, np.cos(theta))
    sine = np.divide(np.where(hyperbolic, np.tanh(theta), np.sin(theta)), theta,
                     out=np.ones(n), where=theta > 0.0)
    # a step spanning half a period of the trigonometric flow holds a pole
    wraps = np.flatnonzero(~hyperbolic & (theta >= math.pi))
    stop = int(wraps[-1]) if wraps.size else -1
    # the steps the loop takes, last step first, as float lists
    e00, e01, e10, e11 = (e[stop + 1:][::-1].tolist() for e in (
        cosine + sine * nn, sine * w12, sine * w21, cosine - sine * nn))

    def escape(k: int, y: float) -> float:
        return float(t1[k]) - h * _first_zero(float(w21[k]) * y - float(nn[k]), float(delta[k]))

    vals = [0.0] * (n + 1)
    y = vals[n] = float(yT)
    for k, a, b, c, d in zip(range(n - 1, stop, -1), e00, e01, e10, e11):
        den = c * y + d
        if not den > 0.0:
            if c == 0.0:    # no pole: y overflowed
                return np.full(n + 1, math.nan), None
            return np.array(vals), escape(k, y)
        vals[k] = y = (a * y + b) / den
    return np.array(vals), (escape(stop, y) if stop >= 0 else None)


def _beta_coefficients(params: ModelParams, t: np.ndarray) -> tuple:
    """(c0, c1, c2) of beta' = c2 beta^2 + c1 beta + c0 at the times t."""
    return -(params.q(t) + params.qbar(t)), -2 * params.a, params.kappa(t)


def _require_grid(y: Trajectory, grid: TimeGrid) -> None:
    if y.grid != grid:
        raise ValueError(f"a trajectory on {y.grid} where one on {grid} is needed")


def _substages(grid: TimeGrid, y: Trajectory, slopes: np.ndarray | None = None) -> np.ndarray:
    """y on grid.substages: its node values at each step's ends, and at the
    midpoint the cubic Hermite value (y_k + y_k+1)/2 + dt (y'_k - y'_k+1)/8
    from the slopes y' at the nodes, or without them the linear value, the
    mean of the two.  ValueError when y is tabulated on another grid.
    """
    _require_grid(y, grid)
    v = y.values
    mid = 0.5 * (v[:-1] + v[1:])
    if slopes is not None:
        mid += grid.dt / 8 * (slopes[:-1] - slopes[1:])
    return np.stack([v[1:], mid, v[:-1]])


class Beta(Trajectory):
    """beta from solve_beta, with the instance's tables that do not involve m:
    each is built on first use (so never after an escape), then shared."""

    def __init__(self, params: ModelParams, grid: TimeGrid, values: np.ndarray):
        super().__init__(grid, values)
        self.params = params

    def solved_for(self, params: ModelParams, grid: TimeGrid) -> "Beta":
        """self, or ValueError when it was solved for other params or grid."""
        _require_grid(self, grid)
        if self.params != params:
            raise ValueError("a beta solved for other params")
        return self

    @cached_property
    def substages(self) -> np.ndarray:
        """beta on grid.substages; its own ODE's slopes keep the solves reading it 4th order."""
        c0, c1, c2 = _beta_coefficients(self.params, self.grid.nodes)
        v = self.values
        return _substages(self.grid, self, c2 * v * v + c1 * v + c0)

    @cached_property
    def alpha_steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x, F, U, V) of alpha's steps alpha_k = e^x alpha_k+1 + F (U m_k+1 + V m_k),
        k = 0 .. n_steps - 1: _propagate's map of alpha' = c1 alpha + w m
        (c2 = 0), so x = 2 nn and F = expm1(x) / x, and U m_k+1 + V m_k is its
        w12 of c0 = w (m_k+1, (m_k+1 + m_k) / 2, m_k)."""
        p, t, bv, h = self.params, self.grid.substages, self.substages, self.grid.dt
        w, c1 = -(p.abar * bv - p.qbar(t)), -p.a + p.kappa(t) * bv
        x = -h / 6 * (c1[0] + 4 * c1[1] + c1[2])
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
            u = -h / 6 * (w[0] + 2 * w[1]) + h * h / 12 * c1[2] * w[0]
            v = -h / 6 * (2 * w[1] + w[2]) - h * h / 12 * c1[0] * w[2]
        return x, f, u, v


def solve_beta(params: ModelParams, grid: TimeGrid) -> tuple[Beta, SolveStatus]:
    """Solve the quadratic value-coefficient equation backward from T."""
    betaT = params.qT + params.qbarT
    vals, t_blow = _propagate(_beta_coefficients(params, grid.substages), betaT, grid)
    return Beta(params, grid, vals), SolveStatus(t_blow)


def solve_alpha(params: ModelParams, beta: Beta, m: Trajectory, grid: TimeGrid) -> Trajectory:
    """Solve the linear value-coefficient equation for a given mean path by
    one backward loop over its affine steps (Beta.alpha_steps);
    ValueError when beta was solved for other params or grid, or m is on another grid."""
    x, f, u, v = beta.solved_for(params, grid).alpha_steps
    _require_grid(m, grid)
    mv = m.values
    with np.errstate(over="ignore", invalid="ignore"):
        # y += expm1(x) y + b: the rounding of e^x, the same in every step of
        # constant coefficients, would compound over the steps
        steps = zip(np.expm1(x)[::-1].tolist(), (f * (u * mv[1:] + v * mv[:-1]))[::-1].tolist())
    y = float(-params.qbarT * mv[-1])
    vals = [y]
    for e, b in steps:
        y += e * y + b
        vals.append(y)
    return Trajectory(grid, np.array(vals[::-1]))


def solve_gamma(params: ModelParams, beta: Beta, alpha: Trajectory,
                m: Trajectory, grid: TimeGrid) -> Trajectory:
    """Backward quadrature for the constant value term.

    The right-hand side does not depend on gamma, so each step is Simpson's
    rule on the substage times and the whole solve is one backward
    cumulative sum.  ValueError as for solve_alpha.
    """
    bt = beta.solved_for(params, grid).substages
    a, abar, qbar, sigma = params.a, params.abar, params.qbar, params.sigma
    nodes, t, h = grid.nodes, grid.substages, grid.dt
    mt = _substages(grid, m)
    av, bv, mv = alpha.values, beta.values, m.values
    # alpha's own ODE supplies its slopes
    dav = -a * av - (abar * bv - qbar(nodes)) * mv + params.kappa(nodes) * bv * av
    avt = _substages(grid, alpha, dav)
    f = (-abar * avt * mt - 0.5 * sigma ** 2 * bt
         - 0.5 * qbar(t) * mt * mt + 0.5 * params.kappa(t) * avt * avt)
    incr = h / 6 * (f[0] + 4 * f[1] + f[2])
    gammaT = 0.5 * params.qbarT * mv[-1] * mv[-1]
    # np.cumsum adds in sequence, as the stepwise y - incr would
    vals = np.cumsum(np.concatenate(([gammaT], -incr[::-1])))[::-1]
    return Trajectory(grid, vals)


def solve_eta(params: ModelParams, beta: Beta, grid: TimeGrid) -> tuple[Trajectory, SolveStatus]:
    """Solve the refined equation for eta with alpha = eta * m.

    For the risk-neutral variant (kappa = lam = b^2/r) this is exactly the
    refined equation; the other variants use the same substitution carried
    through their state loop, validated against the fixed-point route.
    ValueError when beta was solved for other params or grid.
    """
    bv = beta.solved_for(params, grid).substages
    abar, t = params.abar, grid.substages
    lam = params.lam(t)
    kap = lam - params.theta_term
    coefs = -(abar * bv - params.qbar(t)), -(2 * params.a + abar - (kap + lam) * bv), lam
    vals, t_blow = _propagate(coefs, -params.qbarT, grid)
    return Trajectory(grid, vals), SolveStatus(t_blow)


def assemble_value(params: ModelParams, beta: Trajectory, alpha: Trajectory,
                   gamma: Trajectory) -> ValueCoefficients:
    """Value at t=0 and the feedback/disturbance laws."""
    grid, nodes = beta.grid, beta.grid.nodes
    rv = params.r(nodes)
    gain = Trajectory(grid, -params.b * beta.values / rv)
    offset = Trajectory(grid, -params.b * alpha.values / rv)
    value0 = (0.5 * beta.values[0] * (params.x0 * params.x0)
              + alpha.values[0] * params.x0 + gamma.values[0])
    dist_gain = dist_offset = None
    if params.variant.uses_disturbance:
        sv = params.s(nodes)
        dist_gain = Trajectory(grid, params.c * beta.values / sv)
        dist_offset = Trajectory(grid, params.c * alpha.values / sv)
    try:
        exp_value = math.exp(params.theta * value0) if params.variant.uses_theta else None
    except OverflowError:       # theta value0 above log(max float), about 709.8
        exp_value = math.inf
    return ValueCoefficients(value_at_0=float(value0), feedback_gain=gain,
                             feedback_offset=offset, disturbance_gain=dist_gain,
                             disturbance_offset=dist_offset, exp_value=exp_value)
