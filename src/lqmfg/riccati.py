"""Backward integration of the scalar Riccati system and the value assembly.

The unified system, with kappa and lam from the variant's effective
coefficients, is

    beta' + 2a beta - kappa beta^2 + q + qbar = 0,      beta(T) = qT + qbarT
    alpha' + a alpha + (abar beta - qbar) m - kappa alpha beta = 0,
                                                        alpha(T) = -qbarT m(T)
    gamma' + abar alpha m + (sigma^2/2) beta + (qbar/2) m^2
           - (kappa/2) alpha^2 = 0,                     gamma(T) = (qbarT/2) m(T)^2
    eta'  + [2a + abar - (kappa+lam) beta] eta - lam eta^2
           + (abar beta - qbar) = 0,                    eta(T) = -qbarT

Integration is classical RK4 on a uniform grid, backward in time.  Each
equation is written as y' = c2(t) y^2 + c1(t) y + c0(t); its coefficients
are tabulated once per solve on the substage times, and one scalar stepper
runs on those tables.  Riccati blow-up is reported as a status, never as an
overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .model import (
    ModelParams,
    TimeGrid,
    Trajectory,
    effective_coefficients,
)

__all__ = [
    "SolveStatus",
    "RiccatiSolution",
    "ValueCoefficients",
    "FiniteEscapeError",
    "solve_beta",
    "solve_alpha",
    "solve_gamma",
    "solve_eta",
    "closed_form_constant_riccati",
    "assemble_value",
    "DEFAULT_BLOWUP_CAP",
]

DEFAULT_BLOWUP_CAP = 1e12

# t -> (c0, c1, c2) of y' = c2 y^2 + c1 y + c0, for an array of times
_CoefFn = Callable[[np.ndarray], tuple]


class FiniteEscapeError(Exception):
    """Raised when a closed-form Riccati solution has a pole inside [t, T]."""

    def __init__(self, escape_time: float):
        self.escape_time = escape_time
        super().__init__(f"finite escape at t = {escape_time:g}")


@dataclass(frozen=True)
class SolveStatus:
    admissible: bool
    blow_up_time: float | None = None

    @classmethod
    def ok(cls) -> "SolveStatus":
        return cls(True, None)

    @classmethod
    def blow_up(cls, at: float) -> "SolveStatus":
        return cls(False, at)


@dataclass(frozen=True)
class RiccatiSolution:
    beta: Trajectory
    alpha: Trajectory
    gamma: Trajectory
    status: SolveStatus
    eta: Trajectory | None = None


@dataclass(frozen=True)
class ValueCoefficients:
    """Value at t=0 and the linear feedback laws read off the solution."""
    value_at_0: float
    feedback_gain: Trajectory
    feedback_offset: Trajectory
    disturbance_gain: Trajectory | None = None
    disturbance_offset: Trajectory | None = None
    exp_value: float | None = None  # e^{theta * value_at_0}, risk-sensitive only


def _substage_times(t1, step):
    """RK4 substage times t1, t1 - step/2, t1 - step of backward steps ending at t1."""
    return np.stack([t1, t1 - step / 2, t1 - step])


def _rk4_table(coefs: _CoefFn, t1, step: float) -> list:
    """(c0, c1, c2) at the three substage times of each step, as floats.

    One row of nine per step for an array t1, a single row for a scalar t1.
    """
    times = _substage_times(t1, step)
    c0, c1, c2 = (np.broadcast_to(c, times.shape) for c in coefs(times))
    # per step: (c0, c1, c2) at each substage in turn, as _rk4_step takes them
    return np.stack([c[i] for i in range(3) for c in (c0, c1, c2)], axis=-1).tolist()


def _rk4_step(y: float, step: float,
              c0a: float, c1a: float, c2a: float,
              c0b: float, c1b: float, c2b: float,
              c0c: float, c1c: float, c2c: float) -> float:
    """One RK4 step of y' = c2 y^2 + c1 y + c0 from t1 back to t1 - step.

    The a, b and c coefficients are taken at t1, t1 - step/2 and t1 - step.
    """
    k1 = c2a * y * y + c1a * y + c0a
    y2 = y - step / 2 * k1
    k2 = c2b * y2 * y2 + c1b * y2 + c0b
    y3 = y - step / 2 * k2
    k3 = c2b * y3 * y3 + c1b * y3 + c0b
    y4 = y - step * k3
    k4 = c2c * y4 * y4 + c1c * y4 + c0c
    return y - step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_backward(coefs: _CoefFn, yT: float, grid: TimeGrid,
                  cap: float | None = None) -> tuple[np.ndarray, float | None]:
    """Integrate y' = c2(t) y^2 + c1(t) y + c0(t) backward from y(T) = yT.

    The coefficients are tabulated once on every substage time; the loop
    then runs on floats.  Returns (values, blow_up_time); values past a
    blow-up are zero and must not be consumed.
    """
    n, h = grid.n_steps, grid.dt
    t1 = grid.nodes[1:]
    rows = _rk4_table(coefs, t1, h)
    vals = [0.0] * (n + 1)
    y = vals[n] = float(yT)
    for k in range(n - 1, -1, -1):
        ynew = _rk4_step(y, h, *rows[k])
        if cap is not None and (not math.isfinite(ynew) or abs(ynew) > cap):
            return np.array(vals), _refine_escape(coefs, float(t1[k]), y, h, cap)
        vals[k] = y = ynew
    return np.array(vals), None


def _refine_escape(coefs: _CoefFn, t1: float, y1: float, h: float,
                   cap: float) -> float:
    """Bisect the step fraction at which |y| first exceeds the cap."""
    lo, hi = 0.0, 1.0  # fraction of the backward step from t1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        step = mid * h
        ymid = _rk4_step(y1, step, *_rk4_table(coefs, t1, step))
        if math.isfinite(ymid) and abs(ymid) <= cap:
            lo = mid
        else:
            hi = mid
        if (hi - lo) * h < 1e-6 * h:
            break
    return t1 - hi * h


def _beta_coefficients(params: ModelParams) -> _CoefFn:
    eff = effective_coefficients(params)
    a, q, qbar = params.a, params.q, params.qbar
    return lambda t: (-(q(t) + qbar(t)), -2 * a, eff.kappa(t))


def _hermite_beta(params: ModelParams, beta: Trajectory) -> CubicHermiteSpline:
    """Cubic Hermite interpolant of beta using its own ODE for derivatives.

    Substage evaluation through this interpolant keeps the dependent
    backward solves at fourth order.
    """
    nodes = beta.grid.nodes
    v = beta.values
    c0, c1, c2 = _beta_coefficients(params)(nodes)
    return CubicHermiteSpline(nodes, v, c2 * v * v + c1 * v + c0)


def solve_beta(params: ModelParams, grid: TimeGrid,
               cap: float = DEFAULT_BLOWUP_CAP) -> tuple[Trajectory, SolveStatus]:
    """Solve the quadratic value-coefficient equation backward from T."""
    betaT = params.qT + params.qbarT
    vals, t_blow = _rk4_backward(_beta_coefficients(params), betaT, grid, cap=cap)
    status = SolveStatus.ok() if t_blow is None else SolveStatus.blow_up(t_blow)
    return Trajectory(grid, vals), status


def solve_alpha(params: ModelParams, beta: Trajectory, m: Trajectory,
                grid: TimeGrid) -> Trajectory:
    """Solve the linear value-coefficient equation for a given mean path."""
    eff = effective_coefficients(params)
    bspl = _hermite_beta(params, beta)
    a, abar, qbar = params.a, params.abar, params.qbar

    def coefs(t):
        bv = bspl(t)
        return -(abar * bv - qbar(t)) * m(t), -a + eff.kappa(t) * bv, 0.0

    alphaT = -params.qbarT * m(params.T)
    vals, _ = _rk4_backward(coefs, alphaT, grid)
    return Trajectory(grid, vals)


def solve_gamma(params: ModelParams, beta: Trajectory, alpha: Trajectory,
                m: Trajectory, grid: TimeGrid) -> Trajectory:
    """Backward quadrature for the constant value term.

    The right-hand side does not depend on gamma, so each RK4 step is
    Simpson's rule and the whole solve is one backward cumulative sum.
    """
    eff = effective_coefficients(params)
    bspl = _hermite_beta(params, beta)
    a, abar, qbar, sigma = params.a, params.abar, params.qbar, params.sigma
    nodes = grid.nodes
    av = alpha.values
    # alpha's own ODE supplies Hermite derivatives for substage evaluation
    dav = (-a * av - (abar * beta.values - qbar(nodes)) * m(nodes)
           + eff.kappa(nodes) * beta.values * av)
    aspl = CubicHermiteSpline(nodes, av, dav)

    h = grid.dt
    t = _substage_times(nodes[1:], h)
    avt, mt = aspl(t), m(t)
    f = (-abar * avt * mt - 0.5 * sigma ** 2 * bspl(t)
         - 0.5 * qbar(t) * mt * mt + 0.5 * eff.kappa(t) * avt * avt)
    # k2 = k3 = f at the midpoint; summed in RK4's order to keep its rounding
    incr = h / 6 * (f[0] + 2 * f[1] + 2 * f[1] + f[2])
    mT = m(params.T)
    gammaT = 0.5 * params.qbarT * mT * mT
    # np.cumsum adds in sequence, as the stepwise y - incr would
    vals = np.cumsum(np.concatenate(([gammaT], -incr[::-1])))[::-1]
    return Trajectory(grid, vals)


def solve_eta(params: ModelParams, beta: Trajectory, grid: TimeGrid,
              cap: float = DEFAULT_BLOWUP_CAP) -> tuple[Trajectory, SolveStatus]:
    """Solve the refined equation for eta with alpha = eta * m.

    For the risk-neutral variant (kappa = lam = b^2/r) this is exactly the
    refined equation; the other variants use the same substitution carried
    through their state loop, validated against the fixed-point route.
    """
    eff = effective_coefficients(params)
    bspl = _hermite_beta(params, beta)
    a, abar, qbar = params.a, params.abar, params.qbar

    def coefs(t):
        bv = bspl(t)
        lam = eff.lam(t)
        return (-(abar * bv - qbar(t)),
                -(2 * a + abar - (eff.kappa(t) + lam) * bv),
                lam)

    vals, t_blow = _rk4_backward(coefs, -params.qbarT, grid, cap=cap)
    status = SolveStatus.ok() if t_blow is None else SolveStatus.blow_up(t_blow)
    return Trajectory(grid, vals), status


def closed_form_constant_riccati(a: float, kappa: float, Q: float,
                                 betaT: float, T: float, t: float) -> float:
    """Exact solution of beta' = kappa beta^2 - 2a beta - Q, beta(T) = betaT.

    Evaluates at time t <= T via the Moebius/hyperbolic closed form of the
    constant-coefficient equation.  Raises FiniteEscapeError when the
    solution has a pole inside (t, T].
    """
    if t > T:
        raise ValueError("t must be <= T")
    s = T - t  # backward time
    if kappa == 0.0:
        # linear equation: backward flow d beta/ds = 2a beta + Q
        if a == 0.0:
            return betaT + Q * s
        e = math.exp(2 * a * s)
        return e * betaT + Q * (e - 1.0) / (2 * a)

    # beta = u'/(kappa u) with u'' - 2a u' - kappa Q u = 0, u(0)=1, u'(0)=kappa betaT
    disc = a * a + kappa * Q
    c2_num = kappa * betaT - a
    if disc > 0:
        w = math.sqrt(disc)
        c2 = c2_num / w
        # u(s) = e^{as}(cosh ws + c2 sinh ws); zero iff tanh(ws) = -1/c2 with c2 < -1
        if c2 < -1.0:
            s0 = math.atanh(-1.0 / c2) / w
            if 0.0 < s0 <= s:
                raise FiniteEscapeError(T - s0)
        # du/u in tanh form, which stays finite for any w s
        th = math.tanh(w * s)
        den = 1.0 + c2 * th
        # den vanishes only for c2 = -1, where u = e^{(a-w)s} and du/u = a - w
        ratio = (th + c2) / den if den != 0.0 else -1.0
        return (a + w * ratio) / kappa
    if disc == 0:
        # u(s) = e^{as}(1 + c s)
        c = c2_num
        if c < 0:
            s0 = -1.0 / c
            if 0.0 < s0 <= s:
                raise FiniteEscapeError(T - s0)
        u = 1.0 + c * s
        du = a * u + c
        return du / (kappa * u)
    # disc < 0: trigonometric branch, poles are unavoidable for large horizons
    w = math.sqrt(-disc)
    c2 = c2_num / w
    s0 = math.atan2(-1.0, c2) / w
    while s0 <= 0.0:
        s0 += math.pi / w
    if s0 <= s:
        raise FiniteEscapeError(T - s0)
    cs, sn = math.cos(w * s), math.sin(w * s)
    u = cs + c2 * sn
    du = a * u + w * (-sn + c2 * cs)
    return du / (kappa * u)


def assemble_value(params: ModelParams, beta: Trajectory, alpha: Trajectory,
                   gamma: Trajectory) -> ValueCoefficients:
    """Value at t=0 and the feedback/disturbance laws."""
    grid = beta.grid
    nodes = grid.nodes
    rv = np.asarray(params.r(nodes), dtype=float)
    gain = Trajectory(grid, -params.b * beta.values / rv)
    offset = Trajectory(grid, -params.b * alpha.values / rv)
    value0 = (0.5 * beta.values[0] * params.x0 ** 2
              + alpha.values[0] * params.x0 + gamma.values[0])
    dist_gain = dist_offset = None
    if params.variant.uses_disturbance:
        sv = np.asarray(params.s(nodes), dtype=float)
        dist_gain = Trajectory(grid, params.c * beta.values / sv)
        dist_offset = Trajectory(grid, params.c * alpha.values / sv)
    exp_value = None
    if params.variant.uses_theta:
        exp_value = math.exp(params.theta * value0)
    return ValueCoefficients(
        value_at_0=float(value0),
        feedback_gain=gain,
        feedback_offset=offset,
        disturbance_gain=dist_gain,
        disturbance_offset=dist_offset,
        exp_value=exp_value,
    )
