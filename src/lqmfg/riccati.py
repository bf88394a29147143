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
midpoint and start, and the loop applies the resulting Moebius map to y.
The propagator is exact for constant coefficients.  A finite escape
("blow-up") is a pole of y, i.e. q reaching zero, located inside its step;
it is reported as a status, never as an overflow.  gamma is a quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelParams, TimeGrid, Trajectory

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
]

# t -> (c0, c1, c2) of y' = c2 y^2 + c1 y + c0, for an array of times
_CoefFn = Callable[[np.ndarray], tuple]
# t -> interpolated values, for a scalar or an array of times
_Interpolant = Callable[[np.ndarray], np.ndarray]
# (w, c1) of alpha' = c1 alpha + w m on the substage times
_AlphaTables = tuple[np.ndarray, np.ndarray]


class FiniteEscapeError(Exception):
    """Raised when a closed-form Riccati solution has a pole inside [t, T]."""

    def __init__(self, escape_time: float):
        self.escape_time = escape_time
        super().__init__(f"finite escape at t = {escape_time:g}")


@dataclass(frozen=True)
class SolveStatus:
    blow_up_time: float | None   # None when the solve reached t = 0

    @property
    def admissible(self) -> bool:
        return self.blow_up_time is None


@dataclass(frozen=True)
class RiccatiSolution:
    beta: Trajectory
    alpha: Trajectory
    gamma: Trajectory
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
    """Substage times t1, t1 - step/2, t1 - step of backward steps ending at t1."""
    return np.stack([t1, t1 - step / 2, t1 - step])


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


def _propagate(coefs: _CoefFn, yT: float, grid: TimeGrid) -> tuple[np.ndarray, float | None]:
    """Integrate y' = c2(t) y^2 + c1(t) y + c0(t) backward from y(T) = yT.

    With y = p/q, (p, q)' = A(t) (p, q) for A = [[c1, c0], [-c2, 0]], which
    is linear.  Each backward step from t1 to t1 - h is exp(Omega) with the
    fourth-order Magnus exponent
        Omega = -(h/6)(A(t1) + 4 A(t1 - h/2) + A(t1 - h))
                - (h^2/12) [A(t1), A(t1 - h)],
    built for every step at once; the loop then applies the Moebius map
    y <- (E00 y + E01) / (E10 y + E11) on floats.  A finite escape is q
    reaching 0, located on the step's own flow exp(tau Omega).  Returns
    (values, escape_time); values past an escape are zero and must not be
    consumed.
    """
    n, h = grid.n_steps, grid.dt
    t1 = grid.nodes[1:]
    c0, c1, c2 = (np.broadcast_to(c, (3, n)) for c in coefs(_substage_times(t1, h)))
    # Omega = [[tr/2 + nn, w12], [w21, tr/2 - nn]]; the trace only scales (p, q)
    nn = -h / 12 * (c1[0] + 4 * c1[1] + c1[2]) - h * h / 12 * (c2[0] * c0[2] - c0[0] * c2[2])
    w12 = -h / 6 * (c0[0] + 4 * c0[1] + c0[2]) - h * h / 12 * (c1[0] * c0[2] - c1[2] * c0[0])
    w21 = h / 6 * (c2[0] + 4 * c2[1] + c2[2]) - h * h / 12 * (c2[2] * c1[0] - c2[0] * c1[2])
    delta = nn * nn + w12 * w21
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
            return np.array(vals), escape(k, y)
        vals[k] = y = (a * y + b) / den
    return np.array(vals), (escape(stop, y) if stop >= 0 else None)


def _beta_coefficients(params: ModelParams) -> _CoefFn:
    a, q, qbar = params.a, params.q, params.qbar
    return lambda t: (-(q(t) + qbar(t)), -2 * a, params.kappa(t))


def _hermite(nodes: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> _Interpolant:
    """Piecewise cubic Hermite interpolant through values and slopes at nodes.

    The returned function takes a scalar or an array of times; times outside
    [nodes[0], nodes[-1]] are extrapolated by the end cubics.  Each cubic is
    kept in powers of u = t - t_i, with the coefficients of the Hermite basis
    expansion y_i h00 + dx y'_i h10 + y_{i+1} h01 + dx y'_{i+1} h11.
    """
    dx = np.diff(nodes)
    secant = np.diff(values) / dx
    bend = (slopes[:-1] + slopes[1:] - 2 * secant) / dx
    c3 = bend / dx
    c2 = (secant - slopes[:-1]) / dx - bend
    c1 = slopes[:-1]
    c0 = values[:-1]
    last = dx.size - 1

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, last)
        u = t - nodes[i]
        u2 = u * u
        return c0[i] + c1[i] * u + c2[i] * u2 + c3[i] * (u2 * u)

    return evaluate


def _hermite_beta(params: ModelParams, beta: Trajectory) -> _Interpolant:
    """Cubic Hermite interpolant of beta using its own ODE for derivatives.

    Substage evaluation through this interpolant keeps the dependent
    backward solves at fourth order.
    """
    nodes = beta.grid.nodes
    v = beta.values
    c0, c1, c2 = _beta_coefficients(params)(nodes)
    return _hermite(nodes, v, c2 * v * v + c1 * v + c0)


def solve_beta(params: ModelParams, grid: TimeGrid) -> tuple[Trajectory, SolveStatus]:
    """Solve the quadratic value-coefficient equation backward from T."""
    betaT = params.qT + params.qbarT
    vals, t_blow = _propagate(_beta_coefficients(params), betaT, grid)
    return Trajectory(grid, vals), SolveStatus(t_blow)


def _alpha_tables(params: ModelParams, beta: Trajectory, grid: TimeGrid) -> _AlphaTables:
    """The parts of alpha' = c1 alpha + w m that do not depend on m.

    (w, c1) on the substage times of the grid.  They depend on beta
    only, so a solve that applies Phi to many mean paths builds them once.
    """
    t = _substage_times(grid.nodes[1:], grid.dt)
    bv = _hermite_beta(params, beta)(t)
    return -(params.abar * bv - params.qbar(t)), -params.a + params.kappa(t) * bv


def solve_alpha(params: ModelParams, beta: Trajectory, m: Trajectory,
                grid: TimeGrid, *, tables: _AlphaTables | None = None) -> Trajectory:
    """Solve the linear value-coefficient equation for a given mean path.

    tables, when given, are _alpha_tables(params, beta, grid).
    """
    w, c1 = _alpha_tables(params, beta, grid) if tables is None else tables
    alphaT = -params.qbarT * m(params.T)
    # linear (c2 = 0): the propagator's map is affine and q never vanishes;
    # the coefficients are taken on the substage times the tables hold
    vals, _ = _propagate(lambda t: (w * m(t), c1, 0.0), alphaT, grid)
    return Trajectory(grid, vals)


def solve_gamma(params: ModelParams, beta: Trajectory, alpha: Trajectory,
                m: Trajectory, grid: TimeGrid) -> Trajectory:
    """Backward quadrature for the constant value term.

    The right-hand side does not depend on gamma, so each step is Simpson's
    rule on the substage times and the whole solve is one backward
    cumulative sum.
    """
    bspl = _hermite_beta(params, beta)
    a, abar, qbar, sigma = params.a, params.abar, params.qbar, params.sigma
    nodes = grid.nodes
    av = alpha.values
    # alpha's own ODE supplies Hermite derivatives for substage evaluation
    dav = (-a * av - (abar * beta.values - qbar(nodes)) * m(nodes)
           + params.kappa(nodes) * beta.values * av)
    aspl = _hermite(nodes, av, dav)

    h = grid.dt
    t = _substage_times(nodes[1:], h)
    avt, mt = aspl(t), m(t)
    f = (-abar * avt * mt - 0.5 * sigma ** 2 * bspl(t)
         - 0.5 * qbar(t) * mt * mt + 0.5 * params.kappa(t) * avt * avt)
    # the midpoint weight 4 summed as 2 + 2, in the order RK4 summed it
    incr = h / 6 * (f[0] + 2 * f[1] + 2 * f[1] + f[2])
    mT = m(params.T)
    gammaT = 0.5 * params.qbarT * mT * mT
    # np.cumsum adds in sequence, as the stepwise y - incr would
    vals = np.cumsum(np.concatenate(([gammaT], -incr[::-1])))[::-1]
    return Trajectory(grid, vals)


def solve_eta(params: ModelParams, beta: Trajectory,
              grid: TimeGrid) -> tuple[Trajectory, SolveStatus]:
    """Solve the refined equation for eta with alpha = eta * m.

    For the risk-neutral variant (kappa = lam = b^2/r) this is exactly the
    refined equation; the other variants use the same substitution carried
    through their state loop, validated against the fixed-point route.
    """
    bspl = _hermite_beta(params, beta)
    a, abar, qbar = params.a, params.abar, params.qbar

    def coefs(t):
        bv = bspl(t)
        lam = params.lam(t)
        return (-(abar * bv - qbar(t)),
                -(2 * a + abar - (params.kappa(t) + lam) * bv),
                lam)

    vals, t_blow = _propagate(coefs, -params.qbarT, grid)
    return Trajectory(grid, vals), SolveStatus(t_blow)


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
