"""Closed-form reference for the constant-coefficient Riccati equation.

The tests compare the propagator's values and escape times against it.
"""
import math


class FiniteEscapeError(Exception):
    """Raised when a closed-form Riccati solution has a pole inside [t, T]."""

    def __init__(self, escape_time: float):
        self.escape_time = escape_time
        super().__init__(f"finite escape at t = {escape_time:g}")


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
