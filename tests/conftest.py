import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lqmfg.model import Coefficient, ModelParams, TimeGrid, Variant
from lqmfg.riccati import solve_beta


def make_params(**overrides) -> ModelParams:
    """Benchmark instance; override any field."""
    fields = dict(
        a=-0.5, abar=0.3, b=1.0, sigma=0.2,
        q=Coefficient.constant(1.0), qbar=Coefficient.constant(0.5),
        r=Coefficient.constant(1.0), s=Coefficient.constant(1.0),
        qT=1.0, qbarT=0.5, T=1.0, x0=1.0, m0=1.0,
        c=0.0, theta=0.0, variant=Variant.RISK_NEUTRAL,
    )
    for key, val in overrides.items():
        if key in ("q", "qbar", "r", "s") and not isinstance(val, Coefficient):
            val = Coefficient.constant(val)
        fields[key] = val
    return ModelParams(**fields)


@pytest.fixture
def bench():
    return make_params()


@pytest.fixture
def grid():
    return TimeGrid(T=1.0, n_steps=1000)


def tabulated(*values) -> Coefficient:
    """A weight tabulated at equally spaced times on [0, 1]."""
    return Coefficient.tabulated(np.linspace(0.0, 1.0, len(values)), np.array(values))


def dop853_reference(f, yT: float, grid: TimeGrid, breaks=()) -> np.ndarray:
    """y' = f(t, y) backward from y(T) = yT by DOP853 (rtol 1e-13), at the
    grid nodes; integrated piecewise between the nodes and the breaks, so a
    kink of f at any of them costs no accuracy."""
    pts = np.union1d(grid.nodes, breaks)[::-1]
    y, out = yT, {pts[0]: yT}
    for hi, lo in zip(pts[:-1], pts[1:]):
        sol = solve_ivp(lambda t, v: [f(t, v[0])], [hi, lo], [y], method="DOP853",
                        rtol=1e-13, atol=1e-14)
        y = out[lo] = sol.y[0, -1]
    return np.array([out[t] for t in grid.nodes])


def beta_orders_on_kinked_weights(steps=(40, 80, 160, 320)) -> list[float]:
    """Observed orders of solve_beta, halving the step, against DOP853.

    Robust variant with tabulated q and r, so kappa and the source vary in
    time; their kinks sit on t = k/4, which are grid nodes for every n in
    steps, and the error is taken at those four-node times.
    """
    p = make_params(variant=Variant.ROBUST, c=0.5, a=0.8,
                    q=tabulated(1.0, 3.0, 0.5, 2.5, 1.0), r=tabulated(1.0, 0.4, 1.5))
    coarse = TimeGrid(T=1.0, n_steps=4)
    ref = dop853_reference(
        lambda t, y: p.kappa(t) * y * y - 2 * p.a * y - (p.q(t) + p.qbar(t)),
        p.qT + p.qbarT, coarse)
    errs = []
    for n in steps:
        beta, _ = solve_beta(p, TimeGrid(T=1.0, n_steps=n))
        errs.append(np.max(np.abs(beta.values[::n // 4] - ref)))
    return [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
