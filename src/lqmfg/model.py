"""Game instance definition: variants, coefficients, grids, trajectories.

All types here are immutable after construction; the operations are pure
functions.
"""
from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union, get_type_hints

import numpy as np

__all__ = [
    "Variant",
    "Coefficient",
    "TimeGrid",
    "Trajectory",
    "ModelParams",
    "PARAM_TYPES",
    "MAX_COUNT",
    "max_steps",
    "validate",
    "fmt_float",
]


# the most paths, and the most steps or sweep rows on any host (max_steps):
# numpy refuses an array of 2**63 bytes or more before allocating it; this
# leaves room for tables of eight float64 rows of such a count
MAX_COUNT = np.iinfo(np.intp).max // 64


def max_steps() -> int:
    """The most grid or simulation steps or sweep rows a run may take, at
    1 KiB each in the host's physical memory, and never more than MAX_COUNT.
    A solve's peak grows by 770-960 bytes per grid step (its curves, tables
    and CSV text; risk-neutral to robust risk-sensitive) and a simulation's
    by less, so a count past this limit cannot fit: it is refused before
    any array is allocated."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):   # no sysconf, or no such name
        return MAX_COUNT
    return min(MAX_COUNT, memory // 1024)


def fmt_float(x: float) -> str:
    """Full-precision decimal rendering (17 significant digits)."""
    return format(float(x), ".17g")


class Variant(enum.Enum):
    RISK_NEUTRAL = "risk_neutral"
    RISK_SENSITIVE = "risk_sensitive"
    ROBUST = "robust"
    ROBUST_RISK_SENSITIVE = "robust_risk_sensitive"

    @property
    def uses_theta(self) -> bool:
        return self in (Variant.RISK_SENSITIVE, Variant.ROBUST_RISK_SENSITIVE)

    @property
    def uses_disturbance(self) -> bool:
        return self in (Variant.ROBUST, Variant.ROBUST_RISK_SENSITIVE)

    @classmethod
    def parse(cls, text: str) -> "Variant":
        key = text.strip().lower().replace("-", "_")
        for v in cls:
            if v.value == key:
                return v
        raise ValueError(f"unknown variant {text!r}; expected one of "
                         + ", ".join(v.value for v in cls))


class Coefficient:
    """A scalar coefficient of time on [0, T]: values at strictly increasing
    times, linear in between and constant beyond the ends.  One value, at
    t = 0 by default, is a constant."""

    def __init__(self, values: Union[float, np.ndarray],
                 times: Union[tuple, np.ndarray] = (0.0,)):
        self.values = np.array(values, dtype=float, ndmin=1)
        self.times = np.array(times, dtype=float, ndmin=1)
        if self.times.ndim != 1 or self.times.shape != self.values.shape or not self.times.size:
            raise ValueError("a coefficient needs matching 1-d times/values, >= 1 node")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("coefficient times must be strictly increasing")
        self.values.flags.writeable = self.times.flags.writeable = False

    @property
    def is_constant(self) -> bool:
        return self.times.size == 1

    def __call__(self, t):
        return np.interp(t, self.times, self.values)

    def scaled(self, factor: float) -> "Coefficient":
        """This coefficient times factor, at the same times; a product past
        the floats is inf or NaN, which validate refuses."""
        with np.errstate(over="ignore", invalid="ignore"):
            return Coefficient(factor * self.values, self.times)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return f"Coefficient({self.values.tolist()!r}, {self.times.tolist()!r})"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/n_steps, k = 0..n_steps; its time arrays are
    computed once, on first use, and are read-only."""
    T: float
    n_steps: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if not 2 <= self.n_steps <= max_steps():
            raise ValueError(f"n_steps must be >= 2 and <= {max_steps()}, "
                             "1 KiB per step in physical memory")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(0.0, self.T, self.n_steps + 1)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def substages(self) -> np.ndarray:
        """(3, n_steps): the end t1, midpoint t1 - dt/2 and start t1 - dt of
        each backward step, at which it samples its coefficients."""
        t1 = self.nodes[1:]
        times = np.stack([t1, t1 - self.dt / 2, t1 - self.dt])
        times.flags.writeable = False
        return times


class Trajectory:
    """A real function tabulated on a TimeGrid, linearly interpolated."""

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_steps + 1,):
            raise ValueError(f"values must have length {grid.n_steps + 1}")
        self.grid = grid
        self.values = values

    def __call__(self, t):
        return np.interp(t, self.grid.nodes, self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Trajectory(n={self.grid.n_steps}, T={self.grid.T})"


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """All coefficients of one game instance.

    The fields are also the [model] section of a config file, one key each
    and in this order; a field without a default is a required key.
    theta is ignored by the risk-neutral and robust variants; c and s are
    ignored by the risk-neutral and risk-sensitive variants.

    kappa(t) and lam(t) are the two derived coefficients that unify the four
    variants: kappa is the quadratic coefficient of the backward Riccati
    equation, lam the coefficient in the state/mean loop.  Setting c^2/s
    equal to theta*sigma^2 makes the robust pair coincide with the
    risk-sensitive one, which is what justifies the shared form.
    """
    variant: Variant
    a: float
    abar: float
    b: float
    c: float = 0.0
    sigma: float
    q: Coefficient
    qbar: Coefficient
    r: Coefficient
    s: Coefficient = field(default_factory=lambda: Coefficient(1.0))
    qT: float
    qbarT: float
    theta: float = 0.0
    T: float
    x0: float
    m0: float

    @property
    def theta_term(self) -> float:
        """theta sigma^2 in the theta variants, else 0: lam(t) - kappa(t)."""
        return self.theta * (self.sigma * self.sigma) if self.variant.uses_theta else 0.0

    def kappa(self, t):
        """b^2/r [- c^2/s] [- theta sigma^2] at t."""
        return self.lam(t) - self.theta_term

    def lam(self, t):
        """b^2/r [- c^2/s] at t."""
        out = self.b * self.b / self.r(t)
        if self.variant.uses_disturbance:
            out = out - self.c * self.c / self.s(t)
        return out


# the declared type of each ModelParams field, in field order
PARAM_TYPES: dict[str, type] = get_type_hints(ModelParams)


def _nodes(coef: Coefficient) -> list[tuple[str, float]]:
    """coef's values where its constraints are checked, each with the
    " at node i (t=...)" that places it; a constant is one value, unplaced."""
    t = coef.times
    return [("" if coef.is_constant else f" at node {i} (t={ti:g})", v)
            for i, (ti, v) in enumerate(zip(t.tolist(), coef(t).tolist()))]


def validate(params: ModelParams) -> tuple[str, ...]:
    """The violations of the sign and range constraints on a game instance;
    empty when it is valid."""
    bad: list[str] = []
    for name, kind in PARAM_TYPES.items():
        value = getattr(params, name)
        if kind is float and not math.isfinite(value):
            bad.append(f"{name} must be finite; got {value:g}")
        elif name in ("b", "c", "sigma", "x0") and not math.isfinite(value * value):
            # the solvers square these
            bad.append(f"{name} must have a finite square; got {value:g}")
    if params.T <= 0:
        bad.append(f"T must be positive; got {params.T:g}")
    if params.sigma < 0:
        bad.append(f"sigma must be nonnegative; got {params.sigma:g}")
    if params.theta < 0:
        bad.append(f"theta must be nonnegative; got {params.theta:g}")
    if params.b == 0:
        bad.append("b must be nonzero (b = 0 degenerates the control problem)")
    if params.qT < 0:
        bad.append(f"qT must be nonnegative; got {params.qT:g}")
    if params.qbarT < 0:
        bad.append(f"qbarT must be nonnegative; got {params.qbarT:g}")
    for name, strict in (("q", False), ("qbar", False), ("r", True), ("s", True)):
        for where, v in _nodes(getattr(params, name)):
            if not math.isfinite(v):
                bad.append(f"{name} must be finite{where}; got {v:g}")
            elif (v <= 0) if strict else (v < 0):
                rel = "strictly positive" if strict else "nonnegative"
                bad.append(f"{name} must be {rel}{where}; got {v:g}")
    # x^2 / w, a term of lam, must be finite at w's nodes, which bound it in
    # between; checked where x^2 is finite and w positive
    ratios = [("b^2/r", params.b, params.r)]
    if params.variant.uses_disturbance:
        ratios.append(("c^2/s", params.c, params.s))
    for name, x, w in ratios:
        for where, v in _nodes(w):
            if math.isfinite(x * x) and v > 0 and math.isinf(x * x / v):
                bad.append(f"{name} must be finite{where}; got inf")
    return tuple(bad)

