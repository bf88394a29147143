"""Game instance definition: variants, coefficients, grids, trajectories.

All types here are immutable after construction and safe to share across
threads; the operations are pure functions.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union, get_type_hints

import numpy as np

__all__ = [
    "Variant",
    "Coefficient",
    "TimeGrid",
    "Trajectory",
    "ModelParams",
    "PARAM_TYPES",
    "validate",
    "fmt_float",
]


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
    """A scalar coefficient of time on [0, T].

    Either a constant, or values tabulated at given times with linear
    interpolation in between (constant extrapolation at the ends, which
    never triggers for evaluation inside [0, T]).
    """

    def __init__(self, value: Union[float, np.ndarray], times: np.ndarray | None = None):
        if times is None:
            self._const: float | None = float(value)
            self._times = None
            self._values = None
        else:
            times = np.asarray(times, dtype=float)
            values = np.asarray(value, dtype=float)
            if times.ndim != 1 or times.shape != values.shape or times.size < 2:
                raise ValueError("tabulated coefficient needs matching 1-d times/values, >= 2 nodes")
            if np.any(np.diff(times) <= 0):
                raise ValueError("tabulation times must be strictly increasing")
            self._const = None
            self._times = times
            self._values = values

    @classmethod
    def constant(cls, value: float) -> "Coefficient":
        return cls(value)

    @classmethod
    def tabulated(cls, times: np.ndarray, values: np.ndarray) -> "Coefficient":
        return cls(values, times=times)

    @property
    def is_constant(self) -> bool:
        return self._const is not None

    @property
    def node_values(self) -> np.ndarray:
        """The values that define it: one for a constant, else one per
        tabulation time."""
        return np.array([self._const]) if self._const is not None else self._values

    def __call__(self, t):
        if self._const is not None:
            return self._const if np.isscalar(t) else np.full(np.shape(t), self._const)
        return np.interp(t, self._times, self._values)

    def scaled(self, factor: float) -> "Coefficient":
        """This coefficient times factor, on the same tabulation times."""
        if self._const is not None:
            return Coefficient.constant(factor * self._const)
        return Coefficient.tabulated(self._times, factor * self._values)

    def sample_points(self, T: float) -> np.ndarray:
        """Times at which sign constraints are checked."""
        if self._const is not None:
            return np.array([0.0, T])
        return self._times

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self.is_constant != other.is_constant:
            return False
        if self.is_constant:
            return self._const == other._const
        return (np.array_equal(self._times, other._times)
                and np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        if self.is_constant:
            return f"Coefficient.constant({self._const!r})"
        return f"Coefficient.tabulated(<{self._times.size} nodes>)"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/n_steps, k = 0..n_steps."""
    T: float
    n_steps: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


class Trajectory:
    """A real function tabulated on a TimeGrid, linearly interpolated."""

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_steps + 1,):
            raise ValueError(f"values must have length {grid.n_steps + 1}")
        self.grid = grid
        self.values = values

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "Trajectory":
        return cls(grid, np.full(grid.n_steps + 1, float(value)))

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
    s: Coefficient = field(default_factory=lambda: Coefficient.constant(1.0))
    qT: float
    qbarT: float
    theta: float = 0.0
    T: float
    x0: float
    m0: float

    def kappa(self, t):
        """b^2/r [- c^2/s] [- theta sigma^2] at t."""
        theta_term = self.theta * self.sigma ** 2 if self.variant.uses_theta else 0.0
        return self.lam(t) - theta_term

    def lam(self, t):
        """b^2/r [- c^2/s] at t."""
        out = self.b ** 2 / self.r(t)
        if self.variant.uses_disturbance:
            out = out - self.c ** 2 / self.s(t)
        return out


# the declared type of each ModelParams field, in field order
PARAM_TYPES: dict[str, type] = get_type_hints(ModelParams)


def _check_sign(coef: Coefficient, name: str, T: float, strict: bool, out: list[str]):
    pts = coef.sample_points(T)
    vals = np.atleast_1d(np.asarray(coef(pts), dtype=float))
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            rel = "finite"
        elif (v <= 0) if strict else (v < 0):
            rel = "strictly positive" if strict else "nonnegative"
        else:
            continue
        where = "" if coef.is_constant else f" at node {i} (t={pts[i]:g})"
        out.append(f"{name} must be {rel}{where}; got {v:g}")
        if coef.is_constant:
            break


def validate(params: ModelParams) -> tuple[str, ...]:
    """The violations of the sign and range constraints on a game instance;
    empty when it is valid."""
    bad: list[str] = []
    for name, kind in PARAM_TYPES.items():
        value = getattr(params, name)
        if kind is float and not math.isfinite(value):
            bad.append(f"{name} must be finite; got {value:g}")
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
    T = params.T if params.T > 0 else 1.0
    _check_sign(params.q, "q", T, strict=False, out=bad)
    _check_sign(params.qbar, "qbar", T, strict=False, out=bad)
    _check_sign(params.r, "r", T, strict=True, out=bad)
    _check_sign(params.s, "s", T, strict=True, out=bad)
    return tuple(bad)

