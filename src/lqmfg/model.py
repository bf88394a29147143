"""Game instance definition: variants, coefficients, grids, trajectories.

All types here are immutable after construction and safe to share across
threads; the operations are pure functions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Variant",
    "Coefficient",
    "TimeGrid",
    "Trajectory",
    "ModelParams",
    "EffectiveCoefficients",
    "ValidationResult",
    "validate",
    "effective_coefficients",
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
    def node_values(self) -> np.ndarray | None:
        return self._values

    def __call__(self, t):
        if self._const is not None:
            return self._const if np.isscalar(t) else np.full(np.shape(t), self._const)
        return np.interp(t, self._times, self._values)

    def on_grid(self, grid: "TimeGrid") -> np.ndarray:
        return np.asarray(self(grid.nodes), dtype=float)

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

    @classmethod
    def zeros(cls, grid: TimeGrid) -> "Trajectory":
        return cls.constant(grid, 0.0)

    def __call__(self, t):
        return np.interp(t, self.grid.nodes, self.values)

    def sup_norm(self, upto: float | None = None) -> float:
        """max |value| over grid nodes <= upto (all nodes by default)."""
        if upto is None:
            return float(np.max(np.abs(self.values)))
        mask = self.grid.nodes <= upto + 1e-15 * self.grid.T
        return float(np.max(np.abs(self.values[mask])))

    def write_csv(self, path, name: str = "value") -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"t,{name}\n")
            for t, v in zip(self.grid.nodes, self.values):
                fh.write(f"{fmt_float(t)},{fmt_float(v)}\n")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Trajectory(n={self.grid.n_steps}, T={self.grid.T})"


@dataclass(frozen=True)
class ModelParams:
    """All coefficients of one game instance.

    theta is ignored by the risk-neutral and robust variants; c and s are
    ignored by the risk-neutral and risk-sensitive variants.
    """
    a: float
    abar: float
    b: float
    sigma: float
    q: Coefficient
    qbar: Coefficient
    r: Coefficient
    qT: float
    qbarT: float
    T: float
    x0: float
    m0: float
    variant: Variant
    c: float = 0.0
    s: Coefficient = field(default_factory=lambda: Coefficient.constant(1.0))
    theta: float = 0.0


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = ()


def _check_sign(coef: Coefficient, name: str, T: float, strict: bool, out: list[str]):
    pts = coef.sample_points(T)
    vals = np.atleast_1d(np.asarray(coef(pts), dtype=float))
    for i, v in enumerate(vals):
        bad = (v <= 0) if strict else (v < 0)
        if bad:
            rel = "strictly positive" if strict else "nonnegative"
            where = "" if coef.is_constant else f" at node {i} (t={pts[i]:g})"
            out.append(f"{name} must be {rel}{where}; got {v:g}")
            if coef.is_constant:
                break


def validate(params: ModelParams) -> ValidationResult:
    """Check the sign and range constraints on a game instance."""
    bad: list[str] = []
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
    return ValidationResult(ok=not bad, violations=tuple(bad))


class EffectiveCoefficients:
    """The two derived coefficients that unify the four variants.

    kappa(t) is the quadratic coefficient of the backward Riccati equation;
    lam(t) is the coefficient in the state/mean loop.  Setting c^2/s equal
    to theta*sigma^2 makes the robust pair coincide with the risk-sensitive
    one, which is what justifies the shared form.
    """

    def __init__(self, params: ModelParams):
        self._p = params
        v = params.variant
        self._theta_term = params.theta * params.sigma ** 2 if v.uses_theta else 0.0
        self._robust = v.uses_disturbance

    def kappa(self, t):
        return self.lam(t) - self._theta_term

    def lam(self, t):
        p = self._p
        out = p.b ** 2 / p.r(t)
        if self._robust:
            out = out - p.c ** 2 / p.s(t)
        return out


def effective_coefficients(params: ModelParams) -> EffectiveCoefficients:
    return EffectiveCoefficients(params)
