"""Forward Monte Carlo for the controlled SDE and the identity checks.

Under a linear feedback policy the drift is affine in the state and the
running cost is quadratic in it, so every variant and policy reduces to
per-time coefficients: the Euler step x <- e_k x + f_k + sigma dW and the
trapezoid-weighted running cost (p_k x + q_k) x + r_k are tabulated once per
call.  One call advances a stack of policies on common random numbers: each
step's normals are drawn once and shared by every policy.  Paths are
partitioned into blocks of BLOCK_SIZE; each block owns its own
deterministically derived random stream (seeded by [master_seed, block
index]) and blocks are reduced in index order, so results are bit-for-bit
reproducible for a given seed.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import Equilibrium
from .model import ModelParams, Trajectory
from .riccati import ValueCoefficients

__all__ = [
    "SimConfig",
    "Policy",
    "PathEnsemble",
    "MCEstimate",
    "SaddleReport",
    "simulate_paths",
    "per_path_cost",
    "estimate_risk_neutral_cost",
    "estimate_exponential_cost",
    "estimate_girsanov_normalization",
    "saddle_check",
]

BLOCK_SIZE = 16384  # paths per random stream; block b draws from default_rng([seed, b])


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt_sim: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 < self.dt_sim < math.inf:
            raise ValueError("dt_sim must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic sampling needs an even n_paths")

    def n_sim_steps(self, T: float) -> int:
        n = round(T / self.dt_sim)
        if n < 1 or abs(n * self.dt_sim - T) > 1e-12 * max(T, 1.0):
            raise ValueError(f"dt_sim = {self.dt_sim:g} does not divide T = {T:g}")
        return n

    def record_stride(self, T: float, n_ode: int) -> int:
        """Simulation steps per step of an n_ode-step grid on [0, T]."""
        n_sim = self.n_sim_steps(T)
        if n_sim % n_ode:
            raise ValueError(f"simulation steps ({n_sim}) must be a multiple of "
                             f"the ODE grid steps ({n_ode})")
        return n_sim // n_ode


@dataclass(frozen=True)
class Policy:
    """Feedback policy u = gain*x + offset + delta_u, likewise for v.

    Without base coefficients the gains and offsets are zero.  A policy that
    carries beta/alpha gets the exponential-martingale (Girsanov) sums,
    formed with the same Brownian increments as the state; only the
    estimators of theta read them.
    """
    base: ValueCoefficients | None = None
    delta_u: float = 0.0
    delta_v: float = 0.0
    beta: Trajectory | None = None
    alpha: Trajectory | None = None

    @property
    def girsanov(self) -> bool:
        return self.beta is not None and self.alpha is not None

    @classmethod
    def equilibrium(cls, eq: Equilibrium, delta_u: float = 0.0,
                    delta_v: float = 0.0, girsanov: bool = True) -> "Policy":
        if not girsanov:
            return cls(eq.value, delta_u, delta_v)
        return cls(eq.value, delta_u, delta_v, eq.riccati.beta, eq.riccati.alpha)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_paths: int
    heavy_tail: bool = False


@dataclass
class PathEnsemble:
    """Summary of a simulated ensemble.

    Per-node sums of x and x^2 support the mean-consistency check; the
    per-path arrays hold the running cost
    (1/2) int q x^2 + qbar (x-m)^2 + r u^2 [- s v^2] dt (trapezoid rule),
    terminal states and (when the policy carries beta/alpha) the
    stochastic-exponential accumulators int sigma(beta x+alpha) dB and
    int sigma^2 (beta x+alpha)^2 dt.
    """
    n_paths: int
    antithetic: bool
    m_values: np.ndarray          # mean path at the nodes where x is recorded
    sum_x: np.ndarray
    sum_x2: np.ndarray
    run_cost: np.ndarray
    x_final: np.ndarray
    int_g_dB: np.ndarray | None = None
    int_g2_dt: np.ndarray | None = None

    def mean_x(self) -> np.ndarray:
        return self.sum_x / self.n_paths

    def se_x(self) -> np.ndarray:
        n = self.n_paths
        var = (self.sum_x2 - self.sum_x ** 2 / n) / max(n - 1, 1)
        return np.sqrt(np.maximum(var, 0.0) / n)



@dataclass(frozen=True)
class SaddleReport:
    gap_u: MCEstimate            # pathwise cost(u+du, v) - cost(u, v)
    gap_v: MCEstimate            # pathwise cost(u, v) - cost(u, v+dv)
    analytic_gap_u: float
    analytic_gap_v: float
    base: PathEnsemble = field(compare=False, repr=False)   # the (u, v) ensemble


def _normals(rng, n: int, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return rng.standard_normal(n)
    half = rng.standard_normal(n // 2)
    out = np.empty(n)
    out[0::2] = half
    out[1::2] = -half
    return out


def _columns(rows) -> np.ndarray:
    """Stack per-policy tables (P, n) into per-step columns (n, P, 1)."""
    return np.ascontiguousarray(np.stack(rows).T[:, :, None])


def simulate_paths(params: ModelParams, policies: Sequence[Policy], m: Trajectory,
                   config: SimConfig) -> list[PathEnsemble]:
    """Euler-Maruyama forward integration of policies on common random numbers.

    All policies are advanced together as a (P, block) stack: the normals of
    each step are drawn once per block and broadcast to every policy, so each
    ensemble equals the one a single-policy call would give, bit for bit.
    Girsanov sums are formed only for the policies that carry beta/alpha.
    States are recorded (as sums) at the nodes of m's grid, which the
    simulation grid must refine exactly.  Returns one ensemble per policy,
    in order.
    """
    T = params.T
    n_ode = m.grid.n_steps
    stride = config.record_stride(T, n_ode)
    n_sim = stride * n_ode
    dt = T / n_sim
    t_sim = np.linspace(0.0, T, n_sim + 1)

    def tab(fn) -> np.ndarray:
        return np.asarray(fn(t_sim), dtype=float)

    # model tables on the simulation grid; outside the robust variants
    # c = s = 0 switch the disturbance channel off
    robust = params.variant.uses_disturbance
    c = params.c if robust else 0.0
    s = tab(params.s) if robust else 0.0
    m_k = tab(m)
    q, qbar, r = tab(params.q), tab(params.qbar), tab(params.r)
    # trapezoid weights times 1/2
    w = np.full(n_sim + 1, 0.5 * dt)
    w[0] = w[-1] = 0.25 * dt

    def tables(policy: Policy):
        """(e, f, cost_p, cost_q, cost_r) of one policy: the step is
        x <- e x + f + sigma dW, and the running cost at node k is
        w (q x^2 + qbar (x-m)^2 + r u^2 - s v^2) = (cost_p x + cost_q) x + r_k,
        whose x-free r_k are summed once into cost_r."""
        gu = ou = gv = ov = np.zeros(n_sim + 1)
        base = policy.base
        if base is not None:
            gu, ou = tab(base.feedback_gain), tab(base.feedback_offset)
            if base.disturbance_gain is not None:
                gv, ov = tab(base.disturbance_gain), tab(base.disturbance_offset)
        ou = ou + policy.delta_u          # u = gu x + ou
        ov = ov + policy.delta_v          # v = gv x + ov
        return (1.0 + (params.a + params.b * gu + c * gv) * dt,
                (params.abar * m_k + params.b * ou + c * ov) * dt,
                w * (q + qbar + r * gu * gu - s * gv * gv),
                2.0 * w * (r * gu * ou - s * gv * ov - qbar * m_k),
                float(np.sum(w * (qbar * m_k * m_k + r * ou * ou - s * ov * ov))))

    # policies with Girsanov sums lead the stack, so they are one slice of it
    order = sorted(range(len(policies)), key=lambda i: not policies[i].girsanov)
    stack = [policies[i] for i in order]
    n_pol = len(stack)
    n_gir = sum(pol.girsanov for pol in stack)
    e, f, cost_p, cost_q, cost_r = zip(*map(tables, stack))
    e, f, cost_p, cost_q = map(_columns, (e, f, cost_p, cost_q))
    cost_r = np.array(cost_r)[:, None]
    if n_gir:
        # g = sigma (beta x + alpha) = gb x + ga
        gb = _columns([params.sigma * tab(pol.beta) for pol in stack[:n_gir]])
        ga = _columns([params.sigma * tab(pol.alpha) for pol in stack[:n_gir]])

    n = config.n_paths
    sum_x = np.zeros((n_pol, n_ode + 1))
    sum_x2 = np.zeros((n_pol, n_ode + 1))
    run_cost = np.empty((n_pol, n))
    x_final = np.empty((n_pol, n))
    int_g_dB = np.zeros((n_gir, n))     # in units of sqrt(dt)
    int_g2_dt = np.zeros((n_gir, n))    # in units of dt
    sig_sqdt = params.sigma * math.sqrt(dt)

    for bi, lo in enumerate(range(0, n, BLOCK_SIZE)):
        hi = min(lo + BLOCK_SIZE, n)
        rng = np.random.default_rng([config.seed, bi])
        x, cost = x_final[:, lo:hi], run_cost[:, lo:hi]
        x[...] = params.x0
        cost[...] = cost_r
        tmp = np.empty(x.shape)
        xg, tmpg, g = x[:n_gir], tmp[:n_gir], np.empty((n_gir, hi - lo))
        gdB, g2dt = int_g_dB[:, lo:hi], int_g2_dt[:, lo:hi]
        for k in range(n_sim + 1):
            np.multiply(x, cost_p[k], out=tmp)
            tmp += cost_q[k]
            tmp *= x
            cost += tmp
            if k % stride == 0:
                j = k // stride
                sum_x[:, j] += x.sum(axis=1)
                np.multiply(x, x, out=tmp)
                sum_x2[:, j] += tmp.sum(axis=1)
            if k == n_sim:
                break
            z = _normals(rng, hi - lo, config.antithetic)
            if n_gir:
                # Ito (left-point) accumulation with the state's increments
                np.multiply(xg, gb[k], out=g)
                g += ga[k]
                np.multiply(g, g, out=tmpg)
                g2dt += tmpg
                g *= z
                gdB += g
            x *= e[k]
            x += f[k]
            z *= sig_sqdt
            x += z

    int_g_dB *= math.sqrt(dt)
    int_g2_dt *= dt

    def ensemble(row: int) -> PathEnsemble:
        gir = row < n_gir
        return PathEnsemble(
            n_paths=n,
            antithetic=config.antithetic,
            m_values=m.values.copy(),
            sum_x=sum_x[row],
            sum_x2=sum_x2[row],
            run_cost=run_cost[row],
            x_final=x_final[row],
            int_g_dB=int_g_dB[row] if gir else None,
            int_g2_dt=int_g2_dt[row] if gir else None,
        )

    # back to the callers' order: policy i sits in the row r with order[r] = i
    return [ensemble(row) for row in sorted(range(n_pol), key=order.__getitem__)]


def _mc_estimate(values: np.ndarray, antithetic: bool,
                 heavy_tail: bool = False) -> MCEstimate:
    n = values.size
    if antithetic:
        pair_means = values.reshape(-1, 2).mean(axis=1)
        mean = float(pair_means.mean())
        se = float(pair_means.std(ddof=1) / math.sqrt(pair_means.size)) if pair_means.size > 1 else 0.0
    else:
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, n_paths=n, heavy_tail=heavy_tail)


def per_path_cost(ensemble: PathEnsemble, params: ModelParams) -> np.ndarray:
    """Per-path quadratic cost; robust variants include the -s v^2/2 term."""
    mT = ensemble.m_values[-1]
    xT = ensemble.x_final
    terminal = 0.5 * (params.qT * xT * xT + params.qbarT * (xT - mT) ** 2)
    return ensemble.run_cost + terminal


def estimate_risk_neutral_cost(ensemble: PathEnsemble, params: ModelParams) -> MCEstimate:
    return _mc_estimate(per_path_cost(ensemble, params), ensemble.antithetic)


HEAVY_TAIL_KURTOSIS = 100.0


def estimate_exponential_cost(ensemble: PathEnsemble, params: ModelParams) -> MCEstimate:
    """Sample mean of e^{theta L}; flags heavy-tailed samples, never truncates."""
    expL = np.exp(params.theta * per_path_cost(ensemble, params))
    heavy = bool(_excess_kurtosis(expL) > HEAVY_TAIL_KURTOSIS)
    return _mc_estimate(expL, ensemble.antithetic, heavy_tail=heavy)


def estimate_girsanov_normalization(ensemble: PathEnsemble,
                                    params: ModelParams) -> MCEstimate:
    """Sample mean of the stochastic exponential; the target is 1."""
    if ensemble.int_g_dB is None:
        raise ValueError("ensemble was simulated without beta/alpha accumulators")
    th = params.theta
    logE = th * ensemble.int_g_dB - 0.5 * th * th * ensemble.int_g2_dt
    return _mc_estimate(np.exp(logE), ensemble.antithetic)


def _excess_kurtosis(x: np.ndarray) -> float:
    """Fisher excess kurtosis m4 / m2^2 - 3 from the biased central moments.

    NaN when the sample is constant to within the rounding of its mean.
    """
    mean = x.mean()
    d2 = (x - mean) ** 2
    m2 = d2.mean()
    if not m2 > (np.finfo(float).eps * mean) ** 2:
        return math.nan
    return float((d2 ** 2).mean() / m2 ** 2 - 3.0)


def _trapz_weight_integral(coef, T: float, n: int = 4096) -> float:
    t = np.linspace(0.0, T, n + 1)
    y = np.asarray(coef(t), dtype=float)
    return float(np.sum(np.diff(t) * (y[1:] + y[:-1]) / 2.0))


def saddle_check(params: ModelParams, equilibrium: Equilibrium,
                 perturbation_scale: float, config: SimConfig) -> SaddleReport:
    """Estimate the saddle gaps under common random numbers.

    Simulates (u, v), (u+du, v), (u, v+dv) in one pass on the same draws,
    so pathwise differences isolate the completed-square gaps
    int (r/2) du^2 dt and int (s/2) dv^2 dt.  The report holds the
    estimates and the analytic gaps; the verdict on them is the caller's.
    The (u, v) ensemble is returned in the report; it carries the Girsanov
    sums when the variant uses theta.
    """
    if not params.variant.uses_disturbance:
        raise ValueError("saddle_check applies to the robust variants")
    base, up, vp = simulate_paths(params, [
        Policy.equilibrium(equilibrium, girsanov=params.variant.uses_theta),
        Policy.equilibrium(equilibrium, delta_u=perturbation_scale, girsanov=False),
        Policy.equilibrium(equilibrium, delta_v=perturbation_scale, girsanov=False),
    ], equilibrium.m, config)

    L_base = per_path_cost(base, params)
    d2 = perturbation_scale ** 2
    return SaddleReport(
        gap_u=_mc_estimate(per_path_cost(up, params) - L_base, config.antithetic),
        gap_v=_mc_estimate(L_base - per_path_cost(vp, params), config.antithetic),
        analytic_gap_u=0.5 * d2 * _trapz_weight_integral(params.r, params.T),
        analytic_gap_v=0.5 * d2 * _trapz_weight_integral(params.s, params.T),
        base=base,
    )
