"""Forward Monte Carlo for the controlled SDE and the identity checks.

Paths are partitioned into fixed-size blocks; each block owns its own
deterministically derived random stream (seeded by [master_seed, block
index]) and blocks are reduced in index order, so results are bit-for-bit
reproducible regardless of how blocks are scheduled.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import trapezoid
from scipy.stats import kurtosis

from .equilibrium import Equilibrium
from .model import ModelParams, Trajectory, fmt_float
from .riccati import ValueCoefficients

__all__ = [
    "SimConfig",
    "PolicyKind",
    "Policy",
    "PathEnsemble",
    "MCEstimate",
    "SaddleReport",
    "InsufficientResolutionError",
    "simulate_paths",
    "per_path_cost",
    "estimate_risk_neutral_cost",
    "estimate_exponential_cost",
    "estimate_girsanov_normalization",
    "saddle_check",
]

PATH_DUMP_GUARD = 10 ** 6  # max n_paths * n_nodes kept in memory / dumped


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt_sim: float
    seed: int
    antithetic: bool = False
    block_size: int = 16384
    keep_paths: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.dt_sim <= 0:
            raise ValueError("dt_sim must be positive")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic sampling needs an even n_paths")

    def n_sim_steps(self, T: float) -> int:
        n = round(T / self.dt_sim)
        if n < 1 or abs(n * self.dt_sim - T) > 1e-12 * max(T, 1.0):
            raise ValueError(f"dt_sim = {self.dt_sim:g} does not divide T = {T:g}")
        return n


class PolicyKind(enum.Enum):
    EQUILIBRIUM = "equilibrium"
    PERTURBED_CONTROL = "perturbed_control"
    PERTURBED_DISTURBANCE = "perturbed_disturbance"
    ZERO = "zero"


@dataclass(frozen=True)
class Policy:
    """Feedback policy u = gain*x + offset (+ delta_u), likewise for v.

    beta/alpha are carried along so the exponential-martingale
    accumulators can be formed with the same Brownian increments as the
    state.
    """
    kind: PolicyKind
    base: ValueCoefficients | None = None
    delta_u: float = 0.0
    delta_v: float = 0.0
    beta: Trajectory | None = None
    alpha: Trajectory | None = None

    @classmethod
    def equilibrium(cls, eq: Equilibrium) -> "Policy":
        return cls(PolicyKind.EQUILIBRIUM, base=eq.value,
                   beta=eq.riccati.beta, alpha=eq.riccati.alpha)

    @classmethod
    def perturbed_control(cls, eq: Equilibrium, delta_u: float) -> "Policy":
        return cls(PolicyKind.PERTURBED_CONTROL, base=eq.value, delta_u=delta_u,
                   beta=eq.riccati.beta, alpha=eq.riccati.alpha)

    @classmethod
    def perturbed_disturbance(cls, eq: Equilibrium, delta_v: float) -> "Policy":
        return cls(PolicyKind.PERTURBED_DISTURBANCE, base=eq.value, delta_v=delta_v,
                   beta=eq.riccati.beta, alpha=eq.riccati.alpha)

    @classmethod
    def zero(cls) -> "Policy":
        return cls(PolicyKind.ZERO)


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
    per-path arrays hold the trapezoid-accumulated running-cost pieces,
    terminal states and (when the policy carries beta/alpha) the
    stochastic-exponential accumulators int sigma(beta x+alpha) dB and
    int sigma^2 (beta x+alpha)^2 dt.
    """
    record_times: np.ndarray
    n_paths: int
    seed: int
    antithetic: bool
    m_values: np.ndarray          # mean path at the record times
    sum_x: np.ndarray
    sum_x2: np.ndarray
    run_qx2: np.ndarray
    run_qbar_dev: np.ndarray
    run_ru2: np.ndarray
    run_sv2: np.ndarray
    x_final: np.ndarray
    int_g_dB: np.ndarray | None = None
    int_g2_dt: np.ndarray | None = None
    states: np.ndarray | None = None

    def mean_x(self) -> np.ndarray:
        return self.sum_x / self.n_paths

    def se_x(self) -> np.ndarray:
        n = self.n_paths
        var = (self.sum_x2 - self.sum_x ** 2 / n) / max(n - 1, 1)
        return np.sqrt(np.maximum(var, 0.0) / n)

    def write_summary_csv(self, path) -> None:
        mean = self.mean_x()
        se = self.se_x()
        with open(path, "w", newline="") as fh:
            fh.write("t,mean_x,std_error_x,m\n")
            for t, mu, s, mv in zip(self.record_times, mean, se, self.m_values):
                fh.write(f"{fmt_float(t)},{fmt_float(mu)},{fmt_float(s)},{fmt_float(mv)}\n")


class InsufficientResolutionError(Exception):
    """Saddle gaps are within Monte Carlo noise at the configured n_paths."""

    def __init__(self, report: "SaddleReport"):
        self.report = report
        super().__init__("saddle gaps are not resolvable at the configured "
                         "perturbation scale / path count")


@dataclass(frozen=True)
class SaddleReport:
    cost_base: MCEstimate
    cost_control_pert: MCEstimate
    cost_disturbance_pert: MCEstimate
    gap_u: MCEstimate            # pathwise cost(u+du, v) - cost(u, v)
    gap_v: MCEstimate            # pathwise cost(u, v) - cost(u, v+dv)
    analytic_gap_u: float
    analytic_gap_v: float
    ordering_ok: bool
    gaps_match_analytic: bool


def _block_sizes(n_paths: int, block_size: int) -> list[int]:
    sizes = [block_size] * (n_paths // block_size)
    if n_paths % block_size:
        sizes.append(n_paths % block_size)
    return sizes


def _normals(rng, n: int, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return rng.standard_normal(n)
    half = rng.standard_normal(n // 2)
    out = np.empty(n)
    out[0::2] = half
    out[1::2] = -half
    return out


def simulate_paths(params: ModelParams, policy: Policy, m: Trajectory,
                   config: SimConfig) -> PathEnsemble:
    """Euler-Maruyama forward integration under a linear feedback policy.

    States are recorded (as sums) at the nodes of m's grid, which the
    simulation grid must refine exactly.
    """
    T = params.T
    n_sim = config.n_sim_steps(T)
    n_ode = m.grid.n_steps
    if n_sim % n_ode:
        raise ValueError(f"simulation steps ({n_sim}) must be a multiple of "
                         f"the ODE grid steps ({n_ode})")
    stride = n_sim // n_ode
    dt = T / n_sim
    t_sim = np.linspace(0.0, T, n_sim + 1)

    # per-node policy / coefficient tables on the simulation grid
    m_arr = m(t_sim)
    q_arr = np.asarray(params.q(t_sim), dtype=float)
    qbar_arr = np.asarray(params.qbar(t_sim), dtype=float)
    r_arr = np.asarray(params.r(t_sim), dtype=float)
    s_arr = np.asarray(params.s(t_sim), dtype=float)

    zero = np.zeros(n_sim + 1)
    if policy.kind is PolicyKind.ZERO or policy.base is None:
        gu, ou = zero, zero
        gv, ov = zero, zero
    else:
        gu = np.asarray(policy.base.feedback_gain(t_sim), dtype=float)
        ou = np.asarray(policy.base.feedback_offset(t_sim), dtype=float)
        if params.variant.uses_disturbance and policy.base.disturbance_gain is not None:
            gv = np.asarray(policy.base.disturbance_gain(t_sim), dtype=float)
            ov = np.asarray(policy.base.disturbance_offset(t_sim), dtype=float)
        else:
            gv, ov = zero, zero
    du, dv = policy.delta_u, policy.delta_v

    with_girsanov = policy.beta is not None and policy.alpha is not None
    if with_girsanov:
        beta_arr = np.asarray(policy.beta(t_sim), dtype=float)
        alpha_arr = np.asarray(policy.alpha(t_sim), dtype=float)

    # trapezoid weights for the running-cost quadrature
    w = np.full(n_sim + 1, dt)
    w[0] = w[-1] = dt / 2

    robust = params.variant.uses_disturbance
    keep = config.keep_paths and config.n_paths * (n_ode + 1) <= PATH_DUMP_GUARD

    n_rec = n_ode + 1
    sum_x = np.zeros(n_rec)
    sum_x2 = np.zeros(n_rec)
    per_path: dict[str, list[np.ndarray]] = {k: [] for k in
        ("qx2", "qbar", "ru2", "sv2", "xT", "gdB", "g2dt")}
    states_blocks: list[np.ndarray] = []

    sqdt = math.sqrt(dt)
    a, abar, b, c, sig = params.a, params.abar, params.b, params.c, params.sigma

    for bi, bn in enumerate(_block_sizes(config.n_paths, config.block_size)):
        rng = np.random.default_rng([config.seed, bi])
        x = np.full(bn, params.x0)
        acc = {k: np.zeros(bn) for k in ("qx2", "qbar", "ru2", "sv2", "gdB", "g2dt")}
        if keep:
            st = np.empty((bn, n_rec))
        for k in range(n_sim + 1):
            u = gu[k] * x + ou[k] + du
            if robust:
                v = gv[k] * x + ov[k] + dv
            wk = w[k]
            acc["qx2"] += wk * q_arr[k] * x * x
            dev = x - m_arr[k]
            acc["qbar"] += wk * qbar_arr[k] * dev * dev
            acc["ru2"] += wk * r_arr[k] * u * u
            if robust:
                acc["sv2"] += wk * s_arr[k] * v * v
            if k % stride == 0:
                j = k // stride
                sum_x[j] += x.sum()
                sum_x2[j] += (x * x).sum()
                if keep:
                    st[:, j] = x
            if k == n_sim:
                break
            dW = sqdt * _normals(rng, bn, config.antithetic)
            if with_girsanov:
                # Ito (left-point) accumulation with the state's increments
                g = sig * (beta_arr[k] * x + alpha_arr[k])
                acc["gdB"] += g * dW
                acc["g2dt"] += g * g * dt
            drift = a * x + abar * m_arr[k] + b * u
            if robust:
                drift = drift + c * v
            x = x + drift * dt + sig * dW
        per_path["qx2"].append(acc["qx2"])
        per_path["qbar"].append(acc["qbar"])
        per_path["ru2"].append(acc["ru2"])
        per_path["sv2"].append(acc["sv2"])
        per_path["xT"].append(x.copy())
        per_path["gdB"].append(acc["gdB"])
        per_path["g2dt"].append(acc["g2dt"])
        if keep:
            states_blocks.append(st)

    cat = {k: np.concatenate(vs) for k, vs in per_path.items()}
    return PathEnsemble(
        record_times=m.grid.nodes,
        n_paths=config.n_paths,
        seed=config.seed,
        antithetic=config.antithetic,
        m_values=m.values.copy(),
        sum_x=sum_x,
        sum_x2=sum_x2,
        run_qx2=cat["qx2"],
        run_qbar_dev=cat["qbar"],
        run_ru2=cat["ru2"],
        run_sv2=cat["sv2"],
        x_final=cat["xT"],
        int_g_dB=cat["gdB"] if with_girsanov else None,
        int_g2_dt=cat["g2dt"] if with_girsanov else None,
        states=np.concatenate(states_blocks) if states_blocks else None,
    )


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
    run = 0.5 * (ensemble.run_qx2 + ensemble.run_qbar_dev + ensemble.run_ru2)
    if params.variant.uses_disturbance:
        run = run - 0.5 * ensemble.run_sv2
    return run + terminal


def estimate_risk_neutral_cost(ensemble: PathEnsemble, params: ModelParams) -> MCEstimate:
    return _mc_estimate(per_path_cost(ensemble, params), ensemble.antithetic)


HEAVY_TAIL_KURTOSIS = 100.0


def estimate_exponential_cost(ensemble: PathEnsemble, params: ModelParams) -> MCEstimate:
    """Sample mean of e^{theta L}; flags heavy-tailed samples, never truncates."""
    expL = np.exp(params.theta * per_path_cost(ensemble, params))
    heavy = False
    if expL.size > 3 and np.ptp(expL) > 0.0:
        heavy = bool(kurtosis(expL, fisher=True) > HEAVY_TAIL_KURTOSIS)
    return _mc_estimate(expL, ensemble.antithetic, heavy_tail=heavy)


def estimate_girsanov_normalization(ensemble: PathEnsemble,
                                    params: ModelParams) -> MCEstimate:
    """Sample mean of the stochastic exponential; the target is 1."""
    if ensemble.int_g_dB is None:
        raise ValueError("ensemble was simulated without beta/alpha accumulators")
    th = params.theta
    logE = th * ensemble.int_g_dB - 0.5 * th * th * ensemble.int_g2_dt
    return _mc_estimate(np.exp(logE), ensemble.antithetic)


def _trapz_weight_integral(coef, T: float, n: int = 4096) -> float:
    t = np.linspace(0.0, T, n + 1)
    return float(trapezoid(np.asarray(coef(t), dtype=float), t))


def saddle_check(params: ModelParams, equilibrium: Equilibrium,
                 perturbation_scale: float, config: SimConfig) -> SaddleReport:
    """Verify the saddle ordering under common random numbers.

    Estimates the cost for (u, v), (u+du, v), (u, v+dv) with the same
    seed, so pathwise differences isolate the completed-square gaps
    int (r/2) du^2 dt and int (s/2) dv^2 dt.
    """
    if not params.variant.uses_disturbance:
        raise ValueError("saddle_check applies to the robust variants")
    m = equilibrium.m
    base = simulate_paths(params, Policy.equilibrium(equilibrium), m, config)
    up = simulate_paths(params, Policy.perturbed_control(equilibrium, perturbation_scale),
                        m, config)
    vp = simulate_paths(params, Policy.perturbed_disturbance(equilibrium, perturbation_scale),
                        m, config)

    L_base = per_path_cost(base, params)
    L_up = per_path_cost(up, params)
    L_vp = per_path_cost(vp, params)

    gap_u = _mc_estimate(L_up - L_base, config.antithetic)
    gap_v = _mc_estimate(L_base - L_vp, config.antithetic)
    d2 = perturbation_scale ** 2
    analytic_u = 0.5 * d2 * _trapz_weight_integral(params.r, params.T)
    analytic_v = 0.5 * d2 * _trapz_weight_integral(params.s, params.T)

    ordering_ok = (gap_u.mean > 3 * gap_u.std_error and gap_v.mean > 3 * gap_v.std_error)
    match = (abs(gap_u.mean - analytic_u) <= 3 * gap_u.std_error
             and abs(gap_v.mean - analytic_v) <= 3 * gap_v.std_error)
    report = SaddleReport(
        cost_base=_mc_estimate(L_base, config.antithetic),
        cost_control_pert=_mc_estimate(L_up, config.antithetic),
        cost_disturbance_pert=_mc_estimate(L_vp, config.antithetic),
        gap_u=gap_u,
        gap_v=gap_v,
        analytic_gap_u=analytic_u,
        analytic_gap_v=analytic_v,
        ordering_ok=ordering_ok,
        gaps_match_analytic=match,
    )
    if perturbation_scale != 0.0 and (analytic_u <= 3 * gap_u.std_error
                                      or analytic_v <= 3 * gap_v.std_error):
        raise InsufficientResolutionError(report)
    return report
