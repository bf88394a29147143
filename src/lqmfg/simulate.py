"""Forward Monte Carlo for the controlled SDE and the identity checks.

Under a linear feedback policy the drift is affine in the state and the
running cost is quadratic in it, so every variant and policy reduces to
per-time coefficients.  The Euler step x <- e_k x + f_k + sigma sqrt(dt) z_k
splits into the policy's sigma = 0 path d, d <- e_k d + f_k from x0, and a
deviation x - d = sigma sqrt(dt) xi with xi <- e_k xi + z_k from 0.  Only xi
is stepped.  One call steps one policy, an equilibrium's feedback laws or
the zero policy, and its constant shifts of the controls: they share the
gains, so they share e_k and xi, and differ only in d.  So every cost, the
running cost and the terminal one at the last node, is a quadratic in xi,
summed on the same draws (simulate_paths).  The Girsanov sums are formed
exactly where theta reads them: for an equilibrium of a theta variant.

The paths are cut into ceil(n_paths / BLOCK_SIZE) blocks whose sizes differ
by at most 1 (path_blocks), a layout that depends on n_paths alone.  Block b
draws from its own stream default_rng([seed, b]) and writes only its own
columns of the outputs, which live in one shared anonymous map.  So the
blocks run in min(CPUs, blocks) processes: the caller and children made by
os.fork, which share no interpreter lock; their per-node sums are added in
block order afterwards.  Block code calls no BLAS routine, as numpy's BLAS
threads do not exist in a forked child.  Where os.fork does not exist, the
caller steps every block.  A child sends back nothing but its exit status:
the caller steps again the blocks of a child that could not be forked or
did not exit 0, so a failure is raised from the caller's own frames with
its type and message.  A block steps in chunks of up to CHUNK steps.  It
draws a chunk's normals in one call, by Box-Muller from its stream's
uniforms (_fill_normals), and forms each per-path sum of those steps, the
cost, a shift's term and the Girsanov sums, as one product-sum over the
chunk's rows (np.einsum, at its default optimize=False numpy's own loop, no
BLAS).  The xi recursion stays per step, and the draws are read-only after
it.  A step's draws depend on the block's width alone, so results are bit
for bit the same for a given seed and n_paths on any number of cores; CHUNK
moves only the rounding of the per-path sums.
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import Equilibrium, _cumulative_trapezoid
from .model import MAX_COUNT, Coefficient, ModelParams, Trajectory, max_steps

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "MCEstimate",
    "simulate_paths",
    "path_blocks",
    "estimate_quadratic_value",
    "estimate_log_girsanov_normalization",
]

BLOCK_SIZE = 16384  # most paths per random stream; block b draws from default_rng([seed, b])
CHUNK = 5           # most nodes per chunk: a block's buffers hold 3 CHUNK + 1 rows of paths


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt_sim: float
    seed: int

    def __post_init__(self):
        if not 1 <= self.n_paths <= MAX_COUNT:
            raise ValueError(f"n_paths must be >= 1 and <= {MAX_COUNT}")
        if not 0 < self.dt_sim < math.inf:
            raise ValueError("dt_sim must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def n_sim_steps(self, T: float) -> int:
        steps = T / self.dt_sim
        if not steps <= max_steps():    # inf included
            raise ValueError(f"dt_sim = {self.dt_sim:g} makes more than {max_steps()} "
                             f"steps on T = {T:g}, 1 KiB per step in physical memory")
        n = round(steps)
        if n < 1 or abs(n * self.dt_sim - T) > 1e-12 * max(T, 1.0):
            raise ValueError(f"dt_sim = {self.dt_sim:g} does not divide T = {T:g}")
        return n


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    ess: float | None = None      # effective sample size of a certainty equivalent's weights


@dataclass
class PathEnsemble:
    """What verify reads of a simulated ensemble.

    Per path: the whole cost L = (1/2) int q x^2 + qbar (x-m)^2 + r u^2
    [- s v^2] dt (trapezoid rule) + (1/2) (qT x_T^2 + qbarT (x_T - m_T)^2),
    the terminal state and (for an equilibrium of a theta variant) the
    stochastic-exponential accumulators int sigma(beta x+alpha) dB and
    int sigma^2 (beta x+alpha)^2 dt.  Per node of m's grid: the sample mean
    and its standard error of the state of a population started at m0 on
    the same draws, for the mean-consistency check.
    """
    cost: np.ndarray
    x_final: np.ndarray
    mean_x: np.ndarray
    se_x: np.ndarray
    int_g_dB: np.ndarray | None = None
    int_g2_dt: np.ndarray | None = None


def path_blocks(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) path ranges of the random streams for n paths.

    nb = ceil(n / BLOCK_SIZE) blocks, cut at b n // nb: sizes differ by at
    most 1 and never exceed BLOCK_SIZE.  The layout depends on n alone, so
    the ensemble does not depend on how many workers step it; n <= BLOCK_SIZE
    is one block.
    """
    nb = -(-n // BLOCK_SIZE)
    cuts = [b * n // nb for b in range(nb + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _fill_normals(rng: np.random.Generator, out: np.ndarray, scratch: np.ndarray) -> None:
    """Standard normals into the rows of out by Box-Muller, from rng's uniforms.

    A row of w normals takes the next 2 ceil(w/2) uniforms u of rng, held in
    the flat scratch (not out): the first ceil(w/2) give the radii
    R = sqrt(-2 log(1 - u)), 1 - u being exact for rng's multiples of 2^-53,
    the others the angles 2 pi (u - 1/2) through t = tan(pi (u - 1/2)),
    cos = 2 / (1 + t^2) - 1 and sin = 2 t / (1 + t^2), as np.tan is several
    times cheaper than np.sin and np.cos.  The row's first ceil(w/2) normals
    are R cos, the others R sin.  So the draws depend on w and the stream
    alone, not on how many rows one call fills.
    """
    rows, w = out.shape
    h = -(-w // 2)
    u = scratch[:rows * 2 * h].reshape(rows, 2, h)
    rng.random(out=u)
    radius, t = u[:, 0], u[:, 1]
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    t -= 0.5
    t *= math.pi
    np.tan(t, out=t)
    r_cos, r_sin = out[:, :h], out[:, h:]
    np.multiply(t, t, out=r_cos)
    r_cos += 1.0
    np.divide(radius, r_cos, out=r_cos)
    r_cos += r_cos                      # 2 R / (1 + t^2)
    np.multiply(r_cos[:, :w - h], t[:, :w - h], out=r_sin)
    r_cos -= radius


def simulate_paths(params: ModelParams, eq: Equilibrium | None, m: Trajectory,
                   config: SimConfig,
                   shifts: Sequence[tuple[float, float]] = ()) -> list[PathEnsemble]:
    """Euler-Maruyama forward integration of eq's policy, and of its shifts.

    The policy is eq's feedback laws u = -(b/r) y, v = (c/s) y in
    y = beta x + alpha, the paper's square completion; eq None is the zero
    policy.  A shift (du, dv) adds constants to its u and v.  The policies
    share the gains, so they share the step factor e_k = 1 + (a - lam beta) dt
    and the deviation xi: policy j's paths
    are x = d_j + cs xi about its own sigma = 0 path d_j, cs = sigma
    sqrt(dt), and a shift is no second simulation.  Its cost is the
    policy's plus a constant plus sum_k (Q_j - Q_0)_k xi_k, summed per path
    on the same draws (common random numbers, exactly).  Girsanov sums are
    formed for eq's policy when the variant uses theta, never for the zero
    policy or a shift.  The mean of the state of a population started at m0
    and its se are formed at the nodes of m's grid, which the simulation
    grid must refine exactly.  Returns the policy's ensemble, then one per
    shift, in order.

    ValueError when dt_sim does not divide T into at most max_steps() steps
    that refine m's grid, or makes some e_k <= 0, naming the bound that
    dt_sim must stay below.  The blocks run on min(CPUs, blocks) workers,
    the caller and forked children.  A failure in the caller's own blocks
    kills and reaps the children and is raised.  Otherwise the caller steps
    again, in block order, every block of a child that could not be forked
    or did not exit 0, so the lowest such block that fails again is raised,
    and a child that died changes no bit.  MemoryError when the shared map
    of the outputs cannot be made.
    """
    T = params.T
    n_ode = m.grid.n_steps
    n_sim = config.n_sim_steps(T)
    if n_sim % n_ode:
        raise ValueError(f"simulation steps ({n_sim}) must be a multiple of "
                         f"the ODE grid steps ({n_ode})")
    stride = n_sim // n_ode
    dt = T / n_sim
    t_sim = np.linspace(0.0, T, n_sim + 1)

    def tab(fn) -> np.ndarray:
        return np.asarray(fn(t_sim), dtype=float)

    # the equilibrium as y = beta x + alpha on the simulation grid, beta =
    # alpha = 0 for the zero policy: its feedback laws u = -(b/r) y and
    # v = (c/s) y push the drift by -lam y at the control cost
    # r u^2 - s v^2 = lam y^2.  Outside the robust variants c = s = 0 switch
    # the disturbance channel off
    robust = params.variant.uses_disturbance
    c = params.c if robust else 0.0
    s = tab(params.s) if robust else 0.0
    m_k, lam = tab(m), tab(params.lam)
    q, qbar, r = tab(params.q), tab(params.qbar), tab(params.r)
    beta = alpha = np.zeros(n_sim + 1)
    if eq is not None:
        beta, alpha = tab(eq.beta), tab(eq.alpha)
    # trapezoid weights times 1/2
    w = np.full(n_sim + 1, 0.5 * dt)
    w[0] = w[-1] = 0.25 * dt
    rate = params.a - lam * beta
    e = 1.0 + rate * dt
    if np.any(e <= 0.0):
        raise ValueError(f"dt_sim = {config.dt_sim:g} makes the Euler step factor 1 + (a - lam"
                         f" beta) dt_sim <= 0; dt_sim must be below {1.0 / np.max(-rate):.17g}")
    e = e.tolist()
    cs = params.sigma * math.sqrt(dt)

    def policy(push: float, penalty) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(d, dm, Q, const) of the policy shifted by (du, dv), whose push is
        b du + c dv and penalty r du^2 - s dv^2: its sigma = 0 path
        d <- e_k d + f_k from x0, dm the same from m0, and its cost at node k,
        wq x^2 + wqbar (x-m)^2 + w (lam y^2 - 2 push y + penalty)
        = (cost_p x + cost_q) x + ..., restated in x = d + cs xi as
        (P xi + Q) xi + ..., P = cs^2 cost_p and Q = cs (2 cost_p d + cost_q),
        whose xi-free terms sum to const."""
        f = (params.abar * m_k - lam * alpha + push) * dt
        d, dm = [params.x0], [params.m0]
        for e_k, f_k in zip(e[:-1], f.tolist()):
            d.append(e_k * d[-1] + f_k)
            dm.append(e_k * dm[-1] + f_k)
        d = np.array(d)
        cost_q = 2.0 * (w * beta * (lam * alpha - push) - wqbar * m_k)
        const = np.sum((cost_p * d + cost_q) * d + wqbar * m_k * m_k
                       + w * (alpha * (lam * alpha - 2.0 * push) + penalty))
        return d, np.array(dm[::stride]), cs * (2.0 * cost_p * d + cost_q), float(const)

    # a cost past the floats is inf or NaN, as are its estimates: verify fails them
    with np.errstate(over="ignore", invalid="ignore"):
        # the terminal cost (1/2) (qT x^2 + qbarT (x-m)^2) is node N's
        wq, wqbar = w * q, w * qbar
        wq[-1] += 0.5 * params.qT
        wqbar[-1] += 0.5 * params.qbarT
        cost_p = wq + wqbar + w * lam * beta * beta
        d0, dm0, Q0, const0 = policy(0.0, 0.0)
        moved = [policy(params.b * du + c * dv, r * du * du - s * dv * dv)
                 for du, dv in shifts]
    dQs = [Q - Q0 for _, _, Q, _ in moved]
    P, Q0 = (cs * cs * cost_p)[:, None], Q0[:, None]
    girsanov = eq is not None and params.variant.uses_theta
    if girsanov:
        # sqrt(dt) g = cs (beta x + alpha) = gb xi + ga, so g dB = (gb xi + ga) z
        gb = (cs * cs * beta)[:, None]
        ga = (cs * (beta * d0 + alpha))[:, None]

    import mmap
    import signal

    # every output a worker writes lives in one shared anonymous map, so a
    # forked worker's writes reach the caller: per path cost, xi_N,
    # [int_g_dB, int_g2_dt,] one sum_k (Q_j - Q_0)_k xi_k per shift, then
    # each block's per-node sums of xi and xi^2
    n = config.n_paths
    nb = -(-n // BLOCK_SIZE)
    n_rows = 2 + 2 * girsanov + len(shifts)
    size = 8 * (n_rows * n + nb * 2 * (n_ode + 1))
    try:
        shared = np.frombuffer(mmap.mmap(-1, size))
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"n_paths = {n} needs a shared map of {size} bytes: {exc}") from None
    per_path = shared[:n_rows * n].reshape(n_rows, n)
    cost, xi_final, *rows = per_path
    int_g_dB, int_g2_dt = rows[:2] if girsanov else (None, None)
    shift_cost = rows[2 * girsanov:]
    node_sums = shared[n_rows * n:].reshape(nb, 2, n_ode + 1)
    blocks = path_blocks(n)

    def block(b: int) -> None:
        """Step block b, paths lo:hi, on stream b in chunks of at most CHUNK nodes.

        X holds the chunk's xi, Z its normals, and S is the scratch of their
        uniforms (one more per row for an odd width), then of the factors
        P xi + Q0 and sqrt(dt) g of the product-sums.  Writes the block's
        columns of the outputs, each sum from its start, so a block stepped
        again after a failed worker gives the same bits, and its per-node
        sums of xi and xi^2.  Calls no BLAS routine: it may run in a forked
        child, where numpy's BLAS threads do not exist.
        """
        rng = np.random.default_rng([config.seed, b])
        lo, hi = blocks[b]
        wd = hi - lo
        X, Z = np.empty((CHUNK + 1, wd)), np.empty((CHUNK, wd))
        scratch = np.empty(CHUNK * (wd + wd % 2))
        S = scratch[:CHUNK * wd].reshape(CHUNK, wd)
        L, sums = cost[lo:hi], node_sums[b]
        if girsanov:
            gdB, g2dt = int_g_dB[lo:hi], int_g2_dt[lo:hi]
        X[0] = 0.0
        L[...] = const0
        per_path[2:, lo:hi] = 0.0       # the Girsanov and shift sums
        for k0 in range(0, n_sim + 1, CHUNK):
            kc = min(CHUNK, n_sim + 1 - k0)     # nodes k0 .. k0 + kc - 1
            ns = min(kc, n_sim - k0)            # the steps taken from them
            nodes = slice(k0, k0 + kc)
            if ns:
                steps = slice(k0, k0 + ns)
                _fill_normals(rng, Z[:ns], scratch)
                for i in range(ns):
                    xi = np.multiply(X[i], e[k0 + i], out=X[i + 1])
                    xi += Z[i]
                if girsanov:
                    # Ito (left-point) accumulation with the state's increments
                    g = np.multiply(X[:ns], gb[steps], out=S[:ns])
                    g += ga[steps]
                    gdB += np.einsum("kp,kp->p", g, Z[:ns])
                    g2dt += np.einsum("kp,kp->p", g, g)
            term = np.multiply(X[:kc], P[nodes], out=S[:kc])
            term += Q0[nodes]
            L += np.einsum("kp,kp->p", term, X[:kc])
            for acc, dQ in zip(shift_cost, dQs):
                acc[lo:hi] += np.einsum("kp,k->p", X[:kc], dQ[nodes])
            first = -k0 % stride                # the chunk's recorded nodes
            if first < kc:
                rec = X[first:kc:stride]
                j = slice((k0 + first) // stride, (k0 + first) // stride + len(rec))
                rec.sum(axis=1, out=sums[0, j])
                np.multiply(rec, rec, out=S[:len(rec)]).sum(axis=1, out=sums[1, j])
            if ns < kc:
                xi_final[lo:hi] = X[ns]
            else:
                X[0] = X[kc]

    workers = min(_cpu_count(), nb) if hasattr(os, "fork") else 1

    def run(i: int) -> None:
        """Worker i steps blocks i, i + workers, ..."""
        for b in range(i, nb, workers):
            block(b)

    # worker 0 is the caller; workers 1 .. workers - 1 are forked children
    children, failed = [], []
    try:
        for i in range(1, workers):
            try:
                pid = os.fork()
            except OSError:             # EAGAIN, ENOMEM
                failed.append(i)
                continue
            if pid == 0:                # the child: never returns into the caller's frames
                code = 1
                try:
                    run(i)
                    code = 0
                finally:
                    os._exit(code)     # no atexit handler, no stdio flush
            children.append((i, pid))
        run(0)
    except BaseException:
        for _, pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for i, pid in children:
            if os.waitpid(pid, 0)[1]:
                failed.append(i)
    # each block is a function of (seed, b) alone: the caller steps again,
    # in block order, those of the workers that failed or were not forked
    for b in sorted(b for i in failed for b in range(i, nb, workers)):
        block(b)
    # per-node sums in block order from zero: the same bits for any worker count
    sum_xi, sum_xi2 = sum(node_sums, np.zeros((2, n_ode + 1)))

    # x = d + cs xi: the spread of x is cs times that of xi for every policy
    se_x = cs * np.sqrt(np.maximum(sum_xi2 - sum_xi ** 2 / n, 0.0) / max(n - 1, 1) / n)

    def ensemble(d, dm, cost: np.ndarray, int_g_dB=None, int_g2_dt=None) -> PathEnsemble:
        """The ensemble of the policy whose sigma = 0 paths are d and dm."""
        return PathEnsemble(cost=cost, x_final=xi_final * cs + d[-1],
                            mean_x=dm + cs * sum_xi / n, se_x=se_x,
                            int_g_dB=int_g_dB, int_g2_dt=int_g2_dt)

    for acc, (_, _, _, const) in zip(shift_cost, moved):
        acc += const - const0
        acc += cost
    return [ensemble(d0, dm0, cost, int_g_dB, int_g2_dt),
            *(ensemble(d, dm, acc) for (d, dm, _, _), acc in zip(moved, shift_cost))]


def _mc_estimate(values: np.ndarray) -> MCEstimate:
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):  # a spread past the floats fails its line
        se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return MCEstimate(mean=float(values.mean()), std_error=se)


def estimate_quadratic_value(ensemble: PathEnsemble, params: ModelParams) -> MCEstimate:
    """Paired mean of L + (theta/2) int g^2 dt, g = sigma (beta x + alpha).

    Square completion gives E[L] = value_at_0 - (theta/2) E int g^2 dt at the
    equilibrium, so this estimates value_at_0 in every variant; without
    theta it is the mean of L.
    """
    cost = ensemble.cost
    if params.variant.uses_theta:
        if ensemble.int_g2_dt is None:
            raise ValueError("ensemble was simulated without beta/alpha accumulators")
        cost = cost + 0.5 * params.theta * ensemble.int_g2_dt
    return _mc_estimate(cost)


def estimate_log_girsanov_normalization(ensemble: PathEnsemble,
                                        params: ModelParams) -> MCEstimate:
    """log mean w, w = e^{theta int g dB - theta^2/2 int g^2 dt}; the target is 0."""
    if ensemble.int_g_dB is None:
        raise ValueError("ensemble was simulated without beta/alpha accumulators")
    th = params.theta
    log_w = th * ensemble.int_g_dB - 0.5 * th * th * ensemble.int_g2_dt
    return _certainty_equivalent_gap(log_w, None, 1.0)


def _trapz_weight_integral(coef: Coefficient, T: float) -> float:
    """The integral over [0, T] of a weight, linear between its own nodes and
    constant beyond them: the trapezoid rule on those nodes, 0 and T is exact."""
    t = np.unique(np.clip(np.concatenate(([0.0, T], coef.times)), 0.0, T))
    return float(_cumulative_trapezoid(coef(t), t)[-1])


def _log_mean_exp(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """log mean e^x, the per-path d = e^x / mean e^x - 1 and the effective sample
    size n / (1 + mean d^2) = (sum e^x)^2 / sum e^{2x}.  From x - max x, so no
    e^x overflows, and by expm1 and log1p, so a small spread of x keeps its digits."""
    shift = float(x.max())
    em1 = np.expm1(x - shift)
    m1 = float(em1.mean())
    d = (em1 - m1) / (1.0 + m1)
    # a ufunc square and numpy's own sum: d @ d would add in an order set by
    # the BLAS kernel of the CPU and by its thread count
    return math.log1p(m1) + shift, d, x.size / (1.0 + float(np.square(d).mean()))


def _certainty_equivalent_gap(L_hi: np.ndarray, L_lo: np.ndarray | None,
                              theta: float) -> MCEstimate:
    """(1/theta) (log mean e^{theta L_hi} - log mean e^{theta L_lo}), paired;
    without L_lo, the certainty equivalent (1/theta) log mean e^{theta L_hi}.

    The se is the delta method's: that of the per-path
    (e^{theta L_hi} / A_hi - e^{theta L_lo} / A_lo) / theta, A being the
    sample means.  The ess is that of the weights e^{theta L}, the smaller
    one for a gap.  theta = 0 gives the mean of L_hi - L_lo: all weights are 1.
    """
    # a theta L past the floats leaves the estimate, its se and its ess NaN: verify fails them
    with np.errstate(over="ignore", invalid="ignore"):
        if theta == 0.0:
            diff = L_hi if L_lo is None else L_hi - L_lo
            return replace(_mc_estimate(diff), ess=float(diff.size))
        log_a, influence, ess = _log_mean_exp(theta * L_hi)
        if L_lo is not None:
            log_a_lo, influence_lo, ess_lo = _log_mean_exp(theta * L_lo)
            log_a, influence, ess = log_a - log_a_lo, influence - influence_lo, min(ess, ess_lo)
        return replace(_mc_estimate(influence / theta), mean=log_a / theta, ess=ess)
