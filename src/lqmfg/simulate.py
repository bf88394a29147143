"""Forward Monte Carlo for the controlled SDE and the identity checks.

Under a linear feedback policy the drift is affine in the state and the
running cost is quadratic in it, so every variant and policy reduces to
per-time coefficients: the Euler step x <- e_k x + f_k + sigma dW and the
trapezoid-weighted running cost (p_k x + q_k) x + r_k are tabulated once per
call.  One call steps one policy: an equilibrium's feedback laws, or the
zero policy.  Constant shifts of its offsets move every path by one
deterministic curve, so their costs are linear functionals of the same
paths, summed on the same draws (simulate_paths).  The Girsanov sums are
formed exactly where theta reads them: for an equilibrium of a theta
variant, never for a shift.

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
uniforms (_fill_normals), adds the drift to them, and forms the cost,
Girsanov and functional terms of those steps in a few whole-chunk calls;
the state recursion stays per step, and every per-path sum adds a chunk's
terms in step order by one reduction (_add_rows).  A step's draws depend on
the block's width alone, so results are bit for bit the same for a given
seed and n_paths on any number of cores, and for any CHUNK.
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import Equilibrium, _cumulative_trapezoid
from .model import MAX_COUNT, Coefficient, ModelParams, Trajectory

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "MCEstimate",
    "simulate_paths",
    "path_blocks",
    "per_path_cost",
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
        if not steps <= MAX_COUNT:      # inf included
            raise ValueError(f"dt_sim = {self.dt_sim:g} makes more than {MAX_COUNT} "
                             f"steps on T = {T:g}")
        n = round(steps)
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
class MCEstimate:
    mean: float
    std_error: float
    ess: float | None = None      # effective sample size of a certainty equivalent's weights


@dataclass
class PathEnsemble:
    """Summary of a simulated ensemble.

    Per-node sums of x and x^2 support the mean-consistency check; the
    per-path arrays hold the running cost
    (1/2) int q x^2 + qbar (x-m)^2 + r u^2 [- s v^2] dt (trapezoid rule),
    terminal states and (for an equilibrium of a theta variant) the
    stochastic-exponential accumulators int sigma(beta x+alpha) dB and
    int sigma^2 (beta x+alpha)^2 dt.
    """
    n_paths: int
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


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> None:
    """acc += rows[0]; acc += rows[1]; ...: a per-path sum kept in row order,
    in two numpy calls; rows[0] is overwritten.

    numpy reduces axis 0 of two or more C-ordered columns row after row,
    from +0, so acc + rows[0] reduced with the other rows has the bits of
    the loop (a sum the loop leaves at -0 comes out +0).  A single column it
    sums pairwise, so that one is added row by row.
    """
    if rows.shape[1] == 1:
        for row in rows:
            acc += row
        return
    rows[0] += acc
    np.add.reduce(rows, axis=0, out=acc)


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

    The policy is eq's feedback laws u = gu x + ou, v = gv x + ov; eq None
    is the zero policy.  A shift (du, dv) adds constant offsets to its u and
    v.  Under the linear dynamics it moves every Euler path by the same
    deterministic curve D, D_0 = 0 and D_{k+1} = e_k D_k + (b du + c dv) dt,
    so it is no second simulation: its running cost is the policy's plus
    sum_k alpha_k x_k plus a constant, alpha_k = 2 p_k D_k + (q'_k - q_k)
    from the cost tables of the two policies, summed per path on the same
    draws (common random numbers, exactly).  Girsanov sums are formed for
    eq's policy when the variant uses theta, never for the zero policy or a
    shift.  States are recorded (as sums) at the nodes of m's grid, which
    the simulation grid must refine exactly.  Returns the policy's
    ensemble, then one per shift, in order.

    The blocks run on min(CPUs, blocks) workers: the caller and forked
    children.  A failure in the caller's own blocks kills and reaps the
    children and is raised.  Otherwise the caller steps again, in block
    order, every block of a child that could not be forked or did not exit
    0, so the lowest such block that fails again is raised, and a child
    that died changes no bit.  MemoryError when the shared map of the
    outputs cannot be made.
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
    gu = ou = gv = ov = np.zeros(n_sim + 1)
    if eq is not None:
        law = eq.value
        gu, ou = tab(law.feedback_gain), tab(law.feedback_offset)
        if law.disturbance_gain is not None:
            gv, ov = tab(law.disturbance_gain), tab(law.disturbance_offset)

    def tables(ou: np.ndarray, ov: np.ndarray):
        """(e, f, cost_p, cost_q, cost_r) of the policy with offsets ou, ov:
        the step is x <- e x + f + sigma dW, and the running cost at node k is
        w (q x^2 + qbar (x-m)^2 + r u^2 - s v^2) = (cost_p x + cost_q) x + r_k,
        whose x-free r_k are summed once into cost_r."""
        return (1.0 + (params.a + params.b * gu + c * gv) * dt,
                (params.abar * m_k + params.b * ou + c * ov) * dt,
                w * (q + qbar + r * gu * gu - s * gv * gv),
                2.0 * w * (r * gu * ou - s * gv * ov - qbar * m_k),
                float(np.sum(w * (qbar * m_k * m_k + r * ou * ou - s * ov * ov))))

    e, f, cost_p, cost_q, cost_r = tables(ou, ov)
    e, f = e.tolist(), f[:, None]       # per-step scalars; drift column
    shift_D, alphas, consts = [], [], []
    for du, dv in shifts:
        *_, q_j, r_j = tables(ou + du, ov + dv)
        h = (params.b * du + c * dv) * dt
        D = [0.0]
        for e_k in e[:-1]:
            D.append(e_k * D[-1] + h)
        D = np.array(D)
        shift_D.append(D)
        alphas.append((2.0 * cost_p * D + (q_j - cost_q))[:, None])
        consts.append(float(np.sum((cost_p * D + q_j) * D)) + (r_j - cost_r))
    cost_p, cost_q = cost_p[:, None], cost_q[:, None]
    girsanov = eq is not None and params.variant.uses_theta
    if girsanov:
        # g = sigma (beta x + alpha) = gb x + ga
        gb = params.sigma * tab(eq.beta)[:, None]
        ga = params.sigma * tab(eq.alpha)[:, None]

    import mmap
    import signal

    # every output a worker writes lives in one shared anonymous map, so a
    # forked worker's writes reach the caller: per path run_cost, x_final,
    # [int_g_dB, int_g2_dt,] one sum_k alpha_k x_k per shift, then each
    # block's per-node sums of x and x^2
    n = config.n_paths
    nb = -(-n // BLOCK_SIZE)
    n_rows = 2 + 2 * girsanov + len(shifts)
    size = 8 * (n_rows * n + nb * 2 * (n_ode + 1))
    try:
        shared = np.frombuffer(mmap.mmap(-1, size))
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"n_paths = {n} needs a shared map of {size} bytes: {exc}") from None
    per_path = shared[:n_rows * n].reshape(n_rows, n)
    run_cost, x_final, *rows = per_path
    int_g_dB, int_g2_dt = rows[:2] if girsanov else (None, None)    # in units of sqrt(dt), dt
    shift_cost = rows[2 * girsanov:]
    node_sums = shared[n_rows * n:].reshape(nb, 2, n_ode + 1)
    blocks = path_blocks(n)
    sig_sqdt = params.sigma * math.sqrt(dt)

    def block(b: int) -> None:
        """Step block b, paths lo:hi, on stream b in chunks of at most CHUNK nodes.

        X holds the chunk's states, Z its normals, and S is the scratch of
        their uniforms (one more per row for an odd width), then of the
        noise f_k + sigma sqrt(dt) z_k, then of the cost, Girsanov and
        functional terms.  Writes the block's columns of the outputs, each
        sum from its start, so a block stepped again after a failed worker
        gives the same bits, and its per-node sums of x and x^2.  Calls no
        BLAS routine: it may run in a forked child, where numpy's BLAS
        threads do not exist.
        """
        rng = np.random.default_rng([config.seed, b])
        lo, hi = blocks[b]
        wd = hi - lo
        X, Z = np.empty((CHUNK + 1, wd)), np.empty((CHUNK, wd))
        scratch = np.empty(CHUNK * (wd + wd % 2))
        S = scratch[:CHUNK * wd].reshape(CHUNK, wd)
        cost, sums = run_cost[lo:hi], node_sums[b]
        if girsanov:
            gdB, g2dt = int_g_dB[lo:hi], int_g2_dt[lo:hi]
        X[0] = params.x0
        cost[...] = cost_r
        per_path[2:, lo:hi] = 0.0       # the Girsanov and shift sums
        for k0 in range(0, n_sim + 1, CHUNK):
            kc = min(CHUNK, n_sim + 1 - k0)     # nodes k0 .. k0 + kc - 1
            ns = min(kc, n_sim - k0)            # the steps taken from them
            nodes = slice(k0, k0 + kc)
            if ns:
                steps = slice(k0, k0 + ns)
                _fill_normals(rng, Z[:ns], scratch)
                noise = np.multiply(Z[:ns], sig_sqdt, out=S[:ns])
                noise += f[steps]
                for i in range(ns):
                    x = np.multiply(X[i], e[k0 + i], out=X[i + 1])
                    x += noise[i]
                if girsanov:
                    # Ito (left-point) accumulation with the state's increments
                    g = np.multiply(X[:ns], gb[steps], out=S[:ns])
                    g += ga[steps]
                    Z[:ns] *= g
                    g *= g
                    _add_rows(g2dt, g)
                    _add_rows(gdB, Z[:ns])
            term = np.multiply(X[:kc], cost_p[nodes], out=S[:kc])
            term += cost_q[nodes]
            term *= X[:kc]
            _add_rows(cost, term)
            for acc, alpha in zip(shift_cost, alphas):
                _add_rows(acc[lo:hi], np.multiply(X[:kc], alpha[nodes], out=S[:kc]))
            first = -k0 % stride                # the chunk's recorded nodes
            if first < kc:
                rec = X[first:kc:stride]
                j = slice((k0 + first) // stride, (k0 + first) // stride + len(rec))
                rec.sum(axis=1, out=sums[0, j])
                np.multiply(rec, rec, out=S[:len(rec)]).sum(axis=1, out=sums[1, j])
            if ns < kc:
                x_final[lo:hi] = X[ns]
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
    sum_x, sum_x2 = sum(node_sums, np.zeros((2, n_ode + 1)))
    if girsanov:
        int_g_dB *= math.sqrt(dt)
        int_g2_dt *= dt
    base = PathEnsemble(
        n_paths=n,
        m_values=m.values.copy(),
        sum_x=sum_x,
        sum_x2=sum_x2,
        run_cost=run_cost,
        x_final=x_final,
        int_g_dB=int_g_dB,
        int_g2_dt=int_g2_dt,
    )

    def shifted(D: np.ndarray, cost: np.ndarray, const: float) -> PathEnsemble:
        """The base ensemble moved by D: x' = x + D at every node."""
        cost += const
        cost += run_cost
        D_rec = D[::stride]
        return replace(base, run_cost=cost, x_final=x_final + D[-1],
                       sum_x=sum_x + n * D_rec,
                       sum_x2=sum_x2 + (2.0 * sum_x + n * D_rec) * D_rec,
                       int_g_dB=None, int_g2_dt=None)

    return [base, *map(shifted, shift_D, shift_cost, consts)]


def _mc_estimate(values: np.ndarray) -> MCEstimate:
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean=float(values.mean()), std_error=se)


def per_path_cost(ensemble: PathEnsemble, params: ModelParams) -> np.ndarray:
    """Per-path quadratic cost; robust variants include the -s v^2/2 term."""
    mT = ensemble.m_values[-1]
    xT = ensemble.x_final
    terminal = 0.5 * (params.qT * xT * xT + params.qbarT * (xT - mT) ** 2)
    return ensemble.run_cost + terminal


def estimate_quadratic_value(ensemble: PathEnsemble, params: ModelParams) -> MCEstimate:
    """Paired mean of L + (theta/2) int g^2 dt, g = sigma (beta x + alpha).

    Square completion gives E[L] = value_at_0 - (theta/2) E int g^2 dt at the
    equilibrium, so this estimates value_at_0 in every variant; without
    theta it is the mean of L.
    """
    cost = per_path_cost(ensemble, params)
    if params.variant.uses_theta:
        if ensemble.int_g2_dt is None:
            raise ValueError("ensemble was simulated without beta/alpha accumulators")
        cost += 0.5 * params.theta * ensemble.int_g2_dt
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
    if theta == 0.0:
        diff = L_hi if L_lo is None else L_hi - L_lo
        return replace(_mc_estimate(diff), ess=float(diff.size))
    log_a, influence, ess = _log_mean_exp(theta * L_hi)
    if L_lo is not None:
        log_a_lo, influence_lo, ess_lo = _log_mean_exp(theta * L_lo)
        log_a, influence, ess = log_a - log_a_lo, influence - influence_lo, min(ess, ess_lo)
    return replace(_mc_estimate(influence / theta), mean=log_a / theta, ess=ess)
