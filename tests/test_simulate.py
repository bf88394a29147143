import errno
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lqmfg.model import Coefficient, TimeGrid, Trajectory, Variant
from lqmfg.equilibrium import (BlowUpError, NonConvergenceError, admissible_beta,
                               solve_equilibrium_closed_form, solve_equilibrium_picard)
from lqmfg.simulate import (
    BLOCK_SIZE,
    MCEstimate,
    SimConfig,
    estimate_log_girsanov_normalization,
    _certainty_equivalent_gap,
    _trapz_weight_integral,
    _mc_estimate,
    estimate_quadratic_value,
    path_blocks,
    simulate_paths,
)
from lqmfg import simulate
from conftest import make_params, saddle_gaps, tabulated


@pytest.fixture(scope="module")
def bench_eq():
    p = make_params()
    grid = TimeGrid(T=1.0, n_steps=1000)
    return p, solve_equilibrium_picard(p, admissible_beta(p, grid), grid)


def small_config(**kw):
    defaults = dict(n_paths=256, dt_sim=1e-3, seed=11)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestSimConfig:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=0, dt_sim=1e-3, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, dt_sim=0.0, seed=0)

    def test_step_count(self):
        assert SimConfig(n_paths=1, dt_sim=0.25, seed=0).n_sim_steps(1.0) == 4
        with pytest.raises(ValueError):
            SimConfig(n_paths=1, dt_sim=0.3, seed=0).n_sim_steps(1.0)

    def test_grid_must_be_refined(self, bench_eq):
        p, eq = bench_eq
        cfg = SimConfig(n_paths=4, dt_sim=1.0 / 1500, seed=0)
        with pytest.raises(ValueError):
            simulate_paths(p, eq, eq.m, cfg)


class TestDeterminism:
    def test_bit_identical_reruns(self, bench_eq):
        p, eq = bench_eq
        cfg = small_config()
        [e1] = simulate_paths(p, eq, eq.m, cfg)
        [e2] = simulate_paths(p, eq, eq.m, cfg)
        np.testing.assert_array_equal(e1.x_final, e2.x_final)
        np.testing.assert_array_equal(e1.mean_x, e2.mean_x)
        np.testing.assert_array_equal(e1.cost, e2.cost)

    @settings(max_examples=20, deadline=None)
    @given(variant=st.sampled_from(list(Variant)),
           a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5), sigma=st.floats(0.0, 0.6),
           theta=st.floats(0.0, 0.5), c=st.floats(0.0, 0.8), seed=st.integers(0, 2 ** 31))
    def test_generated_instances_rerun_bit_identical(self, variant, a, abar, sigma, theta,
                                                     c, seed):
        p = make_params(variant=variant, a=a, abar=abar, sigma=sigma,
                        theta=theta if variant.uses_theta else 0.0,
                        c=c if variant.uses_disturbance else 0.0)
        grid = TimeGrid(T=1.0, n_steps=10)
        try:
            eq, again = (solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
                         for _ in range(2))
        except (BlowUpError, NonConvergenceError):
            assume(False)
        assert pickle.dumps(eq) == pickle.dumps(again)
        # two blocks, on one worker and on two
        cfg = SimConfig(n_paths=BLOCK_SIZE + 2000, dt_sim=0.1, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            serial, forked = (_ensembles(mp, w, p, eq, eq.m, cfg, SHIFTS) for w in (1, 2))
        assert_same_bits(forked, serial)
        assert_no_child()

    def test_seed_changes_draws(self, bench_eq):
        p, eq = bench_eq
        [e1] = simulate_paths(p, eq, eq.m, small_config(seed=1))
        [e2] = simulate_paths(p, eq, eq.m, small_config(seed=2))
        assert not np.array_equal(e1.x_final, e2.x_final)


class TestBlockLayout:
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                                   BLOCK_SIZE + 6, 16395, 20000, 2 * BLOCK_SIZE - 1,
                                   2 * BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 10, 100_001, 200_000])
    def test_near_equal_blocks(self, n):
        blocks = path_blocks(n)
        assert len(blocks) == math.ceil(n / BLOCK_SIZE)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        assert 1 <= min(sizes) and max(sizes) <= BLOCK_SIZE
        assert max(sizes) - min(sizes) <= 1

    def test_even_split_of_the_bench_path_count(self):
        assert path_blocks(20000) == [(0, 10000), (10000, 20000)]

    def test_floor_cuts(self):
        assert path_blocks(40000) == [(0, 13333), (13333, 26666), (26666, 40000)]

    @pytest.mark.parametrize("n", [1, 64, BLOCK_SIZE])
    def test_one_block_keeps_the_seed_stream(self, n):
        # a = abar = 0 and no control: e_k = 1 and the sigma = 0 path is x0,
        # so x(T) = x0 + sigma sqrt(dt) xi_N with xi_N = sum_k z_k, every z_k
        # drawn from default_rng([seed, 0]) one step at a time
        p = make_params(a=0.0, abar=0.0)
        g = TimeGrid(T=1.0, n_steps=10)
        cfg = SimConfig(n_paths=n, dt_sim=0.1, seed=9)
        [ens] = simulate_paths(p, None, Trajectory(g, np.zeros(g.n_steps + 1)), cfg)
        rng = np.random.default_rng([9, 0])
        xi = np.zeros(n)
        z, scratch = np.empty((1, n)), np.empty(n + 1)
        for _ in range(10):
            simulate._fill_normals(rng, z, scratch)
            xi += z[0]
        np.testing.assert_array_equal(ens.x_final, p.x0 + p.sigma * math.sqrt(0.1) * xi)


# the largest radius of Box-Muller from 53-bit uniforms: u = 1 - 2^-53
R_MAX = math.sqrt(-2.0 * math.log(2.0 ** -53))


def fill(rng, rows, width):
    z = np.empty((rows, width))
    simulate._fill_normals(rng, z, np.empty(rows * 2 * -(-width // 2)))
    return z


class FixedUniforms:
    """A generator stand-in whose uniforms are the given values, in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, out):
        out[...] = self.values.reshape(out.shape)


class TestNormals:
    """The Box-Muller fill of the block streams."""

    def test_law_is_standard_normal(self):
        z = fill(np.random.default_rng(2024), 100, 10_001)
        h = 5001
        # the whole sample, its cosine and its sine halves
        for sample in (z.ravel(), z[:, :h].ravel(), z[:, h:].ravel()):
            assert scipy.stats.kstest(sample, scipy.stats.norm.cdf).pvalue > 1e-3
        n = z.size
        assert n >= 10 ** 6
        # E z^k = 0, 1, 0, 3 within 5 standard errors (Var z^k = 1, 2, 15, 96)
        for k, want, var in ((1, 0.0, 1.0), (2, 1.0, 2.0), (3, 0.0, 15.0), (4, 3.0, 96.0)):
            assert abs(np.mean(z ** k) - want) < 5.0 * math.sqrt(var / n), k
        # the two normals of one pair are uncorrelated
        pairs = z[:, :h - 1] * z[:, h:]
        assert abs(pairs.mean()) < 5.0 / math.sqrt(pairs.size)

    @pytest.mark.parametrize("width", [1, 2, 7, 10])
    def test_draws_are_finite_and_bounded(self, width):
        z = fill(np.random.default_rng(width), 10 ** 6 // width, width)
        assert np.isfinite(z).all()
        assert np.abs(z).max() <= R_MAX

    def test_extreme_uniforms(self):
        # every pair of a radius uniform and an angle uniform, at the ends
        # of [0, 1) and at the axes of the angle
        radii = [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]
        angles = [0.0, 2.0 ** -53, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53]
        pairs = np.array([(r, a) for r in radii for a in angles])
        z = np.empty((len(pairs), 2))
        simulate._fill_normals(FixedUniforms(pairs), z, np.empty(2 * len(pairs)))
        assert np.isfinite(z).all()
        radius = np.sqrt(-2.0 * np.log1p(-pairs[:, 0]))
        angle = 2.0 * np.pi * (pairs[:, 1] - 0.5)
        np.testing.assert_allclose(z[:, 0], radius * np.cos(angle), rtol=0, atol=1e-14)
        np.testing.assert_allclose(z[:, 1], radius * np.sin(angle), rtol=0, atol=1e-14)
        # u = 1 - 2^-53 on an axis, to rounding
        np.testing.assert_allclose(np.abs(z).max(), R_MAX, rtol=1e-15)

    @pytest.mark.parametrize("width", [1, 2, 7, 10])
    def test_matches_cos_and_sin(self, width):
        z = fill(np.random.default_rng(6), 3, width)
        twin = np.random.default_rng(6)
        want = np.array([box_muller(twin, width) for _ in range(3)])
        np.testing.assert_allclose(z, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("width", [1, 2, 7, 10])
    def test_stream_advances_by_whole_pairs(self, width):
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        fill(rng, 3, width)
        twin.random(3 * 2 * -(-width // 2))
        np.testing.assert_array_equal(rng.random(5), twin.random(5))

    @pytest.mark.parametrize("width", [1, 2, 7, 10])
    def test_rows_per_call_change_no_bit(self, width):
        rng = np.random.default_rng(3)
        one_by_one = np.concatenate([fill(rng, 1, width) for _ in range(4)])
        np.testing.assert_array_equal(fill(np.random.default_rng(3), 4, width), one_by_one)


def _ensembles(monkeypatch, workers, p, eq, m, cfg, shifts=()):
    monkeypatch.setattr(simulate, "_cpu_count", lambda: workers)
    return simulate_paths(p, eq, m, cfg, shifts)


SHIFTS = ((0.5, 0.0), (0.0, 0.5), (-0.3, 0.2))
FIELDS = ("x_final", "cost", "mean_x", "se_x", "int_g_dB", "int_g2_dt")


def assert_same_bits(got, want, rtol=0.0):
    """Every field of every ensemble equal, or within rtol relative."""
    for a_ens, b_ens in zip(got, want, strict=True):
        for key in FIELDS:
            a, b = getattr(a_ens, key), getattr(b_ens, key)
            assert (a is None) == (b is None), key
            if b is not None:
                np.testing.assert_allclose(a, b, rtol=rtol, atol=0, err_msg=key)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_streams(monkeypatch, actions):
    """default_rng whose stream [seed, b] runs actions[b]() at its first draw."""
    real = np.random.default_rng

    class Failing:
        def __init__(self, action):
            self.action = action

        def random(self, out):
            self.action()

    def rng(seed):
        return Failing(actions[seed[1]]) if seed[1] in actions else real(seed)

    monkeypatch.setattr(simulate.np.random, "default_rng", rng)


def raising(exc):
    def action():
        raise exc
    return action


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


class TestWorkers:
    """The forked block workers change no bit of the ensembles or their
    shifts, every failure reaches the caller, and no child outlives a call."""

    def test_worker_count_and_rerun_bit_identical(self, monkeypatch):
        p = make_params(**REFERENCE_INSTANCES["robust_risk_sensitive"])
        grid = TimeGrid(T=1.0, n_steps=10)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        # three blocks, so two workers share them unevenly
        cfg = SimConfig(n_paths=2 * BLOCK_SIZE + 10, dt_sim=0.05, seed=4)
        runs = []
        for w in (1, 2, 2, 4):
            runs.append(_ensembles(monkeypatch, w, p, eq, eq.m, cfg, SHIFTS))
            assert_no_child()
        for run in runs[1:]:
            assert_same_bits(run, runs[0])

    @needs_fork
    def test_fork_count_and_no_child_outlives_the_call(self, monkeypatch):
        forks, real_fork = [], os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(simulate.os, "fork", counted_fork)
        p, m = make_params(), Trajectory(TimeGrid(T=1.0, n_steps=4), np.zeros(5))
        counts = []
        for workers, n in ((1, 3 * BLOCK_SIZE), (2, 3 * BLOCK_SIZE),
                           (4, 3 * BLOCK_SIZE), (2, BLOCK_SIZE)):
            before = len(forks)
            _ensembles(monkeypatch, workers, p, None, m,
                       SimConfig(n_paths=n, dt_sim=0.25, seed=0))
            counts.append(len(forks) - before)
            assert_no_child()
        # min(CPUs, blocks) - 1 children: none on one CPU or one block
        assert counts == [0, 1, 2, 0]

    def test_without_fork_every_block_runs_in_process(self, monkeypatch):
        p = make_params(**REFERENCE_INSTANCES["risk_sensitive"])
        grid = TimeGrid(T=1.0, n_steps=5)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=3 * BLOCK_SIZE, dt_sim=0.1, seed=5)
        forked = _ensembles(monkeypatch, 3, p, eq, eq.m, cfg, SHIFTS)
        monkeypatch.delattr(simulate.os, "fork", raising=False)
        assert_same_bits(_ensembles(monkeypatch, 3, p, eq, eq.m, cfg, SHIFTS), forked)
        assert_no_child()

    def test_more_workers_than_cpus_bit_identical(self, monkeypatch):
        p = make_params(**REFERENCE_INSTANCES["risk_sensitive"])
        grid = TimeGrid(T=1.0, n_steps=5)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=4 * BLOCK_SIZE, dt_sim=0.1, seed=2)
        [serial] = _ensembles(monkeypatch, 1, p, eq, eq.m, cfg)
        [forked] = _ensembles(monkeypatch, 4, p, eq, eq.m, cfg)
        assert_same_bits([forked], [serial])
        assert_no_child()

    def test_block_failure_in_simulate_paths_reaches_caller(self, monkeypatch):
        # block 0 is the caller's own: it kills and reaps the child, stalled
        # in block 1, before the error reaches the caller
        p, m = make_params(), Trajectory(TimeGrid(T=1.0, n_steps=4), np.zeros(5))
        def stall():
            time.sleep(60)
            raise FloatingPointError("block 1")

        failing_streams(monkeypatch, {0: raising(FloatingPointError("block 0")), 1: stall})
        start = time.perf_counter()
        with pytest.raises(FloatingPointError, match="^block 0$"):
            _ensembles(monkeypatch, 2, p, None, m,
                       SimConfig(n_paths=2 * BLOCK_SIZE, dt_sim=0.005, seed=0))
        assert time.perf_counter() - start < 30
        assert_no_child()

    @needs_fork
    def test_failure_in_a_child_reaches_caller(self, monkeypatch):
        p, m = make_params(), Trajectory(TimeGrid(T=1.0, n_steps=4), np.zeros(5))
        failing_streams(monkeypatch, {1: raising(FloatingPointError("block 1"))})
        with pytest.raises(FloatingPointError, match="^block 1$"):
            _ensembles(monkeypatch, 2, p, None, m,
                       SimConfig(n_paths=2 * BLOCK_SIZE, dt_sim=0.05, seed=0))
        assert_no_child()

    @needs_fork
    def test_lowest_failing_block_is_raised(self, monkeypatch):
        p, m = make_params(), Trajectory(TimeGrid(T=1.0, n_steps=4), np.zeros(5))
        # the caller steps blocks 0 and 2, the child block 1: the caller's
        # own failure kills the child and is raised
        with monkeypatch.context() as mp:
            failing_streams(mp, {1: raising(ValueError("block 1")),
                                 2: raising(FloatingPointError("block 2"))})
            with pytest.raises(FloatingPointError, match="^block 2$"):
                _ensembles(mp, 2, p, None, m,
                           SimConfig(n_paths=2 * BLOCK_SIZE + 10, dt_sim=0.05, seed=0))
        assert_no_child()
        # the children step blocks 1 and 4, and 2; the caller steps theirs
        # again in block order, so block 2 fails before block 4
        failing_streams(monkeypatch, {4: raising(ValueError("block 4")),
                                      2: raising(FloatingPointError("block 2"))})
        with pytest.raises(FloatingPointError, match="^block 2$"):
            _ensembles(monkeypatch, 3, p, None, m,
                       SimConfig(n_paths=4 * BLOCK_SIZE + 10, dt_sim=0.05, seed=0))
        assert_no_child()

    @needs_fork
    def test_unpicklable_failure_arrives_as_itself(self, monkeypatch):
        class LocalError(Exception):
            pass

        p, m = make_params(), Trajectory(TimeGrid(T=1.0, n_steps=4), np.zeros(5))
        failing_streams(monkeypatch, {1: raising(LocalError("block 1"))})
        with pytest.raises(LocalError, match="^block 1$"):
            _ensembles(monkeypatch, 2, p, None, m,
                       SimConfig(n_paths=2 * BLOCK_SIZE, dt_sim=0.05, seed=0))
        assert_no_child()

    @needs_fork
    def test_a_child_that_dies_mid_block_changes_no_bit(self, monkeypatch):
        # the child dies at its third draw, with two chunks of block 1's sums
        # written; the caller steps block 1 again from zero
        p = make_params(**REFERENCE_INSTANCES["robust_risk_sensitive"])
        grid = TimeGrid(T=1.0, n_steps=4)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=2 * BLOCK_SIZE, dt_sim=0.05, seed=3)
        serial = _ensembles(monkeypatch, 1, p, eq, eq.m, cfg, SHIFTS)
        caller, real, streams = os.getpid(), np.random.default_rng, []

        class Dying:
            def __init__(self, seed):
                self.rng, self.draws = real(seed), 0
                streams.append(seed[1])

            def random(self, out):
                self.draws += 1
                if self.draws == 3 and os.getpid() != caller:
                    os._exit(3)
                return self.rng.random(out=out)

        monkeypatch.setattr(simulate.np.random, "default_rng", Dying)
        assert_same_bits(_ensembles(monkeypatch, 2, p, eq, eq.m, cfg, SHIFTS), serial)
        assert streams == [0, 1]        # the caller's own streams
        assert_no_child()

    @needs_fork
    def test_a_failed_fork_leaves_its_blocks_to_the_caller(self, monkeypatch):
        forks, real_fork = [], os.fork

        def fork():
            forks.append(1)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        p = make_params(**REFERENCE_INSTANCES["robust_risk_sensitive"])
        grid = TimeGrid(T=1.0, n_steps=5)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        # three workers on four blocks: worker 2, never forked, has block 2
        cfg = SimConfig(n_paths=3 * BLOCK_SIZE + 10, dt_sim=0.1, seed=6)
        serial = _ensembles(monkeypatch, 1, p, eq, eq.m, cfg, SHIFTS)
        monkeypatch.setattr(simulate.os, "fork", fork)
        assert_same_bits(_ensembles(monkeypatch, 3, p, eq, eq.m, cfg, SHIFTS), serial)
        assert len(forks) == 2
        assert_no_child()


def box_muller(rng, n):
    """n standard normals from 2 ceil(n/2) uniforms: radii from the first
    half, angles 2 pi (u - 1/2) from the second, by np.cos and np.sin."""
    h = -(-n // 2)
    u = rng.random(2 * h)
    radius = np.sqrt(-2.0 * np.log1p(-u[:h]))
    angle = 2.0 * np.pi * (u[h:] - 0.5)
    return np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))[:n]


def reference_paths(params, eq, m, config, shift=(0.0, 0.0)):
    """Per-step Euler-Maruyama with u, v, x - m and four separate cost sums,
    for eq's policy (None: the zero policy) with its offsets shifted by
    (du, dv).  The player starts at x0; the moments of the state are those
    of a population stepped from m0 on the same draws.

    Draws the same per-block streams as simulate_paths: block b, the paths
    lo:hi of path_blocks, uses default_rng([seed, b]).
    """
    T = params.T
    n_sim = config.n_sim_steps(T)
    stride = n_sim // m.grid.n_steps
    dt = T / n_sim
    t = np.linspace(0.0, T, n_sim + 1)
    robust = params.variant.uses_disturbance
    zero = np.zeros(n_sim + 1)
    gu = ou = gv = ov = zero
    if eq is not None:
        gu, ou = eq.value.feedback_gain(t), eq.value.feedback_offset(t)
        if robust:
            gv, ov = eq.value.disturbance_gain(t), eq.value.disturbance_offset(t)
    girsanov = eq is not None and params.variant.uses_theta
    w = np.full(n_sim + 1, dt)
    w[0] = w[-1] = dt / 2
    mt, q, qbar, r, s = m(t), params.q(t), params.qbar(t), params.r(t), params.s(t)
    out = {key: [] for key in ("cost", "x_final", "int_g_dB", "int_g2_dt", "x")}
    for bi, (lo, hi) in enumerate(path_blocks(config.n_paths)):
        bn = hi - lo
        rng = np.random.default_rng([config.seed, bi])
        x, pop = np.full(bn, params.x0), np.full(bn, params.m0)
        qx2, qdev, ru2, sv2, gdB, g2dt = (np.zeros(bn) for _ in range(6))
        recorded = []

        def controls(k, x):
            return gu[k] * x + ou[k] + shift[0], gv[k] * x + ov[k] + shift[1]

        def step(k, x, dW):
            u, v = controls(k, x)
            drift = params.a * x + params.abar * mt[k] + params.b * u
            if robust:
                drift = drift + params.c * v
            return x + drift * dt + params.sigma * dW

        for k in range(n_sim + 1):
            u, v = controls(k, x)
            dev = x - mt[k]
            qx2 += w[k] * q[k] * x * x
            qdev += w[k] * qbar[k] * dev * dev
            ru2 += w[k] * r[k] * u * u
            if robust:
                sv2 += w[k] * s[k] * v * v
            if k % stride == 0:
                recorded.append(pop)
            if k == n_sim:
                break
            dW = math.sqrt(dt) * box_muller(rng, bn)
            if girsanov:
                g = params.sigma * (eq.beta(t[k]) * x + eq.alpha(t[k]))
                gdB += g * dW
                g2dt += g * g * dt
            x, pop = step(k, x, dW), step(k, pop, dW)
        terminal = 0.5 * (params.qT * x * x + params.qbarT * (x - mt[-1]) ** 2)
        out["cost"].append(0.5 * (qx2 + qdev + ru2 - sv2) + terminal)
        out["x_final"].append(x)
        out["int_g_dB"].append(gdB)
        out["int_g2_dt"].append(g2dt)
        out["x"].append(np.array(recorded))
    out = {key: np.concatenate(parts, axis=-1) for key, parts in out.items()}
    # two-pass moments of the recorded states, node by node
    x = out.pop("x")
    out["mean_x"] = x.mean(axis=1)
    out["se_x"] = x.std(axis=1, ddof=1) / math.sqrt(x.shape[1])
    return out


REFERENCE_INSTANCES = {
    "risk_neutral": dict(),
    "risk_sensitive": dict(variant=Variant.RISK_SENSITIVE, theta=0.25),
    "robust": dict(variant=Variant.ROBUST, c=0.5,
                   q=Coefficient(np.array([1.0, 1.5, 0.8, 1.2]), np.linspace(0.0, 1.0, 4))),
    "robust_risk_sensitive": dict(variant=Variant.ROBUST_RISK_SENSITIVE,
                                  c=0.5, theta=0.25),
}


def assert_matches_reference(p, eq, m, cfg, shifts):
    """Each ensemble of one call within 1e-12 of the reference run of its
    (shifted) policy, relative to max(1, |reference|)."""
    ensembles = simulate_paths(p, eq, m, cfg, shifts)
    for i, (shift, ens) in enumerate(zip(((0.0, 0.0), *shifts), ensembles, strict=True)):
        ref = reference_paths(p, eq, m, cfg, shift)
        got = {"cost": ens.cost, "x_final": ens.x_final,
               "mean_x": ens.mean_x, "se_x": ens.se_x,
               "int_g_dB": ens.int_g_dB, "int_g2_dt": ens.int_g2_dt}
        # Girsanov sums for an equilibrium of a theta variant only, never
        # for its shifts
        if eq is None or not p.variant.uses_theta or i > 0:
            assert got.pop("int_g_dB") is None and got.pop("int_g2_dt") is None
        for key, value in got.items():
            err = np.abs(value - ref[key]) / np.maximum(1.0, np.abs(ref[key]))
            assert err.max() <= 1e-12, (key, shift)


class TestReferenceEuler:
    @pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
    def test_matches_per_step_reference(self, name):
        p = make_params(**REFERENCE_INSTANCES[name])
        grid = TimeGrid(T=1.0, n_steps=20)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=BLOCK_SIZE + 6, dt_sim=1.0 / 40, seed=4)
        assert_matches_reference(p, eq, eq.m, cfg, SHIFTS)
        assert_matches_reference(p, None, eq.m, cfg, SHIFTS[:1])

    @pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
    def test_player_apart_from_the_population(self, name):
        # the player starts at x0 = 2.5, the population at m0 = 1: costs and
        # terminal states are the player's, the moments the population's
        p = make_params(**REFERENCE_INSTANCES[name], x0=2.5)
        grid = TimeGrid(T=1.0, n_steps=20)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=300, dt_sim=1.0 / 40, seed=5)
        assert_matches_reference(p, eq, eq.m, cfg, SHIFTS)
        assert_matches_reference(p, None, eq.m, cfg, SHIFTS[:1])
        # the population's moments do not depend on where the player starts
        at_m0 = simulate_paths(replace(p, x0=p.m0), eq, eq.m, cfg, SHIFTS)
        for ens, same in zip(simulate_paths(p, eq, eq.m, cfg, SHIFTS), at_m0, strict=True):
            np.testing.assert_array_equal(ens.mean_x, same.mean_x)
            np.testing.assert_array_equal(ens.se_x, same.se_x)


class TestShifts:
    """Shifted offsets as path functionals of the one simulated policy."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(variant=st.sampled_from(list(Variant)),
           a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5),
           c=st.floats(0.0, 0.8), sigma=st.floats(0.0, 0.6),
           theta=st.floats(0.0, 0.5),
           du=st.floats(-1.0, 1.0), dv=st.floats(-1.0, 1.0),
           x0=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 31))
    def test_shifted_costs_match_the_reference_of_the_shifted_policy(
            self, variant, a, abar, c, sigma, theta, du, dv, x0, seed):
        p = make_params(variant=variant, a=a, abar=abar, c=c, sigma=sigma, theta=theta,
                        x0=x0, r=tabulated(1.0, 0.7, 1.3), s=tabulated(1.2, 0.9))
        grid = TimeGrid(T=1.0, n_steps=10)
        try:
            eq = solve_equilibrium_closed_form(p, admissible_beta(p, grid), grid)
        except BlowUpError:
            assume(False)
        cfg = SimConfig(n_paths=64, dt_sim=1.0 / 30, seed=seed)
        assert_matches_reference(p, eq, eq.m, cfg,
                                 ((du, dv), (du, 0.0), (0.0, dv)))

    @pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
    def test_shifts_change_no_bit_of_the_policy_ensemble(self, name):
        p = make_params(**REFERENCE_INSTANCES[name])
        grid = TimeGrid(T=1.0, n_steps=20)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=300, dt_sim=1.0 / 40, seed=4)
        alone = simulate_paths(p, eq, eq.m, cfg)
        shifted = simulate_paths(p, eq, eq.m, cfg, SHIFTS)
        assert len(shifted) == 1 + len(SHIFTS)
        assert_same_bits(shifted[:1], alone)

    @staticmethod
    def at_chunk(monkeypatch, chunk):
        """The ensembles at CHUNK = chunk and at the default CHUNK.

        CHUNK = 1 is the plain per-step loop; a stride of 3 puts the
        recorded nodes at every offset within the longer chunks.
        """
        p = make_params(**REFERENCE_INSTANCES["robust_risk_sensitive"])
        grid = TimeGrid(T=1.0, n_steps=10)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=302, dt_sim=1.0 / 30, seed=8)
        want = simulate_paths(p, eq, eq.m, cfg, SHIFTS)
        monkeypatch.setattr(simulate, "CHUNK", chunk)
        return simulate_paths(p, eq, eq.m, cfg, SHIFTS), want

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    def test_chunk_length_changes_only_rounding(self, monkeypatch, chunk):
        # a chunk adds its steps' terms to the per-path sums as one sum, so
        # only their rounding may move
        got, want = self.at_chunk(monkeypatch, chunk)
        assert_same_bits(got, want, rtol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    def test_chunk_length_changes_no_bit(self, monkeypatch, chunk):
        # the xi recursion is per step and a recorded node's moments sum
        # one row of paths, so the state and its moments keep every bit
        got, want = self.at_chunk(monkeypatch, chunk)
        for a_ens, b_ens in zip(got, want, strict=True):
            for key in ("x_final", "mean_x", "se_x"):
                np.testing.assert_array_equal(getattr(a_ens, key), getattr(b_ens, key),
                                              err_msg=key)

    def test_zero_shift_is_the_policy_itself(self, bench_eq):
        p, eq = bench_eq
        base, same = simulate_paths(p, eq, eq.m, small_config(),
                                    ((0.0, 0.0),))
        np.testing.assert_array_equal(same.cost, base.cost)
        np.testing.assert_array_equal(same.x_final, base.x_final)

    @pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
    def test_girsanov_sums_exactly_where_theta_reads_them(self, name):
        # an equilibrium's own ensemble carries them iff the variant uses
        # theta; the zero policy and the shifts never do
        p = make_params(**REFERENCE_INSTANCES[name])
        grid = TimeGrid(T=1.0, n_steps=10)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=64, dt_sim=0.05, seed=3)
        base, shifted = simulate_paths(p, eq, eq.m, cfg, ((0.5, 0.0),))
        assert (base.int_g_dB is not None) == p.variant.uses_theta
        assert (base.int_g2_dt is not None) == p.variant.uses_theta
        assert shifted.int_g_dB is None and shifted.int_g2_dt is None
        for ens in simulate_paths(p, None, eq.m, cfg, ((0.5, 0.0),)):
            assert ens.int_g_dB is None and ens.int_g2_dt is None


RESIDENT_GROWTH = """
import os, pickle, resource, sys, traceback
from lqmfg.equilibrium import admissible_beta, solve_equilibrium_picard
from lqmfg.model import TimeGrid
from lqmfg.simulate import SimConfig, simulate_paths

# ru_maxrss survives exec, so this interpreter's starts at the peak of the
# process that started it; a forked child's starts at the child's own size
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
try:
    p = pickle.load(sys.stdin.buffer)
    grid = TimeGrid(T=1.0, n_steps=200)
    eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
    shifts = ((0.5, 0.0), (0.0, 0.5))
    # the first simulation loads numpy.random (about 6 MB): a 3-path call,
    # one block in-process, pays it; an empty child sets RUSAGE_CHILDREN to
    # the size of the image a worker inherits
    simulate_paths(p, eq, eq.m, SimConfig(n_paths=3, dt_sim=1e-3, seed=7), shifts)
    if not os.fork():
        os._exit(0)
    os.wait()
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    before = [resource.getrusage(w).ru_maxrss for w in who]
    cfg = SimConfig(n_paths=20000, dt_sim=1e-3, seed=7)
    assert len(simulate_paths(p, eq, eq.m, cfg, shifts)) == 3
    print(*(resource.getrusage(w).ru_maxrss - b for w, b in zip(who, before)), flush=True)
except BaseException:
    traceback.print_exc()
    os._exit(1)
os._exit(0)
"""


class TestMemory:
    def test_peak_of_the_robust_saddle_pass(self, monkeypatch):
        # verify's call on the RRS bench instance: 20000 paths in two blocks,
        # 1000 steps, two shifts; the chunk buffers are most of the peak.
        # One worker steps both blocks in-process, where tracemalloc sees them
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
        p = make_params(**REFERENCE_INSTANCES["robust_risk_sensitive"])
        grid = TimeGrid(T=1.0, n_steps=200)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=20000, dt_sim=1e-3, seed=7)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ensembles = simulate_paths(p, eq, eq.m, cfg,
                                       ((0.5, 0.0), (0.0, 0.5)))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(ensembles) == 3
        assert peak <= 4 * 2 ** 20

    @needs_fork
    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
    def test_resident_growth_of_the_forked_pass(self):
        # the same call on two workers, in a fresh process: how far the peak
        # RSS of the caller and of its child grow, in KiB.  Measured on
        # x86-64 Linux over 20 runs: 1.6-1.9 MiB and 4.6-5.0 MiB; CHUNK = 10,
        # which doubles the block buffers, gave 2.75-2.9 and 5.8-6.1 MiB
        p = make_params(**REFERENCE_INSTANCES["robust_risk_sensitive"])
        path = [str(Path(simulate.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-c", RESIDENT_GROWTH], input=pickle.dumps(p), capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
        assert proc.returncode == 0, proc.stderr.decode()
        caller, child = map(int, proc.stdout.split())
        assert caller <= 2.3 * 1024 and child <= 5.4 * 1024, (caller, child)


class TestDegenerateDynamics:
    def test_noise_free_uncontrolled_path(self):
        # sigma = 0, zero policy, abar = 0: exact Euler recursion x <- (1+a dt) x
        p = make_params(sigma=0.0, abar=0.0)
        g = TimeGrid(T=1.0, n_steps=100)
        m = Trajectory(g, np.zeros(g.n_steps + 1))
        cfg = SimConfig(n_paths=3, dt_sim=0.01, seed=0)
        [ens] = simulate_paths(p, None, m, cfg)
        dt = 0.01
        expected = p.x0 * (1.0 + p.a * dt) ** np.arange(101)
        np.testing.assert_allclose(ens.mean_x, expected, rtol=1e-13)
        assert np.all(ens.x_final == ens.x_final[0])

    @pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
    def test_sigma_zero_paths_are_each_policys_euler_path(self, name):
        # without noise every path of a policy and of each shift is its
        # sigma = 0 Euler path: one constant x_final, se 0 at every node, and
        # the mean path of the explicit recursion x += (a x + abar m + b u + c v) dt
        p = make_params(**REFERENCE_INSTANCES[name], sigma=0.0)
        grid = TimeGrid(T=1.0, n_steps=20)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        cfg = SimConfig(n_paths=300, dt_sim=1.0 / 40, seed=4)
        shifts = ((0.5, 0.0), (0.0, 0.5))
        ensembles = simulate_paths(p, eq, eq.m, cfg, shifts)
        t = np.linspace(0.0, 1.0, 41)
        law, c = eq.value, p.c if p.variant.uses_disturbance else 0.0
        gv = ov = np.zeros(t.size)
        if law.disturbance_gain is not None:
            gv, ov = law.disturbance_gain(t), law.disturbance_offset(t)
        for (du, dv), ens in zip(((0.0, 0.0), *shifts), ensembles, strict=True):
            x = [p.x0]
            for k in range(40):
                u = law.feedback_gain(t[k]) * x[-1] + law.feedback_offset(t[k]) + du
                v = gv[k] * x[-1] + ov[k] + dv
                x.append(x[-1] + (p.a * x[-1] + p.abar * eq.m(t[k]) + p.b * u + c * v) / 40)
            assert np.all(ens.x_final == ens.x_final[0])
            assert np.all(ens.se_x == 0.0)
            np.testing.assert_allclose(ens.mean_x, x[::2], rtol=1e-12, atol=1e-12)
            assert abs(ens.x_final[0] - x[-1]) <= 1e-12 * max(1.0, abs(x[-1]))

    def test_mean_consistency_smoke(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, eq, eq.m,
                               small_config(n_paths=4096, seed=7))
        err = np.abs(ens.mean_x - eq.m.values)
        # 4 SE plus a small discretization allowance
        assert np.all(err <= 4.0 * ens.se_x + 5e-3)


class TestEstimators:
    def test_theta_zero_certainty_equivalent_is_the_mean_cost(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, eq, eq.m, small_config())
        L = ens.cost
        est, plain = _certainty_equivalent_gap(L, None, p.theta), _mc_estimate(L)
        assert (est.mean, est.std_error) == (plain.mean, plain.std_error)
        assert est.ess == 256 and plain.ess is None

    def test_theta_zero_log_girsanov_is_zero(self):
        # a theta variant at theta = 0 forms the sums; w = 1, its log mean is 0
        p = make_params(variant=Variant.RISK_SENSITIVE, theta=0.0)
        g = TimeGrid(T=1.0, n_steps=200)
        eq = solve_equilibrium_picard(p, admissible_beta(p, g), g)
        [ens] = simulate_paths(p, eq, eq.m, small_config())
        assert ens.int_g_dB is not None
        est = estimate_log_girsanov_normalization(ens, p)
        assert (est.mean, est.std_error, est.ess) == (0.0, 0.0, 256)

    def test_sigma_zero_log_girsanov_is_zero(self):
        p = make_params(sigma=0.0, theta=0.3, variant=Variant.RISK_SENSITIVE)
        g = TimeGrid(T=1.0, n_steps=200)
        eq = solve_equilibrium_picard(p, admissible_beta(p, g), g)
        [ens] = simulate_paths(p, eq, eq.m,
                               SimConfig(n_paths=16, dt_sim=1.0 / 200, seed=0))
        est = estimate_log_girsanov_normalization(ens, p)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_girsanov_requires_accumulators(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, None, eq.m, small_config())
        with pytest.raises(ValueError):
            estimate_log_girsanov_normalization(ens, p)

    def test_quadratic_value_needs_accumulators_only_with_theta(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, None, eq.m, small_config())
        with pytest.raises(ValueError):
            estimate_quadratic_value(ens, make_params(variant=Variant.RISK_SENSITIVE,
                                                      theta=0.25))

    def test_sigma_zero_cost_matches_value(self):
        # no noise: the realized equilibrium cost equals the value exactly
        p = make_params(sigma=0.0)
        g = TimeGrid(T=1.0, n_steps=2000)
        eq = solve_equilibrium_picard(p, admissible_beta(p, g), g)
        [ens] = simulate_paths(p, eq, eq.m,
                               SimConfig(n_paths=2, dt_sim=1.0 / 2000, seed=0))
        est = estimate_quadratic_value(ens, p)
        assert est.std_error <= 1e-12
        assert est.mean == pytest.approx(eq.value.value_at_0, abs=2e-3)

    @settings(max_examples=30, deadline=None)
    @given(variant=st.sampled_from(list(Variant)),
           a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5),
           theta=st.floats(0.0, 0.5), c=st.floats(0.0, 0.8),
           weights=st.lists(st.lists(st.floats(0.5, 1.5), min_size=2, max_size=4),
                            min_size=4, max_size=4))
    def test_sigma_zero_cost_matches_value_on_generated_instances(self, variant, a, abar,
                                                                  theta, c, weights):
        # no noise: one path is the equilibrium path.  Its Euler cost misses
        # the value by O(dt_sim), up to 1.1e-3 at dt_sim = 5e-4; the
        # Richardson value 2 V(dt/2) - V(dt) leaves the O(dt^2) of both
        # schemes, at most 1.4e-6 over 420 generated instances of this box
        q, qbar, r, s = (tabulated(*w) for w in weights)
        p = make_params(variant=variant, a=a, abar=abar, sigma=0.0, q=q, qbar=qbar, r=r, s=s,
                        theta=theta if variant.uses_theta else 0.0,
                        c=c if variant.uses_disturbance else 0.0)
        grid = TimeGrid(T=1.0, n_steps=1000)
        try:
            eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        except BlowUpError:
            assume(False)
        v, v_half = (estimate_quadratic_value(
            simulate_paths(p, eq, eq.m, SimConfig(n_paths=1, dt_sim=dt, seed=0))[0], p).mean
            for dt in (1e-3, 5e-4))
        assert 2 * v_half - v == pytest.approx(eq.value.value_at_0, abs=1e-5)

    def test_cost_nonnegative_risk_neutral(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, eq, eq.m, small_config())
        assert np.all(ens.cost >= 0.0)

    def test_estimate_type(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, eq, eq.m, small_config())
        est = estimate_quadratic_value(ens, p)
        assert isinstance(est, MCEstimate)
        assert est.ess is None
        assert est.std_error > 0.0


class TestMomentHelpers:
    """The certainty equivalent and its effective sample size against direct
    numpy, and the trapezoid sum against scipy's."""

    @pytest.mark.parametrize("theta", [0.25, 1.0, 3.0])
    def test_certainty_equivalent_matches_the_direct_formula(self, theta):
        # where e^{theta L} does not overflow, the shift changes nothing
        L = np.random.default_rng(3).lognormal(size=5000)
        w = np.exp(theta * L)
        est = _certainty_equivalent_gap(L, None, theta)
        assert est.mean == pytest.approx(math.log(w.mean()) / theta, rel=1e-12)
        assert est.std_error == pytest.approx(
            (w / w.mean()).std(ddof=1) / theta / math.sqrt(L.size), rel=1e-12)
        assert est.ess == pytest.approx(w.sum() ** 2 / (w @ w), rel=1e-12)

    @pytest.mark.parametrize("theta", [1e-9, 1e-200])
    def test_small_theta_tends_to_the_mean(self, theta):
        # through expm1 and log1p: e^{theta L} rounds to 1 + theta L, or to 1
        L = np.random.default_rng(5).lognormal(size=5000)
        est, plain = _certainty_equivalent_gap(L, None, theta), _mc_estimate(L)
        assert est.mean == pytest.approx(plain.mean + 0.5 * theta * L.var(), rel=1e-12)
        assert est.std_error == pytest.approx(plain.std_error, rel=1e-6)

    def test_one_dominant_path_is_finite_with_ess_one(self):
        L = np.zeros(400)
        assert _certainty_equivalent_gap(L, None, 2.0).ess == 400
        L[7] = 1e3      # e^{2000} is past the floats; that path carries all the weight
        est = _certainty_equivalent_gap(L, None, 2.0)
        assert est.mean == pytest.approx(1e3 - math.log(400) / 2.0, rel=1e-12)
        assert math.isfinite(est.std_error) and est.std_error > 0.0
        assert est.ess == pytest.approx(1.0)

    def test_trapezoid_weight_integral_matches_scipy(self):
        r = Coefficient(np.array([1.0, 0.8, 1.2, 0.5, 2.0]), np.linspace(0.0, 2.0, 5))
        t = np.linspace(0.0, 2.0, 4097)
        assert _trapz_weight_integral(r, 2.0) == pytest.approx(
            float(scipy.integrate.trapezoid(r(t), t)), rel=1e-14)
        assert _trapz_weight_integral(Coefficient(1.5), 2.0) == pytest.approx(
            3.0, rel=1e-14)

    @staticmethod
    def old_4096_point_trapezoid(coef, T):
        t = np.linspace(0.0, T, 4097)
        y = coef(t)
        return float(np.sum(np.diff(t) * (y[1:] + y[:-1]) / 2.0))

    @pytest.mark.parametrize("values", [(1.0, 0.8, 1.2), (1.0, 1.5, 0.8, 1.2, 2.0), (2.5,)])
    def test_weight_integral_matches_the_old_grid(self, values):
        # nodes equally spaced as a config spreads them, on the old grid
        w = Coefficient(values[0]) if len(values) == 1 else tabulated(*values)
        assert _trapz_weight_integral(w, 1.0) == pytest.approx(
            self.old_4096_point_trapezoid(w, 1.0), rel=1e-9)

    @pytest.mark.parametrize("times, values, T", [
        ((0.0, 0.3, 0.7, 1.0), (1.0, 2.5, 0.4, 1.1), 1.0),
        ((0.13, 0.35, 0.9), (0.5, 3.0, 1.5), 1.0),     # constant beyond the nodes
        ((0.0, 0.45, 3.0), (1.0, 4.0, 0.2), 2.0),      # the last node beyond T
    ])
    def test_weight_integral_is_exact_between_old_grid_points(self, times, values, T):
        w = Coefficient(np.array(values), np.array(times))
        # piece by piece in rationals: the weight is linear between 0, the
        # nodes inside (0, T) and T
        pts = [0.0, *(t for t in times if 0.0 < t < T), T]
        exact = sum((Fraction(hi) - Fraction(lo)) * (Fraction(w(lo)) + Fraction(w(hi))) / 2
                    for lo, hi in zip(pts, pts[1:]))
        assert _trapz_weight_integral(w, T) == pytest.approx(float(exact), rel=1e-15, abs=0.0)
        # the kinks sit between the old grid's points, which missed them
        assert abs(self.old_4096_point_trapezoid(w, T) - float(exact)) > 1e-9


@pytest.fixture(scope="module")
def robust_eq():
    p = make_params(variant=Variant.ROBUST, c=0.3)
    grid = TimeGrid(T=1.0, n_steps=500)
    return p, solve_equilibrium_picard(p, admissible_beta(p, grid), grid)


class TestSaddle:
    """The gaps verify's saddle lines compare, formed as run_verify_checks forms them."""

    def test_zero_perturbation_gaps_vanish(self, robust_eq):
        p, eq = robust_eq
        cfg = SimConfig(n_paths=128, dt_sim=2e-3, seed=5)
        for gap, _ in saddle_gaps(p, eq, cfg, 0.0)[:2]:
            assert gap.mean == 0.0 and gap.std_error == 0.0

    def test_resolvable_scale_orders_and_matches(self, robust_eq):
        p, eq = robust_eq
        cfg = SimConfig(n_paths=4096, dt_sim=2e-3, seed=5)
        # the verdict of lqmfg verify: each gap resolved and within 3 se of theory
        for gap, theory in saddle_gaps(p, eq, cfg, 0.5)[:2]:
            assert gap.mean > 3 * gap.std_error
            assert abs(gap.mean - theory) <= 3 * gap.std_error
            assert theory == pytest.approx(0.125)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(robust_risk_sensitive=st.booleans(),
           a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5),
           c=st.floats(0.0, 0.8), sigma=st.floats(0.0, 0.6),
           theta=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 31))
    def test_zero_perturbation_gaps_exactly_zero(self, robust_risk_sensitive, a, abar,
                                                 c, sigma, theta, seed):
        variant = (Variant.ROBUST_RISK_SENSITIVE if robust_risk_sensitive
                   else Variant.ROBUST)
        p = make_params(variant=variant, a=a, abar=abar, c=c, sigma=sigma, theta=theta)
        grid = TimeGrid(T=1.0, n_steps=20)
        try:
            eq = solve_equilibrium_closed_form(p, admissible_beta(p, grid), grid)
        except BlowUpError:
            assume(False)
        cfg = SimConfig(n_paths=64, dt_sim=1.0 / 40, seed=seed)
        gap_u, gap_v, base = saddle_gaps(p, eq, cfg, 0.0)
        for gap, _ in (gap_u, gap_v):
            assert gap.mean == 0.0 and gap.std_error == 0.0
        # the (u, v) ensemble carries the Girsanov sums iff the variant uses theta
        assert (base.int_g_dB is not None) == p.variant.uses_theta


class TestThetaTheories:
    """verify's theta lines hold with their exact theory and miss without it.

    A large theta sigma^2 makes the E[L] forms miss by many se at a few
    thousand paths: E[L] = value_at_0 - (theta/2) E int g^2 dt, and the
    saddle gaps hold for the certainty equivalent, not for E[L' - L].
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_corrected_theories_hold_and_old_ones_miss(self, seed):
        dt_sim = 0.01
        cfg = SimConfig(n_paths=8192, dt_sim=dt_sim, seed=seed)
        grid = TimeGrid(T=1.0, n_steps=20)
        for variant, extra in ((Variant.RISK_SENSITIVE, {}),
                               (Variant.ROBUST_RISK_SENSITIVE, {"c": 0.5})):
            p = make_params(variant=variant, theta=0.8, sigma=0.6, **extra)
            eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
            [ens] = simulate_paths(p, eq, eq.m, cfg)
            value = eq.value.value_at_0
            slack = dt_sim * max(1.0, abs(value))    # verify's Euler allowance
            new = estimate_quadratic_value(ens, p)
            old = _mc_estimate(ens.cost)
            assert abs(new.mean - value) <= 3 * new.std_error + slack
            assert value - old.mean > 3 * old.std_error + slack
            if not variant.uses_disturbance:
                continue
            base, up, vp = (e.cost for e in simulate_paths(
                p, eq, eq.m, cfg, ((0.5, 0.0), (0.0, 0.5))))
            (gap_u, theory_u), (gap_v, theory_v), _ = saddle_gaps(p, eq, cfg, 0.5)

            def ce(L):
                return math.log(np.mean(np.exp(p.theta * L))) / p.theta

            for gap, theory, hi, lo in ((gap_u, theory_u, up, base),
                                        (gap_v, theory_v, base, vp)):
                assert gap.mean == pytest.approx(ce(hi) - ce(lo), rel=1e-10)
                assert gap.mean > 3 * gap.std_error
                assert abs(gap.mean - theory) <= 3 * gap.std_error
                old_gap = _mc_estimate(hi - lo)
                assert abs(old_gap.mean - theory) > 3 * old_gap.std_error
