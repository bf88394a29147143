import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lqmfg.model import Coefficient, TimeGrid, Trajectory, Variant
from lqmfg.equilibrium import (BlowUpError, solve_equilibrium_closed_form,
                               solve_equilibrium_picard)
from lqmfg.simulate import (
    BLOCK_SIZE,
    MCEstimate,
    Policy,
    SimConfig,
    estimate_exponential_cost,
    estimate_girsanov_normalization,
    estimate_risk_neutral_cost,
    _excess_kurtosis,
    _trapz_weight_integral,
    per_path_cost,
    saddle_check,
    simulate_paths,
)
from conftest import make_params


@pytest.fixture(scope="module")
def bench_eq():
    p = make_params()
    return p, solve_equilibrium_picard(p, TimeGrid(T=1.0, n_steps=1000))


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
        with pytest.raises(ValueError):
            SimConfig(n_paths=11, dt_sim=1e-3, seed=0, antithetic=True)

    def test_step_count(self):
        assert SimConfig(n_paths=1, dt_sim=0.25, seed=0).n_sim_steps(1.0) == 4
        with pytest.raises(ValueError):
            SimConfig(n_paths=1, dt_sim=0.3, seed=0).n_sim_steps(1.0)

    def test_grid_must_be_refined(self, bench_eq):
        p, eq = bench_eq
        cfg = SimConfig(n_paths=4, dt_sim=1.0 / 1500, seed=0)
        with pytest.raises(ValueError):
            simulate_paths(p, [Policy.equilibrium(eq)], eq.m, cfg)


class TestDeterminism:
    def test_bit_identical_reruns(self, bench_eq):
        p, eq = bench_eq
        cfg = small_config()
        [e1] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m, cfg)
        [e2] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m, cfg)
        np.testing.assert_array_equal(e1.x_final, e2.x_final)
        np.testing.assert_array_equal(e1.sum_x, e2.sum_x)
        np.testing.assert_array_equal(e1.int_g_dB, e2.int_g_dB)

    def test_seed_changes_draws(self, bench_eq):
        p, eq = bench_eq
        [e1] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m, small_config(seed=1))
        [e2] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m, small_config(seed=2))
        assert not np.array_equal(e1.x_final, e2.x_final)


def reference_paths(params, policy, m, config):
    """Per-step Euler-Maruyama with u, v, x - m and four separate cost sums.

    Draws the same per-block streams as simulate_paths: block b of
    BLOCK_SIZE paths uses default_rng([seed, b]).
    """
    T = params.T
    n_sim = config.n_sim_steps(T)
    stride = n_sim // m.grid.n_steps
    dt = T / n_sim
    t = np.linspace(0.0, T, n_sim + 1)
    robust = params.variant.uses_disturbance
    zero = np.zeros(n_sim + 1)
    gu = ou = gv = ov = zero
    if policy.base is not None:
        gu, ou = policy.base.feedback_gain(t), policy.base.feedback_offset(t)
        if robust:
            gv, ov = policy.base.disturbance_gain(t), policy.base.disturbance_offset(t)
    girsanov = policy.beta is not None
    w = np.full(n_sim + 1, dt)
    w[0] = w[-1] = dt / 2
    mt, q, qbar, r, s = m(t), params.q(t), params.qbar(t), params.r(t), params.s(t)
    sum_x = np.zeros(m.grid.n_steps + 1)
    out = {key: [] for key in ("cost", "x_final", "int_g_dB", "int_g2_dt")}
    for bi, lo in enumerate(range(0, config.n_paths, BLOCK_SIZE)):
        bn = min(BLOCK_SIZE, config.n_paths - lo)
        rng = np.random.default_rng([config.seed, bi])
        x = np.full(bn, params.x0)
        qx2, qdev, ru2, sv2, gdB, g2dt = (np.zeros(bn) for _ in range(6))
        for k in range(n_sim + 1):
            u = gu[k] * x + ou[k] + policy.delta_u
            v = gv[k] * x + ov[k] + policy.delta_v
            dev = x - mt[k]
            qx2 += w[k] * q[k] * x * x
            qdev += w[k] * qbar[k] * dev * dev
            ru2 += w[k] * r[k] * u * u
            if robust:
                sv2 += w[k] * s[k] * v * v
            if k % stride == 0:
                sum_x[k // stride] += x.sum()
            if k == n_sim:
                break
            if config.antithetic:
                half = rng.standard_normal(bn // 2)
                z = np.empty(bn)
                z[0::2], z[1::2] = half, -half
            else:
                z = rng.standard_normal(bn)
            dW = math.sqrt(dt) * z
            if girsanov:
                g = params.sigma * (policy.beta(t[k]) * x + policy.alpha(t[k]))
                gdB += g * dW
                g2dt += g * g * dt
            drift = params.a * x + params.abar * mt[k] + params.b * u
            if robust:
                drift = drift + params.c * v
            x = x + drift * dt + params.sigma * dW
        terminal = 0.5 * (params.qT * x * x + params.qbarT * (x - mt[-1]) ** 2)
        out["cost"].append(0.5 * (qx2 + qdev + ru2 - sv2) + terminal)
        out["x_final"].append(x)
        out["int_g_dB"].append(gdB)
        out["int_g2_dt"].append(g2dt)
    out = {key: np.concatenate(parts) for key, parts in out.items()}
    out["sum_x"] = sum_x
    return out


REFERENCE_INSTANCES = {
    "risk_neutral": dict(),
    "risk_sensitive": dict(variant=Variant.RISK_SENSITIVE, theta=0.25),
    "robust": dict(variant=Variant.ROBUST, c=0.5,
                   q=Coefficient.tabulated(np.linspace(0.0, 1.0, 4),
                                           np.array([1.0, 1.5, 0.8, 1.2]))),
    "robust_risk_sensitive": dict(variant=Variant.ROBUST_RISK_SENSITIVE,
                                  c=0.5, theta=0.25),
}


class TestReferenceEuler:
    @pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
    def test_matches_per_step_reference(self, name):
        p = make_params(**REFERENCE_INSTANCES[name])
        eq = solve_equilibrium_picard(p, TimeGrid(T=1.0, n_steps=20))
        cfg = SimConfig(n_paths=BLOCK_SIZE + 6, dt_sim=1.0 / 40, seed=4,
                        antithetic=True)
        policies = [Policy.equilibrium(eq), Policy.equilibrium(eq, delta_u=0.5, girsanov=False),
                    Policy.equilibrium(eq, delta_v=0.5, girsanov=False), Policy()]
        for policy in policies:
            [ens] = simulate_paths(p, [policy], eq.m, cfg)
            ref = reference_paths(p, policy, eq.m, cfg)
            got = {"cost": per_path_cost(ens, p), "x_final": ens.x_final,
                   "sum_x": ens.sum_x, "int_g_dB": ens.int_g_dB,
                   "int_g2_dt": ens.int_g2_dt}
            if policy.beta is None:
                assert got.pop("int_g_dB") is None and got.pop("int_g2_dt") is None
            for key, value in got.items():
                err = np.abs(value - ref[key]) / np.maximum(1.0, np.abs(ref[key]))
                assert err.max() <= 1e-12, (key, policy)


class TestSharedPass:
    """One stacked call equals separate single-policy calls, bit for bit."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
    def test_stacked_equals_separate(self, name, antithetic):
        p = make_params(**REFERENCE_INSTANCES[name])
        eq = solve_equilibrium_picard(p, TimeGrid(T=1.0, n_steps=20))
        cfg = SimConfig(n_paths=BLOCK_SIZE + 6, dt_sim=1.0 / 40, seed=4,
                        antithetic=antithetic)
        # Girsanov sums present and absent, interleaved
        policies = [Policy.equilibrium(eq, delta_u=0.5, girsanov=False), Policy.equilibrium(eq),
                    Policy(), Policy.equilibrium(eq, delta_u=0.3),
                    Policy.equilibrium(eq, delta_v=0.5, girsanov=False)]
        stacked = simulate_paths(p, policies, eq.m, cfg)
        assert len(stacked) == len(policies)
        for policy, ens in zip(policies, stacked):
            [alone] = simulate_paths(p, [policy], eq.m, cfg)
            np.testing.assert_array_equal(per_path_cost(ens, p), per_path_cost(alone, p))
            for key in ("x_final", "sum_x", "sum_x2", "int_g_dB", "int_g2_dt"):
                got, want = getattr(ens, key), getattr(alone, key)
                if want is None:
                    assert got is None and not policy.girsanov, key
                else:
                    np.testing.assert_array_equal(got, want, err_msg=key)

    def test_perturbed_policies_carry_no_girsanov_sums(self, bench_eq):
        p, eq = bench_eq
        assert Policy.equilibrium(eq).girsanov
        assert not Policy.equilibrium(eq, girsanov=False).girsanov
        assert not Policy.equilibrium(eq, delta_u=0.5, girsanov=False).girsanov
        assert not Policy.equilibrium(eq, delta_v=0.5, girsanov=False).girsanov


class TestDegenerateDynamics:
    def test_noise_free_uncontrolled_path(self):
        # sigma = 0, zero policy, abar = 0: exact Euler recursion x <- (1+a dt) x
        p = make_params(sigma=0.0, abar=0.0)
        g = TimeGrid(T=1.0, n_steps=100)
        m = Trajectory.constant(g, 0.0)
        cfg = SimConfig(n_paths=3, dt_sim=0.01, seed=0)
        [ens] = simulate_paths(p, [Policy()], m, cfg)
        dt = 0.01
        expected = p.x0 * (1.0 + p.a * dt) ** np.arange(101)
        np.testing.assert_allclose(ens.mean_x(), expected, rtol=1e-13)
        assert np.all(ens.x_final == ens.x_final[0])

    def test_antithetic_terminal_mean_exact_for_linear_sde(self):
        # zero policy keeps the SDE linear, so antithetic pair means of x(T)
        # are deterministic and the pair-based standard error collapses
        p = make_params(abar=0.0)
        g = TimeGrid(T=1.0, n_steps=100)
        [ens] = simulate_paths(p, [Policy()], Trajectory.constant(g, 0.0),
                               SimConfig(n_paths=512, dt_sim=0.01, seed=3,
                                         antithetic=True))
        pair_means = ens.x_final.reshape(-1, 2).mean(axis=1)
        assert np.ptp(pair_means) <= 1e-12

    def test_mean_consistency_smoke(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m,
                               small_config(n_paths=4096, seed=7))
        err = np.abs(ens.mean_x() - eq.m.values)
        # 4 SE plus a small discretization allowance
        assert np.all(err <= 4.0 * ens.se_x() + 5e-3)


class TestEstimators:
    def test_theta_zero_exponential_cost_is_one(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m, small_config())
        est = estimate_exponential_cost(ens, p)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_theta_zero_girsanov_is_one(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m, small_config())
        est = estimate_girsanov_normalization(ens, p)
        assert est.mean == 1.0

    def test_sigma_zero_girsanov_is_one(self):
        p = make_params(sigma=0.0, theta=0.3, variant=Variant.RISK_SENSITIVE)
        g = TimeGrid(T=1.0, n_steps=200)
        eq = solve_equilibrium_picard(p, g)
        [ens] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m,
                               SimConfig(n_paths=16, dt_sim=1.0 / 200, seed=0))
        est = estimate_girsanov_normalization(ens, p)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_girsanov_requires_accumulators(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, [Policy()], eq.m, small_config())
        with pytest.raises(ValueError):
            estimate_girsanov_normalization(ens, p)

    def test_sigma_zero_cost_matches_value(self):
        # no noise: the realized equilibrium cost equals the value exactly
        p = make_params(sigma=0.0)
        g = TimeGrid(T=1.0, n_steps=2000)
        eq = solve_equilibrium_picard(p, g)
        [ens] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m,
                               SimConfig(n_paths=2, dt_sim=1.0 / 2000, seed=0))
        est = estimate_risk_neutral_cost(ens, p)
        assert est.std_error <= 1e-12
        assert est.mean == pytest.approx(eq.value.value_at_0, abs=2e-3)

    def test_per_path_cost_nonnegative_risk_neutral(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m, small_config())
        assert np.all(per_path_cost(ens, p) >= 0.0)

    def test_estimate_type(self, bench_eq):
        p, eq = bench_eq
        [ens] = simulate_paths(p, [Policy.equilibrium(eq)], eq.m, small_config())
        est = estimate_risk_neutral_cost(ens, p)
        assert isinstance(est, MCEstimate)
        assert est.n_paths == 256
        assert est.std_error > 0.0


class TestMomentHelpers:
    """The numpy kurtosis and trapezoid sum against scipy's."""

    @staticmethod
    def scipy_kurtosis(x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # precision-loss notice
            return float(scipy.stats.kurtosis(x, fisher=True))

    @pytest.mark.parametrize("sample", ["normal", "lognormal", "four_points"])
    def test_kurtosis_matches_scipy(self, sample):
        rng = np.random.default_rng(3)
        x = {"normal": rng.normal(size=5000),
             "lognormal": np.exp(3.0 * rng.normal(size=5000)),
             "four_points": np.array([0.5, 2.0, -1.0, 0.25])}[sample]
        assert _excess_kurtosis(x) == pytest.approx(self.scipy_kurtosis(x), rel=1e-12)

    @pytest.mark.parametrize("x", [
        np.full(6, 2.5),                                        # constant
        1.0 + np.array([0.0, 0.0, 0.0, np.finfo(float).eps]),   # below rounding
        1.0 + np.finfo(float).eps * np.arange(8.0),             # just above it
    ], ids=["constant", "near_constant", "barely_varying"])
    def test_near_constant_sample(self, x):
        ref = self.scipy_kurtosis(x)
        ours = _excess_kurtosis(x)
        assert (math.isnan(ours) and math.isnan(ref)) or ours == pytest.approx(ref, rel=1e-12)

    def test_trapezoid_weight_integral_matches_scipy(self):
        r = Coefficient.tabulated(np.linspace(0.0, 2.0, 5), np.array([1.0, 0.8, 1.2, 0.5, 2.0]))
        t = np.linspace(0.0, 2.0, 4097)
        assert _trapz_weight_integral(r, 2.0) == pytest.approx(
            float(scipy.integrate.trapezoid(r(t), t)), rel=1e-14)
        assert _trapz_weight_integral(Coefficient.constant(1.5), 2.0) == pytest.approx(
            3.0, rel=1e-14)


@pytest.fixture(scope="module")
def robust_eq():
    p = make_params(variant=Variant.ROBUST, c=0.3)
    return p, solve_equilibrium_picard(p, TimeGrid(T=1.0, n_steps=500))


class TestSaddle:
    def test_requires_robust_variant(self, bench_eq):
        p, eq = bench_eq
        with pytest.raises(ValueError):
            saddle_check(p, eq, 0.5, small_config())

    def test_zero_perturbation_gaps_vanish(self, robust_eq):
        p, eq = robust_eq
        cfg = SimConfig(n_paths=128, dt_sim=2e-3, seed=5)
        rep = saddle_check(p, eq, 0.0, cfg)
        assert rep.gap_u.mean == 0.0 and rep.gap_u.std_error == 0.0
        assert rep.gap_v.mean == 0.0 and rep.gap_v.std_error == 0.0

    def test_resolvable_scale_orders_and_matches(self, robust_eq):
        p, eq = robust_eq
        cfg = SimConfig(n_paths=4096, dt_sim=2e-3, seed=5)
        rep = saddle_check(p, eq, 0.5, cfg)
        # the verdict of lqmfg verify: each gap resolved and within 3 se of theory
        for gap, theory in ((rep.gap_u, rep.analytic_gap_u), (rep.gap_v, rep.analytic_gap_v)):
            assert gap.mean > 3 * gap.std_error
            assert abs(gap.mean - theory) <= 3 * gap.std_error
        assert rep.analytic_gap_u == pytest.approx(0.125)
        assert rep.analytic_gap_v == pytest.approx(0.125)


    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(robust_risk_sensitive=st.booleans(),
           a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5),
           c=st.floats(0.0, 0.8), sigma=st.floats(0.0, 0.6),
           theta=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 31),
           antithetic=st.booleans())
    def test_zero_perturbation_gaps_exactly_zero(self, robust_risk_sensitive, a, abar,
                                                 c, sigma, theta, seed, antithetic):
        variant = (Variant.ROBUST_RISK_SENSITIVE if robust_risk_sensitive
                   else Variant.ROBUST)
        p = make_params(variant=variant, a=a, abar=abar, c=c, sigma=sigma, theta=theta)
        try:
            eq = solve_equilibrium_closed_form(p, TimeGrid(T=1.0, n_steps=20))
        except BlowUpError:
            assume(False)
        cfg = SimConfig(n_paths=64, dt_sim=1.0 / 40, seed=seed, antithetic=antithetic)
        rep = saddle_check(p, eq, 0.0, cfg)
        assert rep.gap_u.mean == 0.0 and rep.gap_u.std_error == 0.0
        assert rep.gap_v.mean == 0.0 and rep.gap_v.std_error == 0.0
        assert (rep.base.int_g_dB is not None) == p.variant.uses_theta

