import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

from lqmfg.equilibrium import admissible_beta, solve_equilibrium_closed_form
from lqmfg.model import TimeGrid, Trajectory, Variant
from lqmfg.riccati import (
    Beta,
    _substages,
    assemble_value,
    solve_alpha,
    solve_beta,
    solve_eta,
    solve_gamma,
)
from conftest import beta_orders_on_kinked_weights, dop853_reference, make_params, tabulated
from picard_oracle import solve_picard
from riccati_oracle import FiniteEscapeError, closed_form_constant_riccati

# Frozen reference values, computed once with scipy.integrate.solve_ivp
# (DOP853, rtol 1e-13, atol 1e-14) on the coupled backward system.
# Instance A: a=-1, abar=0.5, kappa=1 (b=1, r=1), q=0.5, qbar=0.5,
#             qT=qbarT=0, T=1, m=1, sigma=0.3
REF_A_BETA0 = 0.3858185961863494
REF_A_ALPHA0 = -0.1929092980931747
REF_A_GAMMA0 = 0.1851953556417872
# Instance B: benchmark coefficients (a=-0.5, abar=0.3, q=1, qbar=0.5,
#             qT=1, qbarT=0.5, kappa=1, T=1)
REF_B_BETA0 = 0.8616900831879006
REF_B_ETA0 = -0.1210590379981056


def instance_a():
    return make_params(a=-1.0, abar=0.5, q=0.5, qbar=0.5, qT=0.0, qbarT=0.0,
                       sigma=0.3)


def rk4_reference(f, yT, grid):
    """Classical RK4 backward from y(T) = yT, one f(t, y) call per substage."""
    h, nodes = grid.dt, grid.nodes
    vals = np.zeros(grid.n_steps + 1)
    vals[-1] = yT
    for k in range(grid.n_steps - 1, -1, -1):
        t1, y = nodes[k + 1], vals[k + 1]
        k1 = f(t1, y)
        k2 = f(t1 - h / 2, y - h / 2 * k1)
        k3 = f(t1 - h / 2, y - h / 2 * k2)
        k4 = f(t1 - h, y - h * k3)
        vals[k] = y - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return vals


class TestSolveBeta:
    def test_zero_data_gives_zero(self, grid):
        p = make_params(q=0.0, qbar=0.0, qT=0.0, qbarT=0.0)
        beta, status = solve_beta(p, grid)
        assert status.admissible
        np.testing.assert_array_equal(beta.values, 0.0)

    def test_tanh_solution(self, grid):
        # a=0, kappa=1, q+qbar=1, beta(T)=0: beta(t) = tanh(1-t)
        p = make_params(a=0.0, q=0.5, qbar=0.5, qT=0.0, qbarT=0.0)
        beta, status = solve_beta(p, grid)
        assert status.admissible
        exact = np.tanh(1.0 - grid.nodes)
        assert np.max(np.abs(beta.values - exact)) <= 1e-8

    def test_fourth_order_convergence(self):
        # constant coefficients: each step is the exact flow, so the tanh
        # solution is met to rounding and a halving ratio would be noise
        p = make_params(a=0.0, q=0.5, qbar=0.5, qT=0.0, qbarT=0.0)
        for n in (50, 100):
            g = TimeGrid(T=1.0, n_steps=n)
            beta, _ = solve_beta(p, g)
            assert np.max(np.abs(beta.values - np.tanh(1.0 - g.nodes))) <= 1e-13
        # the order shows on time-varying coefficients; with the commutator
        # term of the Magnus exponent flipped in sign it drops to 2
        assert min(beta_orders_on_kinked_weights()) >= 3.8

    def test_stiff_decay_is_not_escape(self, grid):
        # a = 3000: beta relaxes within ~1e-4 of T onto the stable root
        # (a + sqrt(a^2 + kappa Q)) / kappa; no pole anywhere
        p = make_params(a=3000.0)
        beta, status = solve_beta(p, grid)
        assert status.admissible
        exact = closed_form_constant_riccati(3000.0, 1.0, 1.5, 1.5, 1.0, 0.0)
        assert exact == pytest.approx(6000.00025, rel=1e-12)
        assert beta.values[0] == pytest.approx(exact, rel=1e-9)

    def test_linear_overflow_is_not_escape(self):
        # kappa = 0 (robust, c = b): beta is linear, has no pole, and at
        # a = 800 outgrows the floats near t = 0.56
        p = make_params(variant=Variant.ROBUST, c=1.0, a=800.0)
        beta, status = solve_beta(p, TimeGrid(T=1.0, n_steps=1000))
        assert status.admissible
        assert np.isnan(beta.values).all()

    @pytest.mark.parametrize("n_steps", [50, 1000])
    @pytest.mark.parametrize("a,kappa,Q,betaT", [
        (0.0, -1.0, 25.0, 0.0),      # tan branch, pole at 1 - pi/10
        (0.5, -2.0, 0.1, 1.0),       # tanh branch with c2 < -1
        (0.5, -2.0, 0.0, 1.0),       # Q = 0, tanh branch with c2 < -1
        (0.0, -500.0, 200.0, 0.0),   # at n = 50 a step spans a whole period
    ])
    def test_escape_time_matches_closed_form(self, n_steps, a, kappa, Q, betaT):
        # risk-sensitive with b = r = sigma = 1: kappa = 1 - theta
        p = make_params(variant=Variant.RISK_SENSITIVE, sigma=1.0, theta=1.0 - kappa,
                        a=a, q=Q, qbar=0.0, qT=betaT, qbarT=0.0)
        with pytest.raises(FiniteEscapeError) as exc:
            closed_form_constant_riccati(a, kappa, Q, betaT, 1.0, 0.0)
        _, status = solve_beta(p, TimeGrid(T=1.0, n_steps=n_steps))
        assert not status.admissible
        assert status.blow_up_time == pytest.approx(exc.value.escape_time, abs=1e-9)

    @pytest.mark.parametrize("n_steps", [50, 1000])
    def test_escape_with_zero_discriminant(self, n_steps):
        # q = qbar = a = 0 and kappa = 1 - theta = -1: beta' = kappa beta^2,
        # every step's discriminant is exactly 0, and beta = 1/(t - T + 1/betaT)
        # escapes at T - 1/(|kappa| betaT) = 1 - 1/1.5
        p = make_params(variant=Variant.RISK_SENSITIVE, sigma=1.0, theta=2.0,
                        a=0.0, q=0.0, qbar=0.0, qT=1.0, qbarT=0.5)
        _, status = solve_beta(p, TimeGrid(T=1.0, n_steps=n_steps))
        assert not status.admissible
        assert status.blow_up_time == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_nonnegative_when_kappa_positive(self, grid):
        beta, _ = solve_beta(make_params(), grid)
        assert np.all(beta.values >= 0.0)

    def test_blow_up_detected(self, grid):
        # kappa = -1 (theta sigma^2 = 2 > b^2/r = 1), q = 25, T = 1:
        # analytic escape at t = 1 - pi/10
        p = make_params(a=0.0, abar=0.0, sigma=1.0, theta=2.0, q=25.0, qbar=0.0,
                        qT=0.0, qbarT=0.0, variant=Variant.RISK_SENSITIVE)
        beta, status = solve_beta(p, grid)
        assert not status.admissible
        assert status.blow_up_time == pytest.approx(1.0 - math.pi / 10, abs=2e-3)

    def test_short_horizon_does_not_blow_up(self):
        p = make_params(a=0.0, abar=0.0, sigma=1.0, theta=2.0, q=25.0, qbar=0.0,
                        qT=0.0, qbarT=0.0, variant=Variant.RISK_SENSITIVE)
        g = TimeGrid(T=0.25, n_steps=250)
        _, status = solve_beta(p, g)
        assert status.admissible

    def test_kappa_monotonicity(self, grid):
        # pointwise larger kappa gives pointwise smaller-or-equal beta
        lo, _ = solve_beta(make_params(r=1.0), grid)        # kappa = 1
        hi, _ = solve_beta(make_params(r=0.5), grid)        # kappa = 2
        assert np.all(hi.values <= lo.values + 1e-12)

    def test_risk_sensitive_beta_dominates_risk_neutral(self, grid):
        rn, _ = solve_beta(make_params(), grid)
        rs, _ = solve_beta(make_params(variant=Variant.RISK_SENSITIVE,
                                       theta=0.5, sigma=0.5), grid)
        assert np.all(rs.values >= rn.values - 1e-12)


class TestVariantReductions:
    def test_theta_zero_matches_risk_neutral(self, grid):
        rn, _ = solve_beta(make_params(), grid)
        rs, _ = solve_beta(make_params(variant=Variant.RISK_SENSITIVE, theta=0.0),
                           grid)
        assert np.max(np.abs(rn.values - rs.values)) <= 1e-12

    def test_c_zero_matches_risk_neutral(self, grid):
        rn, _ = solve_beta(make_params(), grid)
        rob, _ = solve_beta(make_params(variant=Variant.ROBUST, c=0.0), grid)
        assert np.max(np.abs(rn.values - rob.values)) <= 1e-12

    def test_robust_matches_risk_sensitive(self, grid):
        theta0, sigma = 0.4, 0.5
        rs, _ = solve_beta(make_params(variant=Variant.RISK_SENSITIVE,
                                       theta=theta0, sigma=sigma), grid)
        c = math.sqrt(theta0) * sigma
        rob, _ = solve_beta(make_params(variant=Variant.ROBUST, c=c,
                                        sigma=sigma), grid)
        assert np.max(np.abs(rs.values - rob.values)) <= 1e-12


class TestSolveAlpha:
    def test_zero_mean_gives_zero(self, grid):
        p = make_params()
        beta, _ = solve_beta(p, grid)
        alpha = solve_alpha(p, beta, Trajectory(grid, np.full(grid.n_steps + 1, 0.0)), grid)
        np.testing.assert_array_equal(alpha.values, 0.0)

    def test_zero_source_gives_zero(self, grid):
        p = make_params(abar=0.0, qbar=0.0, qbarT=0.0)
        beta, _ = solve_beta(p, grid)
        alpha = solve_alpha(p, beta, Trajectory(grid, np.full(grid.n_steps + 1, 3.0)), grid)
        np.testing.assert_array_equal(alpha.values, 0.0)

    def test_constant_coefficient_reference(self, grid):
        p = instance_a()
        beta, _ = solve_beta(p, grid)
        assert beta.values[0] == pytest.approx(REF_A_BETA0, abs=1e-8)
        alpha = solve_alpha(p, beta, Trajectory(grid, np.full(grid.n_steps + 1, 1.0)), grid)
        assert alpha.values[0] == pytest.approx(REF_A_ALPHA0, abs=1e-8)

    def test_linearity_in_m(self, grid):
        p = make_params()
        beta, _ = solve_beta(p, grid)
        m1 = Trajectory(grid, np.cos(grid.nodes))
        m2 = Trajectory(grid, 0.5 * grid.nodes)
        a1 = solve_alpha(p, beta, m1, grid)
        a2 = solve_alpha(p, beta, m2, grid)
        a12 = solve_alpha(p, beta, Trajectory(grid, m1.values + m2.values), grid)
        assert np.max(np.abs(a12.values - a1.values - a2.values)) <= 1e-12

    def test_terminal_condition(self, grid):
        p = make_params()
        beta, _ = solve_beta(p, grid)
        m = Trajectory(grid, np.full(grid.n_steps + 1, 2.0))
        alpha = solve_alpha(p, beta, m, grid)
        assert alpha.values[-1] == pytest.approx(-p.qbarT * 2.0)


class TestSolveGamma:
    def test_all_sources_vanish(self, grid):
        p = make_params(sigma=0.0, qbarT=0.0)
        beta, _ = solve_beta(p, grid)
        m = Trajectory(grid, np.full(grid.n_steps + 1, 0.0))
        alpha = solve_alpha(p, beta, m, grid)
        gamma = solve_gamma(p, beta, alpha, m, grid)
        np.testing.assert_array_equal(gamma.values, 0.0)

    def test_constant_beta_quadrature(self, grid):
        # a=0, q=1, qT=1 keeps beta = 1; with m = alpha = 0,
        # gamma(t) = (sigma^2/2)(T - t)
        p = make_params(a=0.0, q=1.0, qbar=0.0, qT=1.0, qbarT=0.0, sigma=0.5,
                        m0=0.0, x0=0.0)
        beta, _ = solve_beta(p, grid)
        np.testing.assert_allclose(beta.values, 1.0, atol=1e-12)
        m = Trajectory(grid, np.full(grid.n_steps + 1, 0.0))
        alpha = solve_alpha(p, beta, m, grid)
        gamma = solve_gamma(p, beta, alpha, m, grid)
        exact = 0.5 * 0.25 * (1.0 - grid.nodes)
        assert np.max(np.abs(gamma.values - exact)) <= 1e-12

    def test_full_instance_reference(self, grid):
        p = instance_a()
        beta, _ = solve_beta(p, grid)
        m = Trajectory(grid, np.full(grid.n_steps + 1, 1.0))
        alpha = solve_alpha(p, beta, m, grid)
        gamma = solve_gamma(p, beta, alpha, m, grid)
        assert gamma.values[0] == pytest.approx(REF_A_GAMMA0, abs=1e-8)


class TestSolveEta:
    def test_zero_source(self, grid):
        p = make_params(abar=0.0, qbar=0.0, qbarT=0.0)
        beta, _ = solve_beta(p, grid)
        eta, status = solve_eta(p, beta, grid)
        assert status.admissible
        np.testing.assert_array_equal(eta.values, 0.0)

    def test_risk_neutral_reference(self, grid):
        p = make_params()
        beta, _ = solve_beta(p, grid)
        assert beta.values[0] == pytest.approx(REF_B_BETA0, abs=1e-8)
        eta, status = solve_eta(p, beta, grid)
        assert status.admissible
        assert eta.values[0] == pytest.approx(REF_B_ETA0, abs=1e-8)

    def test_terminal_condition(self, grid):
        p = make_params()
        beta, _ = solve_beta(p, grid)
        eta, _ = solve_eta(p, beta, grid)
        assert eta.values[-1] == pytest.approx(-p.qbarT)


class TestTabulatedCore:
    """The tabulated solves on tabulated weights, against DOP853 with classical
    RK4 as the yardstick, and the pinned equilibria of the benchmark."""

    def test_matches_per_substage_reference(self):
        grid = TimeGrid(T=1.0, n_steps=200)
        p = make_params(variant=Variant.ROBUST, c=0.5, sigma=0.3,
                        q=tabulated(1.0, 1.5, 0.8, 1.2), r=tabulated(1.0, 0.8, 1.2))
        a, abar, q, qbar = p.a, p.abar, p.q, p.qbar
        m = Trajectory(grid, 1.0 + 0.3 * np.sin(3.0 * grid.nodes))

        def f_beta(t, y):
            return p.kappa(t) * y * y - 2 * a * y - (q(t) + qbar(t))

        # q kinks at 1/3 and 2/3, off the grid; r at 1/2
        kinks = (1 / 3, 2 / 3)

        def assert_no_worse_than_rk4(values, f, yT):
            exact = dop853_reference(f, yT, grid, kinks)
            err = np.max(np.abs(values - exact))
            assert err <= np.max(np.abs(rk4_reference(f, yT, grid) - exact))

        beta, _ = solve_beta(p, grid)
        assert_no_worse_than_rk4(beta.values, f_beta, p.qT + p.qbarT)
        nodes, bv = grid.nodes, beta.values
        bspl = CubicHermiteSpline(nodes, bv, f_beta(nodes, bv))

        def f_alpha(t, y):
            return -a * y - (abar * bspl(t) - qbar(t)) * m(t) + p.kappa(t) * bspl(t) * y

        alpha = solve_alpha(p, beta, m, grid)
        assert_no_worse_than_rk4(alpha.values, f_alpha, -p.qbarT * m(p.T))

        aspl = CubicHermiteSpline(nodes, alpha.values, f_alpha(nodes, alpha.values))

        def f_gamma(t, y):
            return (-abar * aspl(t) * m(t) - 0.5 * p.sigma ** 2 * bspl(t)
                    - 0.5 * qbar(t) * m(t) ** 2 + 0.5 * p.kappa(t) * aspl(t) ** 2)

        gamma = solve_gamma(p, beta, alpha, m, grid)
        ref_gamma = rk4_reference(f_gamma, 0.5 * p.qbarT * m(p.T) ** 2, grid)
        assert np.max(np.abs(gamma.values - ref_gamma)) <= 1e-13

        def f_eta(t, y):
            return (-(2 * a + abar - (p.kappa(t) + p.lam(t)) * bspl(t)) * y
                    + p.lam(t) * y * y - (abar * bspl(t) - qbar(t)))

        eta, status = solve_eta(p, beta, grid)
        assert status.admissible
        assert_no_worse_than_rk4(eta.values, f_eta, -p.qbarT)

    @pytest.mark.parametrize("overrides,iterations,picard_value,closed_value", [
        ({}, 21, 0.44314187595164833, 0.44314187755177414),
        ({"variant": Variant.RISK_SENSITIVE, "theta": 0.25},
         21, 0.4444721664894019, 0.4444721681047764),
        ({"variant": Variant.ROBUST, "c": 0.5,
          "q": tabulated(1.0, 1.5, 0.8, 1.2), "r": tabulated(1.0, 0.8, 1.2)},
         19, 0.5130712406417912, 0.5130712417105928),
        ({"variant": Variant.ROBUST_RISK_SENSITIVE, "c": 0.5, "theta": 0.25},
         19, 0.4916651976388565, 0.4916651990700771),
    ], ids=["risk_neutral", "risk_sensitive", "robust", "robust_risk_sensitive"])
    def test_pinned_equilibria(self, grid, overrides, iterations, picard_value,
                               closed_value):
        # the benchmark's four solve instances at n_steps = 1000
        p = make_params(**overrides)
        beta = admissible_beta(p, grid)
        eq_p, _ = solve_picard(p, beta, grid)
        eq_c = solve_equilibrium_closed_form(p, beta, grid)
        assert eq_p.iterations == iterations
        assert eq_p.value.value_at_0 == pytest.approx(picard_value, abs=1e-13)
        assert eq_c.value.value_at_0 == pytest.approx(closed_value, abs=1e-13)


class TestHermite:
    """The substage sampling behind every dependent solve: node values at each
    step's ends, and a cubic Hermite (with slopes) or linear midpoint."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(T=float(rng.uniform(0.5, 3.0)), n_steps=14)
        values, slopes = rng.normal(size=15), rng.normal(size=15)
        y = Trajectory(grid, values)
        cubic = CubicHermiteSpline(grid.nodes, values, slopes)(grid.substages)
        linear = np.interp(grid.substages, grid.nodes, values)
        for ours, expect in ((_substages(grid, y, slopes), cubic),
                             (_substages(grid, y), linear)):
            assert ours.shape == (3, grid.n_steps)
            np.testing.assert_allclose(ours, expect, rtol=1e-14,
                                       atol=1e-14 * np.max(np.abs(expect)))
            # the ends are the node values themselves
            np.testing.assert_array_equal(ours[0], values[1:])
            np.testing.assert_array_equal(ours[2], values[:-1])

    @settings(max_examples=60, deadline=None)
    @given(coef=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           T=st.floats(0.1, 5.0), n_steps=st.integers(2, 12))
    def test_reproduces_any_cubic(self, coef, T, n_steps):
        grid = TimeGrid(T=T, n_steps=n_steps)
        p = np.polynomial.Polynomial(coef)
        out = _substages(grid, Trajectory(grid, p(grid.nodes)), p.deriv()(grid.nodes))
        scale = sum(abs(c) * 5.0 ** k for k, c in enumerate(coef))
        assert np.max(np.abs(out - p(grid.substages))) <= 1e-12 * (1.0 + scale)

    @pytest.mark.parametrize("T, steps", [(2.0, 1), (1.0, 2)])
    def test_mean_on_another_grid_is_refused(self, grid, T, steps):
        p = make_params()
        beta, _ = solve_beta(p, grid)
        alpha = solve_alpha(p, beta, Trajectory(grid, np.full(grid.n_steps + 1, 1.0)), grid)
        fine = TimeGrid(T=T, n_steps=steps * grid.n_steps)
        other = Trajectory(fine, np.ones(fine.n_steps + 1))
        with pytest.raises(ValueError, match="n_steps"):
            solve_alpha(p, beta, other, grid)
        with pytest.raises(ValueError, match="n_steps"):
            solve_gamma(p, beta, alpha, other, grid)


class TestClosedFormConstantRiccati:
    def test_linear_degenerate(self):
        assert closed_form_constant_riccati(0.0, 0.0, 1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_linear_with_drift(self):
        # backward flow of beta' = -2a beta - Q
        a, Q, betaT, T = 0.7, 2.0, 0.5, 1.0
        e = math.exp(2 * a * T)
        expect = e * betaT + Q * (e - 1.0) / (2 * a)
        assert closed_form_constant_riccati(a, 0.0, Q, betaT, T, 0.0) == pytest.approx(expect)

    def test_tanh_branch(self):
        out = closed_form_constant_riccati(0.0, 1.0, 1.0, 0.0, 1.0, 0.0)
        assert out == pytest.approx(math.tanh(1.0), abs=1e-14)

    def test_tan_branch_pole(self):
        with pytest.raises(FiniteEscapeError) as exc:
            closed_form_constant_riccati(0.0, 1.0, -1.0, 0.0, 2.0, 0.0)
        assert exc.value.escape_time == pytest.approx(2.0 - math.pi / 2)

    def test_tan_branch_before_pole(self):
        # beta' = beta^2 + 1 with beta(T) = 0: beta(t) = -tan(T - t)
        out = closed_form_constant_riccati(0.0, 1.0, -1.0, 0.0, 1.0, 0.5)
        assert out == pytest.approx(-math.tan(0.5), abs=1e-12)

    @pytest.mark.parametrize("a,kappa,Q,betaT", [(1e6, 1.0, 1.0, 1.0),
                                                 (-1e3, 1.0, 1.0, 1.0)])
    def test_large_horizon_reaches_stable_root(self, a, kappa, Q, betaT):
        # w s is far beyond the range of cosh; beta sits at (a + w)/kappa
        w = math.sqrt(a * a + kappa * Q)
        out = closed_form_constant_riccati(a, kappa, Q, betaT, 1.0, 0.0)
        assert out == pytest.approx((a + w) / kappa, rel=1e-12)

    def test_unit_c2_stays_on_the_decaying_mode(self):
        # a = w = 1, c2 = -1: u = e^{(a-w)s} and beta = 0 for every horizon
        assert closed_form_constant_riccati(1.0, 1.0, 0.0, 0.0, 50.0, 0.0) == 0.0

    @pytest.mark.parametrize("a,kappa,Q,betaT", [
        (0.3, 1.5, 2.0, 0.7),
        (-0.4, 0.8, 0.0, 1.2),
        (0.0, 2.0, 0.5, 0.0),
        (1.0, -0.5, -1.0, 0.3),
    ])
    def test_against_fine_integration(self, a, kappa, Q, betaT):
        from scipy.integrate import solve_ivp
        sol = solve_ivp(lambda t, y: kappa * y[0] ** 2 - 2 * a * y[0] - Q,
                        [1.0, 0.0], [betaT], rtol=1e-12, atol=1e-13,
                        method="DOP853")
        out = closed_form_constant_riccati(a, kappa, Q, betaT, 1.0, 0.0)
        assert out == pytest.approx(sol.y[0, -1], abs=1e-9)


class TestAssembleValue:
    def test_zero_solution(self, grid):
        p = make_params()
        z = Trajectory(grid, np.full(grid.n_steps + 1, 0.0))
        v = assemble_value(p, z, z, z)
        assert v.value_at_0 == 0.0
        np.testing.assert_array_equal(v.feedback_gain.values, 0.0)

    def test_value_reduces_to_gamma_at_zero_state(self, grid):
        p = make_params(x0=0.0)
        beta, _ = solve_beta(p, grid)
        m = Trajectory(grid, np.full(grid.n_steps + 1, 1.0))
        alpha = solve_alpha(p, beta, m, grid)
        gamma = solve_gamma(p, beta, alpha, m, grid)
        v = assemble_value(p, beta, alpha, gamma)
        assert v.value_at_0 == pytest.approx(gamma.values[0])

    def test_gains(self, grid):
        p = make_params(variant=Variant.ROBUST, c=0.3, b=2.0, r=4.0, s=2.0)
        beta, _ = solve_beta(p, grid)
        m = Trajectory(grid, np.full(grid.n_steps + 1, 1.0))
        alpha = solve_alpha(p, beta, m, grid)
        gamma = solve_gamma(p, beta, alpha, m, grid)
        v = assemble_value(p, beta, alpha, gamma)
        np.testing.assert_allclose(v.feedback_gain.values, -2.0 * beta.values / 4.0)
        np.testing.assert_allclose(v.disturbance_gain.values, 0.3 * beta.values / 2.0)

    def test_exp_value_for_risk_sensitive(self, grid):
        p = make_params(variant=Variant.RISK_SENSITIVE, theta=0.25)
        beta, _ = solve_beta(p, grid)
        m = Trajectory(grid, np.full(grid.n_steps + 1, 1.0))
        alpha = solve_alpha(p, beta, m, grid)
        gamma = solve_gamma(p, beta, alpha, m, grid)
        v = assemble_value(p, beta, alpha, gamma)
        assert v.exp_value == pytest.approx(math.exp(0.25 * v.value_at_0))


class TestBetaTables:
    """beta carries the tables that do not involve the mean path."""

    def rrs(self, **overrides):
        return make_params(**{"variant": Variant.ROBUST_RISK_SENSITIVE, "c": 0.5,
                              "theta": 0.25, "q": tabulated(1.0, 1.5, 0.8, 1.2),
                              "r": tabulated(1.0, 0.8, 1.2), **overrides})

    def test_tables_are_the_formulas_bit_for_bit(self, grid):
        p = self.rrs()
        beta, _ = solve_beta(p, grid)
        assert isinstance(beta, Beta) and beta.params is p
        nodes, t, v = grid.nodes, grid.substages, beta.values
        # the slopes from beta's own ODE at the nodes
        slopes = p.kappa(nodes) * v * v - 2 * p.a * v - (p.q(nodes) + p.qbar(nodes))
        np.testing.assert_array_equal(beta.substages, _substages(grid, beta, slopes))
        assert beta.substages is beta.substages
        assert beta.alpha_steps is beta.alpha_steps

    @pytest.mark.parametrize("other", ["grid", "params"])
    def test_beta_for_another_instance_is_refused(self, grid, other):
        p = self.rrs()
        m = Trajectory(grid, np.full(grid.n_steps + 1, 1.0))
        alpha = solve_alpha(p, admissible_beta(p, grid), m, grid)
        if other == "grid":
            beta, match = admissible_beta(p, TimeGrid(T=1.0, n_steps=500)), "n_steps"
        else:
            beta, match = admissible_beta(self.rrs(theta=0.3), grid), "other params"
        with pytest.raises(ValueError, match=match):
            solve_alpha(p, beta, m, grid)
        with pytest.raises(ValueError, match=match):
            solve_gamma(p, beta, alpha, m, grid)
        with pytest.raises(ValueError, match=match):
            solve_eta(p, beta, grid)


class TestAlphaLoop:
    """alpha's one backward float loop against the exact composition of its steps."""

    @staticmethod
    def composed_in_decimals(p, beta, grid, m):
        """alpha's steps y <- e^x y + w12 (e^x - 1) / x, built from the
        coefficients of alpha' = c1 alpha + w m and composed in 40 digits."""
        t, bv = grid.substages, beta.substages
        w, c1 = -(p.abar * bv - p.qbar(t)), -p.a + p.kappa(t) * bv
        c0 = w * _substages(grid, m)
        with localcontext() as ctx:
            ctx.prec = 40
            h = Decimal(grid.dt)
            y = Decimal(float(-p.qbarT * m.values[-1]))
            out = [y]
            for k in range(grid.n_steps - 1, -1, -1):
                a0, a1, a2 = (Decimal(float(v)) for v in c1[:, k])
                b0, b1, b2 = (Decimal(float(v)) for v in c0[:, k])
                x = -h / 6 * (a0 + 4 * a1 + a2)
                w12 = -h / 6 * (b0 + 4 * b1 + b2) - h * h / 12 * (a0 * b2 - a2 * b0)
                e = x.exp()
                y = e * y + (w12 * (e - 1) / x if x else w12)
                out.append(y)
        return np.array([float(v) for v in out[::-1]])

    def assert_near_exact(self, p, beta, grid, m):
        alpha = solve_alpha(p, beta, m, grid).values
        exact = self.composed_in_decimals(p, beta, grid, m)
        # below the normal floats rounding is absolute
        tol = 1e-14 * np.max(np.abs(exact)) + np.finfo(float).tiny
        assert np.isfinite(alpha).all()
        assert np.max(np.abs(alpha - exact)) <= tol

    @settings(max_examples=60, deadline=None)
    @example(variant=Variant.RISK_NEUTRAL, n_steps=1000, a=0.625, abar=0.0, q=0.0, qbar=1.6953125,
             r=2.0, qbarT=0.0, T=2.0, c=0.0, theta=0.0, m_shape=(1.0, 0.0, 0.0))
    @given(variant=st.sampled_from(list(Variant)), n_steps=st.sampled_from([2, 31, 32, 33, 1000]),
           a=st.floats(-3.0, 3.0), abar=st.floats(-1.0, 1.0), q=st.floats(0.0, 2.0),
           qbar=st.floats(0.0, 2.0), r=st.floats(0.5, 2.0), qbarT=st.floats(0.0, 1.0),
           T=st.floats(0.2, 2.0), c=st.floats(0.0, 0.7), theta=st.floats(0.0, 0.5),
           m_shape=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 10.0)))
    def test_matches_the_composition_on_generated_instances(self, variant, n_steps, a, abar, q,
                                                            qbar, r, qbarT, T, c, theta, m_shape):
        p = make_params(variant=variant, a=a, abar=abar, q=tabulated(q, 1.0, 2.0 - q),
                        qbar=qbar, r=r, qbarT=qbarT, T=T, c=c, theta=theta)
        grid = TimeGrid(T=T, n_steps=n_steps)
        level, amplitude, freq = m_shape
        m = Trajectory(grid, level + amplitude * np.sin(freq * grid.nodes))
        beta, status = solve_beta(p, grid)
        assume(status.admissible)
        self.assert_near_exact(p, beta, grid, m)

    @pytest.mark.parametrize("a", [800.0, -800.0, 30000.0, -30000.0])
    def test_stiff_drift(self, grid, a):
        # at a = +-30000, h |c1| is about 30 in every step
        p, m = make_params(a=a), Trajectory(grid, np.cos(grid.nodes))
        self.assert_near_exact(p, admissible_beta(p, grid), grid, m)

    def test_mean_path_near_the_float_limit(self, grid):
        p, m = make_params(a=-800.0), Trajectory(grid, np.full(grid.n_steps + 1, 1e302))
        self.assert_near_exact(p, admissible_beta(p, grid), grid, m)

    @pytest.mark.parametrize("a", [0.2, 2.5])
    def test_constant_steps_do_not_compound_rounding(self, a):
        # kappa = 0 (robust with c^2/s = b^2/r) and abar = qbar = 0: every
        # step multiplies alpha by the same e^x, so a loop taking
        # y <- exp(x) y compounds one rounding of exp(x), to 1e-13 at a = 2.5
        p = make_params(variant=Variant.ROBUST, c=1.0, a=a, abar=0.0, qbar=0.0,
                        qbarT=1.0, T=2.0)
        grid = TimeGrid(T=2.0, n_steps=1000)
        m = Trajectory(grid, np.full(grid.n_steps + 1, 1.0))
        assert np.all(p.kappa(grid.nodes) == 0.0)
        self.assert_near_exact(p, admissible_beta(p, grid), grid, m)

    def test_mean_path_on_another_grid_is_refused(self, grid):
        p = make_params()
        m = Trajectory(TimeGrid(T=1.0, n_steps=500), np.full(501, 1.0))
        with pytest.raises(ValueError, match="n_steps"):
            solve_alpha(p, admissible_beta(p, grid), m, grid)
