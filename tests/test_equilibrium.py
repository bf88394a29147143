import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from lqmfg.model import Coefficient, TimeGrid, Trajectory, Variant
from lqmfg.cli import RunConfig, run_solve_pipeline
from lqmfg.riccati import Beta, solve_beta
from lqmfg.simulate import SimConfig
from lqmfg.equilibrium import (
    BlowUpError,
    NonConvergenceError,
    _cumulative_trapezoid,
    admissibility_margin,
    admissible_beta,
    apply_phi,
    check_conditions,
    solve_equilibrium_closed_form,
    solve_equilibrium_picard,
)
from conftest import make_params, tabulated
from picard_oracle import solve_picard


def contraction_instance():
    """Small weights and horizon so the Lipschitz bound is below one."""
    return make_params(a=-0.5, abar=0.1, q=0.1, qbar=0.05, qT=0.1, qbarT=0.05,
                       T=0.5, m0=1.0, x0=1.0)


@pytest.fixture
def half_grid():
    return TimeGrid(T=0.5, n_steps=500)


class TestApplyPhi:
    def test_zero_fixed_point(self, grid):
        p = make_params(m0=0.0)
        beta, _ = solve_beta(p, grid)
        phi, _ = apply_phi(p, beta, Trajectory(grid, np.full(grid.n_steps + 1, 0.0)), grid)
        np.testing.assert_array_equal(phi.values, 0.0)

    def test_decoupled_linear_ode(self, grid):
        # abar = 0, qbar = 0: fixed point m = m0 e^{(a - lam beta0) t}
        p = make_params(a=0.2, abar=0.0, q=1.0, qbar=0.0, qT=1.0, qbarT=0.0)
        beta, _ = solve_beta(p, grid)
        rate = p.a - beta.values * 1.0  # lam = b^2/r = 1, beta not constant
        # iterate to the fixed point and compare with quadrature of the rate
        exact = p.m0 * np.exp(cumulative_trapezoid(rate, grid.nodes, initial=0.0))
        m = Trajectory(grid, np.full(grid.n_steps + 1, p.m0))
        for _ in range(50):
            m, _ = apply_phi(p, beta, m, grid)
        # fixed point of the trapezoid map matches the quadrature to O(dt^2)
        assert np.max(np.abs(m.values - exact)) <= 1e-5

    def test_closed_form_mean_is_fixed_point(self, grid, bench):
        eq = solve_equilibrium_closed_form(bench, admissible_beta(bench, grid), grid)
        phi, _ = apply_phi(bench, eq.beta, eq.m, grid)
        assert np.max(np.abs(phi.values - eq.m.values)) <= 1e-6

    @pytest.mark.parametrize("overrides", [
        {},
        {"variant": Variant.ROBUST_RISK_SENSITIVE, "c": 0.5, "theta": 0.25,
         "q": Coefficient(np.array([1.0, 1.5, 0.8, 1.2]), np.linspace(0.0, 1.0, 4))},
    ], ids=["risk_neutral", "robust_risk_sensitive_tabulated"])
    def test_beta_tables_built_once_per_instance(self, grid, monkeypatch, overrides):
        # beta does not involve m: both routes and the conditions share one
        # substage table and one set of alpha's step terms
        builds = {name: [] for name in ("substages", "alpha_steps")}
        for name, calls in builds.items():
            build = getattr(Beta, name).func

            def counted(beta, build=build, calls=calls):
                calls.append(beta)
                return build(beta)

            prop = functools.cached_property(counted)
            prop.__set_name__(Beta, name)
            monkeypatch.setattr(Beta, name, prop)
        cfg = RunConfig(params=make_params(**overrides), grid=grid,
                        sim=SimConfig(n_paths=2, dt_sim=1e-3, seed=0))
        out = run_solve_pipeline(cfg)
        assert out.eq_picard.beta is out.eq_closed.beta
        assert builds == dict.fromkeys(builds, [out.eq_picard.beta])


class TestCumulativeTrapezoid:
    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.0, 2.0, 300))
        y = rng.normal(size=300)
        ours = _cumulative_trapezoid(y, x)
        np.testing.assert_allclose(ours, cumulative_trapezoid(y, x, initial=0.0),
                                   rtol=1e-14, atol=1e-14)
        assert ours[0] == 0.0 and ours.shape == x.shape


class TestPicard:
    """The plain iteration m <- Phi[m] of tests/picard_oracle.py."""

    def test_zero_mean_equilibrium(self, grid):
        p = make_params(m0=0.0, qbarT=0.0)
        eq = solve_picard(p, admissible_beta(p, grid), grid)
        np.testing.assert_allclose(eq.m.values, 0.0, atol=1e-12)

    def test_residual_history_decreases(self, grid):
        p = make_params(abar=0.0, qbar=0.0, qbarT=0.0)
        eq = solve_picard(p, admissible_beta(p, grid), grid)
        hist = eq.residual_history
        assert len(hist) == eq.iterations
        # geometric decay once the iteration settles
        assert all(hist[i + 1] < hist[i] for i in range(1, len(hist) - 1))

    def test_initial_node_and_residual(self, grid, bench):
        eq = solve_picard(bench, admissible_beta(bench, grid), grid)
        assert eq.m.values[0] == bench.m0
        assert eq.residual <= 1e-10

    def test_blow_up_passthrough(self, grid):
        p = make_params(a=0.0, abar=0.0, sigma=1.0, theta=2.0, q=25.0, qbar=0.0,
                        qT=0.0, qbarT=0.0, variant=Variant.RISK_SENSITIVE)
        with pytest.raises(BlowUpError):
            admissible_beta(p, grid)

    def test_non_convergence_reported(self):
        # strong positive feedback through the mean on a long horizon
        p = make_params(a=1.0, abar=4.0, q=0.0, qbar=4.0, qT=0.0, qbarT=4.0,
                        T=3.0)
        g = TimeGrid(T=3.0, n_steps=600)
        with pytest.raises(NonConvergenceError) as exc:
            solve_picard(p, admissible_beta(p, g), g, max_iter=20)
        assert len(exc.value.residual_history) == 20


# the benchmark's four solve instances
BENCH_INSTANCES = {
    "risk_neutral": {},
    "risk_sensitive": {"variant": Variant.RISK_SENSITIVE, "theta": 0.25},
    "robust": {"variant": Variant.ROBUST, "c": 0.5,
               "q": tabulated(1.0, 1.5, 0.8, 1.2), "r": tabulated(1.0, 0.8, 1.2)},
    "robust_risk_sensitive": {"variant": Variant.ROBUST_RISK_SENSITIVE,
                              "c": 0.5, "theta": 0.25},
}


class TestFixedPointRoute:
    """The backward sweep of the discrete fixed point, the route
    solve_equilibrium_picard takes."""

    @pytest.mark.parametrize("name", list(BENCH_INSTANCES))
    def test_bench_instances_match_the_oracle(self, grid, name):
        p = make_params(**BENCH_INSTANCES[name])
        beta = admissible_beta(p, grid)
        eq = solve_equilibrium_picard(p, beta, grid)
        assert eq.iterations == 1
        # the one entry is a true Phi application, and it is the residual
        assert eq.residual_history == (eq.residual,)
        assert eq.residual <= 1e-13
        m, _ = apply_phi(p, beta, eq.m, grid)
        assert np.max(np.abs(m.values - eq.m.values)) == eq.residual
        # Picard takes 27-31 steps to this tolerance here
        oracle = solve_picard(p, beta, grid, tol=1e-15)
        assert np.max(np.abs(eq.m.values - oracle.m.values)) <= 1e-13

    def test_zero_mean_equilibrium(self, grid):
        p = make_params(m0=0.0, qbarT=0.0)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        assert eq.iterations == 1
        np.testing.assert_array_equal(eq.m.values, 0.0)

    def test_solves_where_picard_diverges(self):
        # the benchmark sweep's instance at theta = 1.7: rho(L) = 1.14
        p = make_params(variant=Variant.RISK_SENSITIVE, sigma=1.0, theta=1.7)
        g = TimeGrid(T=1.0, n_steps=1000)
        beta = admissible_beta(p, g)
        with pytest.raises(NonConvergenceError):
            solve_picard(p, beta, g)
        eq = solve_equilibrium_picard(p, beta, g)
        closed = solve_equilibrium_closed_form(p, beta, g)
        assert eq.residual <= 1e-10
        assert np.max(np.abs(eq.m.values - closed.m.values)) <= 1e-5

    @pytest.mark.parametrize("n_steps", [150, 300, 600])
    def test_singular_system_is_refused(self, n_steps):
        # a pivot of the sweep is <= 0: the residual is small, but m(T) is
        # -281, -1124 and -4503 at these grids
        p = make_params(a=1.0, abar=4.0, q=0.0, qbar=4.0, qT=0.0, qbarT=4.0,
                        T=3.0)
        g = TimeGrid(T=3.0, n_steps=n_steps)
        with pytest.raises(NonConvergenceError) as exc:
            solve_equilibrium_picard(p, admissible_beta(p, g), g)
        assert exc.value.reason == "singular"
        assert exc.value.residual_history[-1] <= 1e-10

    def test_zero_pivot_is_singular(self):
        # robust with c = b makes lam = 0, so m' = (a + abar) m, whose
        # trapezoid step 1 - h (a + abar) / 2 is exactly 0 here
        p = make_params(variant=Variant.ROBUST, c=1.0, a=7.5, abar=0.5)
        g = TimeGrid(T=1.0, n_steps=4)
        with pytest.raises(NonConvergenceError) as exc:
            solve_equilibrium_picard(p, admissible_beta(p, g), g)
        assert exc.value.reason == "singular"

    @pytest.mark.parametrize("q, n_steps, hc, n_min", [
        (1e6, 10, "99.97", 1000), (1e6, 30, "33.32", 1000), (1e6, 100, "9.997", 1000),
        (1e6, 499, "2.003", 1000), (1e7, 1000, "3.162", 3162)])
    def test_sign_flipping_mean_is_refused(self, q, n_steps, hc, n_min):
        # c = a + abar - lam beta is about -sqrt(q): the trapezoid's ratio
        # (1 + h c/2) / (1 - h c/2) is < 0 once h |c| > 2.  At q = 1e6 and
        # n_steps = 10 the sweep gave value_at_0 = -1900 against 519.9
        p = make_params(q=q)
        g = TimeGrid(T=1.0, n_steps=n_steps)
        with pytest.raises(NonConvergenceError) as exc:
            solve_equilibrium_picard(p, admissible_beta(p, g), g)
        assert exc.value.reason == "step_ratio"
        assert exc.value.residual_history[-1] <= 1e-10
        assert str(exc.value).endswith(
            f"h max|a + abar - lam beta| = {hc} must stay below 2 or the mean changes "
            f"sign; n_steps >= {n_min} brings it to 1 or below")
        g = TimeGrid(T=1.0, n_steps=n_min)
        assert np.all(solve_equilibrium_picard(p, admissible_beta(p, g), g).m.values >= 0.0)

    def test_both_routes_converge_from_the_first_accepted_grid(self):
        # q = 1e6: every R_k > 0 from n_steps = 500 on (refused at 499 above).
        # Against the closed form at 64000 steps (519.8762) the observed
        # orders of the doublings from 500 are 1.87, 1.96, 2.00 (fixed
        # point) and 1.69, 1.91, 1.98 (closed form): second order once
        # h |c| <= 1, short of it at h |c| = 2
        p = make_params(q=1e6)

        def values(n):
            g = TimeGrid(T=1.0, n_steps=n)
            beta = admissible_beta(p, g)
            return np.array([solve_equilibrium_picard(p, beta, g).value.value_at_0,
                             solve_equilibrium_closed_form(p, beta, g).value.value_at_0])

        ref = values(64000)[1]
        err = [np.abs(values(n) - ref) for n in (500, 1000, 2000, 4000)]
        order = [np.log2(e / e_half) for e, e_half in zip(err, err[1:])]
        assert np.all(order[0] >= 1.65)
        assert np.all(np.array(order[1:]) >= 1.9)

    def test_overflowing_phi_is_non_finite(self):
        # no warning either: the suite turns warnings into errors
        p = make_params(a=1e300)
        g = TimeGrid(T=1.0, n_steps=200)
        with pytest.raises(NonConvergenceError) as exc:
            solve_equilibrium_picard(p, admissible_beta(p, g), g)
        assert exc.value.reason == "non_finite"
        assert len(exc.value.residual_history) == 1

    @pytest.mark.parametrize("a", [800.0, -800.0])
    def test_stiff_instance_converges(self, grid, a):
        p = make_params(a=a)
        eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
        assert eq.residual <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(list(Variant)),
           a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5),
           sigma=st.floats(0.0, 0.6), theta=st.floats(0.0, 0.5), c=st.floats(0.0, 0.8),
           weights=st.lists(st.lists(st.floats(0.5, 1.5), min_size=2, max_size=4),
                            min_size=4, max_size=4))
    def test_generated_instances_match_the_oracle(self, variant, a, abar, sigma, theta,
                                                  c, weights):
        q, qbar, r, s = (tabulated(*w) for w in weights)
        p = make_params(variant=variant, a=a, abar=abar, sigma=sigma, q=q, qbar=qbar,
                        r=r, s=s, theta=theta if variant.uses_theta else 0.0,
                        c=c if variant.uses_disturbance else 0.0)
        grid = TimeGrid(T=1.0, n_steps=200)
        try:
            beta = admissible_beta(p, grid)
            oracle = solve_picard(p, beta, grid, tol=1e-15, max_iter=400)
        except (BlowUpError, NonConvergenceError):
            assume(False)
        eq = solve_equilibrium_picard(p, beta, grid)
        scale = max(1.0, float(np.max(np.abs(eq.m.values))))
        assert eq.residual <= 1e-12 * scale
        assert np.max(np.abs(eq.m.values - oracle.m.values)) <= 1e-12


class TestRouteAgreement:
    def test_benchmark(self, grid, bench):
        beta = admissible_beta(bench, grid)
        eq_p = solve_equilibrium_picard(bench, beta, grid)
        eq_c = solve_equilibrium_closed_form(bench, beta, grid)
        assert np.max(np.abs(eq_p.m.values - eq_c.m.values)) <= 1e-6
        assert eq_p.value.value_at_0 == pytest.approx(eq_c.value.value_at_0, abs=1e-6)

    def test_decoupled_identical(self, grid):
        p = make_params(abar=0.0, qbar=0.0, qbarT=0.0)
        beta = admissible_beta(p, grid)
        eq_p = solve_equilibrium_picard(p, beta, grid)
        eq_c = solve_equilibrium_closed_form(p, beta, grid)
        assert np.max(np.abs(eq_p.m.values - eq_c.m.values)) <= 1e-7

    @pytest.mark.parametrize("variant", [Variant.RISK_SENSITIVE, Variant.ROBUST,
                                         Variant.ROBUST_RISK_SENSITIVE])
    def test_variant_reduction_gives_same_equilibrium(self, grid, variant):
        rn_p = make_params()
        rn = solve_equilibrium_closed_form(rn_p, admissible_beta(rn_p, grid), grid)
        p = make_params(variant=variant, theta=0.0, c=0.0)
        other = solve_equilibrium_closed_form(p, admissible_beta(p, grid), grid)
        assert np.max(np.abs(rn.m.values - other.m.values)) <= 1e-12
        assert other.value.value_at_0 == pytest.approx(rn.value.value_at_0, abs=1e-12)

    @pytest.mark.parametrize("variant,extra", [
        (Variant.RISK_SENSITIVE, dict(theta=0.25)),
        (Variant.ROBUST, dict(c=0.3)),
        (Variant.ROBUST_RISK_SENSITIVE, dict(theta=0.2, c=0.3)),
    ])
    def test_routes_agree_on_other_variants(self, grid, variant, extra):
        p = make_params(variant=variant, **extra)
        beta = admissible_beta(p, grid)
        eq_p = solve_equilibrium_picard(p, beta, grid)
        eq_c = solve_equilibrium_closed_form(p, beta, grid)
        assert np.max(np.abs(eq_p.m.values - eq_c.m.values)) <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(list(Variant)),
           a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5),
           sigma=st.floats(0.0, 0.6), theta=st.floats(0.0, 0.5), c=st.floats(0.0, 0.8))
    def test_routes_agree_on_generated_instances(self, variant, a, abar, sigma, theta, c):
        p = make_params(variant=variant, a=a, abar=abar, sigma=sigma,
                        theta=theta if variant.uses_theta else 0.0,
                        c=c if variant.uses_disturbance else 0.0)
        grid = TimeGrid(T=1.0, n_steps=200)
        try:
            beta = admissible_beta(p, grid)
            eq_c = solve_equilibrium_closed_form(p, beta, grid)
        except BlowUpError:
            assume(False)
        # wherever the closed form solves, so does the fixed-point route
        eq_p = solve_equilibrium_picard(p, beta, grid)
        # both routes are second order in dt; on this box the gaps at n = 200
        # peak in the corner a = 1, abar = 0.5: 6.4e-6 in m, 8.9e-6 in the value
        assert np.max(np.abs(eq_p.m.values - eq_c.m.values)) <= 1e-5
        assert eq_p.value.value_at_0 == pytest.approx(eq_c.value.value_at_0, abs=2e-5)

    @staticmethod
    def solved(p, grid):
        """(m, alpha, gamma, value_at_0) of each route, or None when p has none."""
        try:
            beta = admissible_beta(p, grid)
            eqs = (solve_equilibrium_picard(p, beta, grid),
                   solve_equilibrium_closed_form(p, beta, grid))
        except (BlowUpError, NonConvergenceError):
            return None
        return [(eq.m.values, eq.alpha.values, eq.gamma.values, eq.value.value_at_0)
                for eq in eqs]

    # robust and risk_sensitive are not paired: their lam differs
    @pytest.mark.parametrize("variant, reduced, zero", [
        (Variant.RISK_SENSITIVE, Variant.RISK_NEUTRAL, "theta"),
        (Variant.ROBUST, Variant.RISK_NEUTRAL, "c"),
        (Variant.ROBUST_RISK_SENSITIVE, Variant.ROBUST, "theta"),
        (Variant.ROBUST_RISK_SENSITIVE, Variant.RISK_SENSITIVE, "c"),
    ], ids=["rs_theta0", "robust_c0", "rrs_theta0", "rrs_c0"])
    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5), sigma=st.floats(0.0, 0.6),
           theta=st.floats(0.0, 0.5), c=st.floats(0.0, 0.8),
           weights=st.lists(st.lists(st.floats(0.5, 1.5), min_size=2, max_size=4),
                            min_size=4, max_size=4))
    def test_variant_reductions_are_bit_identical(self, variant, reduced, zero, a, abar,
                                                  sigma, theta, c, weights):
        q, qbar, r, s = (tabulated(*w) for w in weights)
        grid = TimeGrid(T=1.0, n_steps=200)

        def params(variant, theta, c):
            return make_params(variant=variant, a=a, abar=abar, sigma=sigma, q=q, qbar=qbar,
                               r=r, s=s, theta=theta if variant.uses_theta else 0.0,
                               c=c if variant.uses_disturbance else 0.0)

        ref = self.solved(params(reduced, theta, c), grid)
        assume(ref is not None)
        other = self.solved(params(variant, **({"theta": theta, "c": c} | {zero: 0.0})), grid)
        assert other is not None
        for route, route_ref in zip(other, ref):
            for got, want in zip(route, route_ref):
                assert np.array_equal(got, want)

    def test_alpha_eta_consistency(self, grid, bench):
        eq = solve_equilibrium_closed_form(bench, admissible_beta(bench, grid), grid)
        from_eta = eq.eta.values * eq.m.values
        assert np.max(np.abs(eq.alpha.values - from_eta)) <= 1e-6


class TestUniquenessAndContraction:
    def test_two_initial_guesses_same_fixed_point(self, half_grid):
        p = contraction_instance()
        g = half_grid
        eq1 = solve_picard(p, admissible_beta(p, g), g)
        shifted = np.full(g.n_steps + 1, p.m0 + 1.0)
        shifted[0] = p.m0
        eq2 = solve_picard(p, admissible_beta(p, g), g, initial=Trajectory(g, shifted))
        assert np.max(np.abs(eq1.m.values - eq2.m.values)) <= 1e-8

    def test_empirical_factor_below_reported_bound(self, half_grid):
        p = contraction_instance()
        g = half_grid
        eq = solve_picard(p, admissible_beta(p, g), g)
        rep = check_conditions(p, eq.beta, g)
        assert rep.contraction
        hist = [r for r in eq.residual_history if r > 1e-14]
        ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1)]
        assert max(ratios) <= rep.lipschitz_bound + 0.1


class TestCheckConditions:
    def test_zero_cost_constants(self, grid):
        # beta = 0, abar = 0, qbar = 0: g = |a|, g_tilde = b^2/r, eps = 0
        p = make_params(abar=0.0, q=0.0, qbar=0.0, qT=0.0, qbarT=0.0)
        beta, _ = solve_beta(p, grid)
        rep = check_conditions(p, beta, grid)
        assert rep.g == pytest.approx(abs(p.a))
        assert rep.g_tilde == pytest.approx(1.0)
        assert rep.eps == 0.0
        assert rep.lipschitz_bound == pytest.approx(p.T * abs(p.a))
        assert rep.contraction == (p.T * abs(p.a) < 1.0)

    def test_risk_sensitive_boundary_margin(self, grid):
        # theta = b^2/(r sigma^2) sits exactly on the admissibility boundary
        p = make_params(variant=Variant.RISK_SENSITIVE, sigma=1.0, theta=1.0)
        beta, status = solve_beta(p, grid)
        assert status.admissible  # kappa = 0 is the linear (non-escaping) case
        rep = check_conditions(p, beta, grid)
        assert rep.margin == pytest.approx(0.0, abs=1e-15)
        assert not rep.admissible

    def test_robust_boundary(self, grid):
        p = make_params(variant=Variant.ROBUST, c=1.0, s=1.0)  # c^2/s = b^2/r
        assert admissibility_margin(p, grid) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("overrides", [
        {"variant": Variant.RISK_SENSITIVE},
        {"variant": Variant.ROBUST_RISK_SENSITIVE, "c": 0.5},
    ], ids=["risk_sensitive", "robust_risk_sensitive"])
    def test_risk_sensitive_reports_both_bounds(self, grid, overrides):
        # kappa and lam differ by theta sigma^2 in both theta variants
        p = make_params(theta=0.25, **overrides)
        beta, _ = solve_beta(p, grid)
        rep = check_conditions(p, beta, grid)
        assert rep.alt_g_tilde is not None
        # keeping theta sigma^2 in g_tilde shrinks it
        assert rep.alt_g_tilde <= rep.g_tilde
        assert rep.alt_lipschitz_bound <= rep.lipschitz_bound

    @pytest.mark.parametrize("a", [800.0, -800.0, 3000.0])
    def test_overflowing_exponential_gives_infinite_bound(self, grid, a):
        p = make_params(variant=Variant.RISK_SENSITIVE, theta=0.25, a=a)
        rep = check_conditions(p, admissible_beta(p, grid), grid)
        assert rep.exponent_norm * p.T > 710.0       # e^710 overflows
        assert rep.lipschitz_bound == rep.alt_lipschitz_bound == math.inf
        assert not rep.contraction

    @pytest.mark.parametrize("overrides", [
        {"a": 800.0, "abar": 0.0, "qbar": 0.0},                  # eps = 0
        {"a": -800.0, "variant": Variant.ROBUST, "c": 1.0},      # lam = 0 = g_tilde
    ], ids=["eps", "g_tilde"])
    def test_zero_factor_keeps_overflow_out(self, grid, overrides):
        p = make_params(**overrides)
        rep = check_conditions(p, admissible_beta(p, grid), grid)
        assert rep.exponent_norm * p.T > 710.0
        assert rep.eps == 0.0 or rep.g_tilde == 0.0
        tail = rep.g_tilde * p.qbarT if rep.eps == 0.0 else 0.0
        assert rep.lipschitz_bound == p.T * (rep.g + tail)
        assert math.isfinite(rep.lipschitz_bound)

    def test_hand_recomputation_on_benchmark(self, grid, bench):
        beta, _ = solve_beta(bench, grid)
        rep = check_conditions(bench, beta, grid)
        bv = beta.values
        g = np.max(np.abs(bench.a + bench.abar - bv))
        eps = np.max(np.abs(bench.abar * bv - 0.5))
        expn = np.max(np.abs(bench.a - bv))
        bound = 1.0 * (g + 1.0 * (0.5 + eps * np.exp(expn)))
        assert rep.g == pytest.approx(g)
        assert rep.eps == pytest.approx(eps)
        assert rep.exponent_norm == pytest.approx(expn)
        assert rep.lipschitz_bound == pytest.approx(bound)
