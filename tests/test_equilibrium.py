import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from lqmfg.model import Coefficient, TimeGrid, Trajectory, Variant
from lqmfg.riccati import _alpha_tables, solve_alpha, solve_beta
from lqmfg.equilibrium import (
    BlowUpError,
    NonConvergenceError,
    _cumulative_trapezoid,
    admissibility_margin,
    apply_phi,
    check_conditions,
    solve_equilibrium_closed_form,
    solve_equilibrium_picard,
)
from conftest import make_params


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
        phi = apply_phi(p, beta, Trajectory.constant(grid, 0.0), grid)
        np.testing.assert_array_equal(phi.values, 0.0)

    def test_decoupled_linear_ode(self, grid):
        # abar = 0, qbar = 0: fixed point m = m0 e^{(a - lam beta0) t}
        p = make_params(a=0.2, abar=0.0, q=1.0, qbar=0.0, qT=1.0, qbarT=0.0)
        beta, _ = solve_beta(p, grid)
        rate = p.a - beta.values * 1.0  # lam = b^2/r = 1, beta not constant
        # iterate to the fixed point and compare with quadrature of the rate
        exact = p.m0 * np.exp(cumulative_trapezoid(rate, grid.nodes, initial=0.0))
        m = Trajectory.constant(grid, p.m0)
        for _ in range(50):
            m = apply_phi(p, beta, m, grid)
        # fixed point of the trapezoid map matches the quadrature to O(dt^2)
        assert np.max(np.abs(m.values - exact)) <= 1e-5

    def test_closed_form_mean_is_fixed_point(self, grid, bench):
        eq = solve_equilibrium_closed_form(bench, grid)
        phi = apply_phi(bench, eq.riccati.beta, eq.m, grid)
        assert np.max(np.abs(phi.values - eq.m.values)) <= 1e-6

    @pytest.mark.parametrize("overrides", [
        {},
        {"variant": Variant.ROBUST_RISK_SENSITIVE, "c": 0.5, "theta": 0.25,
         "q": Coefficient.tabulated(np.linspace(0.0, 1.0, 4), np.array([1.0, 1.5, 0.8, 1.2]))},
    ], ids=["risk_neutral", "robust_risk_sensitive_tabulated"])
    def test_shared_tables_change_nothing(self, grid, overrides):
        # the tables a Picard solve builds once give what each call would build
        p = make_params(**overrides)
        beta, _ = solve_beta(p, grid)
        m = Trajectory(grid, 1.0 + 0.3 * np.sin(3.0 * grid.nodes))
        tables = _alpha_tables(p, beta, grid)
        np.testing.assert_array_equal(apply_phi(p, beta, m, grid, tables=tables).values,
                                      apply_phi(p, beta, m, grid).values)


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
    def test_zero_mean_equilibrium(self, grid):
        p = make_params(m0=0.0, qbarT=0.0)
        eq = solve_equilibrium_picard(p, grid)
        np.testing.assert_allclose(eq.m.values, 0.0, atol=1e-12)

    def test_residual_history_decreases(self, grid):
        p = make_params(abar=0.0, qbar=0.0, qbarT=0.0)
        eq = solve_equilibrium_picard(p, grid)
        hist = eq.residual_history
        assert len(hist) == eq.iterations
        # geometric decay once the iteration settles
        assert all(hist[i + 1] < hist[i] for i in range(1, len(hist) - 1))

    def test_initial_node_and_residual(self, grid, bench):
        eq = solve_equilibrium_picard(bench, grid)
        assert eq.m.values[0] == bench.m0
        assert eq.residual <= 1e-10

    def test_blow_up_passthrough(self, grid):
        p = make_params(a=0.0, abar=0.0, sigma=1.0, theta=2.0, q=25.0, qbar=0.0,
                        qT=0.0, qbarT=0.0, variant=Variant.RISK_SENSITIVE)
        with pytest.raises(BlowUpError):
            solve_equilibrium_picard(p, grid)

    def test_non_convergence_reported(self):
        # strong positive feedback through the mean on a long horizon
        p = make_params(a=1.0, abar=4.0, q=0.0, qbar=4.0, qT=0.0, qbarT=4.0,
                        T=3.0)
        g = TimeGrid(T=3.0, n_steps=600)
        with pytest.raises(NonConvergenceError) as exc:
            solve_equilibrium_picard(p, g, max_iter=20)
        assert len(exc.value.residual_history) == 20


class TestRouteAgreement:
    def test_benchmark(self, grid, bench):
        eq_p = solve_equilibrium_picard(bench, grid)
        eq_c = solve_equilibrium_closed_form(bench, grid)
        assert np.max(np.abs(eq_p.m.values - eq_c.m.values)) <= 1e-6
        assert eq_p.value.value_at_0 == pytest.approx(eq_c.value.value_at_0, abs=1e-6)

    def test_decoupled_identical(self, grid):
        p = make_params(abar=0.0, qbar=0.0, qbarT=0.0)
        eq_p = solve_equilibrium_picard(p, grid)
        eq_c = solve_equilibrium_closed_form(p, grid)
        assert np.max(np.abs(eq_p.m.values - eq_c.m.values)) <= 1e-7

    @pytest.mark.parametrize("variant", [Variant.RISK_SENSITIVE, Variant.ROBUST,
                                         Variant.ROBUST_RISK_SENSITIVE])
    def test_variant_reduction_gives_same_equilibrium(self, grid, variant):
        rn = solve_equilibrium_closed_form(make_params(), grid)
        other = solve_equilibrium_closed_form(
            make_params(variant=variant, theta=0.0, c=0.0), grid)
        assert np.max(np.abs(rn.m.values - other.m.values)) <= 1e-12
        assert other.value.value_at_0 == pytest.approx(rn.value.value_at_0, abs=1e-12)

    @pytest.mark.parametrize("variant,extra", [
        (Variant.RISK_SENSITIVE, dict(theta=0.25)),
        (Variant.ROBUST, dict(c=0.3)),
        (Variant.ROBUST_RISK_SENSITIVE, dict(theta=0.2, c=0.3)),
    ])
    def test_routes_agree_on_other_variants(self, grid, variant, extra):
        p = make_params(variant=variant, **extra)
        eq_p = solve_equilibrium_picard(p, grid)
        eq_c = solve_equilibrium_closed_form(p, grid)
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
            eq_p = solve_equilibrium_picard(p, grid)
            eq_c = solve_equilibrium_closed_form(p, grid)
        except (BlowUpError, NonConvergenceError):
            assume(False)
        # both routes are second order in dt; on this box the gaps at n = 200
        # peak in the corner a = 1, abar = 0.5: 6.4e-6 in m, 8.9e-6 in the value
        assert np.max(np.abs(eq_p.m.values - eq_c.m.values)) <= 1e-5
        assert eq_p.value.value_at_0 == pytest.approx(eq_c.value.value_at_0, abs=2e-5)

    def test_alpha_eta_consistency(self, grid, bench):
        eq = solve_equilibrium_closed_form(bench, grid)
        from_eta = eq.riccati.eta.values * eq.m.values
        assert np.max(np.abs(eq.riccati.alpha.values - from_eta)) <= 1e-6


class TestUniquenessAndContraction:
    def test_two_initial_guesses_same_fixed_point(self, half_grid):
        p = contraction_instance()
        g = half_grid
        eq1 = solve_equilibrium_picard(p, g)
        shifted = np.full(g.n_steps + 1, p.m0 + 1.0)
        shifted[0] = p.m0
        eq2 = solve_equilibrium_picard(p, g, initial=Trajectory(g, shifted))
        assert np.max(np.abs(eq1.m.values - eq2.m.values)) <= 1e-8

    def test_empirical_factor_below_reported_bound(self, half_grid):
        p = contraction_instance()
        g = half_grid
        eq = solve_equilibrium_picard(p, g)
        rep = check_conditions(p, eq.riccati.beta, g)
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

    def test_risk_sensitive_reports_both_bounds(self, grid):
        p = make_params(variant=Variant.RISK_SENSITIVE, theta=0.25)
        beta, _ = solve_beta(p, grid)
        rep = check_conditions(p, beta, grid)
        assert rep.alt_g_tilde is not None
        # keeping theta sigma^2 in g_tilde shrinks it
        assert rep.alt_g_tilde <= rep.g_tilde
        assert rep.alt_lipschitz_bound <= rep.lipschitz_bound

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
