import numpy as np
import pytest

from lqmfg.model import (
    Coefficient,
    TimeGrid,
    Trajectory,
    Variant,
    validate,
)
from conftest import make_params


class TestCoefficient:
    def test_constant_evaluates_everywhere(self):
        c = Coefficient.constant(2.5)
        assert c(0.0) == 2.5
        assert c(0.7) == 2.5
        np.testing.assert_array_equal(c(np.array([0.0, 0.3, 1.0])), [2.5, 2.5, 2.5])

    def test_tabulated_linear_interpolation(self):
        c = Coefficient.tabulated(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 0.0]))
        assert c(0.25) == pytest.approx(1.5)
        assert c(0.75) == pytest.approx(1.0)

    def test_tabulated_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            Coefficient.tabulated(np.array([0.0, 0.5, 0.5]), np.array([1.0, 1.0, 1.0]))

    def test_equality(self):
        assert Coefficient.constant(1.0) == Coefficient.constant(1.0)
        assert Coefficient.constant(1.0) != Coefficient.constant(2.0)


class TestTimeGrid:
    def test_nodes_uniform(self):
        g = TimeGrid(T=2.0, n_steps=4)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.dt == 0.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            TimeGrid(T=-1.0, n_steps=10)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, n_steps=1)


class TestTrajectory:
    def test_length_checked(self):
        g = TimeGrid(T=1.0, n_steps=4)
        with pytest.raises(ValueError):
            Trajectory(g, np.zeros(4))


class TestValidate:
    def test_valid_instance(self):
        assert validate(make_params()) == ()

    def test_zero_r_rejected(self):
        violations = validate(make_params(r=0.0))
        assert violations
        assert any("r must be strictly positive" in v for v in violations)

    def test_negative_tabulated_qbar_names_node(self):
        qbar = Coefficient.tabulated(np.array([0.0, 0.5, 1.0]),
                                     np.array([0.5, -0.1, 0.5]))
        violations = validate(make_params(qbar=qbar))
        assert violations
        assert any("qbar" in v and "node 1" in v for v in violations)

    def test_zero_b_rejected(self):
        assert validate(make_params(b=0.0))

    @pytest.mark.parametrize("field,value", [
        ("sigma", -0.1), ("theta", -0.1), ("qT", -1.0), ("qbarT", -1.0), ("T", 0.0),
    ])
    def test_sign_constraints(self, field, value):
        assert validate(make_params(**{field: value}))


class TestEffectiveCoefficients:
    def test_risk_neutral(self):
        p = make_params(b=1.0, r=1.0)
        assert p.kappa(0.3) == 1.0
        assert p.lam(0.3) == 1.0

    def test_risk_sensitive(self):
        p = make_params(variant=Variant.RISK_SENSITIVE, b=1.0, r=1.0,
                        theta=0.5, sigma=1.0)
        assert p.kappa(0.0) == pytest.approx(0.5)
        assert p.lam(0.0) == pytest.approx(1.0)

    def test_robust(self):
        p = make_params(variant=Variant.ROBUST, b=1.0, r=1.0, c=0.5, s=1.0)
        assert p.kappa(0.0) == pytest.approx(0.75)
        assert p.lam(0.0) == pytest.approx(0.75)

    def test_robust_matches_risk_sensitive_when_c2_over_s_is_theta_sigma2(self):
        theta0, sigma = 0.5, 0.8
        rs = make_params(variant=Variant.RISK_SENSITIVE, theta=theta0, sigma=sigma)
        c = np.sqrt(theta0) * sigma  # c^2/s = theta0 sigma^2 with s = 1
        rob = make_params(variant=Variant.ROBUST, c=c, sigma=sigma)
        t = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(rob.kappa(t), rs.kappa(t), atol=1e-15)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_kappa_le_lam_le_b2_over_r(self, variant):
        p = make_params(variant=variant, theta=0.3, sigma=0.5, c=0.4)
        t = np.linspace(0.0, 1.0, 21)
        kap, lam = np.asarray(p.kappa(t)), np.asarray(p.lam(t))
        b2r = p.b ** 2 / np.asarray(p.r(t))
        assert np.all(kap <= lam + 1e-15)
        assert np.all(lam <= b2r + 1e-15)
        if variant in (Variant.RISK_NEUTRAL, Variant.ROBUST):
            np.testing.assert_array_equal(kap, lam)

    def test_reductions_to_risk_neutral(self):
        t = np.linspace(0.0, 1.0, 11)
        rn = make_params()
        for variant in (Variant.RISK_SENSITIVE, Variant.ROBUST,
                        Variant.ROBUST_RISK_SENSITIVE):
            p = make_params(variant=variant, theta=0.0, c=0.0)
            np.testing.assert_array_equal(p.kappa(t), rn.kappa(t))
            np.testing.assert_array_equal(p.lam(t), rn.lam(t))

    def test_pure(self):
        p = make_params(variant=Variant.ROBUST_RISK_SENSITIVE, theta=0.2, c=0.3)
        t = np.linspace(0.0, 1.0, 7)
        np.testing.assert_array_equal(p.kappa(t), p.kappa(t))
