"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line; run with -s (or read the captured output
on failure) to see them.  The heavier Monte Carlo fixtures are shared at
module scope.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from lqmfg.model import TimeGrid, Trajectory, Variant
from lqmfg.riccati import solve_beta
from lqmfg.equilibrium import (
    admissible_beta,
    check_conditions,
    solve_equilibrium_closed_form,
    solve_equilibrium_picard,
)
from lqmfg.simulate import (
    SimConfig,
    _certainty_equivalent_gap,
    _mc_estimate,
    estimate_log_girsanov_normalization,
    estimate_quadratic_value,
    simulate_paths,
)
from lqmfg.cli import ESS_FLOOR, main as cli_main
from conftest import beta_orders_on_kinked_weights, make_params, saddle_gaps
from picard_oracle import solve_picard

N_PATHS = 100_000
SEED = 20240817


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{tag}  {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(T=1.0, n_steps=1000)


@pytest.fixture(scope="module")
def bench_eq(grid):
    p = make_params()
    return p, solve_equilibrium_picard(p, admissible_beta(p, grid), grid)


@pytest.fixture(scope="module")
def bench_ensemble(bench_eq):
    p, eq = bench_eq
    cfg = SimConfig(n_paths=N_PATHS, dt_sim=1e-3, seed=SEED)
    [ens] = simulate_paths(p, eq, eq.m, cfg)
    return ens


@pytest.fixture(scope="module")
def rs_setup(grid):
    p = make_params(variant=Variant.RISK_SENSITIVE, theta=0.25)
    eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
    cfg = SimConfig(n_paths=N_PATHS, dt_sim=1e-3, seed=SEED)
    [ens] = simulate_paths(p, eq, eq.m, cfg)
    return p, eq, ens


def test_criterion_01_analytic_riccati_and_order(grid):
    # constant coefficients, zero terminal weight: beta(t) = tanh(T - t),
    # which the propagator meets to rounding
    p = make_params(a=0.0, abar=0.0, q=1.0, qbar=0.0, qT=0.0, qbarT=0.0)
    beta, _ = solve_beta(p, grid)
    exact = np.tanh(1.0 - grid.nodes)
    err_fine = float(np.max(np.abs(beta.values - exact)))
    # the order shows on time-varying coefficients
    order = min(beta_orders_on_kinked_weights())
    ok = err_fine <= 1e-13 and order >= 3.8
    report("criterion 1: analytic hyperbolic-tangent solution and 4th-order "
           "convergence", ok, f"sup error {err_fine:.2e}, observed order {order:.2f}")


def test_criterion_02_variant_reductions(grid):
    rn, _ = solve_beta(make_params(), grid)
    worst = 0.0
    for variant in (Variant.RISK_SENSITIVE, Variant.ROBUST,
                    Variant.ROBUST_RISK_SENSITIVE):
        b, _ = solve_beta(make_params(variant=variant, theta=0.0, c=0.0), grid)
        worst = max(worst, float(np.max(np.abs(b.values - rn.values))))
    report("criterion 2: all variants reduce to the risk-neutral solve at "
           "theta = 0, c = 0", worst <= 1e-12, f"max gap {worst:.2e}")


def test_criterion_03_route_agreement(grid, bench_eq):
    p, eq_p = bench_eq
    eq_c = solve_equilibrium_closed_form(p, admissible_beta(p, grid), grid)
    gap = float(np.max(np.abs(eq_p.m.values - eq_c.m.values)))
    ok = gap <= 1e-6 and eq_p.residual <= 1e-10
    report("criterion 3: fixed-point iteration agrees with the closed-form "
           "mean path", ok, f"route gap {gap:.2e}, residual {eq_p.residual:.2e}")


def test_criterion_04_mean_consistency(bench_eq, bench_ensemble):
    p, eq = bench_eq
    ens = bench_ensemble
    diff = np.abs(ens.mean_x - eq.m.values)
    se = ens.se_x
    noisy = se > 0
    worst = float(np.max(diff[noisy] / (3.0 * se[noisy])))
    ok = worst <= 1.0 and bool(np.all(diff[~noisy] <= 1e-12))
    report("criterion 4: simulated mean path matches the equilibrium mean "
           "within 3 standard errors at every node", ok,
           f"max |mean - m| / 3se = {worst:.2f} over {N_PATHS} paths")


def test_criterion_05_value_identity_and_control_gap(bench_eq, bench_ensemble):
    p, eq = bench_eq
    cost = estimate_quadratic_value(bench_ensemble, p)
    theory = eq.value.value_at_0
    bias = 1e-3 * max(1.0, abs(theory))  # Euler-Maruyama, O(dt_sim)
    ok_value = abs(cost.mean - theory) <= 3 * cost.std_error + bias

    # common random numbers isolate the completed-square gap (r/2) du^2 T
    delta = 0.5
    cfg = SimConfig(n_paths=N_PATHS, dt_sim=1e-3, seed=SEED)
    [_, pert] = simulate_paths(p, eq, eq.m, cfg, ((delta, 0.0),))
    gap = _mc_estimate(pert.cost - bench_ensemble.cost)
    gap_theory = 0.5 * 1.0 * delta ** 2 * p.T
    ok_gap = abs(gap.mean - gap_theory) <= 3 * gap.std_error + bias
    report("criterion 5: quadratic cost matches the value and the perturbed "
           "control pays the predicted premium", ok_value and ok_gap,
           f"cost {cost.mean:.5f} vs {theory:.5f}; "
           f"gap {gap.mean:.5f} vs {gap_theory:.5f}")


def test_criterion_06_exponential_identity_and_martingale(rs_setup):
    # on the log scale: (1/theta) log E e^{theta L} = value_at_0 and log E w = 0
    p, eq, ens = rs_setup
    est = _certainty_equivalent_gap(ens.cost, None, p.theta)
    theory = eq.value.value_at_0
    bias = 1e-3 * max(1.0, abs(theory))
    ok_value = abs(est.mean - theory) <= 3 * est.std_error + bias
    mart = estimate_log_girsanov_normalization(ens, p)
    ok_mart = abs(mart.mean) <= 3 * mart.std_error + 1e-3
    report("criterion 6: certainty-equivalent cost matches the value and "
           "the change-of-measure density averages to one",
           ok_value and ok_mart and min(est.ess, mart.ess) >= ESS_FLOOR,
           f"certainty equivalent {est.mean:.5f} vs {theory:.5f}; "
           f"log density mean {mart.mean:.2e}; ess {est.ess:.0f}, {mart.ess:.0f}")


def test_criterion_07_robust_saddle(grid):
    p = make_params(variant=Variant.ROBUST, c=0.3)
    eq = solve_equilibrium_picard(p, admissible_beta(p, grid), grid)
    cfg = SimConfig(n_paths=N_PATHS, dt_sim=1e-3, seed=SEED)
    (gap_u, theory_u), (gap_v, theory_v), _ = saddle_gaps(p, eq, cfg, 0.5)
    # the verdict of lqmfg verify: each gap resolved and within 3 se of theory
    ok = all(gap.mean > 3 * gap.std_error and abs(gap.mean - theory) <= 3 * gap.std_error
             for gap, theory in ((gap_u, theory_u), (gap_v, theory_v)))
    report("criterion 7: perturbing the control raises the cost, perturbing "
           "the disturbance lowers it, by the predicted amounts", ok,
           f"gap_u {gap_u.mean:.5f} vs {theory_u:.5f}, "
           f"gap_v {gap_v.mean:.5f} vs {theory_v:.5f}")


def test_criterion_08_theta_sweep_flip_and_blow_up(grid):
    # admissibility flips exactly at theta = b^2 / (r sigma^2) = 1
    from lqmfg.equilibrium import admissibility_margin
    thetas = np.linspace(0.0, 1.2, 13)
    margins = []
    for theta in thetas:
        p = make_params(variant=Variant.RISK_SENSITIVE, sigma=1.0, theta=theta)
        margins.append(admissibility_margin(p, grid) > 0.0)
    expected = [1.0 - th > 0.0 for th in thetas]  # kappa = (1 - theta) b^2 / r
    ok_flip = margins == expected

    # past the boundary with a strong state cost the solve escapes in finite time
    p = make_params(a=0.0, abar=0.0, sigma=1.0, theta=2.0, q=25.0, qbar=0.0,
                    qT=0.0, qbarT=0.0, variant=Variant.RISK_SENSITIVE)
    _, status = solve_beta(p, grid)
    ok_blow = (not status.admissible) and status.blow_up_time is not None \
        and 0.0 < status.blow_up_time < 1.0
    report("criterion 8: risk-sensitivity sweep flips admissibility at the "
           "predicted threshold and a super-critical instance blows up",
           ok_flip and ok_blow,
           f"blow-up at t = {status.blow_up_time:.4f}" if status.blow_up_time
           else "no blow-up detected")


def test_criterion_09_contraction_uniqueness():
    p = make_params(a=-0.5, abar=0.1, q=0.1, qbar=0.05, qT=0.1, qbarT=0.05,
                    T=0.5)
    g = TimeGrid(T=0.5, n_steps=500)
    eq1, history = solve_picard(p, admissible_beta(p, g), g)
    shifted = np.full(g.n_steps + 1, p.m0 + 1.0)
    shifted[0] = p.m0
    eq2, _ = solve_picard(p, admissible_beta(p, g), g, initial=Trajectory(g, shifted))
    gap = float(np.max(np.abs(eq1.m.values - eq2.m.values)))

    rep = check_conditions(p, eq1.beta, g)
    hist = [r for r in history if r > 1e-14]
    factor = max(hist[i + 1] / hist[i] for i in range(len(hist) - 1))
    ok = rep.contraction and gap <= 1e-8 and factor <= rep.lipschitz_bound + 0.1
    report("criterion 9: on a contractive instance two starting guesses reach "
           "the same fixed point and the observed rate respects the bound", ok,
           f"guess gap {gap:.2e}, factor {factor:.3f} vs bound "
           f"{rep.lipschitz_bound:.3f}")


BENCH_CFG = """\
[model]
variant = risk_neutral
a = -0.5
abar = 0.3
b = 1.0
sigma = 0.2
q = 1.0
qbar = 0.5
r = 1.0
qT = 1.0
qbarT = 0.5
T = 1.0
x0 = 1.0
m0 = 1.0

[grid]
n_steps = 500
"""

SWEEP_CFG = BENCH_CFG.replace("risk_neutral", "risk_sensitive") \
                     .replace("sigma = 0.2", "sigma = 1.0") + """\

[sweep]
parameter = theta
start = 0.0
stop = 1.2
count = 13
"""


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BENCH_CFG)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert cli_main(["solve", "--config", str(cfg), "--out-dir", str(out),
                         "--quiet"]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok_solve = outs[0] == outs[1]

    bytes_by_workers = []
    for i, workers in enumerate(("1", "4")):
        sweep_cfg, out = tmp_path / f"sweep{i}.cfg", tmp_path / f"s{i}"
        sweep_cfg.write_text(SWEEP_CFG + f"workers = {workers}\n")
        assert cli_main(["sweep", "--config", str(sweep_cfg), "--out-dir",
                         str(out), "--quiet"]) == 0
        bytes_by_workers.append((out / "sweep.csv").read_bytes())
    ok_sweep = bytes_by_workers[0] == bytes_by_workers[1]
    report("criterion 10: repeated runs and different worker counts produce "
           "byte-identical outputs", ok_solve and ok_sweep)
