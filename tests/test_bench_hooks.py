"""The hooks the benchmark reads from outside lqmfg, exercised through its
own tracer (bench/tracer.py) on small solve, verify and sweep runs."""
import importlib.util
import math
import sys
from pathlib import Path

from lqmfg import cli

TRACER_PY = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

MODEL = """\
[model]
a = -0.5
abar = 0.3
b = 1.0
q = 1.0
qbar = 0.5
r = 1.0
qT = 1.0
qbarT = 0.5
T = 1.0
x0 = 1.0
m0 = 1.0
"""

VERIFY_CFG = MODEL + """\
variant = robust_risk_sensitive
c = 0.5
theta = 0.25
sigma = 0.2

[grid]
n_steps = 20

[sim]
n_paths = 64
dt_sim = 0.025
seed = 3
"""

# theta = 1.8 and 1.9 escape in beta, 1.7 does not
SWEEP_CFG = MODEL + """\
variant = risk_sensitive
sigma = 1.0

[grid]
n_steps = 50

[sweep]
parameter = theta
start = 1.7
stop = 1.9
count = 3
"""


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_every_hook(tmp_path, monkeypatch):
    tracer_mod = load_tracer(monkeypatch)
    verify_cfg, sweep_cfg = tmp_path / "verify.cfg", tmp_path / "sweep.cfg"
    verify_cfg.write_text(VERIFY_CFG)
    sweep_cfg.write_text(SWEEP_CFG)
    solved = []
    original = cli.run_solve_pipeline

    def tapped(cfg):
        out = original(cfg)
        solved.append((out.route_gap, out.eq_picard.value.value_at_0))
        return out

    monkeypatch.setattr(cli, "run_solve_pipeline", tapped)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        codes = [cli.main([command, "--config", str(cfg), "--out-dir",
                           str(tmp_path / command), "--quiet"])
                 for command, cfg in (("solve", verify_cfg), ("verify", verify_cfg),
                                      ("sweep", sweep_cfg))]
    finally:
        tracer.uninstall()
    assert codes[0] == codes[2] == cli.EXIT_OK
    assert codes[1] in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL)
    metrics = tracer_mod.layer_metrics(tracer, tracer.counts())
    # per solve, each route's one Phi, whose alpha the equilibrium keeps: 2
    # in solve and in verify; 1 in the sweep's one row without an escape
    assert metrics["riccati.solve_alpha.calls"] == 2 * 2 + 1
    # both routes take that Phi through the public apply_phi, so its span sees each
    assert metrics["equilibrium.apply_phi.calls"] == 5
    # the fixed-point route's one Phi application in solve and in verify
    # (Picard took 19 steps each)
    assert metrics["equilibrium.picard.iterations"] == 2
    assert metrics["riccati.blowups"] == 2
    # beta is solved once per instance: solve, verify and each sweep row
    assert metrics["riccati.solve_beta.calls"] == 5
    assert metrics["simulate.simulate_paths.calls"] == 1
    # Trajectory.__call__ only tabulates simulate_paths' inputs on the
    # simulation grid: m, the 4 feedback laws once for the policy and its
    # shifts, and beta, alpha for the Girsanov sums; the solvers read node
    # values
    assert metrics["model.traj_evals"] == 1 + 4 + 2
    # Coefficient.__call__: beta's substage table and alpha's coefficient
    # tables are built once per instance (219 when every solve rebuilt them);
    # lam on the nodes reads r and s, once per Phi and once for the sweep
    # (175 when the fixed-point route made 10 Phi applications per solve)
    assert metrics["model.coef_evals"] == 143
    assert metrics["simulate.path_steps"] == 64 * 40
    # solve and verify ran the same solve; at n_steps = 20 both routes are
    # second order, so they agree to about 3e-5
    assert len(solved) == 2 and solved[0] == solved[1]
    gap, value = solved[0]
    assert 0.0 <= gap < 1e-3 and math.isfinite(value)
