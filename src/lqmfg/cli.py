"""Command-line front end: config ingestion, solve/verify/sweep/check
workflows, CSV emission and plain-text reports.

Config files are flat key=value text with one section per concern
([model], [grid], [sim], [solve], [sweep]); unknown keys or sections are
rejected.  Seed precedence: --seed flag > MFG_SEED env var > config.

Exit codes: 0 success, 1 config error, 2 Riccati blow-up,
3 fixed-point non-convergence, 4 verification failure.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import (
    Coefficient,
    ModelParams,
    TimeGrid,
    Trajectory,
    Variant,
    fmt_float,
    validate,
)
from .riccati import DEFAULT_BLOWUP_CAP
from .equilibrium import (
    BlowUpError,
    ConditionsReport,
    Equilibrium,
    NonConvergenceError,
    check_conditions,
    solve_beta,
    solve_equilibrium_closed_form,
    solve_equilibrium_picard,
)
from .simulate import (
    InsufficientResolutionError,
    Policy,
    SimConfig,
    estimate_exponential_cost,
    estimate_girsanov_normalization,
    estimate_risk_neutral_cost,
    saddle_check,
    simulate_paths,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFY_FAIL = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config schema

_MODEL_KEYS = {
    "variant", "a", "abar", "b", "c", "sigma", "q", "qbar", "r", "s",
    "qt", "qbart", "theta", "t", "x0", "m0",
}
_MODEL_REQUIRED = {"variant", "a", "abar", "b", "sigma", "q", "qbar", "r",
                   "qt", "qbart", "t", "x0", "m0"}
_GRID_KEYS = {"n_steps"}
_SIM_KEYS = {"n_paths", "dt_sim", "seed", "antithetic"}
_SOLVE_KEYS = {"tol", "max_iter", "blow_up_cap"}
_SWEEP_KEYS = {"parameter", "start", "stop", "count", "workers"}
_SECTIONS = {"model": _MODEL_KEYS, "grid": _GRID_KEYS, "sim": _SIM_KEYS,
             "solve": _SOLVE_KEYS, "sweep": _SWEEP_KEYS}

SWEEP_PARAMETERS = ("theta", "c", "T", "qbar-scale")
DEFAULT_STEPS_PER_UNIT_TIME = 1000


@dataclass
class RunConfig:
    params: ModelParams
    grid: TimeGrid
    sim: SimConfig
    tol: float
    max_iter: int
    blow_up_cap: float
    sweep_parameter: str | None = None
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    sweep_count: int = 0
    sweep_workers: int = 1   # accepted for old configs; rows run serially


def _coefficient(text: str, key: str) -> Coefficient:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"[model] {key}: {exc}") from None
    if not vals:
        raise ConfigError(f"[model] {key}: empty value")
    if len(vals) == 1:
        return Coefficient.constant(vals[0])
    return vals  # tabulated; times attached once T is known


def _bool(text: str, where: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def parse_config(path: str | Path) -> RunConfig:
    """Strict parse of a run configuration file."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if "model" not in cp:
        raise ConfigError("missing required section [model]")
    missing = _MODEL_REQUIRED - set(cp["model"])
    if missing:
        raise ConfigError("missing [model] keys: " + ", ".join(sorted(missing)))

    md = cp["model"]

    def mfloat(key: str, default: float | None = None) -> float:
        if key not in md:
            return default
        try:
            return float(md[key])
        except ValueError as exc:
            raise ConfigError(f"[model] {key}: {exc}") from None

    T = mfloat("t")
    if T is None or T <= 0:
        raise ConfigError(f"[model] t must be positive, got {md.get('t')!r}")

    def coef(key: str, default: float | None = None) -> Coefficient:
        if key not in md:
            return Coefficient.constant(default)
        out = _coefficient(md[key], key)
        if isinstance(out, Coefficient):
            return out
        return Coefficient.tabulated(np.linspace(0.0, T, len(out)), np.array(out))

    try:
        variant = Variant.parse(md["variant"])
    except ValueError as exc:
        raise ConfigError(f"[model] variant: {exc}") from None

    params = ModelParams(
        a=mfloat("a"), abar=mfloat("abar"), b=mfloat("b"),
        c=mfloat("c", 0.0), sigma=mfloat("sigma"),
        q=coef("q"), qbar=coef("qbar"), r=coef("r"), s=coef("s", 1.0),
        qT=mfloat("qt"), qbarT=mfloat("qbart"),
        theta=mfloat("theta", 0.0), T=T,
        x0=mfloat("x0"), m0=mfloat("m0"), variant=variant,
    )

    n_steps = None
    if "grid" in cp and "n_steps" in cp["grid"]:
        try:
            n_steps = int(cp["grid"]["n_steps"])
        except ValueError as exc:
            raise ConfigError(f"[grid] n_steps: {exc}") from None
    if n_steps is None:
        n_steps = max(2, round(DEFAULT_STEPS_PER_UNIT_TIME * T))
    grid = TimeGrid(T=T, n_steps=n_steps)

    sd = cp["sim"] if "sim" in cp else {}

    def sval(key, conv, default, where="sim"):
        if key not in sd:
            return default
        try:
            return conv(sd[key])
        except ValueError as exc:
            raise ConfigError(f"[{where}] {key}: {exc}") from None

    try:
        sim = SimConfig(
            n_paths=sval("n_paths", int, 10000),
            dt_sim=sval("dt_sim", float, 1e-3),
            seed=sval("seed", int, 0),
            antithetic=_bool(sd["antithetic"], "[sim] antithetic") if "antithetic" in sd else False,
        )
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from None

    so = cp["solve"] if "solve" in cp else {}

    def oval(key, conv, default):
        if key not in so:
            return default
        try:
            return conv(so[key])
        except ValueError as exc:
            raise ConfigError(f"[solve] {key}: {exc}") from None

    cfg = RunConfig(
        params=params, grid=grid, sim=sim,
        tol=oval("tol", float, 1e-10),
        max_iter=oval("max_iter", int, 200),
        blow_up_cap=oval("blow_up_cap", float, DEFAULT_BLOWUP_CAP),
    )

    if "sweep" in cp:
        sw = cp["sweep"]
        if "parameter" not in sw:
            raise ConfigError("[sweep] needs a 'parameter' key")
        parameter = sw["parameter"].strip()
        if parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"[sweep] parameter must be one of {SWEEP_PARAMETERS}")

        def wval(key, conv):
            if key not in sw:
                raise ConfigError(f"[sweep] missing key {key!r}")
            try:
                return conv(sw[key])
            except ValueError as exc:
                raise ConfigError(f"[sweep] {key}: {exc}") from None

        cfg.sweep_parameter = parameter
        cfg.sweep_start = wval("start", float)
        cfg.sweep_stop = wval("stop", float)
        cfg.sweep_count = wval("count", int)
        if cfg.sweep_count < 2:
            raise ConfigError("[sweep] count must be >= 2")
        cfg.sweep_workers = int(sw.get("workers", "1"))
    return cfg


# ---------------------------------------------------------------------------
# emission helpers

def _coef_text(coef: Coefficient) -> str:
    if coef.is_constant:
        return fmt_float(coef(0.0))
    return ", ".join(fmt_float(v) for v in coef.node_values)


def echo_instance(params: ModelParams, grid: TimeGrid) -> str:
    """Render the instance as config text that re-parses identically."""
    lines = [
        "[model]",
        f"variant = {params.variant.value}",
        f"a = {fmt_float(params.a)}",
        f"abar = {fmt_float(params.abar)}",
        f"b = {fmt_float(params.b)}",
        f"c = {fmt_float(params.c)}",
        f"sigma = {fmt_float(params.sigma)}",
        f"q = {_coef_text(params.q)}",
        f"qbar = {_coef_text(params.qbar)}",
        f"r = {_coef_text(params.r)}",
        f"s = {_coef_text(params.s)}",
        f"qT = {fmt_float(params.qT)}",
        f"qbarT = {fmt_float(params.qbarT)}",
        f"theta = {fmt_float(params.theta)}",
        f"T = {fmt_float(params.T)}",
        f"x0 = {fmt_float(params.x0)}",
        f"m0 = {fmt_float(params.m0)}",
        "",
        "[grid]",
        f"n_steps = {grid.n_steps}",
        "",
    ]
    return "\n".join(lines)


def _write(path: Path, text: str) -> None:
    path.write_text(text, newline="\n")


def _gains_csv(path: Path, eq: Equilibrium, robust: bool) -> None:
    v = eq.value
    nodes = eq.m.grid.nodes
    cols = ["t", "feedback_gain", "feedback_offset"]
    arrays = [nodes, v.feedback_gain.values, v.feedback_offset.values]
    if robust:
        cols += ["disturbance_gain", "disturbance_offset"]
        arrays += [v.disturbance_gain.values, v.disturbance_offset.values]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(fmt_float(x) for x in row) + "\n")


def _conditions_lines(rep: ConditionsReport) -> list[str]:
    out = [
        "conditions:",
        f"  admissible = {rep.admissible}  (margin {fmt_float(rep.margin)})",
        f"  g = {fmt_float(rep.g)}",
        f"  g_tilde = {fmt_float(rep.g_tilde)}",
        f"  eps = {fmt_float(rep.eps)}",
        f"  exponent_norm = {fmt_float(rep.exponent_norm)}",
        f"  lipschitz_bound = {fmt_float(rep.lipschitz_bound)}",
        f"  contraction = {rep.contraction}  (bound < 1)",
    ]
    if rep.alt_lipschitz_bound is not None:
        out += [
            "  # with the theta*sigma^2 term kept in g_tilde "
            "(generalized beyond the risk-neutral loop):",
            f"  alt_g_tilde = {fmt_float(rep.alt_g_tilde)}",
            f"  alt_lipschitz_bound = {fmt_float(rep.alt_lipschitz_bound)}",
        ]
    return out


@dataclass
class SolveOutput:
    eq_picard: Equilibrium
    eq_closed: Equilibrium
    conditions: ConditionsReport
    route_gap: float


def run_solve_pipeline(cfg: RunConfig) -> SolveOutput:
    """validate -> riccati -> both equilibrium routes -> conditions."""
    res = validate(cfg.params)
    if not res.ok:
        raise ConfigError("invalid model: " + "; ".join(res.violations))
    eq_p = solve_equilibrium_picard(cfg.params, cfg.grid, tol=cfg.tol,
                                    max_iter=cfg.max_iter, cap=cfg.blow_up_cap)
    eq_c = solve_equilibrium_closed_form(cfg.params, cfg.grid, cap=cfg.blow_up_cap)
    conds = check_conditions(cfg.params, eq_p.riccati.beta, cfg.grid)
    gap = float(np.max(np.abs(eq_p.m.values - eq_c.m.values)))
    return SolveOutput(eq_p, eq_c, conds, gap)


def cmd_solve(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    report: list[str] = [f"variant = {cfg.params.variant.value}", ""]
    summary: dict[str, str] = {"variant": cfg.params.variant.value}
    try:
        out = run_solve_pipeline(cfg)
    except BlowUpError as exc:
        report += [f"status = blow_up ({exc.which})",
                   f"blow_up_time = {fmt_float(exc.status.blow_up_time)}"]
        summary["status"] = "blow_up"
        summary["blow_up_time"] = fmt_float(exc.status.blow_up_time)
        _finish_report(cfg, out_dir, report, summary, files=[])
        if not quiet:
            print(f"blow-up at t = {exc.status.blow_up_time:g}")
        return EXIT_BLOWUP
    except NonConvergenceError as exc:
        report += ["status = non_convergence",
                   f"iterations = {len(exc.residual_history)}",
                   f"last_residual = {fmt_float(exc.residual_history[-1])}"]
        summary["status"] = "non_convergence"
        summary["last_residual"] = fmt_float(exc.residual_history[-1])
        _finish_report(cfg, out_dir, report, summary, files=[])
        if not quiet:
            print("fixed-point iteration did not converge")
        return EXIT_NONCONVERGENCE

    eq = out.eq_picard
    robust = cfg.params.variant.uses_disturbance
    files = ["m.csv", "beta.csv", "alpha.csv", "gamma.csv", "eta.csv", "gains.csv"]
    eq.m.write_csv(out_dir / "m.csv", "m")
    eq.riccati.beta.write_csv(out_dir / "beta.csv", "beta")
    eq.riccati.alpha.write_csv(out_dir / "alpha.csv", "alpha")
    eq.riccati.gamma.write_csv(out_dir / "gamma.csv", "gamma")
    out.eq_closed.riccati.eta.write_csv(out_dir / "eta.csv", "eta")
    _gains_csv(out_dir / "gains.csv", eq, robust)

    report += [
        "status = ok",
        "",
        "equilibrium:",
        f"  value_at_0 = {fmt_float(eq.value.value_at_0)}",
        f"  iterations = {eq.iterations}",
        f"  residual = {fmt_float(eq.residual)}",
        f"  closed_form_vs_picard_max_gap = {fmt_float(out.route_gap)}",
    ]
    if eq.value.exp_value is not None:
        report.append(f"  exp_value = {fmt_float(eq.value.exp_value)}")
    report.append("")
    report += _conditions_lines(out.conditions)

    summary.update({
        "status": "ok",
        "value_at_0": fmt_float(eq.value.value_at_0),
        "iterations": str(eq.iterations),
        "residual": fmt_float(eq.residual),
        "route_gap": fmt_float(out.route_gap),
        "beta0": fmt_float(eq.riccati.beta.values[0]),
        "admissible": str(out.conditions.admissible).lower(),
        "margin": fmt_float(out.conditions.margin),
        "lipschitz_bound": fmt_float(out.conditions.lipschitz_bound),
        "contraction": str(out.conditions.contraction).lower(),
    })
    _finish_report(cfg, out_dir, report, summary, files)
    if not quiet:
        print(f"value_at_0 = {eq.value.value_at_0:.12g}  "
              f"(residual {eq.residual:.2e}, route gap {out.route_gap:.2e})")
    return EXIT_OK


def _finish_report(cfg: RunConfig, out_dir: Path, report: list[str],
                   summary: dict[str, str], files: list[str]) -> None:
    report += ["", "files:"] + [f"  {f}" for f in files]
    report += ["", "instance:", ""]
    report += ["  " + ln for ln in echo_instance(cfg.params, cfg.grid).splitlines()]
    _write(out_dir / "report.txt", "\n".join(report) + "\n")
    _write(out_dir / "summary.txt",
           "".join(f"{k}={v}\n" for k, v in summary.items()))
    _write(out_dir / "instance_echo.cfg", echo_instance(cfg.params, cfg.grid))


# ---------------------------------------------------------------------------
# verify

@dataclass
class CheckLine:
    name: str
    estimate: float
    theory: float
    tolerance: float
    passed: bool
    std_error: float = 0.0

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict}  {self.name}: estimate {fmt_float(self.estimate)} "
                f"vs theory {fmt_float(self.theory)} "
                f"(se {fmt_float(self.std_error)}, tol {fmt_float(self.tolerance)})")


def run_verify_checks(cfg: RunConfig) -> list[CheckLine]:
    out = run_solve_pipeline(cfg)
    eq = out.eq_picard
    params = cfg.params
    lines: list[CheckLine] = []

    ens = simulate_paths(params, Policy.equilibrium(eq), eq.m, cfg.sim)

    # mean consistency: |sample mean - m| <= 3 se at every node with noise
    mean = ens.mean_x()
    se = ens.se_x()
    diff = np.abs(mean - eq.m.values)
    noisy = se > 0
    worst = float(np.max(diff[noisy] / (3 * se[noisy]))) if np.any(noisy) else 0.0
    exact_ok = bool(np.all(diff[~noisy] <= 1e-12))
    lines.append(CheckLine(
        name="mean_consistency (max |mean-m| / 3se over nodes)",
        estimate=worst, theory=0.0, tolerance=1.0,
        passed=worst <= 1.0 and exact_ok))

    bias_allowance = cfg.sim.dt_sim  # Euler-Maruyama / quadrature bias, O(dt_sim)

    cost = estimate_risk_neutral_cost(ens, params)
    theory = eq.value.value_at_0
    tol = 3 * cost.std_error + bias_allowance * max(1.0, abs(theory))
    lines.append(CheckLine(
        name="value_identity_quadratic", estimate=cost.mean, theory=theory,
        tolerance=tol, std_error=cost.std_error,
        passed=abs(cost.mean - theory) <= tol))

    if params.variant.uses_theta:
        exp_cost = estimate_exponential_cost(ens, params)
        etheory = eq.value.exp_value
        tol = 3 * exp_cost.std_error + bias_allowance * max(1.0, abs(etheory))
        lines.append(CheckLine(
            name="value_identity_exponential", estimate=exp_cost.mean,
            theory=etheory, tolerance=tol, std_error=exp_cost.std_error,
            passed=abs(exp_cost.mean - etheory) <= tol))
        mart = estimate_girsanov_normalization(ens, params)
        tol = 3 * mart.std_error + bias_allowance
        lines.append(CheckLine(
            name="martingale_normalization", estimate=mart.mean, theory=1.0,
            tolerance=tol, std_error=mart.std_error,
            passed=abs(mart.mean - 1.0) <= tol))

    if params.variant.uses_disturbance:
        try:
            rep = saddle_check(params, eq, 0.5, cfg.sim)
        except InsufficientResolutionError as exc:
            rep = exc.report
        lines.append(CheckLine(
            name="saddle_gap_control", estimate=rep.gap_u.mean,
            theory=rep.analytic_gap_u,
            tolerance=3 * rep.gap_u.std_error, std_error=rep.gap_u.std_error,
            passed=abs(rep.gap_u.mean - rep.analytic_gap_u) <= 3 * rep.gap_u.std_error
                   and rep.gap_u.mean > 3 * rep.gap_u.std_error))
        lines.append(CheckLine(
            name="saddle_gap_disturbance", estimate=rep.gap_v.mean,
            theory=rep.analytic_gap_v,
            tolerance=3 * rep.gap_v.std_error, std_error=rep.gap_v.std_error,
            passed=abs(rep.gap_v.mean - rep.analytic_gap_v) <= 3 * rep.gap_v.std_error
                   and rep.gap_v.mean > 3 * rep.gap_v.std_error))
    return lines


def cmd_verify(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        lines = run_verify_checks(cfg)
    except BlowUpError:
        return EXIT_BLOWUP
    except NonConvergenceError:
        return EXIT_NONCONVERGENCE
    text = [ln.render() for ln in lines]
    _write(out_dir / "verify_report.txt", "\n".join(text) + "\n")
    if not quiet:
        for t in text:
            print(t)
    return EXIT_OK if all(ln.passed for ln in lines) else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# check / sweep

def cmd_check(cfg: RunConfig, out_dir: Path | None, quiet: bool = False) -> int:
    res = validate(cfg.params)
    if not res.ok:
        for v in res.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    beta, status = solve_beta(cfg.params, cfg.grid, cap=cfg.blow_up_cap)
    lines: list[str]
    if not status.admissible:
        lines = [f"status = blow_up",
                 f"blow_up_time = {fmt_float(status.blow_up_time)}"]
    else:
        rep = check_conditions(cfg.params, beta, cfg.grid)
        lines = _conditions_lines(rep)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write(out_dir / "check_report.txt", "\n".join(lines) + "\n")
    if not quiet:
        for ln in lines:
            print(ln)
    return EXIT_OK


def _sweep_params(cfg: RunConfig, value: float) -> tuple[ModelParams, TimeGrid]:
    p, grid = cfg.params, cfg.grid
    name = cfg.sweep_parameter
    if name == "theta":
        return replace(p, theta=value), grid
    if name == "c":
        return replace(p, c=value), grid
    if name == "T":
        n = max(2, round(grid.n_steps * value / grid.T))
        return replace(p, T=value), TimeGrid(T=value, n_steps=n)
    if name == "qbar-scale":
        nodes = np.linspace(0.0, p.T, 9)
        scaled = Coefficient.tabulated(nodes, value * np.asarray(p.qbar(nodes), dtype=float)) \
            if not p.qbar.is_constant else Coefficient.constant(value * p.qbar(0.0))
        return replace(p, qbar=scaled, qbarT=value * p.qbarT), grid
    raise ConfigError(f"unknown sweep parameter {name!r}")


def _sweep_row(cfg: RunConfig, value: float) -> dict[str, str]:
    from .equilibrium import admissibility_margin
    params, grid = _sweep_params(cfg, value)
    row = {"value": fmt_float(value), "admissible": "", "lipschitz_bound": "",
           "contraction": "", "value_at_0": "", "beta0": "",
           "blow_up_time": "", "code": "0"}
    margin = admissibility_margin(params, grid)
    row["admissible"] = str(margin > 0).lower()
    res = validate(params)
    if not res.ok:
        row["code"] = str(EXIT_CONFIG)
        return row
    beta, status = solve_beta(params, grid, cap=cfg.blow_up_cap)
    if not status.admissible:
        row["code"] = str(EXIT_BLOWUP)
        row["blow_up_time"] = fmt_float(status.blow_up_time)
        return row
    rep = check_conditions(params, beta, grid)
    row["lipschitz_bound"] = fmt_float(rep.lipschitz_bound)
    row["contraction"] = str(rep.contraction).lower()
    row["beta0"] = fmt_float(beta.values[0])
    try:
        eq = solve_equilibrium_closed_form(params, grid, cap=cfg.blow_up_cap)
    except BlowUpError as exc:
        row["code"] = str(EXIT_BLOWUP)
        row["blow_up_time"] = fmt_float(exc.status.blow_up_time)
        return row
    row["value_at_0"] = fmt_float(eq.value.value_at_0)
    return row


def cmd_sweep(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    if cfg.sweep_parameter is None:
        print("config error: sweep command needs a [sweep] section", file=sys.stderr)
        return EXIT_CONFIG
    out_dir.mkdir(parents=True, exist_ok=True)
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    rows = [_sweep_row(cfg, v) for v in values]
    cols = ["value", "admissible", "lipschitz_bound", "contraction",
            "value_at_0", "beta0", "blow_up_time", "code"]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in cols) + "\n")
    if not quiet:
        print(f"swept {cfg.sweep_parameter} over {len(values)} values -> "
              f"{out_dir / 'sweep.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lqmfg",
                                 description="scalar LQ mean-field game solver")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "sweep", "check"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out-dir", default="out")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--paths", type=int, default=None)
        sp.add_argument("--dt-sim", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--quiet", action="store_true")
        if name == "sweep":
            # accepted for old scripts; the sweep runs serially
            sp.add_argument("--workers", type=int, default=None)
    return ap


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    sim = cfg.sim
    seed = sim.seed
    env_seed = os.environ.get("MFG_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"MFG_SEED must be an integer, got {env_seed!r}")
    if args.seed is not None:
        seed = args.seed
    sim = replace(sim,
                  seed=seed,
                  n_paths=args.paths if args.paths is not None else sim.n_paths,
                  dt_sim=args.dt_sim if args.dt_sim is not None else sim.dt_sim)
    cfg.sim = sim
    if args.tol is not None:
        cfg.tol = args.tol
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(parse_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out_dir)
    try:
        if args.command == "solve":
            return cmd_solve(cfg, out_dir, quiet=args.quiet)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, quiet=args.quiet)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, quiet=args.quiet)
        if args.command == "check":
            return cmd_check(cfg, out_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
