"""Command-line front end: config ingestion, solve/verify/sweep/check
workflows, CSV emission and plain-text reports.

Config files are flat key=value text with one section per concern
([model], [grid], [sim], [sweep]); unknown keys or sections are rejected.
The [model] keys are the fields of ModelParams.  The flags --seed, --paths
and --dt-sim and the MFG_SEED environment variable are written into [sim]
before the typed build, so they pass the same checks as config values.
Seed precedence: --seed flag > MFG_SEED env var > config.

Exit codes: 0 success, 1 config error, 2 Riccati blow-up,
3 fixed-point non-convergence, 4 verification failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .model import (
    MAX_COUNT,
    PARAM_TYPES,
    Coefficient,
    ModelParams,
    TimeGrid,
    Variant,
    fmt_float,
    validate,
)
from .equilibrium import (
    BlowUpError,
    ConditionsReport,
    Equilibrium,
    NonConvergenceError,
    admissibility_margin,
    admissible_beta,
    check_conditions,
    solve_equilibrium_closed_form,
    solve_equilibrium_picard,
)
from .simulate import (
    MCEstimate,
    SimConfig,
    _certainty_equivalent_gap,
    _trapz_weight_integral,
    estimate_log_girsanov_normalization,
    estimate_quadratic_value,
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

_GRID_KEYS = {"n_steps"}
_SIM_KEYS = {"n_paths", "dt_sim", "seed"}
_SWEEP_KEYS = {"parameter", "start", "stop", "count", "workers"}
# configparser lowercases keys
_SECTIONS = {"model": {name.lower() for name in PARAM_TYPES}, "grid": _GRID_KEYS,
             "sim": _SIM_KEYS, "sweep": _SWEEP_KEYS}

SWEEP_PARAMETERS = ("theta", "c", "T", "qbar-scale")
SWEEP_COLUMNS = ["value", "admissible", "lipschitz_bound", "contraction",
                 "value_at_0", "beta0", "blow_up_time", "code"]
DEFAULT_STEPS_PER_UNIT_TIME = 1000
ESS_FLOOR = 100     # fewest effective paths a weighted verify line may rest on
SADDLE_SHIFT = 0.5  # the offset shifts du = dv of the saddle lines


@dataclass
class RunConfig:
    params: ModelParams
    grid: TimeGrid
    sim: SimConfig
    sweep_parameter: str | None = None
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    sweep_count: int = 0


def _default_dt_sim(grid: TimeGrid) -> float:
    """The largest simulation step <= 1/DEFAULT_STEPS_PER_UNIT_TIME that
    refines the ODE grid; past max_steps() steps, inf included, verify refuses it."""
    per_step = math.ceil(min(DEFAULT_STEPS_PER_UNIT_TIME * grid.T / grid.n_steps,
                             MAX_COUNT + 1))
    return grid.T / (grid.n_steps * per_step)


def _step_count(steps: float) -> int:
    """round(steps), at least 2, -inf included; a count past MAX_COUNT, inf
    included, stays past max_steps() for TimeGrid to refuse."""
    return round(min(max(steps, 2.0), MAX_COUNT + 1))


def _weight(values, T: float) -> Coefficient:
    """A weight from its node values, spread over equally spaced times on
    [0, T]; one value sits at t = 0, a constant."""
    return Coefficient(values, np.linspace(0.0, T, len(values)))


def _floats(text: str) -> list[float]:
    vals = [float(p) for p in (p.strip() for p in text.split(",")) if p]
    if not vals:
        raise ValueError("empty value")
    return vals


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


# per [model] field type: the parser of its text (a weight parses to its node
# values, which _weight spreads once T is known) and its echo
_PARSE = {float: float, Variant: Variant.parse, Coefficient: _floats}
_ECHO = {float: fmt_float, Variant: lambda v: v.value,
         Coefficient: lambda w: ", ".join(fmt_float(v) for v in w.values)}

_REQUIRED = object()


def _value(cp: configparser.ConfigParser, section: str, key: str, conv,
           default=_REQUIRED):
    """`conv` of [section] key; `default` when absent, unless required."""
    if section not in cp or key not in cp[section]:
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] missing key {key!r}")
        return default
    try:
        return conv(cp[section][key])
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def parse_config(path: str | Path,
                 overrides: dict[str, dict[str, str]] | None = None) -> RunConfig:
    """Strict parse of a run configuration file.

    overrides are [section] key values that replace the file's before the
    typed build, so they pass the same checks.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
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
    missing = {f.name.lower() for f in fields(ModelParams)
               if f.default is MISSING and f.default_factory is MISSING}
    missing -= set(cp["model"])
    if missing:
        raise ConfigError("missing [model] keys: " + ", ".join(sorted(missing)))
    cp.read_dict(overrides or {})   # known keys, so only their values need checks

    values = {name: _value(cp, "model", name.lower(), _PARSE[kind])
              for name, kind in PARAM_TYPES.items() if name.lower() in cp["model"]}
    T = values["T"]
    if not 0.0 < T < math.inf:
        raise ConfigError(f"[model] t must be positive and finite, got {cp['model']['t']!r}")
    params = ModelParams(**{
        name: _weight(v, T) if PARAM_TYPES[name] is Coefficient else v
        for name, v in values.items()})

    n_steps = _value(cp, "grid", "n_steps", int, None)
    if n_steps is None:
        n_steps = _step_count(DEFAULT_STEPS_PER_UNIT_TIME * T)
    try:
        grid = TimeGrid(T=T, n_steps=n_steps)
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from None

    try:
        sim = SimConfig(
            n_paths=_value(cp, "sim", "n_paths", int, 10000),
            dt_sim=_value(cp, "sim", "dt_sim", float, _default_dt_sim(grid)),
            seed=_value(cp, "sim", "seed", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from None

    cfg = RunConfig(params=params, grid=grid, sim=sim)

    if "sweep" in cp:
        parameter = _value(cp, "sweep", "parameter", str.strip)
        if parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"[sweep] parameter must be one of {SWEEP_PARAMETERS}")
        cfg.sweep_parameter = parameter
        cfg.sweep_start = _value(cp, "sweep", "start", _finite)
        cfg.sweep_stop = _value(cp, "sweep", "stop", _finite)
        cfg.sweep_count = _value(cp, "sweep", "count", int)
        if not 2 <= cfg.sweep_count <= MAX_COUNT:
            raise ConfigError(f"[sweep] count must be >= 2 and <= {MAX_COUNT}")
        # checked and dropped: accepted for old configs; rows run serially
        _value(cp, "sweep", "workers", int, 1)
    return cfg


# ---------------------------------------------------------------------------
# emission helpers

def echo_instance(params: ModelParams, grid: TimeGrid) -> str:
    """Render the instance as config text that re-parses identically."""
    lines = ["[model]"]
    lines += [f"{name} = {_ECHO[kind](getattr(params, name))}"
              for name, kind in PARAM_TYPES.items()]
    lines += ["", "[grid]", f"n_steps = {grid.n_steps}", ""]
    return "\n".join(lines)


def _rows_format(times: list[str], n_columns: int) -> str:
    """The %-format of a CSV's rows: each formatted time, then n_columns floats."""
    row = ",%.17g" * n_columns + "\n"
    return "".join(t + row for t in times)


def _float_csv(header: list[str], rows: str, *columns: np.ndarray) -> str:
    """A CSV of float columns under their _rows_format, each float as
    fmt_float renders it, by one %-format call over the whole table."""
    return ",".join(header) + "\n" + rows % tuple(np.column_stack(columns).ravel().tolist())


def _require_valid(params: ModelParams) -> None:
    """Every violation of the model's constraints, as one config error."""
    violations = validate(params)
    if violations:
        raise ConfigError("invalid model: " + "; ".join(violations))


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
    """validate -> beta -> both equilibrium routes -> conditions."""
    _require_valid(cfg.params)
    beta = admissible_beta(cfg.params, cfg.grid)
    eq_p = solve_equilibrium_picard(cfg.params, beta, cfg.grid)
    eq_c = solve_equilibrium_closed_form(cfg.params, beta, cfg.grid)
    conds = check_conditions(cfg.params, beta, cfg.grid)
    gap = float(np.max(np.abs(eq_p.m.values - eq_c.m.values)))
    return SolveOutput(eq_p, eq_c, conds, gap)


@dataclass
class Run:
    """A command's result, no I/O done: exit code, files (name -> text) and
    stdout lines, and the names of an earlier run's files it makes stale."""
    code: int
    files: dict[str, str]
    lines: list[str]
    stale: tuple[str, ...] = ()


def write_run(run: Run, out_dir: Path) -> None:
    """Delete the stale files and write the run's; a file that cannot be
    deleted or written is a config error."""
    for name in run.stale:
        try:
            (out_dir / name).unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot remove {out_dir / name}: {exc.strerror}") from None
    for name, text in run.files.items():
        try:
            (out_dir / name).write_text(text, newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_dir / name}: {exc.strerror}") from None


def _failure(exc: BlowUpError | NonConvergenceError) -> tuple[int, dict[str, str]]:
    """The exit code of a failed solve and its failure fields, in order."""
    if isinstance(exc, BlowUpError):
        return EXIT_BLOWUP, {"status": "blow_up", "equation": exc.which,
                             "blow_up_time": fmt_float(exc.status.blow_up_time)}
    return EXIT_NONCONVERGENCE, {"status": "non_convergence", "reason": exc.reason,
                                 "iterations": str(len(exc.residual_history)),
                                 "last_residual": fmt_float(exc.residual_history[-1])}


def _field_lines(values: dict[str, str]) -> list[str]:
    return [f"{k} = {v}" for k, v in values.items()]


SOLVE_CSVS = ("m.csv", "beta.csv", "alpha.csv", "gamma.csv", "eta.csv", "gains.csv")


def cmd_solve(cfg: RunConfig) -> Run:
    try:
        out = run_solve_pipeline(cfg)
    except (BlowUpError, NonConvergenceError) as exc:
        code, status = _failure(exc)
        # an earlier solve's curves in the same directory are not this instance's
        run, body = Run(code, {}, [str(exc)], stale=SOLVE_CSVS), _field_lines(status)
    else:
        run, status, body = _solved(cfg, out)
    summary = {"variant": cfg.params.variant.value, **status}
    echo = echo_instance(cfg.params, cfg.grid)
    report = [f"variant = {summary['variant']}", "", *body, "", "files:",
              *(f"  {name}" for name in run.files), "", "instance:", "",
              *("  " + ln for ln in echo.splitlines())]
    run.files |= {"report.txt": "\n".join(report) + "\n",
                  "summary.txt": "".join(f"{k}={v}\n" for k, v in summary.items()),
                  "instance_echo.cfg": echo}
    return run


def _solved(cfg: RunConfig, out: SolveOutput) -> tuple[Run, dict[str, str], list[str]]:
    """The CSVs, the summary fields and the report's body of a solve."""
    eq, conds, v = out.eq_picard, out.conditions, out.eq_picard.value
    nodes = cfg.grid.nodes
    times = ("%.17g\n" * nodes.size % tuple(nodes.tolist())).split()
    curves = {"m": eq.m, "beta": eq.beta, "alpha": eq.alpha,
              "gamma": eq.gamma, "eta": out.eq_closed.eta}
    one_column = _rows_format(times, 1)
    files = {f"{name}.csv": _float_csv(["t", name], one_column, curve.values)
             for name, curve in curves.items()}
    gains = {"feedback_gain": v.feedback_gain, "feedback_offset": v.feedback_offset}
    if cfg.params.variant.uses_disturbance:
        gains |= {"disturbance_gain": v.disturbance_gain,
                  "disturbance_offset": v.disturbance_offset}
    files["gains.csv"] = _float_csv(["t", *gains], _rows_format(times, len(gains)),
                                    *(g.values for g in gains.values()))

    status = {"status": "ok", "value_at_0": fmt_float(v.value_at_0),
              "iterations": str(eq.iterations), "residual": fmt_float(eq.residual),
              "route_gap": fmt_float(out.route_gap), "beta0": fmt_float(eq.beta.values[0]),
              "admissible": str(conds.admissible).lower(), "margin": fmt_float(conds.margin),
              "lipschitz_bound": fmt_float(conds.lipschitz_bound),
              "contraction": str(conds.contraction).lower()}
    body = ["status = ok", "", "equilibrium:",
            *(f"  {k} = {status[k]}" for k in ("value_at_0", "iterations", "residual")),
            f"  closed_form_vs_picard_max_gap = {status['route_gap']}"]
    if v.exp_value is not None:
        body.append(f"  exp_value = {fmt_float(v.exp_value)}")
    body += ["", *_conditions_lines(conds)]
    line = (f"value_at_0 = {v.value_at_0:.12g}  "
            f"(residual {eq.residual:.2e}, route gap {out.route_gap:.2e})")
    return Run(EXIT_OK, files, [line]), status, body


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
    out = run_solve_pipeline(cfg)     # a blow-up outranks a bad [sim] grid
    # without sample noise every se is 0 and each line's tolerance shrinks to
    # rounding, so a correct solver would fail on its Euler bias
    if cfg.sim.n_paths < 2:
        raise ConfigError("[sim] verify needs n_paths >= 2")
    if cfg.params.sigma == 0:
        raise ConfigError("verify needs sigma > 0")
    eq = out.eq_picard
    params = cfg.params
    lines: list[CheckLine] = []

    # one simulation per instance; in the robust variants its shifts are the
    # perturbed policies (u + du, v) and (u, v + dv), on the same draws
    robust = params.variant.uses_disturbance
    shifts = ((SADDLE_SHIFT, 0.0), (0.0, SADDLE_SHIFT)) if robust else ()
    try:
        ens, *moved = simulate_paths(params, eq, eq.m, cfg.sim, shifts)
    except (MemoryError, ValueError) as exc:
        # dt_sim does not refine the grid or makes an e_k <= 0, or no map holds the paths
        raise ConfigError(f"[sim] {exc}") from None
    L = ens.cost

    # mean consistency: |sample mean - m| <= 3 se at every node with noise
    se, noisy = ens.se_x, ens.se_x > 0
    with np.errstate(over="ignore", invalid="ignore"):     # a miss past the floats fails
        diff = np.abs(ens.mean_x - eq.m.values)
        worst = float(np.max(diff[noisy] / (3 * se[noisy]))) if np.any(noisy) else 0.0
    exact_ok = bool(np.all(diff[~noisy] <= 1e-12))
    lines.append(CheckLine(
        name="mean_consistency (max |mean-m| / 3se over nodes)",
        estimate=worst, theory=0.0, tolerance=1.0,
        passed=worst <= 1.0 and exact_ok))

    bias = cfg.sim.dt_sim  # Euler-Maruyama / quadrature bias, O(dt_sim)
    lines.append(_mc_line("value_identity_quadratic",
                          estimate_quadratic_value(ens, params),
                          eq.value.value_at_0, bias))
    if params.variant.uses_theta:
        ce = _certainty_equivalent_gap(L, None, params.theta)
        lines.append(_mc_line("value_identity_exponential", ce, eq.value.value_at_0, bias))
        lines.append(_mc_line("martingale_normalization",
                              estimate_log_girsanov_normalization(ens, params), 0.0, bias))

    if robust:
        # completed squares: the certainty equivalent rises by (du^2/2) int r
        # at (u + du, v) and falls by (dv^2/2) int s at (u, v + dv)
        theta = params.theta if params.variant.uses_theta else 0.0
        L_u, L_v = (e.cost for e in moved)
        half_d2 = 0.5 * SADDLE_SHIFT ** 2
        lines.append(_saddle_line("saddle_gap_control",
                                  _certainty_equivalent_gap(L_u, L, theta),
                                  half_d2 * _trapz_weight_integral(params.r, params.T)))
        lines.append(_saddle_line("saddle_gap_disturbance",
                                  _certainty_equivalent_gap(L, L_v, theta),
                                  half_d2 * _trapz_weight_integral(params.s, params.T)))
    return lines


def _mc_line(name: str, est: MCEstimate, theory: float, bias: float) -> CheckLine:
    """A Monte Carlo mean passes within 3 se plus bias * max(1, |theory|).  A
    weighted one names its ESS, and below ESS_FLOOR fails whatever its miss.
    An estimate, se or ESS that is not finite fails."""
    tol = 3 * est.std_error + bias * max(1.0, abs(theory))
    finite = all(map(math.isfinite, (est.mean, est.std_error, est.ess or 0.0)))
    enough = est.ess is None or est.ess >= ESS_FLOOR
    if est.ess is not None:
        ess = int(est.ess) if math.isfinite(est.ess) else est.ess
        name += f" (ess {ess}{'' if enough else f' < floor {ESS_FLOOR}'})"
    return CheckLine(name=name, estimate=est.mean, theory=theory, tolerance=tol,
                     std_error=est.std_error,
                     passed=finite and enough and abs(est.mean - theory) <= tol)


def _saddle_line(name: str, gap: MCEstimate, theory: float) -> CheckLine:
    """A saddle gap passes when it is resolved (> 3 se) and within 3 se of theory."""
    tol = 3 * gap.std_error
    return CheckLine(name=name, estimate=gap.mean, theory=theory, tolerance=tol,
                     std_error=gap.std_error,
                     passed=abs(gap.mean - theory) <= tol and gap.mean > tol)


def cmd_verify(cfg: RunConfig) -> Run:
    try:
        checks = run_verify_checks(cfg)
    except (BlowUpError, NonConvergenceError) as exc:
        code, status = _failure(exc)
        lines = _field_lines(status)
    else:
        code = EXIT_OK if all(ln.passed for ln in checks) else EXIT_VERIFY_FAIL
        lines = [ln.render() for ln in checks]
    return Run(code, {"verify_report.txt": "\n".join(lines) + "\n"}, lines)


# ---------------------------------------------------------------------------
# check / sweep

def cmd_check(cfg: RunConfig) -> Run:
    _require_valid(cfg.params)
    try:
        beta = admissible_beta(cfg.params, cfg.grid)
        lines = _conditions_lines(check_conditions(cfg.params, beta, cfg.grid))
    except BlowUpError as exc:
        lines = _field_lines(_failure(exc)[1])
    return Run(EXIT_OK, {"check_report.txt": "\n".join(lines) + "\n"}, lines)


def _sweep_params(cfg: RunConfig, value: float) -> tuple[ModelParams, TimeGrid]:
    p, grid = cfg.params, cfg.grid
    name = cfg.sweep_parameter
    value = float(value)    # not np.float64, whose overflowing square warns
    if name == "theta":
        return replace(p, theta=value), grid
    if name == "c":
        return replace(p, c=value), grid
    if name == "T":
        grid = TimeGrid(T=value, n_steps=_step_count(grid.n_steps * value / grid.T))
        # tabulated weights are spread over the new [0, T], as a config does
        weights = {name: _weight(getattr(p, name).values, value)
                   for name, kind in PARAM_TYPES.items() if kind is Coefficient}
        return replace(p, T=value, **weights), grid
    if name == "qbar-scale":
        return replace(p, qbar=p.qbar.scaled(value), qbarT=value * p.qbarT), grid
    raise ConfigError(f"unknown sweep parameter {name!r}")


def _sweep_row(cfg: RunConfig, value: float) -> dict[str, str]:
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(value=fmt_float(value), code="0")
    try:
        params, grid = _sweep_params(cfg, value)
    except ValueError:          # no grid for this value, e.g. T <= 0
        row["code"] = str(EXIT_CONFIG)
        return row
    if validate(params):        # no admissibility either: lam may divide by 0
        row["code"] = str(EXIT_CONFIG)
        return row
    row["admissible"] = str(admissibility_margin(params, grid) > 0).lower()
    try:
        beta = admissible_beta(params, grid)
        rep = check_conditions(params, beta, grid)
        eq = solve_equilibrium_closed_form(params, beta, grid)
    except (BlowUpError, NonConvergenceError) as exc:
        code, status = _failure(exc)
        return row | {"code": str(code), "blow_up_time": status.get("blow_up_time", "")}
    row.update(lipschitz_bound=fmt_float(rep.lipschitz_bound), beta0=fmt_float(beta.values[0]),
               contraction=str(rep.contraction).lower(),
               value_at_0=fmt_float(eq.value.value_at_0))
    return row


def cmd_sweep(cfg: RunConfig) -> Run:
    if cfg.sweep_parameter is None:
        raise ConfigError("sweep command needs a [sweep] section")
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_count)
    rows = [_sweep_row(cfg, v) for v in values]
    lines = [SWEEP_COLUMNS, *(row.values() for row in rows)]
    csv = "".join(",".join(line) + "\n" for line in lines)
    return Run(EXIT_OK, {"sweep.csv": csv},
               [f"swept {cfg.sweep_parameter} over {len(values)} values -> sweep.csv"])


# ---------------------------------------------------------------------------
# entry point

# flag -> the [section] key it sets
_FLAGS = {"seed": ("sim", "seed"), "paths": ("sim", "n_paths"),
          "dt_sim": ("sim", "dt_sim")}


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: exit 1, not argparse's 2, which is
    the blow-up code.  The subcommand parsers are of this class too."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache    # built once per process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lqmfg", description="scalar LQ mean-field game solver")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "sweep", "check"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out-dir", default="out")
        # the flags are config values: text, parsed and checked by parse_config
        for flag in _FLAGS:
            sp.add_argument("--" + flag.replace("_", "-"), default=None)
        sp.add_argument("--quiet", action="store_true")
        if name == "sweep":
            # accepted for old scripts; the sweep runs serially
            sp.add_argument("--workers", type=int, default=None)
    return ap


def _overrides(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    """MFG_SEED and the flags as [section] key values; a flag beats MFG_SEED."""
    out: dict[str, dict[str, str]] = {"sim": {}}
    if "MFG_SEED" in os.environ:
        out["sim"]["seed"] = os.environ["MFG_SEED"]
    for flag, (section, key) in _FLAGS.items():
        if getattr(args, flag) is not None:
            out[section][key] = getattr(args, flag)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = parse_config(args.config, _overrides(args))
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from None
        command = {"solve": cmd_solve, "verify": cmd_verify, "sweep": cmd_sweep,
                   "check": cmd_check}[args.command]
        run = command(cfg)
        write_run(run, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print(*run.lines, sep="\n")
    return run.code


if __name__ == "__main__":
    sys.exit(main())
