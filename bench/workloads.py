"""The benchmark's workloads: generated configs, the commands each workload
runs through ``lqmfg.cli.main``, and the checks on what those commands write.

Every instance is the benchmark instance of ``tests/conftest.py``.  The seed
only feeds the Monte Carlo stream of ``verify``; ``solve`` and ``sweep`` are
deterministic and read the same configs whatever the seed.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"

BASE_MODEL = {
    "a": "-0.5", "abar": "0.3", "b": "1.0", "sigma": "0.2",
    "q": "1.0", "qbar": "0.5", "r": "1.0", "qT": "1.0", "qbarT": "0.5",
    "T": "1.0", "x0": "1.0", "m0": "1.0",
}

# the four variants; "robust" uses tabulated weights, which drives the
# np.interp path of Coefficient
INSTANCES = {
    "risk_neutral": {"variant": "risk_neutral"},
    "risk_sensitive": {"variant": "risk_sensitive", "theta": "0.25"},
    "robust": {"variant": "robust", "c": "0.5",
               "q": "1.0, 1.5, 0.8, 1.2", "r": "1.0, 0.8, 1.2"},
    "robust_risk_sensitive": {"variant": "robust_risk_sensitive",
                              "c": "0.5", "theta": "0.25"},
}

SOLVE_STEPS = 1000
VERIFY_STEPS = 200
VERIFY_SIM = {"n_paths": "20000", "dt_sim": "1e-3"}
SWEEP_MODEL = {"variant": "risk_sensitive", "sigma": "1.0", "theta": "0.0"}
SWEEP_STEPS = 1000
SWEEP = {"parameter": "theta", "start": "0.0", "stop": "2.0", "count": "21",
         "workers": "2"}
# the sweep row whose instance is also solved by both routes, for route_gap
SWEEP_ROUTE_THETA = "0.5"

SOLVE_FILES = ("m.csv", "beta.csv", "alpha.csv", "gamma.csv", "eta.csv",
               "gains.csv", "report.txt", "summary.txt", "instance_echo.cfg")
VERIFY_CHECKS = 16
# a verify check that misses theory by more than this many times its
# tolerance is wrong output, not Monte Carlo noise; see bench/README.md
NOISE_LIMIT = 3.0
REPORT_LINE = re.compile(r"^(PASS|FAIL)\s+\w+.*: estimate (?P<estimate>\S+) "
                         r"vs theory (?P<theory>\S+) \(se \S+, tol (?P<tol>\S+)\)$")

WORKLOADS = ("solve", "verify", "sweep")


def config_text(model: dict[str, str], n_steps: int,
                sim: dict[str, str] | None = None,
                sweep: dict[str, str] | None = None) -> str:
    sections = [("model", {**BASE_MODEL, **model}),
                ("grid", {"n_steps": str(n_steps)})]
    if sim:
        sections.append(("sim", sim))
    if sweep:
        sections.append(("sweep", sweep))
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for name, keys in sections)


@dataclass
class Command:
    """One ``lqmfg`` invocation of a workload and where it writes."""
    label: str
    argv: list[str]
    out_dir: Path


@dataclass
class PassResult:
    """Outcome of one pass over a workload's commands."""
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)   # benchmark-level errors
    # failures are Monte Carlo tests, which another seed can flip; those
    # that make the output wrong are also in problems
    statistical: bool = False
    route_gap: float = 0.0
    value_err: float = 0.0
    command_s: list[float] = field(default_factory=list)   # wall time per command


def write_configs(workload: str, seed: int, work: Path) -> list[Command]:
    """Write the workload's config files under ``work``; return its commands."""
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    commands = []
    if workload == "sweep":
        path = cfg_dir / "sweep.cfg"
        path.write_text(config_text(SWEEP_MODEL, SWEEP_STEPS, sweep=SWEEP))
        out = work / "out" / "sweep"
        commands.append(Command("sweep", ["sweep", "--config", str(path),
                                          "--out-dir", str(out), "--quiet"], out))
        return commands
    if workload not in ("solve", "verify"):
        raise ValueError(f"unknown workload {workload!r}")
    for name, model in INSTANCES.items():
        path = cfg_dir / f"{name}.cfg"
        if workload == "solve":
            path.write_text(config_text(model, SOLVE_STEPS))
        else:
            path.write_text(config_text(model, VERIFY_STEPS,
                                        sim={**VERIFY_SIM, "seed": str(seed)}))
        out = work / "out" / name
        commands.append(Command(name, [workload, "--config", str(path),
                                       "--out-dir", str(out), "--quiet"], out))
    return commands


def sweep_route_command(work: Path) -> Command:
    """``lqmfg solve`` on one admissible sweep row, for the sweep's route_gap."""
    path = work / "configs" / "sweep_route.cfg"
    path.write_text(config_text({**SWEEP_MODEL, "theta": SWEEP_ROUTE_THETA},
                                SWEEP_STEPS))
    out = work / "out" / "sweep_route"
    return Command("sweep_route", ["solve", "--config", str(path),
                                   "--out-dir", str(out), "--quiet"], out)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def read_summary(out_dir: Path) -> dict[str, str]:
    lines = (out_dir / "summary.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def read_sweep(out_dir: Path) -> list[dict[str, str]]:
    header, *rows = (out_dir / "sweep.csv").read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def _finite(text: str) -> float | None:
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def check_solve(commands: list[Command], codes: list[int], refs: dict) -> PassResult:
    """Each command must exit 0, write every file, and give a finite route
    gap and value."""
    res = PassResult()
    for cmd, code in zip(commands, codes):
        res.ops += 1
        missing = [f for f in SOLVE_FILES if not (cmd.out_dir / f).is_file()]
        summary = read_summary(cmd.out_dir) if not missing else {}
        gap = _finite(summary.get("route_gap", ""))
        value = _finite(summary.get("value_at_0", ""))
        if code != 0 or missing or gap is None or value is None:
            res.failures.append(f"{cmd.label}: exit {code}, missing {missing}, "
                                f"route_gap {gap}, value_at_0 {value}")
            continue
        res.route_gap = max(res.route_gap, gap)
        res.value_err = max(res.value_err, abs(value - refs["instances"][cmd.label]))
    return res


def check_verify(commands: list[Command], codes: list[int], refs: dict,
                 solved: dict[str, tuple[float, float]]) -> PassResult:
    """Every PASS/FAIL line of each verify_report.txt is one operation.

    A FAIL line counts as a failure.  It is also a problem (wrong output)
    when it misses theory by more than NOISE_LIMIT times its tolerance, and
    so is a pass in which more than half of the checks fail.
    ``solved`` maps each instance to the (route_gap, value_at_0) of the solve
    that verify ran first.
    """
    res = PassResult(statistical=True)
    for cmd, code in zip(commands, codes):
        report = cmd.out_dir / "verify_report.txt"
        if not report.is_file():
            res.problems.append(f"{cmd.label}: no verify_report.txt (exit {code})")
            continue
        lines = report.read_text().splitlines()
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        res.ops += len(lines)
        for line in lines:
            m = REPORT_LINE.match(line)
            if m is None:
                res.problems.append(f"{cmd.label}: unparsed report line {line!r}")
            elif (abs(float(m["estimate"]) - float(m["theory"]))
                  > NOISE_LIMIT * float(m["tol"])):
                res.problems.append(f"{cmd.label}: wrong output: {line}")
        if code != (4 if failed else 0):
            res.problems.append(f"{cmd.label}: exit {code} with {len(failed)} FAIL lines")
        res.failures += [f"{cmd.label}: {ln}" for ln in failed]
        if cmd.label not in solved:
            res.problems.append(f"{cmd.label}: verify ran no solve")
            continue
        gap, value = solved[cmd.label]
        if not (math.isfinite(gap) and math.isfinite(value)):
            res.problems.append(f"{cmd.label}: route_gap {gap}, value_at_0 {value}")
            continue
        res.route_gap = max(res.route_gap, gap)
        res.value_err = max(res.value_err, abs(value - refs["instances"][cmd.label]))
    if res.ops != VERIFY_CHECKS:
        res.problems.append(f"{res.ops} verify checks, expected {VERIFY_CHECKS}")
    if len(res.failures) > VERIFY_CHECKS // 2:
        res.problems.append(f"wrong output: {len(res.failures)} of {res.ops} checks fail")
    return res


def check_sweep(commands: list[Command], codes: list[int], refs: dict) -> PassResult:
    """Each row's code and admissible flag must match the committed
    expectations, and every row with a value must have a finite one."""
    res = PassResult()
    (cmd,), (code,) = commands, codes
    csv = cmd.out_dir / "sweep.csv"
    if code != 0 or not csv.is_file():
        res.problems.append(f"sweep: exit {code}, sweep.csv present {csv.is_file()}")
        return res
    rows = read_sweep(cmd.out_dir)
    expected = refs["sweep_rows"]
    if len(rows) != len(expected):
        res.problems.append(f"sweep: {len(rows)} rows, expected {len(expected)}")
    for row, exp in zip(rows, expected):
        res.ops += 1
        value = _finite(row["value_at_0"]) if row["value_at_0"] else None
        ok = (row["value"] == exp["value"] and row["code"] == exp["code"]
              and row["admissible"] == exp["admissible"]
              and (value is not None) == (exp["value_at_0"] is not None))
        if not ok:
            res.failures.append(f"sweep row {row}: expected {exp}")
            continue
        if value is not None:
            res.value_err = max(res.value_err, abs(value - exp["value_at_0"]))
    return res
