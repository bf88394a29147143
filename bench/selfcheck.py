"""Check BENCHMARK.json and the records the benchmark wrote.

    python3 bench/selfcheck.py

It reads every ``.bench_out/*/result.json`` and requires one untraced and
one traced record for each workload.  Every declared metric must be present
with its declared unit and a finite value, the counts that the workloads
fix must come out exactly, and the counts in REPEAT must agree between the
traced records of a workload.  It prints the self-time share of the layers
that should dominate each traced record.  It runs nothing, so it takes
well under a second; it is not part of the test suite.
"""
from __future__ import annotations

import json
import math
import re
import statistics
import sys
from pathlib import Path

import workloads as wl

ROOT = wl.BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# operations per pass, and per-layer counts each workload fixes
OPS = {"solve": 4, "verify": wl.VERIFY_CHECKS, "sweep": int(wl.SWEEP["count"])}
EXACT = {
    "solve": {"simulate.path_steps": 0, "riccati.blowups": 0, "cli.sweep.rows": 0},
    "verify": {"simulate.path_steps": 10 * 20000 * 1000, "riccati.blowups": 0,
               "simulate.simulate_paths.calls": 10},
    "sweep": {"simulate.path_steps": 0, "riccati.blowups": 3, "cli.sweep.rows": 21},
}
# the layers whose self time must be most of a traced pass
DOMINANT = {"solve": ("riccati.", "equilibrium."), "verify": ("simulate.simulate_paths.",)}
# counts that must be the same in every traced record of a workload
REPEAT = ("model.coef_evals", "equilibrium.picard.iterations", "simulate.path_steps",
          "riccati.blowups", "cli.sweep.rows")


def check_spec(spec: dict) -> list[str]:
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errs.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(wl.WORKLOADS):
        errs.append(f"workloads {names}, expected {list(wl.WORKLOADS)}")
    seen = set()
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            want = {"name", "unit", "better"} | ({"bound"} if kind == "end_to_end" else set())
            if set(m) != want or not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher") or m["name"] in seen:
                errs.append(f"bad {kind} metric {m}")
            seen.add(m["name"])
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errs.append(f"bound of {m['name']} out of (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errs.append("setup_s must be declared in s, lower, with the largest bound")
    return errs


def check_record(path: Path, spec: dict) -> list[str]:
    rec = json.loads(path.read_text())
    workload, traced = rec["args"]["workload"], rec["args"]["trace"]
    where = f"{path}: "
    res = rec["result"]
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(where + f"result keys {sorted(res)}")
    if res["correct"] is not True:
        errs.append(where + f"not correct: {rec['problems']}")
    if res["attempted"] != OPS[workload]:
        errs.append(where + f"attempted {res['attempted']}, expected {OPS[workload]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = res["metrics"]
    for name, unit in declared.items():
        m = got.get(name)
        if m is None:
            errs.append(where + f"missing metric {name}")
        elif m["unit"] != unit or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            errs.append(where + f"metric {name} = {m}, declared unit {unit}")
    errs += [where + f"undeclared metric {n}" for n in got if n not in declared]
    if traced:
        for name, want in EXACT[workload].items():
            if name in got and got[name]["value"] != want:
                errs.append(where + f"{name} = {got[name]['value']}, expected {want}")
        if workload in DOMINANT and not errs:
            wall = statistics.median(rec["traced_pass_wall_s"])
            share = sum(got[n]["value"] for n in got
                        if n.endswith(".self_s") and n.startswith(DOMINANT[workload])) / wall
            print(f"{path.parent.name}: {'+'.join(DOMINANT[workload])} self time "
                  f"{share:.0%} of the traced pass")
            if share < 0.5:
                errs.append(where + f"{DOMINANT[workload]} self time is {share:.0%} "
                            "of the traced pass, expected most of it")
    env = rec["env"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "commit", "seed"):
        if key not in env:
            errs.append(where + f"environment lacks {key}")
    return errs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = check_spec(spec)
    paths = sorted((ROOT / ".bench_out").glob("*/result.json"))
    covered = set()
    counts: dict[str, set] = {}
    for path in paths:
        errs += check_record(path, spec)
        rec = json.loads(path.read_text())
        args = rec["args"]
        covered.add((args["workload"], args["trace"]))
        if args["trace"]:
            got = rec["result"]["metrics"]
            counts.setdefault(args["workload"], set()).add(
                tuple(got[n]["value"] if n in got else None for n in REPEAT))
    errs += [f"{w}: counts {REPEAT} differ between traced records: {sorted(c)}"
             for w, c in counts.items() if len(c) > 1]
    errs += [f"no record for {w} with --trace {t}" for w in wl.WORKLOADS
             for t in (0, 1) if (w, t) not in covered]
    for e in errs:
        print(e)
    print(f"selfcheck: {len(paths)} records, {len(errs)} problems")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
