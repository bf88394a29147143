"""The lqmfg benchmark: one workload per run, closed loop, in-process.

    python3 bench/run_bench.py --workload {solve,verify,sweep} \\
        [--seed 7] [--seconds 30] [--trace 0|1]

Run from the root of a source checkout; ``lqmfg`` is imported from ``src``.
The run calls ``lqmfg.cli.main`` for each of the workload's commands, one
after another, and repeats the whole set (a pass) while ``--seconds`` allow,
checking every pass's outputs.

``--trace 0`` prints the end-to-end metrics: median pass wall time, set-up
time (median of several fresh processes that import ``lqmfg`` and write the
configs), peak RSS, and the accuracy figures route_gap and value_err.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of bench/tracer.py.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (operations of one pass), ``failed`` (operations whose output
is wrong) and ``metrics``.  The line before it records the environment.  The
full record, with every pass and, when traced, every span, is written under
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import workloads as wl
from tracer import Tracer, layer_metrics

ROOT = wl.BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 5     # measured set-ups per run, after one unmeasured warm-up
PROBE_TIMEOUT_S = 60


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported lqmfg
    and written the workload's configs."""
    probe = wl.BENCH_DIR / "setup_probe.py"
    times = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(probe), workload, str(seed),
                                 str(work / f"probe{k}")],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"set-up probe failed (exit {code})")
        if k:
            times.append(elapsed)
    return times


class Workload:
    """A workload's commands, run once per pass, and the checks on them."""

    def __init__(self, name: str, seed: int, work: Path):
        import lqmfg.cli

        self.name, self.cli, self.work = name, lqmfg.cli, work
        self.refs = wl.load_references()
        self.commands = wl.write_configs(name, seed, work)
        self.solved: dict[str, tuple[float, float]] = {}
        self.current = ""
        if name == "verify":
            self._tap_solves()

    def _tap_solves(self) -> None:
        """Record route gap and value of the solve each verify command runs
        first; verify writes neither to its report."""
        original = self.cli.run_solve_pipeline

        def tapped(cfg):
            out = original(cfg)
            self.solved[self.current] = (out.route_gap, out.eq_picard.value.value_at_0)
            return out

        tapped.__module__ = original.__module__
        tapped.__qualname__ = tapped.__name__ = original.__name__
        self.cli.run_solve_pipeline = tapped

    def run(self, command: wl.Command) -> int:
        self.current = command.label
        try:
            return self.cli.main(command.argv)
        except Exception:
            traceback.print_exc()
            return -1

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, wl.PassResult]:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        self.solved.clear()
        codes, times = [], []
        if tracer:
            tracer.install()
        try:
            for i, command in enumerate(self.commands):
                if tracer:
                    tracer.command = i
                t0 = time.perf_counter()
                codes.append(self.run(command))
                times.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()
        if self.name == "solve":
            res = wl.check_solve(self.commands, codes, self.refs)
        elif self.name == "verify":
            res = wl.check_verify(self.commands, codes, self.refs, self.solved)
        else:
            res = wl.check_sweep(self.commands, codes, self.refs)
        res.command_s = times
        return sum(times), res

    def sweep_route_gap(self, problems: list[str]) -> float:
        """Solve one admissible sweep row by both routes: its route gap, and
        its Picard value against the sweep's closed-form value."""
        cmd = wl.sweep_route_command(self.work)
        code = self.run(cmd)
        if code != 0:
            problems.append(f"sweep route check: exit {code}")
            return float("nan")
        summary = wl.read_summary(cmd.out_dir)
        gap = float(summary["route_gap"])
        value = float(summary["value_at_0"])
        row = next((r for r in wl.read_sweep(self.work / "out" / "sweep")
                    if float(r["value"]) == float(wl.SWEEP_ROUTE_THETA)), None)
        if row is None or not abs(value - float(row["value_at_0"])) <= 1e-6:
            problems.append(f"sweep row theta={wl.SWEEP_ROUTE_THETA}: {row} "
                            f"vs Picard value_at_0 {value}")
        return gap


def run_passes(workload: Workload, seconds: float, traced: bool):
    """Passes until the next one would overrun ``seconds``; in a traced run,
    untraced and traced passes alternate."""
    deadline = time.perf_counter() + seconds
    plain: list[tuple[float, wl.PassResult]] = []
    traces: list[tuple[float, wl.PassResult, Tracer]] = []
    while True:
        plain.append(workload.one_pass())
        if traced:
            tracer = Tracer()
            traces.append((*workload.one_pass(tracer), tracer))
        step = statistics.median(w for w, _ in plain) + \
            (statistics.median(w for w, _, _ in traces) if traced else 0.0)
        if time.perf_counter() + step > deadline:
            return plain, traces


def main() -> int:
    ap = argparse.ArgumentParser(description="lqmfg benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # the config file is the only source of the Monte Carlo seed
    os.environ.pop("MFG_SEED", None)
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = [] if args.trace else measure_setup(args.workload, args.seed, run_dir)
    sys.path.insert(0, str(ROOT / "src"))
    workload = Workload(args.workload, args.seed, run_dir)
    plain, traces = run_passes(workload, args.seconds, bool(args.trace))

    first = plain[0][1]
    problems = list(first.problems)
    for _, res, *_ in plain[1:] + traces:
        if (res.ops, res.failures, res.problems) != (first.ops, first.failures,
                                                      first.problems):
            problems.append("a rerun of the same pass gave different outputs")
            break
    if args.workload == "sweep" and not args.trace:
        route_gap = workload.sweep_route_gap(problems)
    else:
        route_gap = first.route_gap
    walls = [w for w, _ in plain]
    wall = statistics.median(walls)

    if args.trace:
        per_pass = []
        for _, res, tracer in traces:
            m = layer_metrics(tracer, tracer.counts())
            m["cli.sweep.rows"] = res.ops if args.workload == "sweep" else 0
            per_pass.append(m)
        # median_low keeps counts whole: it is one of the observed values
        values = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(w for w, _, _ in traces) - wall
        with open(run_dir / "spans.jsonl", "w") as fh:
            for i, (_, _, tracer) in enumerate(traces):
                for span in tracer.spans:
                    fh.write(json.dumps({"pass": i, **asdict(span)}) + "\n")
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "route_gap": route_gap,
            "value_err": first.value_err,
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} "
                        "differ from BENCHMARK.json")

    result = {
        "correct": not problems and (first.statistical or not first.failures),
        "attempted": first.ops,
        "failed": len(first.failures),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()},
    }
    env = environment(args.seed)
    record = {"env": env, "args": vars(args), "result": result,
              "problems": problems, "failures": first.failures,
              "pass_wall_s": walls,
              "pass_command_s": [res.command_s for _, res in plain],
              "traced_pass_wall_s": [w for w, _, _ in traces],
              "setup_samples_s": setup}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in problems + first.failures:
        print(line, file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
