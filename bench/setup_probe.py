"""One set-up of a benchmark run, timed by its parent from process start.

    python3 bench/setup_probe.py <workload> <seed> <work-dir>

Imports ``lqmfg``, writes the workload's configs under <work-dir> and prints
``ready``: the state in which the first command could start.
"""
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(workloads.BENCH_DIR.parent / "src"))

import lqmfg.cli  # noqa: E402,F401

workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.write_configs(workload, seed, work)
print("ready", flush=True)
