"""Regenerate bench/references.json: fine-grid values for value_err and the
expected sweep rows.

    python3 bench/make_references.py

Runs ``lqmfg solve`` on every instance of the ``solve`` workload and
``lqmfg sweep`` on the ``sweep`` workload's parameter range, both at the
fine grid of REFERENCE_STEPS steps, and records ``value_at_0`` of each
together with the grid used.
The code and admissible flag of each sweep row are the expectations the
benchmark checks its own (coarser) sweep rows against.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl

ROOT = wl.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from lqmfg.cli import main as lqmfg_main  # noqa: E402

REFERENCE_STEPS = 8000


def fine_values(n_steps: int, work: Path) -> dict:
    instances = {}
    for name, model in wl.INSTANCES.items():
        cfg = work / f"{name}.cfg"
        cfg.write_text(wl.config_text(model, n_steps))
        out = work / name
        code = lqmfg_main(["solve", "--config", str(cfg), "--out-dir", str(out), "--quiet"])
        if code != 0:
            raise SystemExit(f"{name}: lqmfg solve exited {code}")
        instances[name] = float(wl.read_summary(out)["value_at_0"])

    cfg = work / "sweep.cfg"
    cfg.write_text(wl.config_text(wl.SWEEP_MODEL, n_steps, sweep=wl.SWEEP))
    out = work / "sweep"
    code = lqmfg_main(["sweep", "--config", str(cfg), "--out-dir", str(out), "--quiet"])
    if code != 0:
        raise SystemExit(f"lqmfg sweep exited {code}")
    rows = [{"value": row["value"], "code": row["code"],
             "admissible": row["admissible"],
             "value_at_0": float(row["value_at_0"]) if row["value_at_0"] else None}
            for row in wl.read_sweep(out)]
    return {"instances": instances, "sweep_rows": rows}


def main() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        refs = fine_values(REFERENCE_STEPS, Path(tmp))
    doc = {
        "n_steps": REFERENCE_STEPS,
        "command": "python3 bench/make_references.py",
        **refs,
    }
    wl.REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {wl.REFERENCES}")


if __name__ == "__main__":
    main()
