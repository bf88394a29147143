import argparse
import errno
import importlib.util
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import lqmfg
from lqmfg import cli, simulate
from lqmfg.cli import (
    ESS_FLOOR,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    SADDLE_SHIFT,
    ConfigError,
    RunConfig,
    _overrides,
    echo_instance,
    main,
    parse_config,
)
from lqmfg.equilibrium import (BlowUpError, NonConvergenceError, admissible_beta,
                               solve_equilibrium_picard)
from lqmfg.model import MAX_COUNT, Coefficient, TimeGrid, Variant, fmt_float, max_steps
from lqmfg.simulate import MCEstimate, SimConfig
from conftest import make_params, saddle_gaps, tabulated
from riccati_oracle import FiniteEscapeError, closed_form_constant_riccati


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
n_steps = 200
"""

BLOWUP_CFG = """\
[model]
variant = risk_sensitive
a = 0.0
abar = 0.0
b = 1.0
sigma = 1.0
theta = 2.0
q = 25.0
qbar = 0.0
r = 1.0
qT = 0.0
qbarT = 0.0
T = 1.0
x0 = 1.0
m0 = 1.0

[grid]
n_steps = 400
"""


# a long horizon with strong mean coupling: the fixed-point route's sweep
# meets a pivot <= 0 and ends in "singular", exit 3
SINGULAR_CFG = """\
[model]
variant = risk_neutral
a = 1.0
abar = 4.0
b = 1.0
sigma = 0.2
q = 0.0
qbar = 4.0
r = 1.0
qT = 0.0
qbarT = 4.0
T = 3.0
x0 = 1.0
m0 = 1.0

[grid]
n_steps = 300
"""


def write_cfg(tmp_path: Path, text: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_tree(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


class TestParseConfig:
    def test_benchmark_round_values(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, BENCH_CFG))
        assert cfg.params.a == -0.5
        assert cfg.params.q == Coefficient(1.0)
        assert cfg.grid == TimeGrid(T=1.0, n_steps=200)
        assert cfg.sim.n_paths == 10000 and cfg.sim.seed == 0

    def test_default_grid_scales_with_horizon(self, tmp_path):
        text = BENCH_CFG.replace("T = 1.0", "T = 2.0").split("[grid]")[0]
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.grid.n_steps == 2000

    def test_tabulated_coefficient(self, tmp_path):
        text = BENCH_CFG.replace("q = 1.0", "q = 1.0, 2.0, 1.5")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert not cfg.params.q.is_constant
        assert cfg.params.q(0.5) == pytest.approx(2.0)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_cfg(tmp_path, BENCH_CFG + "frobnicate = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write_cfg(tmp_path, BENCH_CFG + "\n[plotting]\nx = 1\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="missing .model. keys"):
            parse_config(write_cfg(tmp_path, BENCH_CFG.replace("sigma = 0.2\n", "")))

    def test_bad_variant(self, tmp_path):
        with pytest.raises(ConfigError, match="variant"):
            parse_config(write_cfg(
                tmp_path, BENCH_CFG.replace("risk_neutral", "cautious")))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_undecodable_file_is_one_line_config_error(self, tmp_path, capsys, command):
        # a UTF-16 file with its byte-order mark, ff fe, is not UTF-8
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfe" + BENCH_CFG.encode("utf-16-le"))
        assert main([command, "--config", str(path), "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config file {path} is not UTF-8: 'utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte\n")

    def test_sweep_section(self, tmp_path):
        text = BENCH_CFG + "\n[sweep]\nparameter = theta\nstart = 0\nstop = 1\ncount = 5\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.sweep_parameter == "theta"
        assert cfg.sweep_count == 5

    @pytest.mark.parametrize("count", ["1", "-3", str(10 ** 16), str(MAX_COUNT),
                                       str(2 ** 63)])
    def test_sweep_count_out_of_range(self, tmp_path, capsys, count):
        # 10^16 rows are past 1 KiB per row in any host's memory, and
        # np.linspace would fail to allocate them
        text = BENCH_CFG + ("\n[sweep]\nparameter = theta\nstart = 0\nstop = 1\n"
                            f"count = {count}\n")
        assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"config error: [sweep] count must be >= 2 and <= {max_steps()}, "
                       "1 KiB per row in physical memory\n")

    def test_sweep_bad_parameter(self, tmp_path):
        text = BENCH_CFG + "\n[sweep]\nparameter = b\nstart = 0\nstop = 1\ncount = 5\n"
        with pytest.raises(ConfigError, match="parameter"):
            parse_config(write_cfg(tmp_path, text))


class TestEcho:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, BENCH_CFG))
        echoed = write_cfg(tmp_path, echo_instance(cfg.params, cfg.grid), "echo.cfg")
        cfg2 = parse_config(echoed)
        assert cfg2.params == cfg.params
        assert cfg2.grid == cfg.grid

    def test_round_trip_tabulated(self, tmp_path):
        text = BENCH_CFG.replace("qbar = 0.5", "qbar = 0.5, 0.25, 0.75")
        cfg = parse_config(write_cfg(tmp_path, text))
        echoed = write_cfg(tmp_path, echo_instance(cfg.params, cfg.grid), "echo.cfg")
        assert parse_config(echoed).params == cfg.params


class TestSeedPrecedence:
    def make_args(self, **kw):
        defaults = dict(seed=None, paths=None, dt_sim=None)
        defaults.update(kw)
        return argparse.Namespace(**defaults)

    def test_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, BENCH_CFG + "\n[sim]\nseed = 5\n")
        assert parse_config(path, _overrides(self.make_args())).sim.seed == 5
        monkeypatch.setenv("MFG_SEED", "6")
        assert parse_config(path, _overrides(self.make_args())).sim.seed == 6
        assert parse_config(path, _overrides(self.make_args(seed="7"))).sim.seed == 7

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, BENCH_CFG)
        monkeypatch.setenv("MFG_SEED", "many")
        with pytest.raises(ConfigError):
            parse_config(path, _overrides(self.make_args()))

    def test_flags_set_sim_values(self, tmp_path):
        path = write_cfg(tmp_path, BENCH_CFG + "\n[sim]\nn_paths = 10\n")
        cfg = parse_config(path, _overrides(self.make_args(paths="64", dt_sim="0.0025")))
        assert (cfg.sim.n_paths, cfg.sim.dt_sim) == (64, 0.0025)


class TestSolveCommand:
    def test_exit_ok_and_outputs(self, tmp_path):
        path = write_cfg(tmp_path, BENCH_CFG)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        for name in ("m.csv", "beta.csv", "alpha.csv", "gamma.csv", "eta.csv",
                     "gains.csv", "report.txt", "summary.txt", "instance_echo.cfg"):
            assert (out / name).exists()
        summary = (out / "summary.txt").read_text()
        assert "status=ok" in summary
        assert "value_at_0=" in summary

    def test_echo_file_reparses(self, tmp_path):
        path = write_cfg(tmp_path, BENCH_CFG)
        out = tmp_path / "out"
        main(["solve", "--config", path, "--out-dir", str(out), "--quiet"])
        cfg = parse_config(path)
        cfg2 = parse_config(out / "instance_echo.cfg")
        assert cfg2.params == cfg.params

    def test_blow_up_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, BLOWUP_CFG)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_BLOWUP
        assert "blow_up_time=" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("failing, code", [
        (BLOWUP_CFG, EXIT_BLOWUP), (SINGULAR_CFG, EXIT_NONCONVERGENCE),
    ], ids=["blow_up", "non_convergence"])
    def test_failed_solve_removes_an_earlier_solves_csvs(self, tmp_path, failing, code):
        out = tmp_path / "out"
        assert main(["solve", "--config", write_cfg(tmp_path, BENCH_CFG), "--out-dir",
                     str(out), "--quiet"]) == EXIT_OK
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(cli.SOLVE_CSVS)
        (out / "notes.csv").write_text("not written by lqmfg\n")
        assert main(["solve", "--config", write_cfg(tmp_path, failing, "failing.cfg"),
                     "--out-dir", str(out), "--quiet"]) == code
        assert sorted(p.name for p in out.iterdir()) == [
            "instance_echo.cfg", "notes.csv", "report.txt", "summary.txt"]
        report = (out / "report.txt").read_text()
        assert "files:\n\ninstance:" in report

    def test_non_convergence_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, SINGULAR_CFG.replace("n_steps = 300", "n_steps = 600"))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_NONCONVERGENCE
        summary = (out / "summary.txt").read_text().splitlines()
        assert "status=non_convergence" in summary and "reason=singular" in summary

    @pytest.mark.parametrize("n_steps, code", [(10, EXIT_NONCONVERGENCE), (1000, EXIT_OK)])
    def test_sign_flipping_mean_is_refused(self, tmp_path, capsys, n_steps, code):
        # q = 1e6 once exited 0 at n_steps = 10 with value_at_0 = -1900 (519.9 true)
        text = (BENCH_CFG.replace("q = 1.0", "q = 1e6")
                .replace("n_steps = 200", f"n_steps = {n_steps}"))
        out = tmp_path / "out"
        assert main(["solve", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(out)]) == code
        summary = dict(ln.split("=", 1) for ln in (out / "summary.txt").read_text().splitlines())
        if code == EXIT_OK:
            assert float(summary["value_at_0"]) == pytest.approx(519.876, abs=0.02)
            return
        assert summary["reason"] == "step_ratio"
        assert capsys.readouterr().out.endswith(
            "h max|a + abar - lam beta| = 99.97 must stay below 2 or the mean changes sign; "
            "n_steps >= 1000 brings it to 1 or below\n")

    def test_solves_where_picard_diverges(self, tmp_path):
        # the benchmark sweep's instance at theta = 1.7, where rho(L) = 1.14
        text = (BENCH_CFG.replace("risk_neutral", "risk_sensitive\ntheta = 1.7")
                .replace("sigma = 0.2", "sigma = 1.0").replace("n_steps = 200", "n_steps = 1000"))
        out = tmp_path / "out"
        assert main(["solve", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(out), "--quiet"]) == EXIT_OK
        summary = dict(ln.split("=", 1) for ln in (out / "summary.txt").read_text().splitlines())
        assert float(summary["route_gap"]) <= 1e-5
        assert float(summary["residual"]) <= 1e-10

    @pytest.mark.parametrize("a, code, fields", [
        # stiff: the sweep solves, and the paper's bound overflows
        ("800", EXIT_OK, {"lipschitz_bound": "inf", "contraction": "false"}),
        ("-800", EXIT_OK, {"lipschitz_bound": "inf", "contraction": "false"}),
        # Phi overflows
        ("1e300", EXIT_NONCONVERGENCE, {"reason": "non_finite"}),
    ])
    def test_extreme_drift(self, tmp_path, capsys, a, code, fields):
        text = BENCH_CFG.replace("a = -0.5", f"a = {a}").replace("n_steps = 200", "n_steps = 1000")
        out = tmp_path / "out"
        assert main(["solve", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(out), "--quiet"]) == code
        summary = dict(ln.split("=", 1) for ln in (out / "summary.txt").read_text().splitlines())
        assert {k: summary[k] for k in fields} == fields
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, expect", [
        ("solve", "reason=non_finite"), ("check", "  g = nan")])
    def test_linear_overflow_is_not_an_escape(self, tmp_path, capsys, command, expect):
        # robust with c = b makes kappa = 0: beta' = -2a beta - q - qbar is
        # linear, has no pole, and at a = 800 outgrows the floats near t = 0.56
        text = (BENCH_CFG.replace("risk_neutral", "robust\nc = 1.0")
                .replace("a = -0.5", "a = 800").replace("n_steps = 200", "n_steps = 1000"))
        out = tmp_path / "out"
        code = EXIT_NONCONVERGENCE if command == "solve" else EXIT_OK
        assert main([command, "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(out), "--quiet"]) == code
        written = "".join(p.read_text() for p in out.glob("*.txt"))
        assert expect in written.splitlines() and "blow_up" not in written
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, report", [("solve", "summary.txt"),
                                                 ("verify", "verify_report.txt")])
    def test_value_beyond_the_floats_is_non_finite(self, tmp_path, capsys, command, report):
        # m and alpha of m0 = 1e200 are floats, but gamma holds m^2: no value
        # is reported, nor is a Monte Carlo run against it
        text = BENCH_CFG.replace("m0 = 1.0", "m0 = 1e200")
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(out), "--quiet"]) == EXIT_NONCONVERGENCE
        lines = (out / report).read_text().splitlines()
        assert ("reason=non_finite" if command == "solve" else "reason = non_finite") in lines
        assert capsys.readouterr().err == ""

    def test_csvs_render_each_value_by_fmt_float(self, tmp_path):
        # the robust variant writes the five-column gains.csv
        path = write_cfg(tmp_path, BENCH_CFG.replace("risk_neutral", "robust\nc = 0.5"))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out), "--quiet"]) == EXIT_OK
        cfg = parse_config(path)
        res = cli.run_solve_pipeline(cfg)
        eq = res.eq_picard
        sources = {"m": eq.m, "beta": eq.beta, "alpha": eq.alpha, "gamma": eq.gamma,
                   "eta": res.eq_closed.eta, "feedback_gain": eq.value.feedback_gain,
                   "feedback_offset": eq.value.feedback_offset,
                   "disturbance_gain": eq.value.disturbance_gain,
                   "disturbance_offset": eq.value.disturbance_offset}
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 6
        for csv in csvs:
            header = csv.read_text().splitlines()[0].split(",")
            rows = zip(cfg.grid.nodes, *(sources[name].values for name in header[1:]))
            expected = ",".join(header) + "\n" + "".join(
                ",".join(map(fmt_float, row)) + "\n" for row in rows)
            assert csv.read_bytes() == expected.encode()

    def test_float_csv_renders_special_values_by_fmt_float(self):
        times = [0.0, 0.1, 1 / 3, 1.0]
        columns = (np.array([math.nan, -0.0, math.inf, -math.inf]),
                   np.array([1e-320, 0.1, -2.5e300, 1.0]))
        text = cli._float_csv(["t", "u", "v"],
                              cli._rows_format([fmt_float(t) for t in times], 2), *columns)
        expected = "t,u,v\n" + "".join(",".join(map(fmt_float, row)) + "\n"
                                       for row in zip(times, *columns))
        assert text.encode() == expected.encode()

    def test_config_error_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, BENCH_CFG + "bogus = 1\n")
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("old, new", [
        ("a = -0.5", "a = nan"),
        ("sigma = 0.2", "sigma = inf"),
        ("n_steps = 200", "n_steps = 1"),
        ("n_steps = 200", "n_steps = 200\n[solve]\nmax_iter = 0"),
        ("n_steps = 200", "n_steps = 200\n[solve]\nmax_iter = -4"),
        ("n_steps = 200", "n_steps = 200\n[solve]\ntol = nan"),
        ("n_steps = 200", "n_steps = 200\n[solve]\ntol = -1"),
        ("n_steps = 200", "n_steps = 200\n[sim]\nseed = -1"),
        ("n_steps = 200", "n_steps = 200\n[sim]\ndt_sim = nan"),
        # counts no numpy array can hold, refused before any allocation
        ("n_steps = 200", f"n_steps = {10 ** 30}"),
        ("n_steps = 200", f"n_steps = {2 ** 63 - 1}"),
        # below MAX_COUNT, but past 1 KiB per step in any host's memory
        ("n_steps = 200", f"n_steps = {10 ** 16}"),
        ("T = 1.0\nx0 = 1.0\nm0 = 1.0\n\n[grid]\nn_steps = 200\n",
         "T = 1e306\nx0 = 1.0\nm0 = 1.0\n"),        # the default n_steps, 1000 T
        ("n_steps = 200", "n_steps = 200\n[sweep]\nparameter = theta\nstart = 0\n"
                          f"stop = 1\ncount = {10 ** 27}"),
        ("q = 1.0", "q = ,"),
        (BENCH_CFG.split("[grid]")[0], ""),             # no [model] section
        ("\nT = 1.0", "\nT = 0"),
        ("\nT = 1.0", "\nT = inf"),
        ("a = -0.5", "a = -0.5\na = 2"),                 # refused by configparser
        ("n_steps = 200", "n_steps = 200\n[sweep]\nstart = 0\nstop = 1\ncount = 3"),
        ("q = 1.0", "q = 1.0, inf"),
    ])
    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_bad_input_is_one_line_config_error(self, tmp_path, capsys, monkeypatch,
                                                old, new, command):
        # any solve would be a failure: the error comes before it
        monkeypatch.setattr(cli, "solve_equilibrium_picard", None)
        monkeypatch.setattr(cli, "admissible_beta", None)
        path = write_cfg(tmp_path, BENCH_CFG.replace(old, new))
        assert main([command, "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flags, env_seed", [
        (["--paths", "0"], None),
        (["--dt-sim", "-1"], None),
        (["--dt-sim", "nan"], None),
        (["--paths", str(10 ** 27)], None),  # no numpy array holds the paths
        (["--seed", "-3"], None),
        (["--seed", "many"], None),
        ([], "-2"),
        (["--seed", "-3"], "4"),           # a bad flag is not hidden by MFG_SEED
    ])
    def test_bad_flag_is_one_line_config_error(self, tmp_path, capsys, monkeypatch,
                                               flags, env_seed):
        monkeypatch.setattr(cli, "solve_equilibrium_picard", None)
        if env_seed is not None:
            monkeypatch.setenv("MFG_SEED", env_seed)
        path = write_cfg(tmp_path, BENCH_CFG)
        for command in ("solve", "verify"):
            assert main([command, "--config", path, "--out-dir",
                         str(tmp_path / "o"), "--quiet", *flags]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: [") and err.count("\n") == 1

    @pytest.mark.parametrize("section, key, value, error", [
        # an escape is a pole of the solution; no magnitude cap finds it, and
        # the fixed point is one direct sweep, with no tolerance or budget
        ("solve", "blow_up_cap", "1e12", "unknown section [solve]"),
        ("solve", "tol", "1e-10", "unknown section [solve]"),
        ("solve", "max_iter", "200", "unknown section [solve]"),
        # the paired sampling mode is gone; every run draws i.i.d. paths
        ("sim", "antithetic", "true", "unknown key 'antithetic' in section [sim]"),
    ], ids=["solve-blow_up_cap-1e12", "solve-tol-1e-10", "solve-max_iter-200",
            "sim-antithetic-true"])
    def test_blow_up_cap_is_config_error(self, tmp_path, capsys, section, key, value, error):
        path = write_cfg(tmp_path, BENCH_CFG + f"\n[{section}]\n{key} = {value}\n")
        assert main(["solve", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {error}\n"

    def test_tol_flag_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BENCH_CFG)
        assert main(["solve", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet", "--tol", "1e-10"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unrecognized arguments: --tol 1e-10\n")

    def test_byte_identical_reruns(self, tmp_path):
        path = write_cfg(tmp_path, BENCH_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["solve", "--config", path, "--out-dir", str(out1), "--quiet"])
        main(["solve", "--config", path, "--out-dir", str(out2), "--quiet"])
        assert read_tree(out1) == read_tree(out2)


def report_fields(report: str) -> dict[str, str]:
    """The key = value fields of a solve report, above its file list; a
    value's first word, and the margin beside admissible."""
    out = {}
    for line in report[:report.index("\nfiles:\n")].splitlines():
        key, sep, value = line.strip().partition(" = ")
        if sep:
            out[key], *rest = value.split()
            if rest[:1] == ["(margin"]:
                out["margin"] = rest[1].rstrip(")")
    return out


class TestFailureFields:
    """One map from a failed solve to its fields: every file that reports
    the failure carries the same values."""

    def test_blow_up_fields_agree_in_every_file(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BLOWUP_CFG)
        codes = {command: main([command, "--config", path, "--out-dir",
                                str(tmp_path / command), "--quiet"])
                 for command in ("solve", "check", "verify")}
        assert codes == {"solve": EXIT_BLOWUP, "check": EXIT_OK, "verify": EXIT_BLOWUP}
        sweep = write_cfg(tmp_path, BLOWUP_CFG + "\n[sweep]\nparameter = theta\n"
                          "start = 1.0\nstop = 2.0\ncount = 2\n", "sweep.cfg")
        assert main(["sweep", "--config", sweep, "--out-dir", str(tmp_path / "sweep"),
                     "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

        summary = dict(ln.split("=", 1) for ln in
                       (tmp_path / "solve" / "summary.txt").read_text().splitlines())
        at = summary["blow_up_time"]
        assert summary["equation"] == "beta"
        texts = [tmp_path / "solve" / "report.txt", tmp_path / "check" / "check_report.txt",
                 tmp_path / "verify" / "verify_report.txt"]
        for text in texts:
            lines = text.read_text().splitlines()
            assert f"blow_up_time = {at}" in lines and "equation = beta" in lines
            assert "status = blow_up" in lines
        header, *rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        row = dict(zip(header.split(","), rows[-1].split(",")))
        assert row["value"] == "2" and row["blow_up_time"] == at
        assert row["code"] == str(EXIT_BLOWUP)

    def test_non_convergence_summary_counts_iterations(self, tmp_path):
        path = write_cfg(tmp_path, SINGULAR_CFG)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_NONCONVERGENCE
        summary = (out / "summary.txt").read_text().splitlines()
        report = report_fields((out / "report.txt").read_text())
        # the sweep's one Phi application, which gave the residual
        assert "iterations=1" in summary and report["iterations"] == "1"
        assert "reason=singular" in summary
        for line in summary:
            key, value = line.split("=", 1)
            assert report[key] == value

    def test_without_quiet_solve_prints_the_error_and_verify_its_report(self, tmp_path,
                                                                         capsys):
        blow_up = write_cfg(tmp_path, BLOWUP_CFG)
        assert main(["solve", "--config", blow_up, "--out-dir",
                     str(tmp_path / "s")]) == EXIT_BLOWUP
        assert capsys.readouterr().out == "beta blow-up at t = 0.685841\n"
        singular = write_cfg(tmp_path, SINGULAR_CFG, "singular.cfg")
        assert main(["solve", "--config", singular, "--out-dir",
                     str(tmp_path / "c")]) == EXIT_NONCONVERGENCE
        assert capsys.readouterr().out.startswith(
            "no convergence (singular); last residual ")
        assert main(["verify", "--config", blow_up, "--out-dir",
                     str(tmp_path / "v")]) == EXIT_BLOWUP
        assert capsys.readouterr().out == (tmp_path / "v" / "verify_report.txt").read_text()

    @pytest.mark.parametrize("variant", [
        "risk_neutral", "robust_risk_sensitive\nc = 0.5\ntheta = 0.25"], ids=["rn", "rrs"])
    def test_ok_summary_values_match_the_report(self, tmp_path, variant):
        path = write_cfg(tmp_path, BENCH_CFG.replace("risk_neutral", variant))
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        report = report_fields((out / "report.txt").read_text())
        beta0 = (out / "beta.csv").read_text().splitlines()[1].split(",")[1]
        counterpart = {"route_gap": "closed_form_vs_picard_max_gap"}
        for line in (out / "summary.txt").read_text().splitlines():
            key, value = line.split("=", 1)
            expected = beta0 if key == "beta0" else report[counterpart.get(key, key)]
            assert value == (expected.lower() if expected in ("True", "False") else expected)


class TestRunRecord:
    """A command returns its Run and touches no file; main writes exactly
    the Run's files."""

    @pytest.mark.parametrize("command, config, code", [
        ("solve", "bench", EXIT_OK), ("solve", "blowup", EXIT_BLOWUP),
        ("check", "bench", EXIT_OK), ("check", "blowup", EXIT_OK)])
    def test_command_returns_its_run_and_writes_nothing(self, tmp_path, monkeypatch,
                                                        command, config, code):
        text = {"bench": BENCH_CFG, "blowup": BLOWUP_CFG}[config]
        cfg = parse_config(write_cfg(tmp_path, text))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        run = getattr(cli, f"cmd_{command}")(cfg)
        assert isinstance(run, cli.Run) and run.code == code and run.lines
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "work"]
        out = tmp_path / "out"
        assert main([command, "--config", str(tmp_path / "run.cfg"), "--out-dir", str(out),
                     "--quiet"]) == code
        assert read_tree(out) == {name: text.encode() for name, text in run.files.items()}


class TestUsageErrors:
    """argparse's usage errors are config errors: exit 1, since 2 is the
    blow-up code."""

    @pytest.mark.parametrize("argv, message", [
        (["solve"], "the following arguments are required: --config"),
        (["solve", "--config", "run.cfg", "--bogus"], "unrecognized arguments: --bogus"),
        (["sweep", "--config", "run.cfg", "--workers", "many"],
         "unrecognized arguments: --workers many"),
    ])
    def test_usage_error_is_one_line_config_error(self, capsys, argv, message):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_commands_in_one_process_share_the_parser(self, tmp_path, capsys):
        # the parser is built once per process; --workers belongs to no command
        path = write_cfg(tmp_path, TestSweepCommand.SWEEP)
        runs = [["solve", "--config", path, "--out-dir", str(tmp_path / "s"), "--quiet"],
                ["sweep", "--config", path, "--out-dir", str(tmp_path / "w"), "--quiet"],
                ["solve", "--config", path, "--workers", "2"]]
        results = [(main(argv), capsys.readouterr().err) for argv in runs]
        assert results == [(EXIT_OK, ""), (EXIT_OK, ""),
                           (EXIT_CONFIG, "config error: unrecognized arguments: --workers 2\n")]
        assert (tmp_path / "s" / "m.csv").is_file() and (tmp_path / "w" / "sweep.csv").is_file()
        assert cli._build_parser() is cli._build_parser()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-h"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestOutDir:
    @pytest.mark.parametrize("command", ["solve", "verify", "sweep", "check"])
    @pytest.mark.parametrize("below_file", [False, True])
    def test_unusable_out_dir_is_config_error(self, tmp_path, capsys, monkeypatch,
                                              command, below_file):
        # the directory is made before any command runs
        for name in ("admissible_beta", "solve_equilibrium_picard"):
            monkeypatch.setattr(cli, name, None)
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "x" if below_file else blocker
        path = write_cfg(tmp_path, TestSweepCommand.SWEEP)
        assert main([command, "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert err.count("\n") == 1
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("command, name", [
        ("solve", "summary.txt"), ("verify", "verify_report.txt"),
        ("sweep", "sweep.csv"), ("check", "check_report.txt")])
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        path = write_cfg(tmp_path, TestSweepCommand.SWEEP)
        assert main([command, "--config", path, "--out-dir", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (f"config error: cannot write {out / name}: "
                                f"{os.strerror(errno.EISDIR)}\n")
        assert captured.out == ""

    def test_unremovable_stale_file_is_config_error(self, tmp_path, capsys):
        # a failed solve removes an earlier solve's curves; this m.csv is a directory
        out = tmp_path / "out"
        (out / "m.csv").mkdir(parents=True)
        assert main(["solve", "--config", write_cfg(tmp_path, BLOWUP_CFG),
                     "--out-dir", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err in {f"config error: cannot remove {out / 'm.csv'}: "
                                f"{os.strerror(code)}\n" for code in (errno.EISDIR, errno.EPERM)}
        assert captured.out == ""


class TestVerifyCommand:
    def test_benchmark_passes(self, tmp_path):
        text = BENCH_CFG.replace("n_steps = 200", "n_steps = 500") + \
            "\n[sim]\nn_paths = 4000\ndt_sim = 1e-3\nseed = 12\n"
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        report = (out / "verify_report.txt").read_text()
        assert "PASS" in report and "FAIL" not in report
        assert "mean_consistency" in report
        assert "value_identity_quadratic" in report

    @pytest.mark.parametrize("variant", list(Variant))
    def test_player_start_apart_from_the_mean_passes(self, tmp_path, variant):
        # m is the mean of a population started at m0, not of the player
        # started at x0; on the same draws their paths differ by a
        # deterministic term, so the mean line reads as at x0 = m0
        model = BENCH_CFG.replace("risk_neutral", variant.value).replace(
            "m0 = 1.0", "m0 = 1.0\nc = 0.5\ntheta = 0.25")
        sim = "\n[sim]\nn_paths = 4000\ndt_sim = 1e-3\nseed = 7\n"
        reports = []
        for x0 in ("1.0", "2.0"):
            path = write_cfg(tmp_path, model.replace("x0 = 1.0", f"x0 = {x0}") + sim)
            out = tmp_path / f"x0_{x0}"
            assert main(["verify", "--config", path, "--out-dir", str(out),
                         "--quiet"]) == EXIT_OK
            reports.append((out / "verify_report.txt").read_text().splitlines())
        assert reports[1][0].startswith("PASS  mean_consistency")
        assert reports[1][0] == reports[0][0]
        assert all(line.startswith("PASS") for line in reports[1])

    def test_blow_up_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, BLOWUP_CFG)
        out = tmp_path / "o"
        assert main(["verify", "--config", path, "--out-dir",
                     str(out), "--quiet"]) == EXIT_BLOWUP
        report = (out / "verify_report.txt").read_text().splitlines()
        assert report[:2] == ["status = blow_up", "equation = beta"]
        assert report[2].startswith("blow_up_time = 0.68") and len(report) == 3

    @pytest.mark.parametrize("sim, n_steps, message", [
        ("dt_sim = 0.003", 200, "does not divide T"),
        ("dt_sim = 0.004", 200, "must be a multiple of the ODE grid steps"),
        # T / dt_sim is inf, or a step count no numpy array can hold
        ("dt_sim = 1e-320", 200, "makes more than"),
        ("dt_sim = 1e-200", 2, "makes more than"),
        ("dt_sim = 1e-16", 200, "makes more than"),   # 10^16 steps fit in no memory
        # a shared map of the paths larger than any 64-bit address space
        (f"dt_sim = 0.1\nn_paths = {MAX_COUNT}", 10, f"n_paths = {MAX_COUNT} needs"),
    ])
    def test_bad_sim_grid_is_config_error(self, tmp_path, capsys, sim, n_steps, message):
        path = write_cfg(tmp_path, BENCH_CFG.replace("n_steps = 200", f"n_steps = {n_steps}")
                         + f"\n[sim]\n{sim}\n")
        assert main(["verify", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: [sim]") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edit, flags, message", [
        ("", ["--paths", "1"], "[sim] verify needs n_paths >= 2"),
        ("sigma = 0.0", [], "verify needs sigma > 0"),
    ], ids=["one_path", "sigma_zero"])
    def test_noise_free_samples_are_config_error(self, tmp_path, capsys, edit, flags, message):
        # without noise every se is 0 and each tolerance shrinks to rounding
        path = write_cfg(tmp_path, BENCH_CFG.replace("sigma = 0.2", edit or "sigma = 0.2"))
        assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "o"),
                     "--quiet", *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1

    def test_blow_up_outranks_a_single_path(self, tmp_path):
        path = write_cfg(tmp_path, BLOWUP_CFG)
        assert main(["verify", "--config", path, "--out-dir", str(tmp_path / "o"),
                     "--paths", "1", "--quiet"]) == EXIT_BLOWUP

    def test_default_dt_sim_refines_the_grid(self, tmp_path):
        # no [sim] section: 1000 steps would not refine a 400-step grid
        path = write_cfg(tmp_path, BENCH_CFG.replace("n_steps = 200", "n_steps = 400"))
        assert parse_config(path).sim.dt_sim == 1.0 / 1200
        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out-dir", str(out),
                     "--paths", "2000", "--quiet"]) == EXIT_OK
        assert "value_identity_quadratic" in (out / "verify_report.txt").read_text()

    def test_default_dt_sim_past_the_array_limit(self, tmp_path, capsys):
        # 1000 T / n_steps overflows: the default step is still a float, and
        # only a simulation needs it
        path = write_cfg(tmp_path, BENCH_CFG.replace("T = 1.0", "T = 1.7e308"))
        assert parse_config(path).sim.dt_sim > 0.0
        assert main(["check", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_default_dt_sim_is_one_thousandth_where_it_refines(self, tmp_path):
        assert parse_config(write_cfg(tmp_path, BENCH_CFG)).sim.dt_sim == 1e-3


def theta_lines(lines) -> dict[str, cli.CheckLine]:
    return {line.name.split()[0]: line for line in lines
            if line.name.split()[0] in ("value_identity_exponential",
                                        "martingale_normalization")}


class TestVerifyThetaLines:
    """The two theta lines are on the log scale and carry their ESS."""

    def test_theta_zero_is_the_mean_cost_and_a_zero_log_density(self, tmp_path):
        # risk_sensitive without a theta key runs at theta = 0: every weight is 1
        text = BENCH_CFG.replace("risk_neutral", "risk_sensitive") + \
            "\n[sim]\nn_paths = 500\ndt_sim = 1e-3\nseed = 4\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.params.theta == 0.0
        lines = cli.run_verify_checks(cfg)
        quadratic = next(ln for ln in lines if ln.name == "value_identity_quadratic")
        exp_line, mart = theta_lines(lines).values()
        assert (exp_line.estimate, exp_line.std_error) == (quadratic.estimate,
                                                           quadratic.std_error)
        assert (mart.estimate, mart.std_error) == (0.0, 0.0)
        assert exp_line.name == "value_identity_exponential (ess 500)"
        assert mart.name == "martingale_normalization (ess 500)"
        assert all(ln.passed for ln in lines)

    def test_ess_below_the_floor_fails_a_line_that_meets_its_theory(self, tmp_path):
        # at theta = 0 the estimates are exact to their se; ess = n_paths
        text = BENCH_CFG.replace("risk_neutral", "risk_sensitive") + \
            f"\n[sim]\nn_paths = {ESS_FLOOR - 1}\ndt_sim = 1e-3\nseed = 4\n"
        lines = theta_lines(cli.run_verify_checks(parse_config(write_cfg(tmp_path, text))))
        mart = lines["martingale_normalization"]
        assert mart.estimate == 0.0 and not mart.passed
        assert mart.name == f"martingale_normalization (ess {ESS_FLOOR - 1} < floor {ESS_FLOOR})"
        assert not lines["value_identity_exponential"].passed

    def test_non_finite_weights_fail_their_lines(self, tmp_path, capsys):
        # x0 = 1.3e154, whose square is 1.69e308, puts the value at 7.7e307
        # and theta L = 4 L past the floats on every path: the certainty
        # equivalent, its se and its ESS are NaN, and nothing reaches stderr
        text = (BENCH_CFG.replace("risk_neutral", "risk_sensitive\ntheta = 4")
                .replace("x0 = 1.0", "x0 = 1.3e154")
                .replace("n_steps = 200", "n_steps = 2") + "\n[sim]\nn_paths = 3\nseed = 7\n")
        assert main(["verify", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(tmp_path / "o")]) == EXIT_VERIFY_FAIL
        out, err = capsys.readouterr()
        assert err == ""
        out = out.splitlines()
        assert [ln.split()[:2] for ln in out] == [
            ["FAIL", "mean_consistency"], ["FAIL", "value_identity_quadratic:"],
            ["FAIL", "value_identity_exponential"], ["FAIL", "martingale_normalization"]]
        exp_line = next(ln for ln in out if "value_identity_exponential" in ln)
        assert exp_line.startswith("FAIL  value_identity_exponential (ess nan < floor 100):")

    @pytest.mark.parametrize("std_error, ess", [(math.inf, 500.0), (math.nan, 500.0),
                                                (0.1, math.inf)])
    def test_a_non_finite_se_or_ess_fails(self, std_error, ess):
        line = cli._mc_line("value_identity_exponential",
                            MCEstimate(mean=1.0, std_error=std_error, ess=ess), 1.0, 1e-3)
        assert not line.passed and line.render().startswith("FAIL  value_identity_exponential")

    def test_a_finite_ess_is_truncated(self):
        line = cli._mc_line("martingale_normalization",
                            MCEstimate(mean=0.0, std_error=0.1, ess=499.9), 0.0, 1e-3)
        assert line.passed and line.name == "martingale_normalization (ess 499)"


class TestEulerStepFactor:
    """verify refuses a dt_sim at which some Euler step factor
    e_k = 1 + (a - lam beta) dt_sim is not positive."""

    @pytest.mark.parametrize("q, n_steps, dt_sim, bound", [
        ("1e6", 1000, "0.001", "0.000999999625"),
        ("1e7", 2000, "0.0005", "0.000316227754")])
    def test_stiff_feedback_is_one_config_error(self, tmp_path, capsys, q, n_steps, dt_sim,
                                                bound):
        # at q = 1e6 the feedback gain makes e_k slightly negative at the
        # default dt_sim = 1e-3, at q = 1e7 far below zero at the default 5e-4
        # of a 2000-step grid, on which the solve runs (h max|c| = 1.58)
        text = (BENCH_CFG.replace("q = 1.0", f"q = {q}")
                .replace("n_steps = 200", f"n_steps = {n_steps}") + "\n[sim]\nn_paths = 200\n")
        assert main(["verify", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [sim] dt_sim = {dt_sim} makes the Euler step factor")
        assert f"dt_sim must be below {bound}" in err and err.count("\n") == 1

    def test_a_step_below_the_named_bound_runs(self, tmp_path):
        # the q = 1e6 instance at dt_sim = 1e-3 / 2, below 0.000999999625
        text = (BENCH_CFG.replace("q = 1.0", "q = 1e6").replace("n_steps = 200", "n_steps = 1000")
                + "\n[sim]\nn_paths = 200\ndt_sim = 0.0005\n")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert len(cli.run_verify_checks(cfg)) == 2


@pytest.fixture(scope="module")
def report_line():
    """bench/workloads.py's REPORT_LINE, the pattern the benchmark parses
    every verify line with."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        # its dataclasses look their module up by name
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module.REPORT_LINE


class TestVerifyLinesOnGeneratedInstances:
    """Every admissible theta instance reports finite numbers on every line,
    in the form the benchmark parses, however few paths carry the weight."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(robust=st.booleans(), a=st.floats(-1.0, 1.0), abar=st.floats(-0.5, 0.5),
           c=st.floats(0.0, 0.8), sigma=st.floats(0.01, 0.6),
           theta_sigma2=st.floats(0.0, 0.6), r=st.lists(st.floats(0.5, 1.5),
                                                        min_size=2, max_size=4),
           seed=st.integers(0, 2 ** 31))
    def test_every_line_is_finite_and_parses(self, report_line, robust, a, abar, c,
                                             sigma, theta_sigma2, r, seed):
        # theta up to 0.6 / sigma^2: 6000 at sigma = 0.01, where e^{theta L} overflows
        variant = Variant.ROBUST_RISK_SENSITIVE if robust else Variant.RISK_SENSITIVE
        params = make_params(variant=variant, a=a, abar=abar, sigma=sigma,
                             theta=theta_sigma2 / sigma ** 2, c=c if robust else 0.0,
                             r=tabulated(*r))
        cfg = RunConfig(params=params, grid=TimeGrid(T=1.0, n_steps=20),
                        sim=SimConfig(n_paths=64, dt_sim=1.0 / 200, seed=seed))
        try:
            lines = cli.run_verify_checks(cfg)
        except (BlowUpError, NonConvergenceError):
            assume(False)
        assert len(theta_lines(lines)) == 2
        for line in lines:
            assert all(map(math.isfinite, (line.estimate, line.std_error, line.tolerance)))
            assert report_line.match(line.render()), line.render()


ROBUST_VARIANTS = {"robust": "robust\nc = 0.5",
                   "robust_risk_sensitive": "robust_risk_sensitive\nc = 0.5\ntheta = 0.25"}
SADDLE_LINES = {(name, line) for name in ROBUST_VARIANTS
                for line in ("saddle_gap_control", "saddle_gap_disturbance")}


class TestVerifySaddleLines:
    """verify makes one simulate_paths call per instance; in the robust
    variants its two shifts are the saddle lines' perturbed policies."""

    @staticmethod
    def run(tmp_path, monkeypatch, variant: str):
        shifts_passed = []
        real = cli.simulate_paths

        def recorded(params, eq, m, config, shifts=()):
            shifts_passed.append(shifts)
            return real(params, eq, m, config, shifts)

        monkeypatch.setattr(cli, "simulate_paths", recorded)
        text = BENCH_CFG.replace("risk_neutral", variant) + "\n[sim]\nn_paths = 512\nseed = 2\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        return cfg, cli.run_verify_checks(cfg), shifts_passed

    @pytest.mark.parametrize("variant", ["risk_neutral", "risk_sensitive\ntheta = 0.25"])
    def test_non_robust_variant_has_no_saddle_line_and_no_shift(self, tmp_path,
                                                                monkeypatch, variant):
        _, lines, shifts_passed = self.run(tmp_path, monkeypatch, variant)
        assert shifts_passed == [()]
        assert not [line for line in lines if line.name.startswith("saddle")]

    @pytest.mark.parametrize("variant", ROBUST_VARIANTS.values(), ids=ROBUST_VARIANTS)
    def test_robust_saddle_lines_are_the_shifted_gaps(self, tmp_path, monkeypatch, variant):
        cfg, lines, shifts_passed = self.run(tmp_path, monkeypatch, variant)
        assert shifts_passed == [((SADDLE_SHIFT, 0.0), (0.0, SADDLE_SHIFT))]
        eq = cli.run_solve_pipeline(cfg).eq_picard
        gap_u, gap_v, _ = saddle_gaps(cfg.params, eq, cfg.sim, SADDLE_SHIFT)
        got = {line.name.split()[0]: line for line in lines}
        for name, (gap, theory) in (("saddle_gap_control", gap_u),
                                    ("saddle_gap_disturbance", gap_v)):
            line = got[name]
            assert line.name == f"{name} (ess {int(gap.ess)})" and line.passed
            assert (line.estimate, line.std_error, line.theory) == (
                gap.mean, gap.std_error, theory)
            assert theory == 0.5 * SADDLE_SHIFT ** 2     # r = s = 1 on T = 1

    def test_a_saddle_line_on_few_effective_paths_fails(self, tmp_path, capsys, report_line):
        # at theta sigma^2 = 0.9 a dozen of 200 paths carry the weights e^{theta L}:
        # the disturbance gap lands within 3 se of theory, but rests on an ESS of 13
        text = (BENCH_CFG.replace("risk_neutral", ROBUST_VARIANTS["robust_risk_sensitive"])
                .replace("theta = 0.25", "theta = 0.9").replace("sigma = 0.2", "sigma = 1.0")
                + "\n[sim]\nn_paths = 200\ndt_sim = 1e-3\nseed = 2\n")
        assert main(["verify", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(tmp_path / "o")]) == EXIT_VERIFY_FAIL
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("FAIL  saddle_gap_disturbance (ess 13 < floor 100): ")
        # within its tolerance: the ESS alone fails it
        m = report_line.match(line)
        assert abs(float(m["estimate"]) - float(m["theory"])) <= float(m["tol"])


class TestVerifyPower:
    """Mutants that verify must catch: at seed 1 the two robust bench
    instances pass every line, and each mutant fails some, at 4000 paths
    unless it needs more for its power."""

    @staticmethod
    def failing_lines(tmp_path, n_paths: int = 4000,
                      names=tuple(ROBUST_VARIANTS)) -> set[tuple[str, str]]:
        sim = f"\n[sim]\nn_paths = {n_paths}\ndt_sim = 1e-3\nseed = 1\n"
        failed = set()
        for name in names:
            variant = ROBUST_VARIANTS[name]
            text = BENCH_CFG.replace("risk_neutral", variant) + sim
            cfg = parse_config(write_cfg(tmp_path, text, f"{name}.cfg"))
            failed |= {(name, line.name.split()[0])
                       for line in cli.run_verify_checks(cfg) if not line.passed}
        return failed

    @staticmethod
    def mutate_terminal_cost(monkeypatch, weight: float, qbarT_scale: float) -> None:
        """The terminal cost's weight 1/2 and qbarT replaced in the params that
        verify's simulate_paths costs the paths with: L = ensemble.cost."""
        real = cli.simulate_paths

        def mutated(params, *args, **kwargs):
            scale = weight / 0.5
            return real(replace(params, qT=scale * params.qT,
                                qbarT=scale * qbarT_scale * params.qbarT), *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_paths", mutated)

    def test_unmutated_instances_pass(self, tmp_path):
        assert self.failing_lines(tmp_path) == set()

    def test_terminal_weight_is_caught_by_the_saddle_lines(self, tmp_path, monkeypatch):
        # L' is the cost of the shifted ensemble, so the saddle lines see it
        self.mutate_terminal_cost(monkeypatch, 0.52, 1.0)
        assert SADDLE_LINES <= self.failing_lines(tmp_path)

    def test_abar_sign_in_the_forward_drift_is_caught(self, tmp_path, monkeypatch):
        real = simulate.simulate_paths

        def flipped(params, *args, **kwargs):
            return real(replace(params, abar=-params.abar), *args, **kwargs)

        monkeypatch.setattr(simulate, "simulate_paths", flipped)
        monkeypatch.setattr(cli, "simulate_paths", flipped)
        failed = self.failing_lines(tmp_path)
        assert {("robust", "mean_consistency"),
                ("robust_risk_sensitive", "mean_consistency")} <= failed

    def test_qbarT_off_by_five_percent_in_the_cost_is_caught(self, tmp_path, monkeypatch):
        # the error moves the control gap by about 0.5 tol at 4000 paths,
        # too little to fail reliably; at 60000 paths it is about 1.9 tol
        # (1.5 to 2.5 over seeds 1-12), so any seed fails the line
        self.mutate_terminal_cost(monkeypatch, 0.5, 1.05)
        assert ("robust", "saddle_gap_control") in self.failing_lines(
            tmp_path, n_paths=60000, names=("robust",))


def src_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(lqmfg.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestModuleEntryPoint:
    def run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "lqmfg", *args],
                              env=src_env(), capture_output=True, text=True)

    def test_python_dash_m_runs_check(self, tmp_path):
        proc = self.run("check", "--config", write_cfg(tmp_path, BENCH_CFG),
                        "--out-dir", str(tmp_path / "o"), "--quiet")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "o" / "check_report.txt").is_file()

    def test_python_dash_m_refuses_a_bad_flag(self, tmp_path):
        proc = self.run("check", "--config", write_cfg(tmp_path, BENCH_CFG), "--frobnicate")
        assert proc.returncode == EXIT_CONFIG and proc.stdout == ""
        assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1


def modules_after(code: str) -> set[str]:
    """Run code in a fresh interpreter; the top-level modules it left loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(*{m.split('.')[0] for m in sys.modules})"],
        env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestNumpyOnlyRuntime:
    """The package runs on numpy alone: no command loads scipy, and none
    loads concurrent; a simulation forks its block workers with os.fork."""

    def test_import_loads_no_scipy(self):
        assert not modules_after("import lqmfg") & {"scipy", "concurrent"}

    def test_commands_load_no_scipy(self, tmp_path):
        # robust risk-sensitive reaches every routine that once came from
        # scipy: the Hermite interpolant, the cumulative trapezoid and the
        # saddle's trapezoid sum
        cfg = BENCH_CFG.replace("risk_neutral", "robust_risk_sensitive\nc = 0.5\ntheta = 0.25")
        cfg = write_cfg(tmp_path, cfg.replace("n_steps = 200", "n_steps = 50")
                        + "\n[sim]\nn_paths = 200\nseed = 3\n"
                        + "\n[sweep]\nparameter = theta\nstart = 0\nstop = 0.5\ncount = 3\n")

        def run(commands, codes):
            argvs = [[cmd, "--config", cfg, "--out-dir", str(tmp_path / cmd), "--quiet"]
                     for cmd in commands]
            return modules_after("from lqmfg.cli import main\n"
                                 f"codes = [main(argv) for argv in {argvs!r}]\n"
                                 f"assert codes in {codes!r}, codes")

        assert not run(("check", "solve", "sweep"), [[EXIT_OK] * 3]) & {"scipy", "concurrent"}
        verify = run(("verify",), [[EXIT_OK], [EXIT_VERIFY_FAIL]])
        assert not verify & {"scipy", "concurrent"}
        assert (tmp_path / "verify" / "verify_report.txt").is_file()


def affinity() -> set[int]:
    """The CPUs this process may run on; none where a process cannot be pinned."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()


@pytest.mark.skipif(len(affinity()) < 2, reason="needs two CPUs to pin to one")
class TestVerifyWorkers:
    def test_one_cpu_and_all_cpus_write_the_same_report(self, tmp_path):
        # three blocks: forked workers when unpinned, all in-process on one
        # CPU; the robust risk-sensitive variant has Girsanov sums and shifts
        cpu = min(affinity())
        cfg = BENCH_CFG.replace("risk_neutral", "robust_risk_sensitive\nc = 0.5\ntheta = 0.25")
        cfg = write_cfg(tmp_path, cfg.replace("n_steps = 200", "n_steps = 10")
                        + f"\n[sim]\nn_paths = {2 * simulate.BLOCK_SIZE + 10}\n"
                        + "dt_sim = 0.05\nseed = 3\n")
        runs = []
        for name, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "lqmfg", "verify", "--config", cfg,
                 "--out-dir", str(out), "--quiet"],
                env=src_env(), capture_output=True, text=True, preexec_fn=pin)
            assert proc.stderr == ""
            runs.append((proc.returncode, (out / "verify_report.txt").read_bytes()))
        assert runs[0][0] in (EXIT_OK, EXIT_VERIFY_FAIL)
        assert runs[0] == runs[1]


class TestCheckCommand:
    def test_writes_report(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BENCH_CFG)
        out = tmp_path / "out"
        assert main(["check", "--config", path, "--out-dir", str(out)]) == EXIT_OK
        report = (out / "check_report.txt").read_text()
        assert "admissible = True" in report
        assert "lipschitz_bound" in report
        assert "conditions:" in capsys.readouterr().out

    def test_invalid_model_is_one_line(self, tmp_path, capsys):
        text = BENCH_CFG.replace("b = 1.0", "b = 0").replace("sigma = 0.2", "sigma = -0.2")
        path = write_cfg(tmp_path, text)
        assert main(["check", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid model: ") and err.count("\n") == 1
        assert "sigma must be nonnegative" in err and "b must be nonzero" in err

    def test_blow_up_reported(self, tmp_path):
        path = write_cfg(tmp_path, BLOWUP_CFG)
        out = tmp_path / "out"
        assert main(["check", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        assert "blow_up_time" in (out / "check_report.txt").read_text()

    @pytest.mark.parametrize("a, bound", [("800", "inf"), ("-800", "inf"),
                                          ("3000", "inf"), ("1e300", "nan")])
    def test_extreme_drift_reports_a_bound(self, tmp_path, capsys, a, bound):
        # e^{T |exponent|} overflows; at a = 1e300 beta's exponent overflows
        # on the grid, so beta and the constants built on it are NaN
        text = BENCH_CFG.replace("a = -0.5", f"a = {a}").replace("n_steps = 200", "n_steps = 1000")
        out = tmp_path / "out"
        assert main(["check", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(out), "--quiet"]) == EXIT_OK
        report = (out / "check_report.txt").read_text().splitlines()
        assert f"  lipschitz_bound = {bound}" in report
        assert "  contraction = False  (bound < 1)" in report
        assert capsys.readouterr().err == ""


class TestOverflowingSquare:
    """b, c, sigma and x0 enter the solvers squared, and lam holds b^2/r and
    c^2/s."""

    @pytest.mark.parametrize("command", ["solve", "check", "verify"])
    @pytest.mark.parametrize("edits, message", [
        ({"b = 1.0": "b = 1e200"}, "b must have a finite square; got 1e+200"),
        ({"risk_neutral": "robust\nc = 1e200"}, "c must have a finite square; got 1e+200"),
        ({"risk_neutral": "risk_sensitive\ntheta = 0.25", "sigma = 0.2": "sigma = 1e160"},
         "sigma must have a finite square; got 1e+160"),
        ({"x0 = 1.0": "x0 = 1e160"}, "x0 must have a finite square; got 1e+160"),
        ({"r = 1.0": "r = 1e-320"}, "b^2/r must be finite; got inf"),
        ({"r = 1.0": "r = 1.0, 1e-320, 2.0"}, "b^2/r must be finite at node 1 (t=0.5); got inf"),
        ({"risk_neutral": "robust\nc = 1.0\ns = 1e-320"}, "c^2/s must be finite; got inf"),
    ])
    def test_is_one_line_config_error(self, tmp_path, capsys, command, edits, message):
        text = BENCH_CFG
        for old, new in edits.items():
            text = text.replace(old, new)
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: invalid model: {message}\n"

    def test_sweep_rows_are_config_errors(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BENCH_CFG.replace("risk_neutral", "robust\nc = 0.5")
                         + "\n[sweep]\nparameter = c\nstart = 0\nstop = 1e200\ncount = 3\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[-1] for row in rows] == [str(EXIT_OK), str(EXIT_CONFIG), str(EXIT_CONFIG)]
        assert capsys.readouterr().err == ""


SWEEP_SECTION = "\n[sweep]\nparameter = {}\nstart = {}\nstop = {}\ncount = 2\n"


class TestOverflowWarnsNothing:
    """An overflow that ends in a documented outcome prints no numpy warning:
    each case once printed a RuntimeWarning from the site its id names."""

    @pytest.mark.parametrize("command, edits, tail, code, expect", [
        # a sweep row asked an invalid instance for its admissibility: lam = b^2/r
        ("sweep", {"r = 1.0": "r = 0"}, SWEEP_SECTION.format("theta", 0, 1), EXIT_OK,
         "1,,,,,,,1"),
        ("sweep", {"qbar = 0.5": "qbar = 1e300"}, SWEEP_SECTION.format("qbar-scale", 1, 1e300),
         EXIT_OK, "1.0000000000000001e+300,,,,,,,1"),
        ("solve", {"qbarT = 0.5": "qbarT = 1e300"}, "", EXIT_NONCONVERGENCE,
         "reason=non_finite"),
        ("solve", {"qT = 1.0": "qT = 1e300", "abar = 0.3": "abar = 0",
                   "n_steps = 200": "n_steps = 28"}, "", EXIT_NONCONVERGENCE,
         "reason=non_finite"),
        ("sweep", {"risk_neutral": "risk_sensitive", "abar = 0.3": "abar = -1e300",
                   "b = 1.0": "b = 700", "qT = 1.0": "qT = 1e7", "n_steps = 200": "n_steps = 8"},
         SWEEP_SECTION.format("theta", 0, 1), EXIT_OK, "0,true,,,,,,3"),
        ("sweep", {"risk_neutral": "robust", "abar = 0.3": "abar = 1e16",
                   "sigma = 0.2": "sigma = 0", "n_steps = 200": "n_steps = 6"},
         SWEEP_SECTION.format("c", 0, 1), EXIT_OK, "0,true,,,,,,3"),
        ("check", {"abar = 0.3": "abar = -1e300", "qbarT = 0.5": "qbarT = 1e300",
                   "n_steps = 200": "n_steps = 3"}, "", EXIT_OK, "  eps = inf"),
        ("verify", {"risk_neutral": "robust\nc = 0.5", "qbar = 0.5": "qbar = 0",
                    "r = 1.0": "r = 1e300", "n_steps = 200": "n_steps = 31"},
         "\n[sim]\nn_paths = 13\ndt_sim = 0.03225806451612903\n", EXIT_VERIFY_FAIL,
         "FAIL  saddle_gap_control"),
        # a subnormal se: the miss of the Euler mean is inf standard errors
        ("verify", {"sigma = 0.2": "sigma = 1e-320", "n_steps = 200": "n_steps = 20"},
         "\n[sim]\nn_paths = 49\ndt_sim = 0.05\n", EXIT_VERIFY_FAIL,
         "FAIL  mean_consistency (max |mean-m| / 3se over nodes): estimate inf"),
    ], ids=["model.lam", "Coefficient.scaled", "Beta.substages", "Beta.alpha_steps",
            "solve_eta", "closed_form", "check_conditions", "mc_estimate_std",
            "mean_consistency"])
    def test_documented_outcome(self, tmp_path, capsys, command, edits, tail, code, expect):
        text = BENCH_CFG
        for old, new in edits.items():
            text = text.replace(old, new)
        out = tmp_path / "out"
        assert main([command, "--config", write_cfg(tmp_path, text + tail), "--out-dir",
                     str(out), "--quiet"]) == code
        assert expect in "".join(p.read_text() for p in out.glob("*.*"))
        assert capsys.readouterr().err == ""


class TestOverflowingExpValue:
    """theta value_at_0 past log(max float) ~ 709.8: exp_value is inf, not a
    traceback.  kappa = 1 - 5000 * 0.01^2 = 0.5 > 0, so the instance is
    admissible."""

    CFG = BENCH_CFG.replace("risk_neutral", "risk_sensitive\ntheta = 5000").replace(
        "sigma = 0.2", "sigma = 0.01")

    def test_solve_reports_inf(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--config", write_cfg(tmp_path, self.CFG), "--out-dir",
                     str(out), "--quiet"]) == EXIT_OK
        assert "  exp_value = inf" in (out / "report.txt").read_text().splitlines()
        assert capsys.readouterr().err == ""

    def test_verify_fails_both_theta_lines_on_their_ess(self, tmp_path, capsys):
        # on the log scale both estimates are finite; one path carries the weight
        out = tmp_path / "out"
        assert main(["verify", "--config", write_cfg(tmp_path, self.CFG), "--out-dir",
                     str(out), "--paths", "2000", "--quiet"]) == EXIT_VERIFY_FAIL
        names = ("value_identity_exponential", "martingale_normalization")
        report = (out / "verify_report.txt").read_text().splitlines()
        rendered = [ln for ln in report if ln.split()[1] in names]
        assert [ln.split(":")[0] for ln in rendered] == [
            f"FAIL  {name} (ess 1 < floor {ESS_FLOOR})" for name in names]
        for line in rendered:
            assert not re.search(r"\b(inf|nan)\b", line) and "se 0," not in line, line
        assert capsys.readouterr().err == ""

    def test_sweep_solves_every_row(self, tmp_path, capsys):
        text = self.CFG + "\n[sweep]\nparameter = theta\nstart = 1000\nstop = 5000\ncount = 3\n"
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_cfg(tmp_path, text), "--out-dir",
                     str(out), "--quiet"]) == EXIT_OK
        rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[-1] for row in rows] == [str(EXIT_OK)] * 3
        assert capsys.readouterr().err == ""


class TestSweepCommand:
    SWEEP = BENCH_CFG.replace("risk_neutral", "risk_sensitive") + """\

[sweep]
parameter = theta
start = 0.0
stop = 1.0
count = 5
"""

    def test_rows_and_header(self, tmp_path):
        path = write_cfg(tmp_path, self.SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("value,admissible,lipschitz_bound")
        assert len(lines) == 6

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for workers in ("1", "4"):
            path = write_cfg(tmp_path, self.SWEEP + f"workers = {workers}\n")
            outs.append(tmp_path / f"o{workers}")
            assert main(["sweep", "--config", path, "--out-dir", str(outs[-1]),
                         "--quiet"]) == EXIT_OK
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("count, code", [(3, EXIT_OK), (4, EXIT_CONFIG)])
    def test_count_is_bounded_by_the_size_rule(self, tmp_path, monkeypatch, count, code):
        # max_steps() rows run; one more is refused before any row is made
        monkeypatch.setattr(cli, "max_steps", lambda: 3)
        path = write_cfg(tmp_path, self.SWEEP.replace("count = 5", f"count = {count}"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", path, "--out-dir", str(out), "--quiet"]) == code
        assert (out / "sweep.csv").is_file() == (code == EXIT_OK)

    def test_sweep_without_section(self, tmp_path):
        path = write_cfg(tmp_path, BENCH_CFG)
        assert main(["sweep", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG

    def test_bad_worker_count_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, self.SWEEP + "workers = many\n")
        assert main(["sweep", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: [sweep] workers:")

    def test_non_finite_range_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BENCH_CFG + "\n[sweep]\nparameter = T\n"
                         "start = 0.5\nstop = inf\ncount = 2\n")
        assert main(["sweep", "--config", path, "--out-dir",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [sweep] stop: expected a finite number, got 'inf'\n")

    def sweep_rows(self, tmp_path, sweep: str, base: str = BENCH_CFG) -> list[list[str]]:
        path = write_cfg(tmp_path, base + "\n[sweep]\n" + sweep)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        return [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()[1:]]

    def test_horizon_through_zero_gives_row_codes(self, tmp_path):
        rows = self.sweep_rows(
            tmp_path, "parameter = T\nstart = -0.5\nstop = 0.5\ncount = 3\n")
        assert [row[0] for row in rows] == ["-0.5", "0", "0.5"]
        for row in rows[:2]:
            assert row[1:] == [""] * 6 + [str(EXIT_CONFIG)]
        assert rows[2][-1] == str(EXIT_OK) and rows[2][4] != ""

    def test_horizon_scaling_the_grid_to_minus_inf_gives_row_code(self, tmp_path, capsys):
        # 200 * -1e300 / 1e-10 steps is -inf, which once raised OverflowError
        rows = self.sweep_rows(tmp_path,
                               "parameter = T\nstart = -1e300\nstop = 1e-10\ncount = 2\n",
                               BENCH_CFG.replace("T = 1.0", "T = 1e-10"))
        assert [row[-1] for row in rows] == [str(EXIT_CONFIG), str(EXIT_OK)]
        assert capsys.readouterr().err == ""

    def test_horizon_past_the_array_limit_gives_row_code(self, tmp_path, capsys):
        # T = 5e299 and 1e300 ask for more grid steps than a numpy array can
        # hold; those rows are config errors, and the first is still solved
        rows = self.sweep_rows(
            tmp_path, "parameter = T\nstart = 1\nstop = 1e300\ncount = 3\n")
        assert [row[-1] for row in rows] == [str(EXIT_OK), str(EXIT_CONFIG), str(EXIT_CONFIG)]
        assert rows[0][4] != "" and rows[1][1:] == [""] * 6 + [str(EXIT_CONFIG)]
        assert capsys.readouterr().err == ""

    def test_horizon_past_the_memory_limit_gives_row_code(self, tmp_path, capsys):
        # T = 5e13 scales the 200-step grid to 10^16 steps: below MAX_COUNT,
        # but past 1 KiB per step in any host's memory, so refused unallocated
        rows = self.sweep_rows(tmp_path, "parameter = T\nstart = 1\nstop = 5e13\ncount = 2\n")
        assert [row[-1] for row in rows] == [str(EXIT_OK), str(EXIT_CONFIG)]
        assert rows[1][1:] == [""] * 6 + [str(EXIT_CONFIG)]
        assert capsys.readouterr().err == ""

    def test_non_finite_rows_are_not_successes(self, tmp_path, capsys):
        # at a = 1e300 beta's exponent overflows, so every value is NaN: the
        # rows get solve's non-finite code and no value fields
        base = BENCH_CFG.replace("risk_neutral", "risk_sensitive").replace("a = -0.5", "a = 1e300")
        rows = self.sweep_rows(tmp_path, "parameter = theta\nstart = 0.0\nstop = 1.0\n"
                               "count = 3\n", base)
        assert rows == [[value, "true"] + [""] * 5 + [str(EXIT_NONCONVERGENCE)]
                        for value in ("0", "0.5", "1")]
        assert capsys.readouterr().err == ""

    def test_escape_rows_match_closed_form(self, tmp_path):
        # the benchmark sweep: risk-sensitive, sigma = 1, so kappa = 1 - theta
        # with constant coefficients, and beta has a pole inside [0, T]
        # exactly for theta = 1.8, 1.9 and 2.0
        base = (BENCH_CFG.replace("risk_neutral", "risk_sensitive")
                .replace("sigma = 0.2", "sigma = 1.0").replace("n_steps = 200", "n_steps = 1000"))
        rows = self.sweep_rows(tmp_path, "parameter = theta\nstart = 0.0\nstop = 2.0\n"
                               "count = 21\n", base)
        escapes = {float(row[0]): float(row[6]) for row in rows if row[7] == str(EXIT_BLOWUP)}
        assert sorted(escapes) == pytest.approx([1.8, 1.9, 2.0], abs=1e-12)
        assert sum(row[7] == str(EXIT_OK) for row in rows) == 18
        for theta, at in escapes.items():
            with pytest.raises(FiniteEscapeError) as exc:
                closed_form_constant_riccati(-0.5, 1.0 - theta, 1.5, 1.5, 1.0, 0.0)
            assert at == pytest.approx(exc.value.escape_time, abs=1e-9)

    def test_qbar_scale_keeps_tabulation_times(self, tmp_path):
        text = BENCH_CFG.replace("qbar = 0.5", "qbar = 0.5, 1.5, 0.2, 1.0")
        cfg = parse_config(write_cfg(tmp_path, text, "unscaled.cfg"))
        eq = solve_equilibrium_picard(cfg.params, admissible_beta(cfg.params, cfg.grid),
                                      cfg.grid)
        path = write_cfg(tmp_path, text + "\n[sweep]\nparameter = qbar-scale\n"
                         "start = 0.5\nstop = 1.5\ncount = 3\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        row = (out / "sweep.csv").read_text().splitlines()[2].split(",")
        assert row[0] == "1"
        assert row[4] == fmt_float(eq.value.value_at_0)

    def test_qbar_scale_scales_a_constant_qbar(self, tmp_path):
        # kappa = 1 - theta = -0.5: beta escapes at the scales 4, 6 and 8
        base = (BENCH_CFG.replace("risk_neutral", "risk_sensitive\ntheta = 1.5")
                .replace("sigma = 0.2", "sigma = 1.0"))
        rows = self.sweep_rows(tmp_path, "parameter = qbar-scale\nstart = 0\nstop = 8\n"
                               "count = 5\n", base)
        assert [row[7] for row in rows] == ["0"] * 2 + [str(EXIT_BLOWUP)] * 3
        cfg = parse_config(write_cfg(tmp_path, base, "unscaled.cfg"))
        for row in rows[:2]:
            scale = float(row[0])
            p = replace(cfg.params, qbar=Coefficient(0.5 * scale), qbarT=0.5 * scale)
            eq = solve_equilibrium_picard(p, admissible_beta(p, cfg.grid), cfg.grid)
            assert row[4] == fmt_float(eq.value.value_at_0)

    def test_horizon_sweep_spreads_tabulated_weights(self, tmp_path):
        text = BENCH_CFG.replace("qbar = 0.5", "qbar = 0.5, 1.5, 0.2, 1.0")
        at_half = text.replace("\nT = 1.0", "\nT = 0.5").replace("n_steps = 200", "n_steps = 100")
        cfg = parse_config(write_cfg(tmp_path, at_half, "half.cfg"))
        eq = solve_equilibrium_picard(cfg.params, admissible_beta(cfg.params, cfg.grid),
                                      cfg.grid)
        path = write_cfg(tmp_path, text + "\n[sweep]\nparameter = T\n"
                         "start = 0.5\nstop = 1.0\ncount = 2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out-dir", str(out),
                     "--quiet"]) == EXIT_OK
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "0.5"
        assert row[4] == fmt_float(eq.value.value_at_0)


class TestSweepAgreesWithSolve:
    """Each sweep row is what solve reports on the row's instance: the same
    value_at_0, bit for bit, and the code solve exits with."""

    @staticmethod
    def solve_of_rows(cfg: RunConfig) -> list[tuple[dict[str, str], int, str]]:
        """Each row of cfg's sweep, with solve's exit code and value_at_0 on
        the row's instance, as the sweep builds it."""
        header, *lines = cli.cmd_sweep(cfg).files["sweep.csv"].splitlines()
        out = []
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            try:
                params, grid = cli._sweep_params(cfg, float(row["value"]))
                run = cli.cmd_solve(replace(cfg, params=params, grid=grid))
            except (ValueError, ConfigError):
                out.append((row, EXIT_CONFIG, ""))
                continue
            summary = dict(ln.split("=", 1) for ln in run.files["summary.txt"].splitlines())
            out.append((row, run.code, summary.get("value_at_0", "")))
        return out

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(variant=st.sampled_from(list(Variant)), a=st.floats(-1.0, 1.0),
           abar=st.floats(-1.0, 4.0), qbar=st.floats(0.0, 4.0), sigma=st.floats(0.0, 1.0),
           theta=st.floats(0.0, 1.0), c=st.floats(0.0, 1.0),
           parameter=st.sampled_from(cli.SWEEP_PARAMETERS),
           start=st.floats(0.0, 3.0), stop=st.floats(0.0, 3.0))
    def test_each_row_is_solves_value_and_code(self, variant, a, abar, qbar, sigma, theta,
                                               c, parameter, start, stop):
        params = make_params(variant=variant, a=a, abar=abar, qbar=qbar, qbarT=qbar,
                             sigma=sigma, theta=theta, c=c, r=tabulated(1.0, 0.7, 1.3))
        cfg = RunConfig(params=params, grid=TimeGrid(T=1.0, n_steps=20),
                        sim=SimConfig(n_paths=2, dt_sim=0.05, seed=0),
                        sweep_parameter=parameter, sweep_start=start, sweep_stop=stop,
                        sweep_count=3)
        for row, code, value in self.solve_of_rows(cfg):
            assert (row["code"], row["value_at_0"]) == (str(code), value), row

    def test_singular_rows_are_solves_non_convergence(self):
        # a long horizon with strong mean coupling: the sweep's smallest
        # pivot is below 0 at every scale, where the closed form once gave
        # rows of 124777.5, 73127.9 and 85301.6 with code 0
        params = make_params(a=1.0, abar=4.0, qbar=4.0, qbarT=4.0, q=0.0, qT=0.0, T=3.0)
        cfg = RunConfig(params=params, grid=TimeGrid(T=3.0, n_steps=300),
                        sim=SimConfig(n_paths=2, dt_sim=0.01, seed=0),
                        sweep_parameter="qbar-scale", sweep_start=0.5, sweep_stop=1.0,
                        sweep_count=3)
        rows = self.solve_of_rows(cfg)
        assert [row["value"] for row, _, _ in rows] == ["0.5", "0.75", "1"]
        for row, code, value in rows:
            assert (row["code"], row["value_at_0"], code) == (
                str(EXIT_NONCONVERGENCE), "", EXIT_NONCONVERGENCE)
        with pytest.raises(NonConvergenceError, match="singular"):
            cli.run_solve_pipeline(cfg)
