"""cli.main over generated configs: every input ends in a documented exit.

Each example takes the benchmark instance, sets one to four [model] keys to
extreme values (and a sweep's bounds and count) and runs one command in
process on a small grid.  Whatever the input, the run exits 0-4, a config
error is one `config error:` line, nothing else reaches stderr (no
traceback, no numpy warning), and a solve's summary holds no nan or inf
where it reports a number of its own.
"""
import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmfg import cli, model, simulate

BASE = {"a": "-0.5", "abar": "0.3", "b": "1.0", "c": "0.5", "sigma": "0.2", "q": "1.0",
        "qbar": "0.5", "r": "1.0", "qT": "1.0", "qbarT": "0.5", "theta": "0.25",
        "T": "1.0", "x0": "1.0", "m0": "1.0"}
EXTREMES = ["0", "-0", "1e300", "-1e300", "1e-320", "nan", "inf", "-inf", "1e16", "700",
            "1e6", "1e7"]
WEIGHTS = ("q", "qbar", "r", "s")
# T rows scale n_steps by value / T: these keep a row's grid at 80 steps or
# past any host's memory
SWEEP_VALUES = {"T": ["0", "-0", "1e-320", "0.5", "2", "1e16", "1e300", "-1e300"]}
MAX_GRID = 10 ** 5      # the most steps any grid or sweep of an example may take
# sweep counts outside 2 .. MAX_GRID: none is run, as none may allocate
COUNTS = ["0", "1", "-1", "1e3", str(MAX_GRID + 1), str(10 ** 16), str(model.MAX_COUNT),
          str(2 ** 63)]

value = st.sampled_from(EXTREMES)
# a tabulated weight: two node values, extreme or not
weight = st.tuples(value, st.sampled_from([*EXTREMES, "1.0", "1e308"])).map(", ".join)


@st.composite
def configs(draw):
    model_keys = draw(st.dictionaries(st.sampled_from([*BASE, "s"]), value,
                                      min_size=1, max_size=4))
    for key in WEIGHTS:
        if key in model_keys and draw(st.booleans()):
            model_keys[key] = draw(weight)
    keys = {"variant": draw(st.sampled_from(list(model.Variant))).value,
            **BASE, **model_keys}
    n_steps = draw(st.integers(2, 40))
    text = "[model]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    text += f"[grid]\nn_steps = {n_steps}\n"
    sim = {"n_paths": draw(st.integers(2, 50)), "seed": draw(st.integers(0, 99))}
    try:
        T = float(keys["T"])
    except ValueError:
        T = math.nan
    if 0 < T < math.inf:
        sim["dt_sim"] = repr(T / n_steps)       # one simulation step per grid step
    text += "[sim]\n" + "".join(f"{k} = {v}\n" for k, v in sim.items())
    command = draw(st.sampled_from(["solve", "verify", "sweep", "check"]))
    if command == "sweep":
        parameter = draw(st.sampled_from(cli.SWEEP_PARAMETERS))
        values = st.sampled_from(SWEEP_VALUES.get(parameter, EXTREMES))
        count = draw(st.one_of(st.integers(2, 3 if parameter == "T" else 5),
                               st.sampled_from(COUNTS)))
        text += (f"[sweep]\nparameter = {parameter}\nstart = {draw(values)}\n"
                 f"stop = {draw(values)}\ncount = {count}\n")
    return command, text


def non_finite(text: str) -> bool:
    return text.lower() in ("nan", "inf", "-inf")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=configs())
def test_every_input_ends_in_a_documented_exit(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # every grid and sweep capped at MAX_GRID steps or rows: a larger one
        # is refused, as one past the host's memory is
        for module in (model, simulate, cli):
            mp.setattr(module, "max_steps", lambda: MAX_GRID)
        path, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        path.write_text(text)
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(path), "--out-dir", str(out), "--quiet"])
        assert code in range(5)
        if code == cli.EXIT_CONFIG:
            assert err.getvalue().startswith("config error: ")
            assert err.getvalue().count("\n") == 1
            return
        assert err.getvalue() == ""
        if command != "solve":
            return
        summary = dict(line.split("=", 1)
                       for line in (out / "summary.txt").read_text().splitlines())
    # the documented non-finite fields: the paper's bound where its
    # exponential overflows, and the residual that made the solve non_finite
    allowed = {"lipschitz_bound"} if summary["status"] == "ok" else set()
    if summary.get("reason") == "non_finite":
        allowed.add("last_residual")
    assert not [k for k, v in summary.items() if non_finite(v) and k not in allowed]
