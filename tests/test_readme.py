"""The README's library quick start runs as written, on fewer paths, and its
config keys, flags and verify lines are the ones the command line accepts
and writes."""
import argparse
import importlib
import re
import warnings
from pathlib import Path

from lqmfg import cli, equilibrium, model, riccati, simulate
from lqmfg.model import TimeGrid, Trajectory, Variant
from lqmfg.riccati import Beta
from lqmfg.simulate import SimConfig
from conftest import make_params

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    code = quick_start()
    assert code.count("n_paths=100_000") == 1
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code.replace("n_paths=100_000", "n_paths=4000"), str(README), "exec"),
             namespace)
    beta, eq = namespace["beta"], namespace["eq"]
    assert isinstance(beta, Beta) and isinstance(beta, Trajectory)
    assert eq.beta is beta
    # value_at_0, the ensemble's cost estimate and the rest were printed
    assert len(capsys.readouterr().out.splitlines()) == 5


def example_config() -> str:
    text = README.read_text()
    section = text[text.index("Example config:"):]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def test_example_config_parses_and_checks(tmp_path, capsys):
    # every documented key is one cli._SECTIONS accepts
    path = tmp_path / "example.cfg"
    path.write_text(example_config())
    cfg = cli.parse_config(path)
    assert cfg.sim.n_paths == 100000 and cfg.sweep_parameter == "theta"
    assert cli.main(["check", "--config", str(path), "--out-dir",
                     str(tmp_path / "out")]) == cli.EXIT_OK
    assert "admissible = True" in capsys.readouterr().out


def documented_sections() -> dict[str, set[str]]:
    """The README's list of config sections, each with the keys it names
    before the first period of its item."""
    text = README.read_text()
    block = text[text.index("Config sections and their keys"):text.index("Flags of every command")]
    sections = {}
    for item in block.split("\n- ")[1:]:
        name, keys = re.match(r"`\[(\w+)\]`: ([^.]*)\.", item).groups()
        sections[name] = {key.lower() for key in re.findall(r"`(\w+)`", keys)}
    return sections


def documented_flags() -> set[str]:
    """The flags the README gives every command."""
    text = README.read_text()
    text = text[text.index("Flags of every command"):]
    return set(re.findall(r"`(--[\w-]+)`", text[:text.index("\n\n")]))


def test_documented_keys_are_the_accepted_ones():
    # a removed key cannot stay documented, nor an accepted one undocumented
    assert documented_sections() == cli._SECTIONS


def test_documented_flags_are_the_parsers():
    every = documented_flags()
    [subparsers] = [action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    assert set(subparsers.choices) == {"solve", "verify", "sweep", "check"}
    for name, parser in subparsers.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings
                 if flag.startswith("--") and flag != "--help"}
        assert flags == every, name


def documented_verify_lines() -> set[str]:
    """The check names the README's list of verify checks gives before the
    colon of each item."""
    text = README.read_text()
    block = text[text.index("Its checks:\n\n"):]
    block = block[:block.index("\n\n", len("Its checks:\n\n"))]
    return {name for item in block.split("\n- ")[1:]
            for name in re.findall(r"`(\w+)`", item.split(": ", 1)[0])}


def test_documented_verify_lines_are_the_emitted_ones():
    # tiny instances of the four variants: the lines they emit, pass or fail
    emitted = set()
    for variant in Variant:
        params = make_params(variant=variant, c=0.5 if variant.uses_disturbance else 0.0,
                             theta=0.25 if variant.uses_theta else 0.0)
        cfg = cli.RunConfig(params=params, grid=TimeGrid(T=1.0, n_steps=10),
                            sim=SimConfig(n_paths=8, dt_sim=0.1, seed=0))
        emitted |= {line.name.split()[0] for line in cli.run_verify_checks(cfg)}
    assert documented_verify_lines() == emitted


def lqmfg_classes() -> dict[str, type]:
    return {name: obj for module in (cli, equilibrium, model, riccati, simulate)
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__.startswith("lqmfg.")}


def test_documented_names_resolve():
    # every backticked Class.attr of an lqmfg class, and every
    # lqmfg.module.name, is one the package has
    classes = lqmfg_classes()
    checked, missing = [], []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text()):
        head, *attrs = name.split(".")
        if head == "lqmfg":
            head, *attrs = attrs
            obj = importlib.import_module(f"lqmfg.{head}")
        elif head in classes:
            obj = classes[head]
        else:
            continue
        checked.append(name)
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(name)
    assert "lqmfg.riccati.Beta" in checked and missing == []
