"""The README's library quick start runs as written, on fewer paths."""
import re
import warnings
from pathlib import Path

from lqmfg import cli
from lqmfg.model import Trajectory
from lqmfg.riccati import Beta

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
