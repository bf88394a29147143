"""The README's library quick start runs as written, on fewer paths."""
import re
import warnings
from pathlib import Path

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
