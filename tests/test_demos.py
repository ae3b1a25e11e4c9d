"""Each narrative demo runs to the end in a fresh interpreter, and the README's
quick start runs as written and gives the values its comments state."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


# each line of the quick start that states a value, and the check of that value
_QUICK_START_CLAIMS = {
    "variance_covariance(f1, Constant(2), 10_000)": lambda v: v == 1.0,
    "variance_martingale(f1, Blocks(4), 4096)": lambda v: v == 17.0,  # l = 6
    "report.ks": lambda v: v < 0.02,
}


def test_readme_quick_start_gives_the_values_it_states():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    stated = [line.split("#")[0].strip() for line in code.splitlines() if "#" in line]
    claimed = [expr for expr in stated if expr in _QUICK_START_CLAIMS]
    assert claimed == list(_QUICK_START_CLAIMS)
    for expr in claimed:
        assert _QUICK_START_CLAIMS[expr](eval(expr, namespace)), expr
