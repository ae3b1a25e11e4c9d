import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "seqclt"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "seqclt"}


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_stdlib_or_numpy():
    # no runtime dependency beyond numpy: scipy and the rest are test-only
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 8
    foreign = {
        path.name: sorted(_imported_modules(path) - ALLOWED) for path in sources
    }
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_every_public_name_resolves():
    # an __all__ entry left behind by a deleted function breaks `import *`
    import importlib

    exporting = 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"seqclt.{path.stem}".removesuffix(".__init__"))
        names = getattr(module, "__all__", None)
        if names is not None:
            exporting += 1
            assert [name for name in names if not hasattr(module, name)] == [], path.name
    assert exporting >= 6


def _modules_loaded_by(code: str) -> set[str]:
    """Modules in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.split())


def test_import_leaves_the_process_pool_out():
    assert "concurrent.futures.process" not in _modules_loaded_by("import seqclt")


def test_single_worker_simulate_leaves_numpy_random_out(tmp_path):
    # the orbit kernel draws Philox words itself; numpy.random is for
    # verify-decay only
    scenario = {
        "function": [{"freq": 1, "re": 0.5, "im": 0.0}],
        "sequence": {"kind": "periodic", "values": [2, 3]},
        "n": 40,
        "samples": 30,
        "seed": 5,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    argv = ["simulate", str(path), "--out", str(tmp_path / "s"), "--threads", "1"]
    modules = _modules_loaded_by(f"from seqclt import cli\nassert cli.main({argv!r}) == 0")
    assert (tmp_path / "s.mc.json").exists()
    assert "numpy.random" not in modules
    assert "concurrent.futures.process" not in modules
