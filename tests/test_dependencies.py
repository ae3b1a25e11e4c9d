import ast
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
