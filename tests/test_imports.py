import ast
import pathlib

import pytest

import coxmal

MODULES = sorted(
    p for p in pathlib.Path(coxmal.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; __future__ imports excepted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_sees_unused_imports():
    src = "from __future__ import annotations\nimport json, os.path\nfrom x import a, b as c\nos.sep\nc()\n"
    assert _unused_imports(src) == ["a", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
