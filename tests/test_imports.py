import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import coxmal

MODULES = sorted(
    p for p in pathlib.Path(coxmal.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
TEST_MODULES = sorted(pathlib.Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _unread_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the modules in sources ({file
    name: text}) that no code reads outside their own definition;
    __init__.py's re-exports are not reads."""
    defined, read = set(), set()
    for name, source in sources.items():
        if name == "__init__.py":
            continue
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)  # set on function and class definitions only
            if own:
                defined.add(own)
            read.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id != own)
    return sorted(defined - read)


def test_scan_sees_unread_definitions():
    sources = {
        "a.py": "def used():\n    pass\ndef unused():\n    used()\n"
        "def recursive():\n    recursive()\nclass K:\n    pass\nclass L:\n    pass\nx = K\n",
        "b.py": "from .a import L\nL()\n",
        "__init__.py": "from .a import unused\nunused()\n",
    }
    assert _unread_definitions(sources) == ["recursive", "unused"]


# the keep-rule's independent references (ROADMAP), which only tests reach
KEPT_REFERENCES = ["conditional_star_law_check", "w1_to_normal_by_cdf"]


def test_every_definition_is_read_in_src():
    """Keep-rule: every top-level function and class in src/coxmal is read
    by src/coxmal outside its own definition, apart from the listed
    references."""
    sources = {p.name: p.read_text() for p in pathlib.Path(coxmal.__file__).parent.glob("*.py")}
    assert _unread_definitions(sources) == KEPT_REFERENCES


# scipy subpackages that cost most of a second to import and that coxmal's
# commands do not need; coxmal uses scipy.special only
HEAVY_MODULES = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.sparse")

IMPORT_PROBE = """
import json, os, sys
import coxmal.cli
from coxmal.mallows import _decode_lib
print(json.dumps({
    "heavy": [m for m in %r if m in sys.modules],
    "kernels_built": _decode_lib.cache_info().currsize,
    "cache_made": os.path.exists(os.path.join(os.environ["XDG_CACHE_HOME"], "coxmal")),
}))
""" % (HEAVY_MODULES,)


def test_cli_import_is_light(tmp_path):
    """import coxmal.cli in a fresh interpreter loads none of the heavy scipy
    subpackages, compiles no kernel and makes no kernel cache directory."""
    src = str(pathlib.Path(coxmal.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), XDG_CACHE_HOME=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env, check=True
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"heavy": [], "kernels_built": 0, "cache_made": False}
