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
