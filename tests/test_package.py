"""Package-level checks: version agreement, an import that starts no
thread, and a guard against unused imports (no linter is a dependency of
the package)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oansim

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "oansim").glob("*.py")
                 if p.name != "__init__.py")


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert declared is not None
    assert oansim.__version__ == declared.group(1)


def test_import_starts_no_thread():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import threading, oansim; print(threading.active_count())"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "1"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []
