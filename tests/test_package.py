"""Package-level checks: version agreement, an import that starts no
thread and leaves out ``scipy.signal``, a guard against unused imports
(no linter is a dependency of the package) and the layering of the
modem against the optical layers."""

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


def _fresh(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter on this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120).stdout.strip()


def test_import_starts_no_thread():
    assert _fresh("import threading, oansim; "
                  "print(threading.active_count())") == "1"


def test_import_leaves_out_scipy_signal():
    # scipy.signal alone took about half of the package's import time
    assert _fresh("import sys, oansim; "
                  "print('scipy.signal' in sys.modules)") == "False"


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


#: Modules that carry fields and electrical drives only: the OFDM modem and
#: its metrics belong to the scenario runner.
OPTICAL_LAYERS = ("subsystems", "devices", "channel", "waveform")


def _imported_modules(tree: ast.Module, package: str) -> set:
    """Absolute names of the modules that ``tree`` imports anywhere, at
    module level or inside a function."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join([package, base] if base else [package])
            names |= {base} | {f"{base}.{a.name}" for a in node.names}
    return names


@pytest.mark.parametrize("layer", OPTICAL_LAYERS)
def test_optical_layers_import_no_modem(layer):
    tree = ast.parse((ROOT / "src" / "oansim" / f"{layer}.py").read_text())
    imported = _imported_modules(tree, "oansim")
    assert sorted(imported & {"oansim.ofdm", "oansim.metrics"}) == []
