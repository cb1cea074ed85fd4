"""Every module of the package uses every name it imports, and the package
runs without numpy."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "algebroidlab"
CIRCLE = str(PACKAGE.parent.parent / "models" / "circle_family.alab")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "QMatrix"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector_sees_quoted_annotations():
    src = ("from typing import Dict, List\nfrom .linalg import QMatrix\n"
           "def f() -> \"QMatrix\":\n    x: List[int] = []\n")
    assert _unused_imports(src) == [(1, "Dict")]


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found = _unused_imports(path.read_text())
        if found:
            unused[path.name] = found
    assert not unused, unused


_NO_NUMPY = """
import importlib, sys
import algebroidlab
from algebroidlab.cli import main
for name in sys.argv[2:]:
    importlib.import_module("algebroidlab." + name)
codes = [main(["transport", sys.argv[1]]), main(["monodromy", sys.argv[1]])]
print(codes, "numpy" in sys.modules)
"""


def test_package_and_transport_run_without_numpy():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, CIRCLE, *modules],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"
