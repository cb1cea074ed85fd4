"""Every private function and method of the package has a caller in it."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "algebroidlab"


def _private_defs(tree: ast.Module):
    """Module-level private functions and private methods of module-level
    classes, as (name, def node); dunder methods are the protocol's."""
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and fn.name.startswith("_") and not fn.name.endswith("__"):
                yield fn.name, fn


def _references(node: ast.AST):
    """Names a subtree refers to: loads, attributes, imported names and
    string constants equal to a name (getattr-style dispatch)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _unreferenced(sources):
    """(module, name) of each private def that no code outside its own
    body refers to, over the given {module: source} set."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    counts = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    dead = []
    for mod, tree in trees.items():
        for name, fn in _private_defs(tree):
            inside = sum(ref == name for ref in _references(fn))
            if counts.get(name, 0) == inside:
                dead.append((mod, name))
    return sorted(dead)


def test_detector_sees_dead_recursive_and_used_privates():
    sources = {
        "a": ("def _used():\n    return 1\n"
              "def _dead():\n    return _used()\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
              "class K:\n    def __init__(self):\n        self._m()\n"
              "    def _m(self):\n        pass\n"
              "    def _orphan(self):\n        return self._orphan\n"
              "def _by_name():\n    pass\n"
              "HOOK = '_by_name'\n"),
        "b": "from .a import _imported\n",
        "c": "def _imported():\n    pass\n",
    }
    assert _unreferenced(sources) == [("a", "_dead"), ("a", "_orphan"), ("a", "_recursive")]


def test_no_private_function_or_method_lacks_a_caller():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources) == []
