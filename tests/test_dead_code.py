"""Every private function and method of the package has a caller in it;
every public method of its classes, and every module-level public function
that the package does not export, has a caller in it or in perfbench."""

from __future__ import annotations

import ast
from pathlib import Path

import algebroidlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "algebroidlab"


def _private_defs(tree: ast.Module):
    """Module-level private functions and private methods of module-level
    classes, as (name, def node); dunder methods are the protocol's."""
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and fn.name.startswith("_") and not fn.name.endswith("__"):
                yield fn.name, fn


def _public_methods(tree: ast.Module):
    """Public methods of module-level classes, as (name, def node)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not fn.name.startswith("_"):
                    yield fn.name, fn


def _unexported_functions(exported):
    """Defs picker: module-level public functions whose names are not in
    `exported`, as (name, def node)."""
    def defs(tree: ast.Module):
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not fn.name.startswith("_") and fn.name not in exported:
                yield fn.name, fn
    return defs


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


def _unreferenced(sources, defs=_private_defs, readers=()):
    """(module, name) of each def that `defs` picks out of the given
    {module: source} set and that no code outside its own body refers to;
    the reader sources count as callers but define nothing."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    counts = {}
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    dead = []
    for mod, tree in trees.items():
        for name, fn in defs(tree):
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
    # public methods of classes: a reference from the package or from a
    # reader keeps one; module-level functions are not judged
    sources["d"] = ("class L:\n    def used(self):\n        return self.tested\n"
                    "    def tested(self):\n        pass\n    def benched(self):\n        pass\n"
                    "    def only_self(self):\n        return self.only_self()\n"
                    "def public():\n    pass\n")
    assert _unreferenced(sources, _public_methods, ["L().benched()\n"]) == [
        ("d", "only_self"), ("d", "used")]
    # module-level public functions: an exported one is not judged; a
    # reference from the package or from a reader keeps any other
    sources["e"] = ("def exported():\n    pass\n"
                    "def helper():\n    pass\n"
                    "def benched():\n    return helper()\n"
                    "def recurses():\n    return recurses()\n")
    assert _unreferenced(sources, _unexported_functions({"exported"}), ["benched()\n"]) == [
        ("d", "public"), ("e", "recurses")]


def _package_sources():
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_no_private_function_or_method_lacks_a_caller():
    assert _unreferenced(_package_sources()) == []


def _perfbench_sources():
    return [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]


def test_no_public_method_is_called_only_by_tests():
    assert _unreferenced(_package_sources(), _public_methods, _perfbench_sources()) == []


def test_no_unexported_public_function_is_called_only_by_tests():
    # the package's import list re-exports names; it calls none of them
    sources = _package_sources()
    exported = set(algebroidlab.__all__)
    del sources["__init__.py"]
    assert _unreferenced(sources, _unexported_functions(exported),
                         _perfbench_sources()) == []
