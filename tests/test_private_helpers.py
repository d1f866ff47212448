"""Every module-level private function of ``renner`` is referenced somewhere
in the package outside its own definition, so a helper whose last caller
goes away shows up here instead of lingering as dead code."""

import ast
from pathlib import Path

import renner

PACKAGE = Path(renner.__file__).resolve().parent


def _used_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names, attribute names and imported names in the tree, outside the
    subtree ``skip``."""
    inside = {id(node) for node in ast.walk(skip)}
    used = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unreferenced_private_functions(package: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and not any(node.name in _used_names(other, node)
                                for other in trees.values())):
                dead.append(f"{module}:{node.name}")
    return dead


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions(PACKAGE) == []


def test_guard_finds_unused_and_self_recursive_helpers(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n"
        "def _unused():\n    return _used()\n\n"
        "def _self_only(n):\n    return _self_only(n - 1) if n else 0\n")
    (tmp_path / "b.py").write_text("from .a import _used\n")
    assert unreferenced_private_functions(tmp_path) == ["a.py:_unused", "a.py:_self_only"]
