"""Every name a ``renner`` module or a test module imports is used in that
module, so an import whose last use goes away shows up here instead of
lingering.  The package ``__init__`` is exempt: its imports are the public
re-exports."""

import ast
from pathlib import Path

import renner

PACKAGE = Path(renner.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{name}" for name in imported if name not in used]


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    modules += sorted(TESTS.glob("*.py"))
    assert [name for path in modules for name in unused_imports(path)] == []


def test_guard_finds_unused_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from operator import mul, sub as minus\n"
        "from .root_datum import act, weyl_group\n\n"
        "def f(a, b):\n    return os.path.join(minus(a, b), weyl_group)\n")
    assert unused_imports(module) == ["m.py:mul", "m.py:act"]
