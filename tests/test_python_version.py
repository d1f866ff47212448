"""Every module of the package and of its tests parses as Python 3.10, the
oldest version ``requires-python`` admits.

This checks syntax only: a call to a newer library function, or code that
behaves differently on 3.10, parses fine and goes unnoticed here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = [*(ROOT / "src" / "renner").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    assert any(path.name == "linalg.py" for path in paths)
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
