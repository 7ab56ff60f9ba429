"""Runtime checks in the package raise exceptions; ``assert`` statements
vanish under ``python -O``, so none may appear in ``src/fairtime``."""

import ast
from pathlib import Path

import fairtime

PACKAGE = Path(fairtime.__file__).parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
