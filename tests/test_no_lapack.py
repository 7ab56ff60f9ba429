"""The package makes no LAPACK call.  numpy reaches LAPACK through OpenBLAS,
and the first call in a process maps and touches its working memory: one
``np.polyfit`` on 6 points raises peak RSS (``ru_maxrss``) by about 1.1 to
1.3 MB, which on the ``regret`` command was most of what the benchmark's
``peak_rss_mb`` read.  The regret slope is a closed-form least-squares fit,
so no ``linalg``, ``polyfit`` or ``lstsq`` name or import may appear in
``src/fairtime``; a later change that needs one has to remove this test and
say what it costs."""

import ast
from pathlib import Path

import fairtime

PACKAGE = Path(fairtime.__file__).parent
FORBIDDEN = {"linalg", "polyfit", "lstsq"}


def _names(node: ast.AST) -> set[str]:
    """The identifiers a node names: a bare name, an attribute, or the dotted
    parts of an imported module and its imported names."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Import):
        return {part for alias in node.names for part in alias.name.split(".")}
    if isinstance(node, ast.ImportFrom):
        return {*(node.module or "").split("."), *(alias.name for alias in node.names)}
    return set()


def test_package_names_no_lapack_routine():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in sorted(_names(node) & FORBIDDEN)
    ]
    assert found == []


def test_the_check_sees_each_form():
    forms = ["np.linalg.lstsq(a, b)", "np.polyfit(x, y, 1)", "import numpy.linalg",
             "from numpy.linalg import solve", "from numpy import polyfit", "lstsq = None"]
    for source in forms:
        assert any(_names(node) & FORBIDDEN for node in ast.walk(ast.parse(source))), source
