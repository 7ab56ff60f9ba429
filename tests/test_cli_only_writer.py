"""``cli.py`` is the package's only writer: no other module in
``src/fairtime`` calls ``print`` or opens a file for writing, so timings and
diagnostics cannot reach stdout or the CSV outputs by accident.  A read-only
``open``, such as ``config.parse_config``'s, is allowed."""

import ast
from pathlib import Path

import fairtime

PACKAGE = Path(fairtime.__file__).parent


def _opens_for_writing(call: ast.Call) -> bool:
    """A builtin ``open(...)`` whose mode may write; a mode that is not a
    string literal counts as writing."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


def writers(source: str) -> list[int]:
    """Line numbers of the ``print`` calls and writing ``open`` calls in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and ((isinstance(node.func, ast.Name) and node.func.id == "print")
             or _opens_for_writing(node))
    ]


def test_writer_detection():
    assert writers('print("x")\nopen(p, "w")\nopen(p, mode="a")\nopen(p, "r+")\n'
                   'open(p, mode)\n') == [1, 2, 3, 4, 5]
    assert writers('open(p)\nopen(p, "rb")\nopen(p, mode="r")\nlogger.print_stats()\n') == []


def test_only_cli_prints_or_writes_files():
    sources = sorted(PACKAGE.glob("*.py"))
    assert "cli.py" in [path.name for path in sources]
    found = [
        f"{path.name}:{line}"
        for path in sources if path.name != "cli.py"
        for line in writers(path.read_text())
    ]
    assert found == []
