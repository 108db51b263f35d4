"""The program carries no crash hooks: nothing under ``src/repro`` ends
its own process with ``os._exit``.

The crash drills and tests arm their crashes from outside the program
(``scripts/chaos_serve.py``, ``tests/service/crash_worker.py``), so an
``os._exit`` here would be a fault hook left in production code.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _os_exit_lines(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "_exit"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name == "_exit" for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_no_file_under_src_calls_os_exit():
    paths = sorted(SOURCE.rglob("*.py"))
    assert paths
    found = {
        str(path.relative_to(SOURCE)): lines
        for path in paths
        if (lines := _os_exit_lines(path))
    }
    assert found == {}
