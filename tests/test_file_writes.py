"""Every file the package creates, renames or removes goes through ``memory.write_files``.

The modules are parsed, not run: a call to ``open`` with a write mode
(``w``, ``x``, ``a`` or ``+``), or to ``os.replace``, ``os.rename``,
``os.remove`` or ``os.unlink``, is allowed only inside ``write_files``, which
stages every output file beside its target and renames none until all are
written.
"""

from __future__ import annotations

import ast
from pathlib import Path

import needagent

PACKAGE = Path(needagent.__file__).parent
FILE_CHANGERS = {"replace", "rename", "remove", "unlink"}
ALLOWED = ("memory.py", "write_files")


def _mode(call: ast.Call):
    """The mode argument of an ``open`` call as written; "r" when absent."""
    given = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else None  # None: not known until run time


def _changes_files(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode(call)
        return not isinstance(mode, str) or bool(set("wxa+") & set(mode))
    return (isinstance(func, ast.Attribute) and func.attr in FILE_CHANGERS
            and isinstance(func.value, ast.Name) and func.value.id == "os")


def file_changes() -> list[tuple[str, str, int]]:
    """(module file, enclosing function or "<module>", line) of each call that changes a file."""
    found = []

    def walk(node: ast.AST, module: str, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call) and _changes_files(child):
                found.append((module, function, child.lineno))
            walk(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.name, "<module>")
    return found


def test_only_write_files_creates_renames_or_removes_a_file():
    outside = [f"{module}:{line} in {function}" for module, function, line in file_changes()
               if (module, function) != ALLOWED]
    assert outside == []


def test_the_scan_sees_the_writes_inside_write_files():
    # A scan that found nothing would pass the test above vacuously.
    assert [function for module, function, _ in file_changes() if (module, function) == ALLOWED] == ["write_files"] * 3


def test_the_scan_flags_each_kind_of_file_change():
    source = ("def f(p, m):\n"
              "    open(p, 'w'); open(p, mode='ab'); open(p, 'r+'); open(p, m)\n"
              "    os.replace(p, p); os.rename(p, p); os.remove(p)\n"
              "    open(p); open(p, 'rb'); str.replace(p, 'a', 'b')\n")
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    assert sum(map(_changes_files, calls)) == 7
