"""Line census: the executable lines of ``src/needagent`` that a pytest run never executes.

Run from the repository root (pytest arguments are optional; the default is the
whole configured suite)::

    PYTHONPATH=src python3 tools/line_census.py [pytest args ...]

It runs ``pytest.main`` in this process under a ``sys.settrace`` line collector
that traces only frames of ``src/needagent/*.py``, then prints ``file:line: text``
for every line that the compiled code marks executable (``co_lines()`` of each
code object, nested ones included) but that never ran.  Code run in a
subprocess, such as ``python -m needagent``, is not seen.  A final line gives
the counts, pytest's exit code and the wall time.  The census exits 1 if a line
never ran, else 0, or with pytest's own code if pytest could not run the tests.

It needs nothing beyond the standard library and pytest, and it is not part of
the test suite; a traced run takes several times as long as a plain one.
"""

from __future__ import annotations

import os
import sys
import time
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "needagent")


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers that ``code`` and every code object nested in it execute instructions on."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module's first line is 0
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def census(pytest_args: list[str]) -> int:
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read()
    ran: dict[str, set[int]] = {path: set() for path in sources}

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None  # no line events for frames outside the package

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    import pytest  # imported before tracing starts, so that only the package's own frames pay for it

    start = time.perf_counter()
    sys.settrace(trace)
    try:
        status = int(pytest.main(pytest_args))
    finally:
        sys.settrace(None)
    seconds = time.perf_counter() - start
    imported = sys.modules.get("needagent")
    if imported is None or os.path.dirname(os.path.abspath(imported.__file__)) != PACKAGE:
        print(f"line census: the tests did not import needagent from {PACKAGE}; run with PYTHONPATH=src", file=sys.stderr)
        return 2

    missed = total = 0
    for path, source in sources.items():
        text = source.splitlines()
        lines = executable_lines(compile(source, path, "exec"))
        total += len(lines)
        for number in sorted(lines - ran[path]):
            missed += 1
            print(f"{os.path.relpath(path, ROOT)}:{number}: {text[number - 1].strip()}")
    print(f"line census: {missed} of {total} executable lines never ran; pytest exit {status}; {seconds:.1f} s")
    return status if status > pytest.ExitCode.TESTS_FAILED else int(missed > 0)


if __name__ == "__main__":
    sys.exit(census(sys.argv[1:]))
