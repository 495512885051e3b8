"""The ``raise`` statements of ``src/momtail`` that no tier-1 test executes.

Runs the tier-1 suite (``tests/``) in-process with pytest under a
``sys.settrace`` line tracer that records only the lines of frames whose code
lies in ``src/momtail``, then prints each ``raise`` statement (found with
``ast``) whose first line never ran, as ``file:line function``, and their
count. A ``raise`` reached only in a subprocess (``test_demos``,
``test_startup``) counts as not run. The tracer about doubles tier-1's
own time. Run from the repository root::

    PYTHONPATH=src python tests/raise_sites.py [pytest args]

Extra arguments go to pytest in place of ``tests``. pytest does not collect
this script.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momtail"


def raise_sites() -> list[tuple[str, int, str]]:
    """(file, line, enclosing function) of every ``raise`` in the package."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                # the innermost function whose lines hold the raise
                owner = max((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                sites.append((str(path), node.lineno, owner.name if owner else "<module>"))
    return sorted(sites, key=lambda site: site[:2])


def traced_lines(args: list[str]) -> tuple[set[tuple[str, int]], int]:
    """The (file, line) pairs of the package that ran under pytest ``args``,
    and pytest's exit code."""
    ran: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}      # code file -> it lies in the package

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {(str(Path(f).resolve()), line) for f, line in ran}, code


def main() -> None:
    ran, code = traced_lines(sys.argv[1:] or [str(ROOT / "tests")])
    sites = raise_sites()
    missed = [(f, line, name) for f, line, name in sites if (f, line) not in ran]
    print(f"\npytest exit code {code}; raise statements no test executes:")
    for f, line, name in missed:
        print(f"  {Path(f).relative_to(ROOT)}:{line} {name}")
    print(f"{len(missed)} of {len(sites)} raise statements not executed")


if __name__ == "__main__":
    main()
