"""List the statements of src/motionmimic/*.py that no test executes.

Runs pytest on tests/ in this process under a sys.settrace line tracer,
then prints each statement of the package whose header lines never ran,
as path:line: source.  A compound statement's header runs from its first
line (decorators included) to the line before its first inner statement;
a simple statement's is all of its lines.  Docstrings are not statements.
Standard library only, besides pytest itself; it takes no options.

Usage: python3 tools/linecover.py
"""

import ast
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from codelines import docstring_lines  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "motionmimic"
_BODIES = ("body", "orelse", "finalbody", "handlers")


def statements(source: str) -> list:
    """(first line, header lines) of every statement in source, docstrings excluded."""
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or (isinstance(node, ast.Expr)
                                              and node.lineno in docstrings):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        inner = [child.lineno for name in _BODIES for child in getattr(node, name, [])]
        last = min(inner) - 1 if inner else node.end_lineno
        found.append((first, range(first, max(node.lineno, last) + 1)))
    return sorted(found)


def missed(source: str, ran: set) -> list:
    """First lines of the statements of source none of whose header lines ran."""
    return [first for first, header in statements(source) if ran.isdisjoint(header)]


def trace_lines(paths, run):
    """(ran, run()'s result): ran maps each of paths to the lines of it that ran."""
    ran = {str(p): set() for p in paths}
    resolved = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = ran.get(os.path.realpath(name))
        lines = resolved[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return ran, result


def main() -> int:
    os.chdir(ROOT)
    paths = sorted(PACKAGE.glob("*.py"))
    ran, code = trace_lines(paths, lambda: pytest.main(["-q", str(ROOT / "tests")]))
    report = []
    for path in paths:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        report += [f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}"
                   for first in missed(source, ran[str(path)])]
    print(f"statements no test executes: {len(report)}")
    for line in report:
        print(line)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
