"""List the statements of src/motionmimic/*.py that no test executes, and
those that tests execute but no command runs.

Runs pytest on tests/ in this process under a sys.settrace line tracer,
then prints two lists of package statements, each entry as
path:line: source.  The first holds every statement whose header lines
never ran.  The second holds every statement that ran, but never while
a command frame was on the stack: a frame of motionmimic.cli.main, which
every command goes through, or of a package module's body.  Module
bodies count because importing motionmimic.cli, as every command does,
runs each of them.  A compound statement's header runs from its first
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


def run_only_by_tests(source: str, ran: set, by_command: set) -> list:
    """First lines of the statements of source that ran, but never under a command."""
    never = set(missed(source, ran))
    return [first for first in missed(source, by_command) if first not in never]


def trace_lines(paths, command, run):
    """(ran, by_command, run()'s result) from one trace of run().

    ran maps each of paths to the lines of it that ran; by_command maps
    it to those that ran while a frame of a module body of paths, or of
    the main() of the file command, was on the stack.
    """
    ran = {str(p): set() for p in paths}
    by_command = {str(p): set() for p in paths}
    command = str(command)
    resolved = {}
    depth = 0  # command frames on the stack

    def on_call(frame, event, arg):
        nonlocal depth
        code = frame.f_code
        name = code.co_filename
        if name not in resolved:
            real = os.path.realpath(name)
            resolved[name] = ran.get(real), by_command.get(real), real == command
        lines, command_lines, is_command = resolved[name]
        if lines is None:
            return None
        entry = code.co_name == "<module>" or (is_command and code.co_name == "main")
        depth += entry
        commanded = depth > 0  # a frame's callers stay on the stack while it runs

        def on_line(frame, event, arg):
            nonlocal depth
            if event == "line":
                lines.add(frame.f_lineno)
                if commanded:
                    command_lines.add(frame.f_lineno)
            elif event == "return":  # also when an exception ends the frame
                depth -= entry
            return on_line
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return ran, by_command, result


def main() -> int:
    os.chdir(ROOT)
    paths = sorted(PACKAGE.glob("*.py"))
    ran, by_command, code = trace_lines(paths, PACKAGE / "cli.py",
                                        lambda: pytest.main(["-q", str(ROOT / "tests")]))
    reports = {"statements no test executes": [],
               "statements tests execute but no command runs": []}
    for path in paths:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        found = (missed(source, ran[str(path)]),
                 run_only_by_tests(source, ran[str(path)], by_command[str(path)]))
        for report, firsts in zip(reports.values(), found):
            report += [f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}"
                       for first in firsts]
    for title, report in reports.items():
        print(f"{title}: {len(report)}")
        for line in report:
            print(line)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
