"""tools/linecover.py: the statement finder the line-coverage report rests on."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecover.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("linecover", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


tool = load_tool()

SOURCE = '''"""Module docstring."""
import os


@decorator
def f(x):
    """Function docstring."""
    try:
        y = (x +
             1)
    except ValueError:
        raise
    if x:
        return y
    elif x is None:
        pass
    return 0


class C:
    """Class docstring."""

    a: int
'''


def test_statements_have_their_header_lines_and_skip_docstrings():
    assert tool.statements(SOURCE) == [
        (2, range(2, 3)),    # import os
        (5, range(5, 7)),    # the decorator and the def line
        (8, range(8, 9)),    # try:
        (9, range(9, 11)),   # the two lines of y = (x + 1)
        (12, range(12, 13)),
        (13, range(13, 14)),
        (14, range(14, 15)),
        (15, range(15, 16)),  # elif: an if of its own
        (16, range(16, 17)),
        (17, range(17, 18)),
        (20, range(20, 21)),  # class C, up to its first statement after the docstring
        (23, range(23, 24)),
    ]


def test_a_statement_counts_as_run_when_any_header_line_ran():
    # a call that fails on the second line of y = (x + 1) still ran the statement;
    # the decorator line alone runs the def
    ran = {2, 5, 8, 10, 11, 12, 20, 23}
    assert tool.missed(SOURCE, ran) == [13, 14, 15, 16, 17]
    assert tool.missed(SOURCE, set()) == [first for first, _ in tool.statements(SOURCE)]
