"""tools/codelines.py: the code-line count the simplicity figures rest on."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


code_lines = load_tool().code_lines


def test_docstrings_comments_and_blank_lines_are_not_counted():
    source = '''"""Module docstring,
over two lines."""

# a comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        # another comment
        return 1  # a trailing comment


async def job():
    """Async docstring."""
    pass
'''
    # class, def, return, async def, pass
    assert code_lines(source) == 5


def test_string_literals_that_are_not_docstrings_are_counted():
    source = '''def f():
    x = 1
    """not a docstring: it does not open the body"""
    return x


TEXT = """one
two
three"""
'''
    # def, x = 1, the 1-line string, return, and the 3-line assignment
    assert code_lines(source) == 7


def test_every_line_of_a_multi_line_call_is_counted():
    source = """total = sum(
    [
        1,

        2,  # the blank line above is not counted
    ]
)
"""
    assert code_lines(source) == 6


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text('"""Doc."""\nx = 1\n')
    second.write_text("y = (\n    2\n)\n")
    assert load_tool().main([first, second]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     1 {first}",
        f"     3 {second}",
        "     4 total",
    ]
