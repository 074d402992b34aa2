"""tools/codecprofile.py: the timing of the text codec's number paths."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codecprofile.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("codecprofile", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_small_run_checks_the_codec_and_times_every_part(capsys):
    assert load_tool().main(["--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("numpy ") and lines[0].endswith(" CPUs")
    assert lines[1] == ("2 timed calls each; format_table, parse_table and format_weights "
                        "match the one-number-at-a-time references: yes")
    assert lines[2].split() == ["part", "median_us", "q1_us", "q3_us"]
    parts = [line.rsplit(None, 3)[0] for line in lines[3:]]
    assert parts == [
        "format_table 511x24", "parse_table 511x24", "format_table 501x45", "parse_table 501x45",
        "format_table 1500x24", "parse_table 1500x24", "format_table 3000x45",
        "parse_table 3000x45", "format_table 1x45", "format_weights 1:75:50:23",
    ]
    for line in lines[3:]:
        median, q1, q3 = map(float, line.split()[-3:])
        assert 0 <= q1 <= median <= q3


def test_checks_catch_a_writer_that_drops_a_digit(monkeypatch):
    tool = load_tool()
    net = tool.initialize(tool.SIZES, seed=0)
    assert tool.checks_pass(net)
    monkeypatch.setattr(tool, "format_table", lambda header, table: tool.row_template(
        header, np.round(table, 15)))
    assert not tool.checks_pass(net)
