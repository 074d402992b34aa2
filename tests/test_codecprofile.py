"""tools/codecprofile.py: the timing and peak memory of the text codec's number paths."""

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
    assert lines[1] == ("2 timed calls each; write_table, parse_table and save_weights "
                        "match the one-number-at-a-time references: yes")
    assert lines[2].split() == ["part", "median_us", "q1_us", "q3_us", "peak_kb"]
    parts = [line.rsplit(None, 4)[0] for line in lines[3:]]
    assert parts == [
        "write_table 511x24", "parse_table 511x24", "write_table 501x45", "parse_table 501x45",
        "write_table 1500x24", "parse_table 1500x24", "write_table 3000x45",
        "parse_table 3000x45", "write_table 1x45", "save_weights 1:75:50:23",
    ]
    peaks = {}
    for line in lines[3:]:
        median, q1, q3, peak = map(float, line.split()[-4:])
        assert 0 <= q1 <= median <= q3
        peaks[line.rsplit(None, 4)[0]] = peak
    # a streamed file holds one block of text at a time: the 3000x45 file is
    # 2.9 MB of text, and its table 1.1 MB
    assert 0 < peaks["write_table 3000x45"] < 512


def test_checks_catch_a_writer_that_drops_a_digit(monkeypatch, tmp_path):
    tool = load_tool()
    net = tool.initialize(tool.SIZES, seed=0)
    assert tool.checks_pass(net, tmp_path)
    monkeypatch.setattr(tool, "write_table", lambda path, header, table: path.write_text(
        tool.row_template(header, np.round(table, 15))))
    assert not tool.checks_pass(net, tmp_path)
