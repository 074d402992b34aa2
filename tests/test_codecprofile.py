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
    assert lines[1] == ("2 timed calls each; write_table, parse_table, save_weights and "
                        "load_weights match the one-number-at-a-time references: yes")
    assert lines[2].split() == ["part", "median_us", "q1_us", "q3_us", "peak_kb"]
    parts = [line.rsplit(None, 4)[0] for line in lines[3:]]
    assert parts == [
        "write_table 511x24", "parse_table 511x24", "write_table 501x45", "parse_table 501x45",
        "write_table 1500x24", "parse_table 1500x24", "write_table 3000x45",
        "parse_table 3000x45", "write_table 1x45", "save_weights 1:75:50:23",
        "load_weights 1:75:50:23",
    ]
    peaks = {}
    for line in lines[3:]:
        median, q1, q3, peak = map(float, line.split()[-4:])
        assert 0 <= q1 <= median <= q3
        peaks[line.rsplit(None, 4)[0]] = peak
    # a streamed file holds one block of text at a time: the 3000x45 file is
    # 2.9 MB of text, and its table 1.1 MB
    assert 0 < peaks["write_table 3000x45"] < 512
    # a streamed read holds the table, its blocks and one buffer of the file's text
    assert 0 < peaks["parse_table 3000x45"] < 2 * 3000 * 45 * 8 / 1024 + 512


def test_checks_catch_a_writer_that_drops_a_digit(monkeypatch, tmp_path):
    tool = load_tool()
    net = tool.initialize(tool.SIZES, seed=0)
    assert tool.checks_pass(net, tmp_path)
    monkeypatch.setattr(tool, "write_table", lambda path, header, table: path.write_text(
        tool.row_template(header, np.round(table, 15))))
    assert not tool.checks_pass(net, tmp_path)


def nudged(read):
    """read, with one number of what it returns moved by an ulp."""
    def wrong(*args):
        result = read(*args)
        numbers = result.params if hasattr(result, "params") else result[1]
        numbers.ravel()[-1] = np.nextafter(numbers.ravel()[-1], np.inf)
        return result
    return wrong


def test_checks_catch_a_reader_that_is_an_ulp_off(monkeypatch, tmp_path):
    tool = load_tool()
    net = tool.initialize(tool.SIZES, seed=0)
    for reader in ("parse_table", "load_weights"):
        with monkeypatch.context() as patch:
            patch.setattr(tool, reader, nudged(getattr(tool, reader)))
            assert not tool.checks_pass(net, tmp_path)
