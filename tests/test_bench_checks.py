"""The benchmark reads every dataset with its own CSV reader, which must still read ours."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from motionmimic.cli import main
from motionmimic.trainer import load_dataset

CHECKS = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
RATE = 100 / 3  # no short decimal writes it


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("command", ["gen", "ingest"])
def test_bench_reader_reads_a_dataset_past_its_rate_line(tmp_path, command):
    """checks.read_csv takes the header from line 1 and lets np.loadtxt skip the '#'
    rate line, so it reads the times and targets load_dataset reads."""
    (tmp_path / "m.mov").write_text(
        "movement n=2 gamma=3 rate=1\nt=0 0 0.3\nt=0.5 0.8 -0.4\nt=1 0.1 0.2\n")
    kept = [k for k in range(20) if k != 7]  # one dropped sample, which ingest fills
    (tmp_path / "log.csv").write_text("time,hip,knee\n" + "".join(
        f"{0.37 + k / RATE!r},{float(np.sin(k))!r},{float(np.cos(k))!r}\n" for k in kept))
    source = {"gen": ["--movement", tmp_path / "m.mov"], "ingest": ["--log", tmp_path / "log.csv"]}
    path = tmp_path / "d.csv"
    argv = [command, *source[command], "--rate", repr(RATE), "--out", path]
    assert main([str(a) for a in argv]) == 0
    assert path.read_text().splitlines()[1] == f"# rate={RATE!r}"

    header, rows = load_checks().read_csv(path, ["time"])
    ds = load_dataset(path)
    assert header == ["time", *ds.joint_names, "end_flag"]
    np.testing.assert_array_equal(rows[:, 0], ds.times)
    np.testing.assert_array_equal(rows[:, 1:], ds.targets)
