"""tools/epochprofile.py: the layer-by-layer timing of one training epoch."""

import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "epochprofile.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("epochprofile", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_small_run_checks_the_parts_and_times_every_one(capsys):
    assert load_tool().main(["--rows", "8", "--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("numpy ") and "BLAS threads" in lines[0]
    threads, kernel = load_tool().blas_probe()
    assert re.search(f", {threads} BLAS threads, {kernel} kernel, [0-9]+ CPUs$", lines[0])
    assert lines[1] == ("net 1:75:50:23, 8 rows, 2 timed epochs; "
                        "parts match forward_backward and the MAE bit for bit: yes")
    assert lines[2].split() == ["part", "median_us", "q1_us", "q3_us"]
    parts = [line.split()[0] for line in lines[3:]]
    assert parts == [
        "layer0.affine", "layer0.activation", "layer1.affine", "layer1.activation",
        "layer2.affine", "loss", "weight_copy",
        "layer2.weight_grad", "layer2.delta_back", "layer1.activation_grad",
        "layer1.weight_grad", "layer1.delta_back", "layer0.activation_grad",
        "layer0.weight_grad", "finite_check", "adam", "mae", "epoch",
    ]
    for line in lines[3:]:
        median, q1, q3 = map(float, line.split()[-3:])
        assert 0 <= q1 <= median <= q3


# 1 row takes each layer's a @ W.T, then + b; 161 rows (desk22's batch) is one row block and
# 300 rows two
@pytest.mark.parametrize("rows", [1, 161, 300])
def test_parts_match_forward_backward_over_two_row_blocks(rows, capsys):
    assert load_tool().main(["--rows", str(rows), "--repeats", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        f"net 1:75:50:23, {rows} rows, 1 timed epochs; "
        "parts match forward_backward and the MAE bit for bit: yes")
