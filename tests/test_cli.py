import contextlib
import hashlib
import io
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motionmimic.cli
import motionmimic.motion
from motionmimic.cli import build_parser, main
from motionmimic.network import format_weights, initialize
from motionmimic.plant import PlantConfig
from motionmimic.trainer import DEFAULT_TAIL, load_dataset, load_model

MOVEMENT = """movement n=2 gamma=3 rate=1
t=0 0 0.3
t=0.5 0.8 -0.4
t=1 0.1 0.2
"""

BAD_MOVEMENT = """movement n=1 gamma=2 rate=1
t=0.1 0
t=1 0.5
"""

SCHEDULE = """phase epochs=300 lr=0.001
phase epochs=100 lr=0.0008
reset_on_phase=true
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "demo.mov").write_text(MOVEMENT)
    (tmp_path / "bad.mov").write_text(BAD_MOVEMENT)
    (tmp_path / "sched.txt").write_text(SCHEDULE)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_gen_writes_dataset(workdir, capsys):
    out = workdir / "demo.csv"
    code = run(["gen", "--movement", workdir / "demo.mov", "--rate", 50, "--out", out])
    assert code == 0
    assert "61 samples" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "time,j1,j2,end_flag"
    assert len(lines) == 62


def test_gen_rejects_invalid_movement(workdir, capsys):
    code = run(["gen", "--movement", workdir / "bad.mov", "--out", workdir / "x.csv"])
    assert code == 2
    assert "first step time must be 0" in capsys.readouterr().err
    assert not (workdir / "x.csv").exists()


def test_gen_names_every_violated_rule(workdir, capsys):
    (workdir / "worse.mov").write_text("movement n=1 gamma=2 rate=-1\nt=0.1 0\nt=0.1 0.5\n")
    assert run(["gen", "--movement", workdir / "worse.mov", "--out", workdir / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for rule in ("first-step-time", "times-increasing", "speed-rate"):
        assert rule in err


@pytest.mark.parametrize("command", ["gen", "simulate"])
def test_movement_is_validated_once(workdir, monkeypatch, command):
    calls = []
    real = motionmimic.motion.validate_movement
    monkeypatch.setattr(motionmimic.motion, "validate_movement",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    assert run([command, "--movement", workdir / "demo.mov", "--out", workdir / "out.csv"]) == 0
    assert len(calls) == 1


def test_gen_rejects_nonpositive_rate(workdir, capsys):
    code = run(["gen", "--movement", workdir / "demo.mov", "--rate", 0, "--out", workdir / "x.csv"])
    assert code == 2
    assert "rate must be positive" in capsys.readouterr().err


def test_gen_names_an_oversized_grid_by_its_integer_count(workdir, capsys):
    code = run(["gen", "--movement", workdir / "demo.mov", "--rate", 1e9, "--out", workdir / "x.csv"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: a grid over 1.0 s at 1000000000.0 Hz needs 1000000001 samples; "
        "allowed are 1 to 1000000\n")


@pytest.mark.parametrize("command", ["gen", "simulate"])
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("movement n=1 gamma=2 rate=1e-320\nt=0 0\nt=1 0.5\n",
                     "needs inf samples", id="rate-1e-320"),
        pytest.param("movement n=1 gamma=2 rate=1e-300\nt=0 0\nt=1 0.5\n",
                     "samples; allowed are 1 to 1000000", id="rate-1e-300"),
        pytest.param("movement n=2 gamma=3 rate=1\nt=0 0 0.3\nt=1e-320 0.8 -0.4\nt=1 0.1 0.2\n",
                     "spline coefficients overflow", id="knot-1e-320"),
        pytest.param("movement n=0 gamma=2 rate=1\nt=0\nt=1\n", "no-joints", id="no-joints"),
        # keyframes within +/-1000 rad, but the spline overshoots past 1e152 between them
        pytest.param("movement n=1 gamma=3 rate=1\nt=0 0\nt=1e-150 1000\nt=1 0\n",
                     "joint angle reaches 1.92444e+152, beyond the 1e+06 rad bound",
                     id="overshoot"),
        pytest.param("movement n=1 gamma=2 rate=1\nt=0 0\nt=1 1e308\n",
                     "joint angle reaches 1e+308, beyond the 1e+06 rad bound", id="angle-1e308"),
    ]
    + [pytest.param(f"movement n=1 gamma=2 rate={rate}\nt=0 0\nt=1 0.5\n",
                    "error: invalid movement: speed-rate: "
                    f"speed rate must be positive and finite, got {float(rate)}\n",
                    id=f"speed-rate-{rate}") for rate in ("0", "-1", "nan", "inf")],
)
def test_unplayable_movement_is_exit_2(workdir, capsys, command, text, message):
    (workdir / "odd.mov").write_text(text)
    with np.errstate(all="raise"):
        code = run([command, "--movement", workdir / "odd.mov", "--out", workdir / "x.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("last_time, rate", [("1e-13", "1"), ("1", "1e13")],
                         ids=["t=1e-13", "rate=1e13"])
def test_gen_of_a_movement_shorter_than_one_sample_is_exit_2(workdir, capsys, last_time, rate):
    # with no tail the grid holds one sample, at t=0; the refusal blames the samples alone
    (workdir / "blip.mov").write_text(
        f"movement n=1 gamma=2 rate={rate}\nt=0 0\nt={last_time} 0.5\n")
    code = run(["gen", "--movement", workdir / "blip.mov", "--tail", 0, "--out", workdir / "x.csv"])
    assert code == 2
    assert capsys.readouterr().err == "error: dataset needs at least 2 samples\n"
    assert not (workdir / "x.csv").exists()


# a movement off the sample grid at a speed rate that is not 1
GUARD_MOVEMENT = """movement n=4 gamma=5 rate=1.3
t=0 0 0.3 -0.7 1.1
t=0.41 0.8 -0.4 0.25 0.9
t=0.9 -0.35 0.1 0.6 -0.2
t=1.7 0.5 0.45 -0.15 0.05
t=2.013 0.1 0.2 0.0 0.7
"""
# SHA-256 of the files gen and simulate --movement write for GUARD_MOVEMENT,
# computed at the commit before whole-grid poses (one scalar spline per joint
# per sample); one 2-D spline evaluated on the whole grid must reproduce them.
GUARD_DIGESTS = {
    "dataset.csv": "ba3980c0502ba338ed069a4254696b259c84b24e4d14ca24cfdd3499576a4d4e",
    "tracking.csv": "0acb134e3c7eeb4cbcb06d27fd0d821457b7454f907e850e870c315a82c19c0e",
}


def test_movement_outputs_are_bit_identical(workdir):
    (workdir / "guard.mov").write_text(GUARD_MOVEMENT)
    assert run(["gen", "--movement", workdir / "guard.mov", "--out", workdir / "dataset.csv"]) == 0
    assert run(["simulate", "--movement", workdir / "guard.mov",
                "--out", workdir / "tracking.csv"]) == 0
    for name, digest in GUARD_DIGESTS.items():
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest, name


# three phases whose Adam moments carry across each boundary
SCHEDULE3 = """phase epochs=150 lr=0.002
phase epochs=100 lr=0.001
phase epochs=50 lr=0.0004
reset_on_phase=false
"""
# (command, its stdout) for the model-side pipeline over GUARD_MOVEMENT and a
# 50 Hz log with two dropped samples; run from the work directory
MODEL_GUARD_STEPS = [
    ("gen --movement guard.mov --rate 37 --tail 3 --out g37.csv",
     "61 samples at 37 Hz -> g37.csv\n"),
    ("ingest --log log.csv --tail 2 --out fin.csv",
     "42 samples (finite) at 50 Hz -> fin.csv\n"),
    ("ingest --log log.csv --periodic --out per.csv",
     "40 samples (periodic) at 50 Hz -> per.csv\n"),
    ("train --dataset g37.csv --schedule sched.txt --out m37",
     "trained 400 epochs on 61 samples: final mse=0.0196836 mae=0.0341851 rad -> m37\n"),
    ("train --dataset per.csv --schedule sched.txt --arch 1:8:3 --out mper",
     "trained 400 epochs on 40 samples: final mse=0.0314853 mae=0.151736 rad -> mper\n"),
    ("train --dataset fin.csv --schedule sched3.txt --arch 1:12:6:3 --seed 5 --out m3",
     "trained 300 epochs on 42 samples: final mse=0.0394539 mae=0.110622 rad -> m3\n"),
    ("rollout --model m37 --out ro37.csv",
     "61 samples at 37 Hz, end detected -> ro37.csv\n"),
    ("rollout --model mper --out roper.csv",
     "79 samples at 50 Hz, no end detected (capped) -> roper.csv\n"),
    ("simulate --model m37 --out sim.csv",
     "82 ticks at 50 Hz: tracking rms=0.0702977 rad -> sim.csv\n"),
    ("compare --model m37 --dataset g37.csv --out cmp",
     "mae=0.0341851 rad\nend_time_error=2 samples\ntracking_rms=0.0702977 rad\n"),
    ("compare --model m37 --dataset g37.csv --max-speed 0.5 --out cmp05",
     "mae=0.0341851 rad\nend_time_error=2 samples\ntracking_rms=0.508918 rad\n"),
]
# SHA-256 of the files MODEL_GUARD_STEPS write, computed before the dataset's
# periodic flag, the rollout's end flag and the tracking metrics each came to be
# stored once; 37 and 50 Hz are rates whose recovery from a dataset never changed.
# The weights and training logs were computed before the training loop became
# one loop over the schedule's epochs with one finite check per epoch.
MODEL_GUARD_DIGESTS = {
    "fin.csv": "e5193bdf30626206e039f5b9435e0163a7cf5a8a2ab39fdb1947bdb665a1f676",
    "per.csv": "59bc891e90ddac5be2ae08f5a15c57852cf349372057abae0831b88daa16f2d9",
    "m37/model.meta": "e2120a6187b9b93df8c6e98e95053334705a66f29c24a709243c345ef48a5e73",
    "mper/model.meta": "81ee18a00d8fa02fb53e10ce3cb8630987bbef53064319540bea4e00952c1f78",
    "m37/weights.txt": "9b6f672f4bbe9b5eb992c46c0dd3f086ee17a7d463ff5f74e3ca9881f9a29636",
    "m37/training_log.csv": "13bd3df0b07fd41f1219aa710a9e9c3ebf798db0af47266683848bb7f6be46ad",
    "mper/weights.txt": "f4e5fe77c8a6d31d9327cd9f2132bd448fec97c7d8a02e4f5af85c5005814aeb",
    "mper/training_log.csv": "6cf0beb79496bd0687a218bea996d277daafc02cd27a7e4dc15c664523a8d479",
    "m3/weights.txt": "24f4fed23eb8f0abd2bc3e2ce82f130146c57fdee74f650eac6c7b5377912359",
    "m3/training_log.csv": "8fc7a9af833abb1343e175f6dee4565217ce2c9194c9c7babefedba321f69c13",
    "ro37.csv": "464b3d94a12ab739ee3b56ae2e5a5277f5a7253321b2eec4419e31bf5dbe594c",
    "roper.csv": "39120637ef26a0d9ff48c88a97e2ac8cc0f1dc6f6c0870c0efa8787cb9030d63",
    "sim.csv": "d96c60ae12e297fad451c36f3753c613c82dedd2cab4f7ce443f63ed31acbf1c",
    "cmp/metrics.txt": "8c599f4e733d03ca35cd29b4bf0e5e9f47e6a2ba183295c2fce7dee029c91f72",
    "cmp/rollout.csv": "464b3d94a12ab739ee3b56ae2e5a5277f5a7253321b2eec4419e31bf5dbe594c",
    "cmp/tracking.csv": "d96c60ae12e297fad451c36f3753c613c82dedd2cab4f7ce443f63ed31acbf1c",
    "cmp05/metrics.txt": "f95b194dfa4090f80a67778a78688c080752c820136bda92d3263e173dc36525",
    "cmp05/rollout.csv": "464b3d94a12ab739ee3b56ae2e5a5277f5a7253321b2eec4419e31bf5dbe594c",
    "cmp05/tracking.csv": "133db51f5cb638e9b558134ae7e3059000a1ddda5ec4c443f1c8427603f8d50b",
}


def test_model_outputs_are_bit_identical(workdir, monkeypatch, capsys):
    (workdir / "guard.mov").write_text(GUARD_MOVEMENT)
    t = np.arange(40) / 50.0
    rows = [f"{float(t[i])!r},{float(np.sin(3 * t[i]))!r},{float(np.cos(2 * t[i]))!r}"
            for i in np.delete(np.arange(40), [7, 23])]
    (workdir / "log.csv").write_text("\n".join(["time,hip,knee", *rows]) + "\n")
    (workdir / "sched3.txt").write_text(SCHEDULE3)
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    for command, stdout in MODEL_GUARD_STEPS:
        assert main(command.split()) == 0, command
        assert capsys.readouterr().out == stdout, command
    for name, digest in MODEL_GUARD_DIGESTS.items():
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest, name


def test_gen_missing_file_is_input_error(workdir, capsys):
    code = run(["gen", "--movement", workdir / "nope.mov", "--out", workdir / "x.csv"])
    assert code == 2


@pytest.fixture
def trained(workdir):
    run(["gen", "--movement", workdir / "demo.mov", "--rate", 50, "--out", workdir / "demo.csv"])
    code = run(
        ["train", "--dataset", workdir / "demo.csv", "--schedule", workdir / "sched.txt",
         "--seed", 0, "--out", workdir / "model"]
    )
    assert code == 0
    return workdir


def test_train_writes_bundle_and_log(trained, capsys):
    assert (trained / "model" / "weights.txt").exists()
    assert (trained / "model" / "model.meta").exists()
    log_lines = (trained / "model" / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,phase,lr,mse,mae"
    assert len(log_lines) == 401


def test_train_is_reproducible(trained):
    first = (trained / "model" / "weights.txt").read_text()
    code = run(
        ["train", "--dataset", trained / "demo.csv", "--schedule", trained / "sched.txt",
         "--seed", 0, "--out", trained / "model2"]
    )
    assert code == 0
    assert (trained / "model2" / "weights.txt").read_text() == first


def test_train_arch_mismatch_is_exit_2(trained, capsys):
    code = run(
        ["train", "--dataset", trained / "demo.csv", "--arch", "1:8:5",
         "--schedule", "desk", "--out", trained / "m3"]
    )
    assert code == 2
    assert "output size" in capsys.readouterr().err


@pytest.mark.parametrize("stem", ["a\nb", "a\x1cb"], ids=["newline", "file-separator"])
def test_train_refuses_a_dataset_name_model_meta_cannot_hold(workdir, capsys, stem):
    # str.splitlines breaks at both, so model.meta's name= line would read back as two
    dataset = workdir / f"{stem}.csv"
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", dataset]) == 0
    capsys.readouterr()
    code = run(["train", "--dataset", dataset, "--schedule", workdir / "sched.txt",
                "--out", workdir / "model"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: model name {stem!r} must not hold a line break\n"
    assert not (workdir / "model").exists()


def test_dataset_name_with_spaces_round_trips_through_model_meta(workdir, capsys):
    dataset = workdir / "a b .csv"
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", dataset]) == 0
    assert run(["train", "--dataset", dataset, "--schedule", workdir / "sched.txt",
                "--out", workdir / "model"]) == 0
    assert "name=a b \n" in (workdir / "model" / "model.meta").read_text()
    assert load_model(workdir / "model").name == "a b "
    assert run(["eval", "--model", workdir / "model", "--dataset", dataset]) == 0


def test_dataset_name_that_is_not_utf8_round_trips_through_model_meta(workdir, capfd):
    dataset = workdir / os.fsdecode(b"\xff.csv")
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", dataset]) == 0
    assert run(["train", "--dataset", dataset, "--schedule", workdir / "sched.txt",
                "--out", workdir / "model"]) == 0
    assert b"name=\xff\n" in (workdir / "model" / "model.meta").read_bytes()
    assert load_model(workdir / "model").name == os.fsdecode(b"\xff")
    assert run(["eval", "--model", workdir / "model", "--dataset", dataset]) == 0


def test_joint_name_that_is_not_utf8_survives_train_and_compare(workdir, capfd):
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    data = (workdir / "demo.csv").read_bytes()
    assert data.startswith(b"time,j1,j2,end_flag\n")
    (workdir / "demo.csv").write_bytes(b"time,\xff1,j2,end_flag\n" + data.split(b"\n", 1)[1])
    assert run(["train", "--dataset", workdir / "demo.csv", "--schedule", workdir / "sched.txt",
                "--out", workdir / "model"]) == 0
    assert run(["compare", "--model", workdir / "model", "--dataset", workdir / "demo.csv",
                "--out", workdir / "cmp"]) == 0
    head = (workdir / "cmp" / "rollout.csv").read_bytes().split(b"\n", 1)[0]
    assert head == b"time,\xff1,j2,end_flag"
    head = (workdir / "cmp" / "tracking.csv").read_bytes().split(b"\n", 1)[0]
    assert head == b"time,\xff1_desired,\xff1_attained,j2_desired,j2_attained"


# every kind of input file with a byte that is not UTF-8 where a number belongs:
# the file's bytes, or (old, new) bytes to swap in the trained bundle's file
@pytest.mark.parametrize(
    "name, content, command, message",
    [
        pytest.param("bad.csv", b"time,j1,end_flag\n0,\xff,0\n0.02,0,1\n",
                     ["train", "--dataset", "{dir}/bad.csv", "--out", "{dir}/m2"],
                     "line 2: j1 is not a number", id="dataset"),
        pytest.param("bad.log", b"time,hip\n0,\xff\n0.02,0\n",
                     ["ingest", "--log", "{dir}/bad.log", "--out", "{dir}/m2"],
                     "line 2: hip is not a number", id="joint-log"),
        pytest.param("bad.mov", b"movement n=1 gamma=2 rate=1\nt=0 \xff\nt=1 0.5\n",
                     ["gen", "--movement", "{dir}/bad.mov", "--out", "{dir}/m2"],
                     "line 2: joint is not a number", id="movement"),
        pytest.param("bad.txt", b"phase epochs=\xff lr=0.001\n",
                     ["train", "--dataset", "{dir}/demo.csv", "--schedule", "{dir}/bad.txt",
                      "--out", "{dir}/m2"],
                     "line 1: epochs is not an integer", id="schedule"),
        pytest.param("model/weights.txt", (b"layers=3 ", b"layers=\xff "),
                     ["eval", "--model", "{dir}/model", "--dataset", "{dir}/demo.csv"],
                     "line 1: layers is not an integer", id="weights"),
        pytest.param("model/model.meta", (b"\nn=2\n", b"\nn=\xff\n"),
                     ["eval", "--model", "{dir}/model", "--dataset", "{dir}/demo.csv"],
                     "line 2: n is not an integer", id="model-meta"),
    ],
)
def test_input_byte_that_is_not_utf8_is_exit_2(trained, capfd, name, content, command, message):
    path = trained / name
    if isinstance(content, tuple):
        old, new = content
        data = path.read_bytes()
        assert data.count(old) == 1
        content = data.replace(old, new)
    path.write_bytes(content)
    capfd.readouterr()
    assert run([arg.format(dir=trained) for arg in command]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}: '")
    assert len(captured.err.splitlines()) == 1
    assert not (trained / "m2").exists()


def test_train_divergence_is_exit_3(trained, capsys):
    (trained / "wild.txt").write_text("phase epochs=50 lr=1e51\nreset_on_phase=true\n")
    code = run(
        ["train", "--dataset", trained / "demo.csv", "--schedule", trained / "wild.txt",
         "--out", trained / "m4"]
    )
    assert code == 3
    err = capsys.readouterr().err
    last = int(err.rsplit("last finite epoch ", 1)[1])
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # the partial log holds every finite epoch, and no model is saved
    log_lines = (trained / "m4" / "training_log.csv").read_text().splitlines()
    assert len(log_lines) == 1 + last + 1 and log_lines[-1].startswith(f"{last},0,")
    assert not (trained / "m4" / "weights.txt").exists()


def test_train_overflow_at_first_epoch_is_exit_3(trained, capsys):
    # an absurd leaky-ReLU slope overflows the first forward pass; warnings are errors here
    capsys.readouterr()
    code = run(["train", "--dataset", trained / "demo.csv", "--arch", "1:5:3",
                "--alpha", "1e300", "--out", trained / "m5"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: training loss became non-finite at epoch 0; "
                            "last finite epoch -1\n")


@pytest.mark.parametrize(
    "key, value",
    [("duration", "nan"), ("duration", "-1"), ("rate", "nan"), ("rate", "0")],
)
def test_rollout_rejects_bad_bundle_metadata(trained, capsys, key, value):
    meta = trained / "model" / "model.meta"
    lines = meta.read_text().splitlines()
    meta.write_text("\n".join(f"{key}={value}" if ln.startswith(key + "=") else ln
                              for ln in lines) + "\n")
    code = run(["rollout", "--model", trained / "model", "--out", trained / "roll.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be positive and finite" in err
    assert not (trained / "roll.csv").exists()


def test_rollout_rejects_huge_duration(trained, capsys):
    meta = trained / "model" / "model.meta"
    meta.write_text("\n".join("duration=1e300" if ln.startswith("duration=") else ln
                              for ln in meta.read_text().splitlines()) + "\n")
    for command in ("rollout", "simulate"):
        assert run([command, "--model", trained / "model", "--out", trained / "x.csv"]) == 2
        assert "samples; allowed are 1 to" in capsys.readouterr().err
        assert not (trained / "x.csv").exists()


@pytest.mark.parametrize(
    "command, options, output",
    [
        pytest.param("eval", ["--dataset", "{dir}/demo.csv"], None, id="eval"),
        pytest.param("rollout", ["--out", "{dir}/x.csv"], "x.csv", id="rollout"),
        pytest.param("simulate", ["--out", "{dir}/x.csv"], "x.csv", id="simulate"),
        pytest.param("compare", ["--dataset", "{dir}/demo.csv", "--out", "{dir}/cmp"], "cmp",
                     id="compare"),
    ],
)
def test_overflowing_model_is_exit_2(trained, capsys, command, options, output):
    # finite weights load, but the outputs would overflow the metrics and the plant
    weights = trained / "model" / "weights.txt"
    lines = weights.read_text().splitlines()
    lines[2:77] = ["1e300"] * 75  # the 75 first-layer weights of the 1-75-50-3 net
    weights.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run([command, "--model", trained / "model", *[o.format(dir=trained) for o in options]])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: model output reaches ")
    assert len(captured.err.splitlines()) == 1
    assert output is None or not (trained / output).exists()


def test_model_with_two_inputs_is_exit_2(trained, capsys):
    # a consistent weights file whose net takes 2 inputs, for the bundle's 2 joints
    (trained / "model" / "weights.txt").write_text(format_weights(initialize([2, 4, 3], seed=0)))
    capsys.readouterr()
    for command in ("rollout", "simulate"):
        assert run([command, "--model", trained / "model", "--out", trained / "x.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: network takes 2 inputs; it needs 1, the normalized time\n"
        assert not (trained / "x.csv").exists()


def test_eval_prints_metrics(trained, capsys):
    code = run(["eval", "--model", trained / "model", "--dataset", trained / "demo.csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mae=" in out and "end_time_error=" in out and "mae[j1]=" in out


def test_rollout_writes_trajectory(trained, capsys):
    code = run(["rollout", "--model", trained / "model", "--out", trained / "roll.csv"])
    assert code == 0
    lines = (trained / "roll.csv").read_text().splitlines()
    assert lines[0] == "time,j1,j2,end_flag"
    assert len(lines) > 2


def test_simulate_movement_source(workdir, capsys):
    code = run(["simulate", "--movement", workdir / "demo.mov", "--out", workdir / "sim.csv"])
    assert code == 0
    header = (workdir / "sim.csv").read_text().splitlines()[0]
    assert header == "time,j1_desired,j1_attained,j2_desired,j2_attained"
    assert "tracking rms=" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["simulate", "--movement", "demo.mov"],
                                     ["compare", "--model", "model", "--dataset", "demo.csv"]])
def test_plant_options_default_to_plant_config(command):
    parse = build_parser().parse_args
    args = parse([*command, "--out", "x"])
    assert PlantConfig(args.kp, args.max_speed, args.tick_rate) == PlantConfig()
    args = parse([*command, "--kp", "9", "--max-speed", "0.5", "--tick-rate", "20", "--out", "x"])
    assert (args.kp, args.max_speed, args.tick_rate) == (9.0, 0.5, 20.0)


def test_simulate_rejects_unstable_gain(workdir, capsys):
    code = run(
        ["simulate", "--movement", workdir / "demo.mov", "--kp", 200,
         "--out", workdir / "sim.csv"]
    )
    assert code == 2
    assert "stability" in capsys.readouterr().err


def test_compare_emits_metrics_and_csvs(trained, capsys):
    code = run(
        ["compare", "--model", trained / "model", "--dataset", trained / "demo.csv",
         "--out", trained / "cmp"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mae=" in out and "tracking_rms=" in out
    assert (trained / "cmp" / "rollout.csv").exists()
    assert (trained / "cmp" / "tracking.csv").exists()
    metrics = dict(
        line.split("=", 1) for line in (trained / "cmp" / "metrics.txt").read_text().splitlines()
    )
    assert set(metrics) == {"mse", "mae", "end_time_error", "tracking_rms", "attenuated"}


def test_train_desk_preset_prints_passing_mae(workdir, capsys):
    run(["gen", "--movement", workdir / "demo.mov", "--rate", 50, "--out", workdir / "demo.csv"])
    code = run(
        ["train", "--dataset", workdir / "demo.csv", "--schedule", "desk",
         "--seed", 0, "--out", workdir / "desk_model"]
    )
    assert code == 0
    out = capsys.readouterr().out
    mae = float(out.split("mae=")[1].split()[0])
    assert mae <= 0.018


def test_compare_flags_attenuation_on_starved_plant(trained, capsys):
    code = run(
        ["compare", "--model", trained / "model", "--dataset", trained / "demo.csv",
         "--max-speed", 0.5, "--out", trained / "cmp3"]
    )
    assert code == 0
    metrics = dict(
        line.split("=", 1) for line in (trained / "cmp3" / "metrics.txt").read_text().splitlines()
    )
    assert metrics["attenuated"] == "true"


@pytest.mark.parametrize("model, dataset", [("model3", "demo.csv"), ("model", "three.csv")],
                         ids=["3-joint-model", "2-joint-model"])
def test_compare_joint_count_mismatch_is_exit_2(trained, capsys, model, dataset):
    (trained / "three.mov").write_text(
        "movement n=3 gamma=3 rate=1\nt=0 0 0.3 0.1\nt=0.5 0.8 -0.4 0\nt=1 0.1 0.2 -0.2\n")
    (trained / "short.txt").write_text("phase epochs=5 lr=0.001\n")
    assert run(["gen", "--movement", trained / "three.mov", "--out", trained / "three.csv"]) == 0
    assert run(["train", "--dataset", trained / "three.csv", "--schedule", trained / "short.txt",
                "--out", trained / "model3"]) == 0
    capsys.readouterr()
    code = run(["compare", "--model", trained / model, "--dataset", trained / dataset,
                "--out", trained / "cmp"])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "joints" in err
    assert not (trained / "cmp" / "rollout.csv").exists()
    assert not (trained / "cmp").exists()


def test_ingest_uniform_log(workdir, capsys):
    times = np.arange(30) / 50.0
    lines = ["time,hip,knee"]
    for t in times:
        lines.append(f"{float(t)!r},{float(np.sin(t))!r},{float(np.cos(t))!r}")
    (workdir / "log.csv").write_text("\n".join(lines) + "\n")
    code = run(
        ["ingest", "--log", workdir / "log.csv", "--rate", 50,
         "--periodic", "--out", workdir / "walk.csv"]
    )
    assert code == 0
    assert "periodic" in capsys.readouterr().out
    header = (workdir / "walk.csv").read_text().splitlines()[0]
    assert header == "time,hip,knee,end_flag"
    # a periodic motion has no end to hold, so a tail is refused, not dropped
    code = run(["ingest", "--log", workdir / "log.csv", "--periodic", "--tail", 3,
                "--out", workdir / "tailed.csv"])
    assert code == 2
    assert "periodic log has no end to hold, so no tail; got tail 3" in capsys.readouterr().err
    assert not (workdir / "tailed.csv").exists()


def test_ingest_gap_error_is_exit_2(workdir, capsys):
    (workdir / "gap.csv").write_text(
        "time,hip\n0.0,0.0\n0.02,0.1\n0.1,0.2\n0.12,0.3\n"
    )
    code = run(["ingest", "--log", workdir / "gap.csv", "--rate", 50, "--out", workdir / "g.csv"])
    assert code == 2
    assert "missing samples" in capsys.readouterr().err


DATASET_HEAD = "time,j1,end_flag\n0,0,0\n"
LOG_HEAD = "time,hip\n0,0\n"


@pytest.mark.parametrize(
    "kind, text, message",
    [
        pytest.param("dataset", DATASET_HEAD + "0.02,nan,0\n0.04,0.1,1\n",
                     "line 3: j1 is not finite", id="dataset-nan"),
        pytest.param("dataset", DATASET_HEAD + "0.02,1e400,0\n0.04,0.1,1\n",
                     "line 3: j1 is not finite", id="dataset-1e400"),
        pytest.param("dataset", DATASET_HEAD + "0.02,0,0\nnan,0.1,1\n",
                     "line 4: time is not finite", id="dataset-nan-time"),
        pytest.param("dataset", DATASET_HEAD + "0,0.5,0\n0,0.1,1\n",
                     "times must increase", id="dataset-equal-times"),
        pytest.param("dataset", "time,j1,end_flag\n0.04,0,0\n0.02,0.5,0\n0,0.1,1\n",
                     "times must increase", id="dataset-decreasing-times"),
        pytest.param("dataset", DATASET_HEAD + "1e-310,0.1,1\n",
                     "too short for a sample rate", id="dataset-tiny-time-span"),
        pytest.param("log", LOG_HEAD + "0.02,inf\n0.04,0.1\n",
                     "line 3: hip is not finite", id="log-inf"),
        pytest.param("log", LOG_HEAD + "0.02,nan\n0.04,0.1\n",
                     "line 3: hip is not finite", id="log-nan"),
        pytest.param("log", LOG_HEAD + "0.02,1e400\n0.04,0.1\n",
                     "line 3: hip is not finite", id="log-1e400"),
        pytest.param("dataset", DATASET_HEAD + "0.02,1e308,0\n0.04,0.1,1\n",
                     "a dataset value reaches 1e+308, beyond the 1e+06 rad bound",
                     id="dataset-1e308"),
        pytest.param("log", LOG_HEAD + "0.02,1e308\n0.04,0.1\n",
                     "a dataset value reaches 1e+308, beyond the 1e+06 rad bound", id="log-1e308"),
        pytest.param("dataset", DATASET_HEAD, "dataset needs at least 2 samples",
                     id="dataset-one-row"),
        # 0.0009 s lies 0.045 samples from t=0 at 50 Hz: on the grid, in the same slot
        pytest.param("log", LOG_HEAD + "0.0009,0.1\n",
                     "two samples share the grid slot at t=0.0009", id="log-shared-slot"),
    ],
)
def test_bad_table_is_exit_2(workdir, capsys, kind, text, message):
    path = workdir / "bad.csv"
    path.write_text(text)
    if kind == "dataset":
        args = ["train", "--dataset", path, "--schedule", "desk", "--out", workdir / "m"]
    else:
        args = ["ingest", "--log", path, "--out", workdir / "out.csv"]
    with np.errstate(all="raise"):
        code = run(args)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_gen_tail_zero_flags_off_grid_end(workdir):
    # duration 1.013 s falls between the 50 Hz samples at 1.00 s and 1.02 s
    (workdir / "odd.mov").write_text("movement n=1 gamma=2 rate=1\nt=0 0\nt=1.013 0.4\n")
    out = workdir / "odd.csv"
    assert run(["gen", "--movement", workdir / "odd.mov", "--tail", 0, "--out", out]) == 0
    ds = load_dataset(out)
    assert ds.times[-1] >= 1.013 > ds.times[-2]
    assert ds.flags[-1] == 1.0 and ds.flags[-2] == 0.0
    assert not ds.periodic


def test_rollout_keeps_the_dataset_rate(workdir, capsys):
    # 11 rows at 61.7 Hz give the estimate (rows - 1) / span = 61.699999999999996
    (workdir / "short.mov").write_text("movement n=1 gamma=2 rate=1\nt=0 0\nt=0.1 0.3\n")
    (workdir / "quick.txt").write_text("phase epochs=5 lr=0.001\n")
    assert run(["gen", "--movement", workdir / "short.mov", "--rate", 61.7, "--tail", 4,
                "--out", workdir / "short.csv"]) == 0
    assert run(["train", "--dataset", workdir / "short.csv", "--schedule", workdir / "quick.txt",
                "--out", workdir / "m"]) == 0
    assert "rate=61.700000000000003\n" in (workdir / "m" / "model.meta").read_text()
    capsys.readouterr()
    assert run(["rollout", "--model", workdir / "m", "--out", workdir / "r.csv"]) == 0
    assert " at 61.700000000000003 Hz, " in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


NOT_POSITIVE = ("0", "-1", "nan", "inf")


@pytest.mark.parametrize(
    "rate, message",
    [pytest.param(rate, f"rate must be positive and finite, got {float(rate)}",
                  id=f"{rate}-rate must be positive and finite") for rate in NOT_POSITIVE]
    + [("1e308", "samples; allowed are 1 to 1000000")],
)
def test_ingest_bad_rate_is_exit_2(workdir, capsys, rate, message):
    (workdir / "two.csv").write_text("time,hip\n0,0\n0.02,0.1\n")
    with np.errstate(all="raise"):
        code = run(["ingest", "--log", workdir / "two.csv", "--rate", rate,
                    "--out", workdir / "out.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("value", NOT_POSITIVE)
@pytest.mark.parametrize("option", ["--kp", "--max-speed", "--tick-rate"])
def test_plant_option_must_be_positive_and_finite(workdir, capsys, option, value):
    code = run(["simulate", "--movement", workdir / "demo.mov", option, value,
                "--out", workdir / "sim.csv"])
    assert code == 2
    what = option[2:].replace("-", " ")
    assert capsys.readouterr().err == (
        f"error: {what} must be positive and finite, got {float(value)}\n")
    assert not (workdir / "sim.csv").exists()


@pytest.mark.parametrize(
    "options, message",
    [
        pytest.param(["--seed", -1], "seed must be non-negative, got -1", id="negative-seed"),
        pytest.param(["--schedule", "{dir}/huge.txt"], "a schedule holds at most 1000000",
                     id="1e20-epochs"),
        # refused from the layer sizes alone, before any weight is allocated
        pytest.param(["--arch", "1:100000000:3"],
                     "500000003 parameters; a network holds at most 10000000",
                     id="1e8-wide-arch"),
        # checked even where no hidden layer uses it
        pytest.param(["--arch", "1:3", "--alpha", "nan"], "alpha must be positive and finite",
                     id="nan-alpha-no-hidden-layer"),
        # the one input is the normalized time
        pytest.param(["--arch", "2:5:3"], "network takes 2 inputs; it needs 1, the normalized time",
                     id="two-inputs"),
        # the model owns the output width, the network the layer count
        pytest.param(["--arch", "1:8:5"], "network output size 5 must equal joints + end flag = 3",
                     id="output-width"),
        pytest.param(["--arch", "23"], "a network needs at least one layer, so two sizes: [23]",
                     id="one-size-23"),
        pytest.param(["--arch", "5"], "a network needs at least one layer, so two sizes: [5]",
                     id="one-size-5"),
        pytest.param(["--arch", "abc"], "arch must look like 1:75:50:23, got 'abc'", id="arch-abc"),
        pytest.param(["--schedule", "nosuch"],
                     "unknown schedule 'nosuch': expected one of ['desk', 'reference'] "
                     "or a file", id="unknown-schedule"),
    ]
    + [pytest.param(["--schedule", f"{{dir}}/lr{lr}.txt"],
                    f"phase 1: learning rate must be positive and finite, got {float(lr)}",
                    id=f"lr-{lr}") for lr in NOT_POSITIVE],
)
def test_unusable_train_config_is_exit_2(workdir, capsys, options, message):
    (workdir / "huge.txt").write_text("phase epochs=100000000000000000000 lr=0.001\n")
    for lr in NOT_POSITIVE:
        (workdir / f"lr{lr}.txt").write_text(f"phase epochs=10 lr=0.001\nphase epochs=5 lr={lr}\n")
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    code = run(["train", "--dataset", workdir / "demo.csv",
                *[str(o).format(dir=workdir) for o in options], "--out", workdir / "model"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (workdir / "model").exists()


def test_training_batch_too_wide_is_exit_2(workdir, capsys):
    # 9.75 M parameters, under the parameter bound, but 61 rows x 390023
    # activations per row; refused from the sizes alone, before any allocation
    keyframes = "".join(f"t={t} " + " ".join([str(v)] * 22) + "\n"
                        for t, v in ((0, 0), (0.5, 0.4), (1, 0.1)))
    (workdir / "wide.mov").write_text("movement n=22 gamma=3 rate=1\n" + keyframes)
    assert run(["gen", "--movement", workdir / "wide.mov", "--out", workdir / "wide.csv"]) == 0
    capsys.readouterr()
    code = run(["train", "--dataset", workdir / "wide.csv", "--arch", "1:390000:23",
                "--out", workdir / "model"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: 61 rows x 390023 activations per row = 23791403; "
                   "a training batch holds at most 20000000\n")
    assert not (workdir / "model").exists()


# --- many calls in one process ----------------------------------------------


def record_args(monkeypatch, command):
    """Make cmd_<command> record its parsed arguments before it runs."""
    seen = []
    real = getattr(motionmimic.cli, f"cmd_{command}")
    monkeypatch.setattr(motionmimic.cli, f"cmd_{command}", lambda args: seen.append(args) or real(args))
    return seen


def test_gen_options_do_not_carry_to_the_next_call(workdir, monkeypatch):
    seen = record_args(monkeypatch, "gen")
    mov, out = workdir / "demo.mov", workdir / "demo.csv"
    assert run(["gen", "--movement", mov, "--rate", 20, "--tail", 3, "--out", out]) == 0
    assert run(["gen", "--movement", mov, "--out", out]) == 0
    assert [(a.rate, a.tail) for a in seen] == [(20.0, 3), (50.0, DEFAULT_TAIL)]


def test_simulate_source_group_is_checked_afresh_on_each_call(trained, monkeypatch):
    seen = record_args(monkeypatch, "simulate")
    assert run(["simulate", "--movement", trained / "demo.mov", "--out", trained / "a.csv"]) == 0
    assert run(["simulate", "--model", trained / "model", "--out", trained / "b.csv"]) == 0
    assert [(a.movement is None, a.model is None) for a in seen] == [(False, True), (True, False)]


def test_a_refused_call_leaves_the_next_call_working(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--movement", str(workdir / "demo.mov")])  # no --out
    assert exc.value.code == 2
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0


def test_help_is_the_same_on_the_first_call_and_a_later_one(workdir, capsys):
    def help_text(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    build_parser.cache_clear()
    first = [help_text(["--help"]), help_text(["simulate", "--help"])]
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    capsys.readouterr()
    assert [help_text(["--help"]), help_text(["simulate", "--help"])] == first
    assert build_parser() is build_parser()


@pytest.mark.parametrize("order", [("", "info"), ("info", "")], ids=["plain-info", "info-plain"])
def test_mimic_log_is_read_on_each_call(workdir, monkeypatch, order):
    root_handlers = list(logging.getLogger().handlers)
    wrote = f"INFO motionmimic: wrote {workdir / 'demo.csv'}\n"
    for level in order + order:
        monkeypatch.setenv("MIMIC_LOG", level)
        err = io.StringIO()  # a new stderr per call: the log line must follow it
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert run(["gen", "--movement", workdir / "demo.mov",
                        "--out", workdir / "demo.csv"]) == 0
        assert err.getvalue() == (wrote if level else "")
    assert logging.getLogger().handlers == root_handlers


def test_cold_entry_point_matches_an_in_process_call(workdir):
    src = Path(motionmimic.cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("MIMIC_LOG", None)

    def cold(*argv, **extra):
        return subprocess.run([sys.executable, "-m", "motionmimic.cli", *map(str, argv)],
                              env={**env, **extra}, capture_output=True, text=True, timeout=60)

    mov = workdir / "demo.mov"
    assert run(["gen", "--movement", mov, "--out", workdir / "warm.csv"]) == 0
    done = cold("gen", "--movement", mov, "--out", workdir / "cold.csv")
    assert (done.returncode, done.stderr) == (0, "")
    assert (workdir / "cold.csv").read_bytes() == (workdir / "warm.csv").read_bytes()

    done = cold("gen", "--movement", workdir / "bad.mov", "--out", workdir / "x.csv")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr
    assert not (workdir / "x.csv").exists()

    done = cold("gen", "--movement", mov, "--out", workdir / "info.csv", MIMIC_LOG="info")
    assert (done.returncode, done.stderr) == (0, f"INFO motionmimic: wrote {workdir / 'info.csv'}\n")
