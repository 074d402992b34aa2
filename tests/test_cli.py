import contextlib
import hashlib
import io
import logging
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motionmimic.cli
import motionmimic.motion
from motionmimic.cli import build_parser, main
from motionmimic.motion import grid_size, load_movement, playback_duration
from motionmimic.network import initialize, save_weights
from motionmimic.plant import PlantConfig
from motionmimic.textio import fmt
from motionmimic.trainer import (DEFAULT_TAIL, load_dataset, load_joint_log, load_model,
                                 sample_movement)

from oracles import (blas_kernel, expression_adam_step, flat_gradient, kernel_digests,
                     unfused_forward_backward)

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
    assert lines[:2] == ["time,j1,j2,end_flag", "# rate=50"]
    assert len(lines) == 63


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


@pytest.mark.parametrize("command, source", [("gen", "--movement"), ("ingest", "--log")])
def test_negative_tail_is_exit_2(workdir, capsys, command, source):
    (workdir / "log.csv").write_text("time,hip\n0,0\n0.02,0.1\n")
    inputs = {"gen": workdir / "demo.mov", "ingest": workdir / "log.csv"}
    code = run([command, source, inputs[command], "--tail", -1, "--out", workdir / "x.csv"])
    assert code == 2
    assert capsys.readouterr().err == "error: tail must be 0 to 1000000 samples, got -1\n"
    assert not (workdir / "x.csv").exists()


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
    + [
        pytest.param("movement n=1 gamma=3 rate=1\nt=0 0\nt=1 0.5\n",
                     "line 3: header declares gamma=3 but found 2 steps", id="gamma-3-of-2"),
        pytest.param("movement n=1 gamma=1 rate=1\nt=0 0\n",
                     "error: invalid movement: step-count: movement needs at least 2 keyframe "
                     "steps\n", id="one-step"),
        pytest.param("movement n=1 gamma=2 rate=1\nt=0 0\nt=nan 0.5\n",
                     "finite-times: step times must be finite", id="nan-time"),
        pytest.param("movement n=1 gamma=2 rate=1\nt=0 0\nt=1 nan\n",
                     "finite-angles: joint angles must be finite", id="nan-angle"),
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


@pytest.mark.parametrize("process", ["in-process", "fresh"])
@pytest.mark.parametrize("tail", [DEFAULT_TAIL, 0])
def test_gen_at_a_rate_whose_times_overflow_is_one_error_line(workdir, capsys, tail, process):
    # one sample fits on the grid; the times of the rows after it, i / 1e-320, overflow
    argv = ["gen", "--movement", workdir / "demo.mov", "--rate", "1e-320", "--tail", tail,
            "--out", workdir / "x.csv"]
    if process == "fresh":  # numpy's default warning filter, which prints a warning once
        src = Path(motionmimic.cli.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-m", "motionmimic.cli", *map(str, argv)],
                              env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                              text=True, timeout=60)
        code, err = done.returncode, done.stderr
    else:
        code, err = run(argv), capsys.readouterr().err
    assert (code, err) == (2, "error: dataset times must be finite\n")
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
# The dataset's is of the same file with its '# rate=50' line 2 inserted.
GUARD_DIGESTS = {
    "dataset.csv": "18c8bc7380a07c6865c35cd54a9df580408b8c28b7ee4282ba7cbe7f6ac0fcad",
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
# stored once.  The model.meta digests are of the same files without their name=
# and n= lines, the datasets' of the same files with their '# rate=50' line 2.
MODEL_GUARD_DIGESTS = {
    "fin.csv": "dd4054a0f5ace6f5912ca492332dd5dacf3fbb9aa8e2e654c88923dc727b6140",
    "per.csv": "030ab99cf1ffd5b56c6bc29c51f0ff28b9aa21b1d00d3456b033d06c71ddf542",
    "m37/model.meta": "8cc3f7434787385a67f3cea024bd770c5f97be0d06b612043338a1aecbde2f8b",
    "mper/model.meta": "664d6cbb749549940d0a3141937f8b9248f3cecd7e75060f86a6b4b78b84530e",
}
# the files that hold trained numbers, per OpenBLAS kernel, recorded once every
# layer had become one product over [a, 1] with its bias row in the matrix: each
# kernel's in a child process with OPENBLAS_CORETYPE set to it (Prescott runs
# Katmai).  Sandybridge's came out as they were before that change.
TRAINED_GUARD_DIGESTS = {
    "SkylakeX": {
        "m37/weights.txt": "0e088cb75619f40e5d3d96f87116e551e40201c20ece9f9e96def19716b56bce",
        "m37/training_log.csv": "74abbd1bf751fd01b945d726308c8fcf9a59269404429a488d9bfe056a95c969",
        "mper/weights.txt": "a867578d6e13110295bcefb56cef57bb3a13dca52a9db970ce3a24ff5224e185",
        "mper/training_log.csv": "c3d9a1b3cf0bf615c5985243bade341a46095d8d6416e0555ca0faaa50e2e1b7",
        "m3/weights.txt": "e00a0a7e6f9ece0b6446786544cf9c201f82eabee7453081353a081776e95c23",
        "m3/training_log.csv": "646d4e102aa0a1adc6f83845c3e6d7af9724c546617a6205bbc7436a29abb8dc",
        "ro37.csv": "dc1984bf9c3985a6f2dabc88f41386cdc24873e77be97f0e26fdc29279236f6a",
        "roper.csv": "855ff013a2b70572b999be6736f22a6d7bcc6e5fe0117902ca5c56566eebe860",
        "sim.csv": "8d9a5f2205bffdcaa590f70d4cf4479e2c547dd22d38aadde4329c0f3b6817b4",
        "cmp/metrics.txt": "10276c4db82a45b37663a12d178d56d410e30e69631c1a1e1fad3def4207ddaf",
        "cmp/rollout.csv": "dc1984bf9c3985a6f2dabc88f41386cdc24873e77be97f0e26fdc29279236f6a",
        "cmp/tracking.csv": "8d9a5f2205bffdcaa590f70d4cf4479e2c547dd22d38aadde4329c0f3b6817b4",
        "cmp05/metrics.txt": "f0b9efa3fb7f0ddfb0bf38f47bc794f54d0230507f78f9ff08a2c931020e0f5f",
        "cmp05/rollout.csv": "dc1984bf9c3985a6f2dabc88f41386cdc24873e77be97f0e26fdc29279236f6a",
        "cmp05/tracking.csv": "93fecb15acb80009258b031b57ab9276a3a8002c9e887a0143975aaa1083a21d",
    },
    "Haswell": {
        "m37/weights.txt": "4afc849b5817463c4a26880690f6e265e11712415ab8def746611a755a22e115",
        "m37/training_log.csv": "e01864fdccdcd945ef6c9ccabfa231474c2e73dda984a50a28df110edc21313e",
        "mper/weights.txt": "a867578d6e13110295bcefb56cef57bb3a13dca52a9db970ce3a24ff5224e185",
        "mper/training_log.csv": "c3d9a1b3cf0bf615c5985243bade341a46095d8d6416e0555ca0faaa50e2e1b7",
        "m3/weights.txt": "f1c5e4110c9ff45d940091aa10e4548545e774cd261de092899c0854601a92c3",
        "m3/training_log.csv": "cff691a20a8a4f65288926c541276997f906592bc25f39e84a960315b369f335",
        "ro37.csv": "ffabb884dd7aed6c809fadc5c1237586720c6825c7cf0036f975e2ab31429381",
        "roper.csv": "855ff013a2b70572b999be6736f22a6d7bcc6e5fe0117902ca5c56566eebe860",
        "sim.csv": "15a99afb71b8dc168d49539a76be7e8c1c7ae1311ef5b6366f39d5da0e70dded",
        "cmp/metrics.txt": "26dca99acc2b2e87098e9b4a0c43b3d16f876c1b543909b484ddaaf3e58356b5",
        "cmp/rollout.csv": "ffabb884dd7aed6c809fadc5c1237586720c6825c7cf0036f975e2ab31429381",
        "cmp/tracking.csv": "15a99afb71b8dc168d49539a76be7e8c1c7ae1311ef5b6366f39d5da0e70dded",
        "cmp05/metrics.txt": "aa14d75a065e1bac82e4f49a2be32d912718322b1c60b8ca3c5d9b915ee92725",
        "cmp05/rollout.csv": "ffabb884dd7aed6c809fadc5c1237586720c6825c7cf0036f975e2ab31429381",
        "cmp05/tracking.csv": "083f8f93abdc96322223abfe4839a4064b8749571f9096f696aa1de47aa20179",
    },
    "Sandybridge": {
        "m37/weights.txt": "f4bb7fc0f2c0b0abf9ce6b629f7a53be55843f18e1b069264d2b9d615c46d23f",
        "m37/training_log.csv": "26b8872f086fb3290657d3cfccab7dc8cdd46e19a637d81ef10563a9cfee88ec",
        "mper/weights.txt": "ead60093357941cf7f9ade244e804c7037fc17387e35fb30b29dc6690da9abb3",
        "mper/training_log.csv": "bed7f8c48b6393a8d8eb2ec6a363eaed47837deb76b2953c77eb46db8d7a1709",
        "m3/weights.txt": "615f22d1a417e3db189c7c30c5c7a22ecae3444672b543392c8fae9b1bc108c3",
        "m3/training_log.csv": "6ee300109a8c90eff18f97a0d47ac89d33410ae7d64fad71830893b4e3c519cc",
        "ro37.csv": "7ebc2b827367e4843758af57460fd5b540b04f90690ef1483babf6cc1da1823e",
        "roper.csv": "0e2646b6d2ade76921d4e78c262d18447e17bf2da58e5cf9baafd86b77904396",
        "sim.csv": "24645583f74e38eec54d676d8f8acfd36ab456c6aec9557172eceee43ef7b53e",
        "cmp/metrics.txt": "50c342aebd9597142db9ec726510b72a112a2cf6337a5f6af6d560e4c2eed654",
        "cmp/rollout.csv": "7ebc2b827367e4843758af57460fd5b540b04f90690ef1483babf6cc1da1823e",
        "cmp/tracking.csv": "24645583f74e38eec54d676d8f8acfd36ab456c6aec9557172eceee43ef7b53e",
        "cmp05/metrics.txt": "64bd8df750bbc755a64f0eb96b2c81e0de5b59d1e8a04f26993536c14163a502",
        "cmp05/rollout.csv": "7ebc2b827367e4843758af57460fd5b540b04f90690ef1483babf6cc1da1823e",
        "cmp05/tracking.csv": "65a48dccb887416219079efa9408d67ee3d1607443323aa2f71647e4a52f1013",
    },
    "Nehalem": {
        "m37/weights.txt": "87caf16eea618c8840f01f313f54c3d31a701dd690c2c2f571680f9d7f5600e6",
        "m37/training_log.csv": "5d7b5bd03d4b7d33db88c7a1fb768b2fc217afd827fa50bf6557f01ca633e7ee",
        "mper/weights.txt": "2bb6050c4c35cb11c77ac9791c565cbe014df816167ed0dc7947a2630eb52753",
        "mper/training_log.csv": "e8ea16b29d9059119b283828a1f47401e7d309691e61ae74e5ace196813fc145",
        "m3/weights.txt": "7f0216d36090e2539a9d7ced7c635fb4d85e746092f61d1bdaa3bfd584e61fff",
        "m3/training_log.csv": "a0b81e4aee971da6cc1e3a31802ae784287c8ef61c47d052c1bdb003bf47efba",
        "ro37.csv": "3b523753d4a21a49b859a032a53203a5ee63de3923de45ab35b0014e8a524ebd",
        "roper.csv": "9a7624565b79ad3d4544c666868e6fc6c8ec850b4a448db5402319b99f73ddc0",
        "sim.csv": "ab5963d033e8a2089ee8ce777238b43583ec75055b1f9ee7cb601bb6d7846492",
        "cmp/metrics.txt": "d078c7ac526b0dc44c872319f2ed6bc133329ea7e02a83469921a758e0d08690",
        "cmp/rollout.csv": "3b523753d4a21a49b859a032a53203a5ee63de3923de45ab35b0014e8a524ebd",
        "cmp/tracking.csv": "ab5963d033e8a2089ee8ce777238b43583ec75055b1f9ee7cb601bb6d7846492",
        "cmp05/metrics.txt": "633bd46e08b0057ab3a398c923eef03dcd9bcdcfd3b662730f2dec28181c88a0",
        "cmp05/rollout.csv": "3b523753d4a21a49b859a032a53203a5ee63de3923de45ab35b0014e8a524ebd",
        "cmp05/tracking.csv": "5850ba0a03a30a2fef4a6f7df96d3f065d2ff62e8d9f25f1b53ffcacf9b1e5dc",
    },
    "Katmai": {
        "m37/weights.txt": "2daeac329e109b7caa729f6de9422336fcd6edc046e0af603ea8e4b956c9f000",
        "m37/training_log.csv": "f482cd60e4e44a93c231265eb09093e369751d8c6e9b3084f0119de0c1b27a95",
        "mper/weights.txt": "8655e3cf280c664665eab2c3303872d5abedece7a6ce0547020acab136a035a4",
        "mper/training_log.csv": "1571ebc2c5695c37d09dd5b0ef69a8503e08e2cd19e75eb82bebf36bcdb7e59c",
        "m3/weights.txt": "d9d28467f7407a85c496bd8062b000de084b22f7bcba1ba6a67a3fa0398bc937",
        "m3/training_log.csv": "e40235e4646c7d9054054fe7eaa9a7e9111d796a4e535fcc7249158bac672945",
        "ro37.csv": "ef3ea6b212ef704618acedb3feb48ecfc16cb4074e1bbe8f67fb8d5f6c7453cd",
        "roper.csv": "c03c926763bcffc65a371bacdd252355c03c6af1d3569a8589939ee38007f725",
        "sim.csv": "7cb57ab15169d31d4ef504bff8e3a3a81754c5922cdcac2a2650333fa17162d5",
        "cmp/metrics.txt": "28a77067809acaad2db5fb88cbb0a28d1f8a2a121acd9a7b8dfb38905ecb50b1",
        "cmp/rollout.csv": "ef3ea6b212ef704618acedb3feb48ecfc16cb4074e1bbe8f67fb8d5f6c7453cd",
        "cmp/tracking.csv": "7cb57ab15169d31d4ef504bff8e3a3a81754c5922cdcac2a2650333fa17162d5",
        "cmp05/metrics.txt": "9e57ac213ad609cbcf63632b263c59f84ac349e05482302f8b052b3d5ed5ba05",
        "cmp05/rollout.csv": "ef3ea6b212ef704618acedb3feb48ecfc16cb4074e1bbe8f67fb8d5f6c7453cd",
        "cmp05/tracking.csv": "63c51e4889a7b1daf9addc0141f3ed9f8812ea0c6f8d1c5dfaa0f580d6ef9833",
    },
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
    for name, digest in {**MODEL_GUARD_DIGESTS, **kernel_digests(TRAINED_GUARD_DIGESTS)}.items():
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


@pytest.mark.parametrize("stem", ["a b ", os.fsdecode(b"\xff"), "x\x1cy", "x\x85y"],
                         ids=["spaces", "not-utf8", "file-separator", "next-line"])
def test_no_dataset_file_stem_reaches_model_meta(workdir, capsysbinary, stem):
    dataset = workdir / f"{stem}.csv"
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", dataset]) == 0
    assert run(["train", "--dataset", dataset, "--schedule", workdir / "sched.txt",
                "--out", workdir / "model"]) == 0
    meta = (workdir / "model" / "model.meta").read_bytes()
    assert meta.startswith(b"duration=") and b"name=" not in meta
    assert run(["eval", "--model", workdir / "model", "--dataset", dataset]) == 0


def test_bundle_with_the_old_name_and_joint_count_lines_is_exit_2(trained, capsys):
    meta = trained / "model" / "model.meta"
    meta.write_text("name=demo\nn=2\n" + meta.read_text())
    capsys.readouterr()
    assert run(["rollout", "--model", trained / "model", "--out", trained / "ro.csv"]) == 2
    assert capsys.readouterr().err == (
        "error: line 1: expected 'duration=<float>', got 'name=demo'\n")
    assert not (trained / "ro.csv").exists()


@pytest.mark.parametrize("command", ["gen", "train", "rollout", "eval"])
def test_printed_byte_that_is_not_utf8_is_written_as_itself(trained, monkeypatch, command):
    data = (trained / "demo.csv").read_bytes()
    (trained / "knee.csv").write_bytes(data.replace(b",j2,", b",kn\xffee,", 1))
    out = trained / os.fsdecode(b"o\xff.csv")
    args = {
        "gen": ["gen", "--movement", trained / "demo.mov", "--out", out],
        "train": ["train", "--dataset", trained / "demo.csv", "--schedule", trained / "sched.txt",
                  "--out", out],
        "rollout": ["rollout", "--model", trained / "model", "--out", out],
        "eval": ["eval", "--model", trained / "model", "--dataset", trained / "knee.csv"],
    }[command]
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # strict, as a UTF-8 locale's
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(args) == 0
    stdout.flush()
    assert b"\xff" in stdout.buffer.getvalue()


def test_log_that_ends_before_time_zero_trains_and_replays(workdir, monkeypatch, capsys):
    t = -5.0 + np.arange(40) / 50.0  # ends at -4.22 s
    rows = [f"{float(v)!r},{float(np.sin(3 * v))!r}" for v in t]
    (workdir / "neg.log").write_text("\n".join(["time,hip", *rows]) + "\n")
    monkeypatch.chdir(workdir)
    for periodic in ("", " --periodic"):
        for command in (f"ingest --log neg.log{periodic} --out neg.csv",
                        "train --dataset neg.csv --schedule sched.txt --out m",
                        "rollout --model m --out ro.csv",
                        "simulate --model m --out sim.csv"):
            assert main(command.split()) == 0, command
        for out in ("ro.csv", "sim.csv"):
            assert float((workdir / out).read_text().splitlines()[1].split(",")[0]) == -5.0


@pytest.mark.parametrize("start", [1e8, 1.7e9])
def test_log_recorded_on_a_wall_clock_replays_as_the_same_log_from_zero(workdir, start):
    # floats near 1.7e9 lie 2.4e-7 s apart, so its grid times miss start + k / 50 by
    # more than 1e-9 s; the results differ from those at 0 by about that much, not bit for bit
    (workdir / "quick.txt").write_text("phase epochs=100 lr=0.001\n")
    results = []
    for t0 in (0.0, start):
        d = workdir / repr(t0)
        d.mkdir()
        (d / "log.csv").write_text("time,hip,knee\n" + "".join(
            f"{t0 + k / 50!r},{float(np.sin(3 * k / 50))!r},{float(np.cos(2 * k / 50))!r}\n"
            for k in range(40)))
        for command in (f"ingest --log {d}/log.csv --tail 5 --out {d}/ds.csv",
                        f"train --dataset {d}/ds.csv --schedule {workdir}/quick.txt --out {d}/m",
                        f"eval --model {d}/m --dataset {d}/ds.csv",
                        f"rollout --model {d}/m --out {d}/ro.csv",
                        f"simulate --model {d}/m --out {d}/sim.csv",
                        f"compare --model {d}/m --dataset {d}/ds.csv --out {d}/cmp"):
            assert main(command.split()) == 0, command
        metrics = dict(line.split("=") for line in (d / "cmp" / "metrics.txt").read_text().split())
        results.append(([load_joint_log(d / name)[:2] for name in ("ro.csv", "sim.csv")], metrics))
    (tables, metrics), (shifted_tables, shifted_metrics) = results
    for (times, values), (shifted_times, shifted_values) in zip(tables, shifted_tables):
        np.testing.assert_allclose(shifted_times - start, times, rtol=0, atol=1e-6)
        np.testing.assert_allclose(shifted_values, values, rtol=0, atol=1e-5)
    for key in ("end_time_error", "attenuated"):
        assert shifted_metrics[key] == metrics[key]
    for key in ("mse", "mae", "tracking_rms"):
        assert float(shifted_metrics[key]) == pytest.approx(float(metrics[key]), rel=1e-5)


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


def test_ingest_writes_a_header_byte_that_is_not_utf8_back_unchanged(workdir, capfd):
    rows = b"0,0.1,0.2\n0.02,0.3,0.4\n0.04,0.5,0.6\n"
    (workdir / "odd.log").write_bytes(b"time,h\xffp,knee\n" + rows)
    (workdir / "plain.log").write_bytes(b"time,hip,knee\n" + rows)
    for name in ("odd", "plain"):
        assert run(["ingest", "--log", workdir / f"{name}.log", "--out",
                    workdir / f"{name}.csv"]) == 0
    head, body = (workdir / "odd.csv").read_bytes().split(b"\n", 1)
    assert head == b"time,h\xffp,knee,end_flag"
    assert body == (workdir / "plain.csv").read_bytes().split(b"\n", 1)[1]


@pytest.mark.parametrize("command, text", [
    (["ingest", "--log"], "time,a,b\r\n0,0.1,0.2\r\n0.02,0.3,0.4\r\n0.04,0.5,0.6\r\n"),
    (["gen", "--movement"], MOVEMENT),
], ids=["ingest", "gen"])
def test_a_leading_byte_order_mark_is_dropped(workdir, capsys, command, text):
    """As spreadsheet exports start; a mark after the first is refused as any bad character."""
    mark = "\ufeff".encode()
    for name, prefix in [("plain", b""), ("marked", mark)]:
        (workdir / f"{name}.in").write_bytes(prefix + text.encode())
        assert run([*command, workdir / f"{name}.in", "--out", workdir / f"{name}.csv"]) == 0
    assert (workdir / "marked.csv").read_bytes() == (workdir / "plain.csv").read_bytes()
    capsys.readouterr()
    (workdir / "twice.in").write_bytes(mark * 2 + text.encode())
    assert run([*command, workdir / "twice.in", "--out", workdir / "twice.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: expected ")
    assert not (workdir / "twice.csv").exists()


def test_ingest_of_a_crlf_log_split_between_its_chunks_writes_what_lf_does(workdir):
    """The reader's first chunk edge falls after a '\\r\\n', inside it and before it."""
    rng = np.random.default_rng(8)
    rows = [",".join(map(repr, [i / 50.0, *rng.uniform(-1, 1, 22).tolist()])) for i in range(300)]
    body = "".join(row + "\r\n" for row in rows)
    head = "time," + ",".join(f"j{i}" for i in range(1, 23)) + "\r\n"
    (workdir / "lf.log").write_text(head.replace("\r", "") + "".join(row + "\n" for row in rows))
    assert run(["ingest", "--log", workdir / "lf.log", "--out", workdir / "lf.csv"]) == 0
    edge = io.DEFAULT_BUFFER_SIZE  # bytes the text reader decodes at a time
    ends = [len(head) + 2 + i for i, c in enumerate(body) if c == "\r"]  # after an empty line
    split = edge - 1 - max(e for e in ends if e < edge - 2)  # the pad that splits a '\r\n'
    for shift in (-1, 0, 1):
        data = (head + " " * (split + shift) + "\r\n" + body).encode()
        assert data[edge - 1 + shift :][:2] == b"\r\n"
        (workdir / "crlf.log").write_bytes(data)
        assert run(["ingest", "--log", workdir / "crlf.log", "--out", workdir / "crlf.csv"]) == 0
        assert (workdir / "crlf.csv").read_bytes() == (workdir / "lf.csv").read_bytes()


# every kind of input file with a byte that is not UTF-8 where a number belongs:
# the file's bytes, or (old, new) bytes to swap in the trained bundle's file
@pytest.mark.parametrize(
    "name, content, command, message",
    [
        pytest.param("bad.csv", b"time,j1,end_flag\n# rate=50\n0,\xff,0\n0.02,0,1\n",
                     ["train", "--dataset", "{dir}/bad.csv", "--out", "{dir}/m2"],
                     "line 3: j1 is not a number", id="dataset"),
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
        pytest.param("model/model.meta", (b"duration=1\n", b"duration=\xff\n"),
                     ["eval", "--model", "{dir}/model", "--dataset", "{dir}/demo.csv"],
                     "line 1: duration is not a number", id="model-meta"),
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


# one small valid file of each kind the CLI reads, and a command that reads it
READ_KINDS = {
    "dataset": ("d.csv", "time,j1,j2,end_flag\n# rate=50\n0,0.1,0.2,0\n0.02,0.3,0.4,1\n",
                ["train", "--dataset", "{dir}/d.csv", "--schedule", "{dir}/s.txt",
                 "--arch", "1:4:3", "--out", "{dir}/m2"]),
    "joint-log": ("l.csv", "time,hip\n0,0.1\n0.02,0.2\n0.04,0.3\n",
                  ["ingest", "--log", "{dir}/l.csv", "--out", "{dir}/o.csv"]),
    "movement": ("m.mov", MOVEMENT, ["gen", "--movement", "{dir}/m.mov", "--out", "{dir}/o.csv"]),
    "schedule": ("s.txt", "phase epochs=2 lr=0.001\nphase epochs=1 lr=0.01\nreset_on_phase=true\n",
                 ["train", "--dataset", "{dir}/d.csv", "--schedule", "{dir}/s.txt",
                  "--arch", "1:4:3", "--out", "{dir}/m2"]),
    "weights": ("model/weights.txt", None,
                ["rollout", "--model", "{dir}/model", "--out", "{dir}/o.csv"]),
    "model-meta": ("model/model.meta",
                   "duration=1\nrate=50\ntime_offset=0\ntime_scale=1\nperiodic=false\n",
                   ["rollout", "--model", "{dir}/model", "--out", "{dir}/o.csv"]),
}


@pytest.mark.parametrize("kind", READ_KINDS)
def test_records_split_only_by_a_former_line_break_are_exit_2(tmp_path, capsys, kind):
    """A line ends at '\\n', '\\r\\n' or '\\r' alone: records split by '\\x0c' and the other
    characters str.splitlines breaks at are one line, which no reader takes."""
    (tmp_path / "model").mkdir()
    save_weights(initialize([1, 4, 3], seed=0), tmp_path / "model" / "weights.txt")
    for name, text, _ in READ_KINDS.values():
        if text is not None:
            (tmp_path / name).write_text(text)
    name, text, command = READ_KINDS[kind]
    path = tmp_path / name
    text = text or path.read_text()
    args = [arg.format(dir=tmp_path) for arg in command]
    assert run(args) == 0
    for char in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        path.write_text(text.replace("\n", char))
        capsys.readouterr()
        assert run(args) == 2, repr(char)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_a_joint_name_holding_a_file_separator_round_trips(workdir, capsys):
    """'\\x1c' no longer ends a line, so a name may hold it from ingest to eval."""
    rows = [f"{i / 50},{float(np.sin(i / 10))!r},{float(np.cos(i / 10))!r}" for i in range(20)]
    (workdir / "log.csv").write_text("time,h\x1cip,knee\n" + "".join(r + "\n" for r in rows))
    assert run(["ingest", "--log", workdir / "log.csv", "--out", workdir / "d.csv"]) == 0
    assert (workdir / "d.csv").read_bytes().startswith(b"time,h\x1cip,knee,end_flag\n")
    assert load_dataset(workdir / "d.csv").joint_names == ["h\x1cip", "knee"]
    assert run(["train", "--dataset", workdir / "d.csv", "--schedule", workdir / "sched.txt",
                "--out", workdir / "m"]) == 0
    capsys.readouterr()
    assert run(["eval", "--model", workdir / "m", "--dataset", workdir / "d.csv"]) == 0
    assert "\nmae[h\x1cip]=" in capsys.readouterr().out


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


def three_phases(reset, lr2):
    """walk1500's three-phase schedule file, scaled down from 200/100/100 epochs."""
    return (f"phase epochs=20 lr=0.001\nphase epochs=10 lr={lr2}\n"
            f"phase epochs=10 lr=0.00025\nreset_on_phase={reset}\n")


# SHA-256 of training_log.csv for three phases over the demo dataset, per
# OpenBLAS kernel, each recorded in a child process with OPENBLAS_CORETYPE set
# to it (Prescott runs Katmai)
PHASE_LOG_DIGESTS = {
    "SkylakeX": {
        "true": "d7da8144a243e243adf0221d6a34d84fe77a384233341728dfa9034815bcff58",
        "false": "0f4336831f60938abdd5358a625478086d26b3c23b78988d6c7294329bef9d65",
    },
    "Haswell": {
        "true": "e5e0bb3a48879ef037e1448d893661b886457719f93428ab6dbb6b6a07f97610",
        "false": "e82032b14295f11e09cdabe12841dc8ae9d2dd07374b94ca295518cd71a9efe7",
    },
    "Sandybridge": {
        "true": "fbe7abc04651d70cf1af431845886b972e6663f666d6dd513bac1ec1caefe5dd",
        "false": "9ef6c797a33a4e29495476dc440211afc66c3450a602dfa93ab385faffa563a2",
    },
    "Nehalem": {
        "true": "51545795fec3a9c609db8cdb296f61f943bb6ef67f95527a3ef7e8d41106f562",
        "false": "a6a09707a6cdb97668269e7bd10073bfa89d66d34d1278b76800feaf03f8c645",
    },
    "Katmai": {
        "true": "7541b3dafec63a1988a40642bf54cbdbe310225b4aa895941050caff7da5f4d1",
        "false": "999bab0cf74e10132838a7be99343e012e4f0f36b268c377a8ae349457585b07",
    },
}


@pytest.mark.parametrize("reset", ["true", "false"])
def test_three_phase_training_log_is_bit_identical(workdir, reset):
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    (workdir / "p3.txt").write_text(three_phases(reset, "0.0005"))
    assert run(["train", "--dataset", workdir / "demo.csv", "--schedule", workdir / "p3.txt",
                "--out", workdir / "m"]) == 0
    digest = hashlib.sha256((workdir / "m" / "training_log.csv").read_bytes()).hexdigest()
    assert digest == kernel_digests(PHASE_LOG_DIGESTS)[reset]


def test_divergence_in_the_second_phase_logs_each_rows_phase_and_lr(workdir, capsys):
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    (workdir / "p3.txt").write_text(three_phases("true", "1e51"))
    assert run(["train", "--dataset", workdir / "demo.csv", "--schedule", workdir / "p3.txt",
                "--out", workdir / "m"]) == 3
    last = int(capsys.readouterr().err.rsplit("last finite epoch ", 1)[1])
    assert 20 <= last < 30
    rows = [line.split(",") for line in
            (workdir / "m" / "training_log.csv").read_text().splitlines()[1:]]
    assert len(rows) == last + 1
    for epoch, (number, phase, lr, _, _) in enumerate(rows):
        assert (int(number), int(phase), float(lr)) == ((epoch, 0, 0.001) if epoch < 20
                                                        else (epoch, 1, 1e51))


def test_gradient_that_overflows_is_exit_3_naming_its_tensor(workdir, capsys):
    # the loss of epoch 0 is finite, but its layer-0 weight gradient is not
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    (workdir / "two.txt").write_text("phase epochs=2 lr=0.001\n")
    capsys.readouterr()
    code = run(["train", "--dataset", workdir / "demo.csv", "--arch", "1:2:3",
                "--alpha", "6.080224261649427e+156", "--seed", 1,
                "--schedule", workdir / "two.txt", "--out", workdir / "m"])
    assert code == 3
    assert capsys.readouterr().err == ("error: non-finite gradient in layer0.weights; "
                                       "last finite epoch 0\n")
    log_lines = (workdir / "m" / "training_log.csv").read_text().splitlines()
    assert len(log_lines) == 2 and log_lines[1].startswith("0,0,")
    assert not (workdir / "m" / "weights.txt").exists()


def test_train_whose_model_overflows_is_exit_2_and_writes_nothing(workdir, capsys):
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    (workdir / "wild.txt").write_text("phase epochs=4 lr=1e10\n")
    capsys.readouterr()
    code = run(["train", "--dataset", workdir / "demo.csv", "--arch", "1:4:3",
                "--schedule", workdir / "wild.txt", "--out", workdir / "m"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: model output reaches ")
    assert len(captured.err.splitlines()) == 1
    assert not (workdir / "m").exists()


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
    [("duration", "nan"), ("duration", "-1"), ("rate", "nan"), ("rate", "0"),
     ("time_offset", "nan")],
)
def test_rollout_rejects_bad_bundle_metadata(trained, capsys, key, value):
    meta = trained / "model" / "model.meta"
    lines = meta.read_text().splitlines()
    meta.write_text("\n".join(f"{key}={value}" if ln.startswith(key + "=") else ln
                              for ln in lines) + "\n")
    code = run(["rollout", "--model", trained / "model", "--out", trained / "roll.csv"])
    assert code == 2
    err = capsys.readouterr().err
    rule = {"duration": "must be finite and not before",
            "time_offset": "normalization constants must be finite"}.get(
        key, "must be positive and finite")
    assert err.startswith("error: ") and rule in err
    assert len(err.splitlines()) == 1
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


# lines of the 1-75-50-3 net's weights.txt: 1 the header; 2, 79 and 131 the layer
# headers; 3-77 layer 0's weights, one a line, and 78 its biases
@pytest.mark.parametrize(
    "rows, new, message",
    [
        pytest.param(slice(78, 79), ["layer out=50 in=74 act=leakyrelu"],
                     "line 79: in=74 must equal the previous out= or input=, 75", id="in-chain"),
        pytest.param(slice(130, 131), ["layer out=3 in=50 act=leakyrelu"],
                     "line 131: layer 2 of 3 must be act=linear", id="last-act"),
        pytest.param(slice(1, 2), ["layer out=75 in=1 act=relu"],
                     "line 2: act must be leakyrelu or linear, got 'relu'", id="act-relu"),
        pytest.param(slice(1, 2), ["layer out=7.5 in=1 act=leakyrelu"],
                     "line 2: out is not an integer: '7.5'", id="fractional-out"),
        pytest.param(slice(2, 3), ["0.5 0.5"], "line 3: expected 1 weight values, found 2",
                     id="extra-weight"),
        pytest.param(slice(3, None), [], "line 4: missing weight values", id="cut-after-line-3"),
        pytest.param(slice(2, 3), ["nan"], "network parameters must be finite", id="nan-weight"),
    ],
)
def test_inconsistent_weights_file_is_exit_2(trained, capsys, rows, new, message):
    weights = trained / "model" / "weights.txt"
    lines = weights.read_text().splitlines()
    lines[rows] = new
    weights.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert run(["rollout", "--model", trained / "model", "--out", trained / "x.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (trained / "x.csv").exists()


def test_model_with_two_inputs_is_exit_2(trained, capsys):
    # a consistent weights file whose net takes 2 inputs, for the bundle's 2 joints
    save_weights(initialize([2, 4, 3], seed=0), trained / "model" / "weights.txt")
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


@pytest.mark.parametrize("tick_rate", [50.0, 37.0])
@pytest.mark.parametrize("name", ["demo.mov", "guard.mov"])
def test_simulate_movement_desires_the_sampled_grid(workdir, name, tick_rate):
    # demo.mov lasts 1 s, a whole number of ticks; guard.mov lasts 2.013 / 1.3 s,
    # 77.4 ticks at 50 Hz and 57.3 at 37 Hz, so its grid stops short of the end
    (workdir / "guard.mov").write_text(GUARD_MOVEMENT)
    out = workdir / "sim.csv"
    assert run(["simulate", "--movement", workdir / name, "--tick-rate", tick_rate,
                "--out", out]) == 0
    table = load_joint_log(out)[1]
    m = load_movement(workdir / name)
    count = grid_size(playback_duration(m), tick_rate)
    assert np.array_equal(table[:, 0::2], sample_movement(m, tick_rate, tail=0).joints[:count])


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


DATASET_HEAD = "time,j1,end_flag\n# rate=50\n0,0,0\n"
LOG_HEAD = "time,hip\n0,0\n"


@pytest.mark.parametrize(
    "kind, text, message",
    [
        pytest.param("dataset", DATASET_HEAD + "0.02,nan,0\n0.04,0.1,1\n",
                     "line 4: j1 is not finite", id="dataset-nan"),
        pytest.param("dataset", DATASET_HEAD + "0.02,1e400,0\n0.04,0.1,1\n",
                     "line 4: j1 is not finite", id="dataset-1e400"),
        pytest.param("dataset", DATASET_HEAD + "0.02,0,0\nnan,0.1,1\n",
                     "line 5: time is not finite", id="dataset-nan-time"),
        pytest.param("dataset", DATASET_HEAD + "0,0.5,0\n0,0.1,1\n",
                     "sample times must be uniform at 1/rate", id="dataset-equal-times"),
        pytest.param("dataset", "time,j1,end_flag\n# rate=50\n0.04,0,0\n0.02,0.5,0\n0,0.1,1\n",
                     "sample times must be uniform at 1/rate", id="dataset-decreasing-times"),
        pytest.param("dataset", DATASET_HEAD + "1e-310,0.1,1\n",
                     "sample times must be uniform at 1/rate", id="dataset-tiny-time-span"),
        # floats 16 s apart cannot hold a 50 Hz grid, whatever the times are
        pytest.param("dataset", "time,j1,end_flag\n# rate=50\n1e17,0,0\n1e17,0.1,1\n",
                     "sample times must be uniform at 1/rate", id="dataset-times-too-coarse"),
        # the times fit 50 Hz, not the rate the file states
        pytest.param("dataset", "time,j1,end_flag\n# rate=40\n0,0,0\n0.02,0.1,1\n",
                     "sample times must be uniform at 1/rate", id="dataset-off-its-rate"),
        pytest.param("dataset", "time,j1,end_flag\n0,0,0\n0.02,0.1,1\n",
                     "line 2: expected '# rate=<float>'", id="dataset-without-rate-line"),
        pytest.param("dataset", "time,j1,end_flag\n", "line 2: expected '# rate=<float>'",
                     id="dataset-header-alone"),
        # the header is read first, so its line is named even when the rate line is missing
        pytest.param("dataset", "time,j1\n0,0\n0.02,0.1\n",
                     "line 1: expected header 'time,<joint names...>,end_flag'",
                     id="dataset-wrong-header"),
        pytest.param("dataset", "time,j1,end_flag\n# rate=fifty\n0,0,0\n0.02,0.1,1\n",
                     "line 2: rate is not a number: 'fifty'", id="dataset-rate-not-a-number"),
    ]
    + [pytest.param("dataset", f"time,j1,end_flag\n# rate={rate}\n0,0,0\n0.02,0.1,1\n",
                    f"rate must be positive and finite, got {float(rate)}",
                    id=f"dataset-rate-{rate}") for rate in ("0", "-1", "nan", "inf")]
    + [
        pytest.param("dataset", DATASET_HEAD + "0.02,0.1,2\n", "end flag must be 0 or 1",
                     id="dataset-flag-2"),
        pytest.param("dataset", DATASET_HEAD + "0.02,0.1,1\n0.04,0.2,0\n",
                     "end flag must never fall back to 0", id="dataset-flag-falls-back"),
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
        pytest.param("log", LOG_HEAD + "0.02,0.1\n0.02,0.2\n",
                     "times must increase (violation at record 2, t=0.02)", id="log-equal-times"),
        # 0.01 s lies half a sample from t=0 at 50 Hz
        pytest.param("log", LOG_HEAD + "0.01,0.1\n", "sample at t=0.01 is off the 50.0 Hz grid",
                     id="log-off-grid"),
        # 0.0009 s lies 0.045 samples from t=0 at 50 Hz: on the grid, in the same slot
        pytest.param("log", LOG_HEAD + "0.0009,0.1\n",
                     "two samples share the grid slot at t=0.0009", id="log-shared-slot"),
        pytest.param("log", "", "line 1: expected header 'time,<joint names...>', found no lines",
                     id="log-empty"),
        pytest.param("log", LOG_HEAD + "0.02\n", "line 3: expected 2 fields, found 1",
                     id="log-one-field"),
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


def test_gen_tail_zero_flags_an_end_a_hair_past_a_grid_point(workdir):
    # 0.700000000001 s lies 1e-12 s past the 50 Hz sample at 0.7 s: the grid
    # stops there, so the flag needs one more row, holding the last keyframe
    (workdir / "hair.mov").write_text("movement n=1 gamma=2 rate=1\nt=0 0\nt=0.700000000001 0.5\n")
    (workdir / "quick.txt").write_text("phase epochs=5 lr=0.001\n")
    out = workdir / "hair.csv"
    assert run(["gen", "--movement", workdir / "hair.mov", "--tail", 0, "--out", out]) == 0
    ds = load_dataset(out)
    assert len(ds.times) == 37 and ds.flags[-1] == 1.0 and ds.flags[-2] == 0.0
    assert ds.joints[-1, 0] == 0.5
    assert run(["train", "--dataset", out, "--schedule", workdir / "quick.txt",
                "--out", workdir / "m"]) == 0
    assert "periodic=false\n" in (workdir / "m" / "model.meta").read_text()


def test_rollout_keeps_the_dataset_rate(workdir, capsys):
    # 11 rows at 61.7 Hz, whose (rows - 1) / span is 61.699999999999996; the rate line keeps 61.7
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


def test_train_reference_schedule_with_a_one_unit_hidden_layer(workdir, capsys):
    # the reference preset's 50000 epochs, on a 1-unit hidden layer, whose
    # layer 0 goes through x @ w.T and + b instead of the [t, 1] product
    assert run(["gen", "--movement", workdir / "demo.mov", "--rate", 10, "--tail", 0,
                "--out", workdir / "d.csv"]) == 0
    assert run(["train", "--dataset", workdir / "d.csv", "--schedule", "reference",
                "--arch", "1:1:3", "--out", workdir / "m"]) == 0
    trained = capsys.readouterr().out.splitlines()[-1]
    assert trained.startswith("trained 50000 epochs on 11 samples: ")
    assert load_model(workdir / "m").network.sizes == [1, 1, 3]
    log = np.loadtxt(workdir / "m" / "training_log.csv", delimiter=",", skiprows=1)
    phases = [(30000, 0.001), (5000, 0.0008), (5000, 0.0006), (5000, 0.0004), (5000, 0.0002)]
    np.testing.assert_array_equal(log[:, 1], np.repeat(np.arange(5), [e for e, _ in phases]))
    np.testing.assert_array_equal(log[:, 2], np.repeat([lr for _, lr in phases],
                                                       [e for e, _ in phases]))


def grid_log(rate, start, rows):
    """Joint-log rows 'time,0' on the grid start + k / rate."""
    return [f"{start + k / rate!r},0" for k in range(rows)]


@pytest.mark.parametrize(
    "rows, rate, meta",
    [
        # 7 samples from t = 0.37 at 100/3 Hz: no short decimal of the rate
        # regenerates the column, which the file's rate line makes moot
        pytest.param(grid_log(100 / 3, 0.37, 7), "33.333333333333336",
                     "rate=33.333333333333336\n", id="ulps-from-the-estimate"),
        # a dataset file no command writes: its last time lies 1e-12 s off the
        # stated 50 Hz grid, inside MotionDataset's tolerance, so 50 Hz is kept
        pytest.param(["0,0", "0.02,0", "0.04,0", "0.060000000001,0"], None, "rate=50\n",
                     id="off-the-grid"),
    ]
    # grids that a reader which estimated the rate from the time column read back
    # as another rate: a short grid fits several, a late start lies far from all
    + [pytest.param(grid_log(rate, start, rows), repr(rate), f"rate={fmt(rate)}\n",
                    id=f"{name}-{rows}-from-{start}")
       for name, rate, start, rows in [("100/3", 100 / 3, 0.37, 2), ("100/3", 100 / 3, 1.1, 11),
                                       ("1000/7", 1000 / 7, 100.0, 8),
                                       ("1000/3", 1000 / 3, 12.5, 11)]],
)
def test_train_and_eval_read_the_dataset_rate_back(workdir, capsys, rows, rate, meta):
    (workdir / "quick.txt").write_text("phase epochs=5 lr=0.001\n")
    dataset = workdir / "d.csv"
    if rate is None:  # a dataset file no command writes
        flags = ["0"] * (len(rows) - 1) + ["1"]
        dataset.write_text("time,j1,end_flag\n# rate=50\n" + "".join(
            f"{row},{flag}\n" for row, flag in zip(rows, flags)))
    else:
        (workdir / "log.csv").write_text("time,hip\n" + "".join(row + "\n" for row in rows))
        assert run(["ingest", "--log", workdir / "log.csv", "--rate", rate,
                    "--out", dataset]) == 0
    assert run(["train", "--dataset", dataset, "--schedule", workdir / "quick.txt",
                "--out", workdir / "m"]) == 0
    assert meta in (workdir / "m" / "model.meta").read_text()
    assert run(["eval", "--model", workdir / "m", "--dataset", dataset]) == 0
    assert "end_time_error=" in capsys.readouterr().out


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
        # train owns the output width, the network the layer count
        pytest.param(["--arch", "1:8:5"], "network output size 5 must equal joints + end flag = 3",
                     id="output-width"),
        pytest.param(["--arch", "23"], "a network needs at least one layer, so two sizes: [23]",
                     id="one-size-23"),
        pytest.param(["--arch", "5"], "a network needs at least one layer, so two sizes: [5]",
                     id="one-size-5"),
        pytest.param(["--arch", "abc"], "arch must look like 1:75:50:23, got 'abc'", id="arch-abc"),
        # the sizes are read as ints once, here; no later layer converts them
        pytest.param(["--arch", "1:7.5:3"], "arch must look like 1:75:50:23, got '1:7.5:3'",
                     id="fractional-width"),
        pytest.param(["--arch", "1:0:3"], "layer sizes must be positive, got [1, 0, 3]",
                     id="zero-width-layer"),
        pytest.param(["--schedule", "{dir}/epochs0.txt"],
                     "phase 0: epochs must be a positive integer, got 0", id="zero-epochs"),
        pytest.param(["--schedule", "{dir}/epochs2.5.txt"],
                     "line 1: epochs is not an integer: '2.5'", id="fractional-epochs"),
        pytest.param(["--schedule", "{dir}/late.txt"],
                     "line 2: nothing may follow the reset_on_phase line", id="phase-after-reset"),
        pytest.param(["--schedule", "{dir}/empty.txt"], "schedule needs at least one phase",
                     id="no-phases"),
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
    (workdir / "epochs0.txt").write_text("phase epochs=0 lr=0.001\n")
    (workdir / "epochs2.5.txt").write_text("phase epochs=2.5 lr=0.001\n")
    (workdir / "late.txt").write_text("reset_on_phase=true\nphase epochs=10 lr=0.001\n")
    (workdir / "empty.txt").write_text("reset_on_phase=false\n")
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


@pytest.mark.parametrize("out", ["taken", "taken/model"])
def test_train_out_through_a_file_is_refused_before_training(workdir, capsys, monkeypatch, out):
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    (workdir / "taken").write_text("not a directory\n")
    monkeypatch.setattr(motionmimic.cli, "train", lambda *a, **k: pytest.fail("train ran"))
    before = sorted(workdir.rglob("*"))
    capsys.readouterr()
    code = run(["train", "--dataset", workdir / "demo.csv", "--out", workdir / out])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --out {workdir / out}: {workdir / 'taken'} exists and is not a directory\n")
    assert sorted(workdir.rglob("*")) == before
    assert (workdir / "taken").read_text() == "not a directory\n"


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


# Kernels whose products round differently by how two threads split their output between
# micro-tiles, in the forward pass too, at 161 rows already: the row blocks cannot help there.
THREAD_SPLIT_KERNELS = {"Haswell", "Nehalem", "Katmai"}


def test_trained_files_do_not_depend_on_the_blas_thread_count(workdir, request):
    """train on 600 rows writes the same weights and log at 1 and 2 OpenBLAS threads.

    OpenBLAS splits one long matrix product's row sum between its threads,
    so the weight gradients take fixed row blocks in a fixed order.
    """
    if blas_kernel() in THREAD_SPLIT_KERNELS:
        request.applymarker(pytest.mark.xfail(
            strict=True, reason=f"the {blas_kernel()} kernel rounds by the thread split"))
    src = Path(motionmimic.cli.__file__).resolve().parent.parent
    data, schedule = workdir / "long.csv", workdir / "short.txt"
    assert run(["gen", "--movement", workdir / "demo.mov", "--rate", 589, "--out", data]) == 0
    assert len(load_dataset(data).times) == 600
    schedule.write_text("phase epochs=20 lr=0.001\nreset_on_phase=true\n")
    digests = []
    for threads in ("1", "2"):
        out = workdir / f"model{threads}"
        argv = ["train", "--dataset", data, "--schedule", schedule, "--out", out]
        done = subprocess.run([sys.executable, "-m", "motionmimic.cli", *map(str, argv)],
                              env={**os.environ, "PYTHONPATH": str(src),
                                   "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("weights.txt", "training_log.csv")])
    assert digests[0] == digests[1]


def test_train_in_process_sums_each_later_row_block_into_the_weight_gradient(workdir, capsys):
    """train on 311 rows, two network.BLOCK_ROWS blocks, in this process: its weights are
    those of the unfused loop, which sums the blocks' products in row order."""
    data, schedule = workdir / "long.csv", workdir / "short.txt"
    assert run(["gen", "--movement", workdir / "demo.mov", "--rate", 300, "--out", data]) == 0
    schedule.write_text("phase epochs=3 lr=0.01\n")
    capsys.readouterr()
    assert run(["train", "--dataset", data, "--schedule", schedule, "--arch", "1:4:3",
                "--out", workdir / "m"]) == 0
    assert capsys.readouterr().out.startswith("trained 3 epochs on 311 samples: ")
    ds = load_dataset(data)
    net = initialize([1, 4, 3], seed=0)
    x = ((ds.times - ds.time_offset) / ds.time_scale)[:, None]
    m, v = np.zeros_like(net.params), np.zeros_like(net.params)
    for t in (1, 2, 3):
        _, _, w_grads, b_grads = unfused_forward_backward(net, x, ds.targets)
        grads = flat_gradient(net.sizes, w_grads, b_grads)
        expression_adam_step(m, v, t, net.params, grads, 0.01)
    np.testing.assert_array_equal(load_model(workdir / "m").network.params, net.params)


def test_entry_point_run_in_process_matches_main_and_logs_once(workdir, monkeypatch, capsys):
    """The module run as __main__ in this process, then main: each INFO line still prints once."""
    mov = workdir / "demo.mov"
    assert run(["gen", "--movement", mov, "--out", workdir / "warm.csv"]) == 0
    monkeypatch.setattr(sys, "argv", ["motionmimic", "gen", "--movement", str(mov),
                                      "--out", str(workdir / "entry.csv")])
    monkeypatch.delitem(sys.modules, "motionmimic.cli")  # else runpy warns it is imported
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("motionmimic.cli", run_name="__main__")
    assert exc.value.code == 0
    assert (workdir / "entry.csv").read_bytes() == (workdir / "warm.csv").read_bytes()

    capsys.readouterr()
    monkeypatch.setenv("MIMIC_LOG", "info")
    assert run(["gen", "--movement", mov, "--out", workdir / "info.csv"]) == 0
    assert capsys.readouterr().err == f"INFO motionmimic: wrote {workdir / 'info.csv'}\n"
