import hashlib

import numpy as np
import pytest

import motionmimic.motion
from motionmimic.cli import main
from motionmimic.trainer import load_dataset

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
    ],
)
def test_unplayable_movement_is_exit_2(workdir, capsys, command, text, message):
    (workdir / "odd.mov").write_text(text)
    with np.errstate(all="raise"):
        code = run([command, "--movement", workdir / "odd.mov", "--out", workdir / "x.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
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


def test_train_divergence_is_exit_3(trained, capsys):
    (trained / "wild.txt").write_text("phase epochs=50 lr=1e51\nreset_on_phase=true\n")
    with np.errstate(all="ignore"):
        code = run(
            ["train", "--dataset", trained / "demo.csv", "--schedule", trained / "wild.txt",
             "--out", trained / "m4"]
        )
    assert code == 3
    assert "last finite epoch" in capsys.readouterr().err


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


def test_compare_self_test_replays_dataset(trained, capsys):
    code = run(
        ["compare", "--model", trained / "model", "--dataset", trained / "demo.csv",
         "--self-test", "--out", trained / "cmp2"]
    )
    assert code == 0
    metrics = dict(
        line.split("=", 1) for line in (trained / "cmp2" / "metrics.txt").read_text().splitlines()
    )
    assert float(metrics["mae"]) == 0.0
    assert metrics["end_time_error"] == "0"


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


def test_gen_tail_zero_flags_off_grid_end(workdir):
    # duration 1.013 s falls between the 50 Hz samples at 1.00 s and 1.02 s
    (workdir / "odd.mov").write_text("movement n=1 gamma=2 rate=1\nt=0 0\nt=1.013 0.4\n")
    out = workdir / "odd.csv"
    assert run(["gen", "--movement", workdir / "odd.mov", "--tail", 0, "--out", out]) == 0
    ds = load_dataset(out)
    assert ds.times[-1] >= 1.013 > ds.times[-2]
    assert ds.flags[-1] == 1.0 and ds.flags[-2] == 0.0
    assert not ds.periodic


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "rate, message",
    [(rate, "rate must be positive and finite") for rate in ("0", "-1", "nan", "inf")]
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


@pytest.mark.parametrize(
    "option, message",
    [
        pytest.param("--seed", "seed must be non-negative, got -1", id="negative-seed"),
        pytest.param("--schedule", "a schedule holds at most 1000000", id="1e20-epochs"),
    ],
)
def test_unusable_train_config_is_exit_2(workdir, capsys, option, message):
    (workdir / "huge.txt").write_text("phase epochs=100000000000000000000 lr=0.001\n")
    value = -1 if option == "--seed" else workdir / "huge.txt"
    assert run(["gen", "--movement", workdir / "demo.mov", "--out", workdir / "demo.csv"]) == 0
    code = run(["train", "--dataset", workdir / "demo.csv", option, value,
                "--out", workdir / "model"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (workdir / "model").exists()
