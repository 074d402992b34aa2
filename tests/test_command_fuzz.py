"""A fixed-seed fuzz of the command input: mutated files through every command.

Each case mutates one valid input file once or twice and runs the
commands that read it, then, while each exits 0, the commands that read
what it wrote.  Every exit must be 0, 2 or 3, a refusal must print
exactly one 'error:' line, and no exception may escape main.  The
warnings filter of the test configuration turns a numpy warning into
such an exception.  Case 0 is the valid file itself, which every command
must take.
"""

import random
import re

import pytest

from motionmimic.cli import main

MOVEMENT = """movement n=2 gamma=3 rate=1.25
t=0 0 0.3
t=0.5 0.8 -0.4
t=1 0.1 0.2
"""
LOG = "time,hip,knee\n" + "".join(f"{k / 50!r},{0.01 * k!r},{-0.02 * k!r}\n" for k in range(12))
SCHEDULE = "phase epochs=3 lr=0.001\nphase epochs=2 lr=0.0005\nreset_on_phase=true\n"
ARCH = "1:4:3"
TOKENS = ("nan", "inf", "1e400", "2.5", "", "=")  # 2.5: a finite number no <int> field takes
CASES = 400  # per kind: the whole fuzz runs in a few seconds


def mutate(text, rng):
    """Swap a token of one line for one of TOKENS, or drop or duplicate the line.

    Tokens are the runs between spaces, commas and '=' signs, so a key, a
    value and a CSV field are each one token.
    """
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    op = rng.randrange(3)
    if op == 0:
        parts = re.split(r"([ ,=]+)", lines[i])  # tokens at even places, separators between
        j = rng.choice([j for j in range(0, len(parts), 2) if parts[j]])
        parts[j] = rng.choice(TOKENS)
        lines[i] = "".join(parts)
    elif op == 1:
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The directory of one valid file of each kind: the movement, its dataset and its model."""
    d = tmp_path_factory.mktemp("valid")
    (d / "demo.mov").write_text(MOVEMENT)
    (d / "log.csv").write_text(LOG)
    (d / "sched.txt").write_text(SCHEDULE)
    assert main(["gen", "--movement", str(d / "demo.mov"), "--out", str(d / "demo.csv")]) == 0
    assert main(["train", "--dataset", str(d / "demo.csv"), "--arch", ARCH,
                 "--schedule", str(d / "sched.txt"), "--out", str(d / "model")]) == 0
    return d


def commands(kind, case, valid, periodic):
    """The argument lists a case of kind runs, in order; each reads what the ones before wrote."""
    dataset, schedule, model = valid / "demo.csv", valid / "sched.txt", valid / "model"
    first = []
    if kind == "movement":
        first = [["simulate", "--movement", case / "input", "--out", case / "sim.csv"],
                 ["gen", "--movement", case / "input", "--tail", "2", "--out", case / "ds.csv"]]
        dataset = case / "ds.csv"
    elif kind == "log":
        first = [["ingest", "--log", case / "input", *periodic, "--out", case / "ds.csv"]]
        dataset = case / "ds.csv"
    elif kind == "dataset":
        dataset = case / "input"
        first = [["eval", "--model", model, "--dataset", dataset]]
    elif kind == "schedule":
        schedule = case / "input"
    if kind in ("weights.txt", "model.meta"):
        model = case
    else:
        first.append(["train", "--dataset", dataset, "--arch", ARCH, "--schedule", schedule,
                      "--out", case / "model"])
        model = case / "model"
    return first + [["eval", "--model", model, "--dataset", dataset],
                    ["rollout", "--model", model, "--out", case / "ro.csv"],
                    ["simulate", "--model", model, "--out", case / "sim.csv"],
                    ["compare", "--model", model, "--dataset", dataset, "--out", case / "cmp"]]


@pytest.mark.parametrize("kind", ["movement", "log", "dataset", "schedule", "weights.txt",
                                  "model.meta"])
def test_mutated_input_exits_0_2_or_3_with_one_error_line(kind, valid, tmp_path, capsys):
    sources = {"movement": "demo.mov", "log": "log.csv", "dataset": "demo.csv",
               "schedule": "sched.txt", "weights.txt": "model/weights.txt",
               "model.meta": "model/model.meta"}
    text = (valid / sources[kind]).read_text()
    rng = random.Random(f"command fuzz {kind}")
    exits = {0: 0, 2: 0, 3: 0}
    for n in range(CASES):
        case = tmp_path / str(n)
        case.mkdir()
        mutated = text
        for _ in range(rng.randint(1, 2) if n else 0):
            mutated = mutate(mutated, rng)
        if kind in ("weights.txt", "model.meta"):  # a bundle with one mutated file
            for name in ("weights.txt", "model.meta"):
                (case / name).write_text((valid / "model" / name).read_text())
            (case / kind).write_text(mutated)
        else:
            (case / "input").write_text(mutated)
        for argv in commands(kind, case, valid, ["--periodic"] if n % 2 else []):
            capsys.readouterr()
            try:
                code = main([str(a) for a in argv])
            except Exception as err:  # what a user would see as a traceback
                pytest.fail(f"{argv[0]} raised {err!r} on this {kind}:\n{mutated}")
            err = capsys.readouterr().err
            assert code in exits, (argv, err, mutated)
            assert n or code == 0, (argv, err)  # case 0, the valid file
            exits[code] += 1
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err, mutated)
                break
            assert err == "", (argv, err, mutated)
    assert exits[2], exits
