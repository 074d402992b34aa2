"""The five CSV kinds share one reader and one writer: round trips and a mutation fuzz."""

import math
import random

import numpy as np
import pytest

from motionmimic.errors import MimicError, ShapeError
from motionmimic.motion import KeyframeMovement, KeyframeStep
from motionmimic.optimizer import TrainingSchedule
from motionmimic.plant import PlantConfig, format_comparison, simulate
from motionmimic.textio import format_table, parse_table
from motionmimic.trainer import (
    format_dataset,
    format_log,
    ingest_log,
    load_joint_log,
    load_log,
    parse_dataset,
    rollout,
    sample_movement,
    save_log,
    save_rollout,
    train,
)

ROLLOUT_HEADER = "time,<joint names...>,end_flag"
TRACKING_HEADER = "time,<joint columns...>"
BAD_TOKENS = ("nan", "inf", "-inf", "1e400", "")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Each CSV kind as the program writes it."""
    tmp = tmp_path_factory.mktemp("tables")
    movement = KeyframeMovement(
        [KeyframeStep(0.0, [0.0, 0.3]), KeyframeStep(0.37, [0.8, -0.4]),
         KeyframeStep(1.013, [0.1, 0.2])],
        name="demo",
    )
    ds = sample_movement(movement, 50.0)
    model, log = train(ds, arch=[1, 8, 3], schedule=TrainingSchedule([(20, 1e-2), (10, 5e-3)]))
    save_log(log, tmp / "log.csv")
    save_rollout(rollout(model, 50.0), ds.joint_names, tmp / "rollout.csv")
    rng = np.random.default_rng(5)
    times = np.delete(np.arange(40) / 50.0, [7, 21])
    joint_log = np.column_stack([times, rng.uniform(-1, 1, (len(times), 3))])
    return {
        "dataset": format_dataset(ds),
        "joint log": format_table(["time", "hip", "knee", "ankle"], joint_log),
        "training log": (tmp / "log.csv").read_text(),
        "rollout": (tmp / "rollout.csv").read_text(),
        "tracking": format_comparison(simulate(model, PlantConfig()), ds.joint_names),
    }


def readers(tmp_path):
    """kind -> (read text the way the program does, write the result back as text)."""

    def from_file(load):
        def read(text):
            path = tmp_path / "table.csv"
            path.write_text(text)
            return load(path)
        return read

    def table(header):
        return lambda text: parse_table(text, header)

    def retable(head, tail=()):
        return lambda parsed: format_table([*head, *parsed[0], *tail], parsed[1])

    def rejoint(loaded):
        times, joints, names = loaded
        return format_table(["time", *names], np.column_stack([times, joints]))

    return {
        "dataset": (parse_dataset, format_dataset),
        "joint log": (from_file(load_joint_log), rejoint),
        "training log": (from_file(load_log), format_log),
        "rollout": (table(ROLLOUT_HEADER), retable(["time"], ["end_flag"])),
        "tracking": (table(TRACKING_HEADER), retable(["time"])),
    }


KINDS = ("dataset", "joint log", "training log", "rollout", "tracking")


@pytest.mark.parametrize("kind", KINDS)
def test_format_parse_format_is_byte_identical(kind, written, tmp_path):
    read, write = readers(tmp_path)[kind]
    text = written[kind]
    assert write(read(text)) == text


@pytest.mark.parametrize("header", [["time", "a"], ["time", "a", "b", "c"]],
                         ids=["narrower", "wider"])
def test_format_table_header_must_match_columns(header):
    with pytest.raises(ShapeError, match=f"{len(header)} column names for a table of shape"):
        format_table(header, np.zeros((2, 3)))


def mutate(text, rng):
    """Truncate a line or the text, drop or duplicate a field, or swap in a bad token."""
    lines = text.splitlines() or [""]
    i = 0 if rng.random() < 0.2 else rng.randrange(len(lines))
    fields = lines[i].split(",")
    j = rng.randrange(len(fields))
    op = rng.randrange(5)
    if op == 0:
        return text[: rng.randrange(len(text) + 1)]
    if op == 1:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    else:
        if op == 2:
            del fields[j]
        elif op == 3:
            fields.insert(j, fields[j])
        else:
            fields[j] = rng.choice(BAD_TOKENS)
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", KINDS)
def test_mutated_tables_load_or_raise_mimic_error(kind, written, tmp_path):
    read, write = readers(tmp_path)[kind]
    rng = random.Random(f"fuzz {kind}")
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(200):
        text = written[kind]
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        with np.errstate(all="raise"):
            try:
                loaded = read(text)
                if kind == "joint log":
                    ingest_log(loaded[0], loaded[1], 50.0, joint_names=loaded[2])
            except MimicError:
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
                cells = [c for ln in write(loaded).splitlines()[1:] for c in ln.split(",")]
                assert all(math.isfinite(float(c)) for c in cells)
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0
