"""The model bundle's text files, weights.txt and model.meta: round trips and a mutation fuzz."""

import math
import random

import numpy as np
import pytest

from motionmimic.cli import main
from motionmimic.errors import MimicError
from motionmimic.network import MimicNetwork, parse_weights, save_weights
from motionmimic.optimizer import TrainingSchedule
from motionmimic.trainer import META_FILE, WEIGHTS_FILE, ingest_log, load_model, save_model, train

from oracles import format_numbers_each, text_lines, written

BAD_TOKENS = ("nan", "inf", "-inf", "1e400", "", "0", "-1", "x")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A trained model's bundle files as the program writes them: {file name: text}."""
    rng = np.random.default_rng(9)
    times = 1.5 + np.arange(30) / 50.0
    ds = ingest_log(times, rng.uniform(-1, 1, (30, 3)), 50.0, tail=2)
    model, _ = train(ds, arch=[1, 6, 5, 4], schedule=TrainingSchedule([(20, 1e-2)]), alpha=0.3)
    directory = tmp_path_factory.mktemp("bundle")
    save_model(model, directory)
    return {name: (directory / name).read_text() for name in (WEIGHTS_FILE, META_FILE)}


def load_bundle(directory, texts):
    for name, text in texts.items():
        (directory / name).write_text(text)
    return load_model(directory)


def test_weights_format_parse_format_is_byte_identical(bundle):
    text = bundle[WEIGHTS_FILE]
    net = parse_weights(text_lines(text))
    assert written(save_weights, net) == text
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params)
        assert np.shares_memory(b, net.params)


def test_weights_file_writes_each_number_as_the_per_value_template():
    """Each weight row and bias is one line, every number as '%.17g' writes it alone."""
    rng = np.random.default_rng(11)
    params = rng.standard_normal(5123) * 10.0 ** rng.integers(-9, 18, 5123)
    params[:8] = [0.0, -0.0, 1e-5, -9.999e-6, 1e15, -1.5e17, 5e-324, 1.0]
    net = MimicNetwork([1, 75, 50, 23], 0.01, params)
    lines = written(save_weights, net).splitlines()
    want = [row for w, b in zip(net.weights, net.biases) for row in [None, *w, b]]
    assert len(lines) == 1 + len(want)
    for line, row in zip(lines[1:], want):
        assert line.startswith("layer ") if row is None else line == format_numbers_each(row)


def test_bundle_load_save_is_byte_identical(bundle, tmp_path):
    model = load_bundle(tmp_path, bundle)
    save_model(model, tmp_path / "again")
    for name, text in bundle.items():
        assert (tmp_path / "again" / name).read_text() == text
    # blank lines anywhere are skipped
    spaced = {name: "\n \n".join(["", *text.splitlines(), ""]) for name, text in bundle.items()}
    save_model(load_bundle(tmp_path / "again", spaced), tmp_path / "third")
    for name, text in bundle.items():
        assert (tmp_path / "third" / name).read_text() == text


@pytest.mark.parametrize("edit", ["reordered", "repeated", "repeated-last", "unknown"])
def test_meta_keys_must_follow_the_written_order(edit, bundle, tmp_path, capsys):
    lines = bundle[META_FILE].splitlines()
    lines = {
        "reordered": [lines[1], lines[0], *lines[2:]],
        "repeated": [*lines[:2], lines[1], *lines[2:]],
        "repeated-last": [*lines, lines[-1]],
        "unknown": [*lines[:3], "color=red", *lines[3:]],
    }[edit]
    texts = {**bundle, META_FILE: "\n".join(lines) + "\n"}
    with pytest.raises(MimicError, match="line [0-9]+: expected"):
        load_bundle(tmp_path, texts)
    code = main(["rollout", "--model", str(tmp_path), "--out", str(tmp_path / "roll.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line ")
    assert not (tmp_path / "roll.csv").exists()


def mutate(text, rng):
    """Cut the text or a line, drop a line or a field, duplicate a field, or swap in a bad token.

    Fields are space-separated; a 'key=value' field keeps its key and gets a bad value.
    """
    lines = text.splitlines() or [""]
    i = 0 if rng.random() < 0.2 else rng.randrange(len(lines))
    fields = lines[i].split(" ")
    j = rng.randrange(len(fields))
    op = rng.randrange(6)
    if op == 0:
        return text[: rng.randrange(len(text) + 1)]
    if op == 1:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif op == 2:
        del lines[i]
    else:
        if op == 3:
            del fields[j]
        elif op == 4:
            fields.insert(j, fields[j])
        else:
            key, eq, _ = fields[j].partition("=")
            fields[j] = key + eq + rng.choice(BAD_TOKENS) if eq else rng.choice(BAD_TOKENS)
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def model_values(model):
    return [*model.network.params, model.duration, model.sample_rate, model.time_offset,
            model.time_scale, model.network.alpha]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", [WEIGHTS_FILE, META_FILE])
def test_mutated_bundle_files_load_or_raise_mimic_error(name, bundle, tmp_path):
    rng = random.Random(f"fuzz {name}")
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(200):
        text = bundle[name]
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        with np.errstate(all="raise"):
            try:
                model = load_bundle(tmp_path, {**bundle, name: text})
                pred = model.predict(np.array([0.0, 0.5]))
            except MimicError:
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
                assert all(math.isfinite(v) for v in model_values(model))
                assert model.duration > 0 and model.sample_rate > 0 and model.time_scale > 0
                assert pred.shape == (2, model.n_joints + 1)
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0
