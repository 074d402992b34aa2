"""The movement and schedule files: round trips, the per-value number format and a mutation fuzz."""

import math
import random

import numpy as np
import pytest

from motionmimic.errors import MimicError
from motionmimic.motion import MAX_ANGLE, KeyframeMovement, format_movement, parse_movement
from motionmimic.optimizer import format_schedule, parse_schedule
from motionmimic.plant import PlantConfig, simulate
from motionmimic.trainer import sample_movement

from oracles import format_numbers_each

MOVEMENT = """movement n=2 gamma=3 rate=1.25
t=0 0 0.29999999999999999
t=0.37 0.80000000000000004 -0.40000000000000002
t=1.0129999999999999 0.10000000000000001 0.20000000000000001
"""
SHORT_MOVEMENT = """movement n=1 gamma=3 rate=0.80000000000000004
t=0 0.29999999999999999
t=0.37 0.80000000000000004
t=1.0129999999999999 0.10000000000000001
"""

SCHEDULE = """phase epochs=300 lr=0.001
phase epochs=100 lr=0.00080000000000000004
phase epochs=50 lr=1.0000000000000001e-05
reset_on_phase=false
"""

BAD_TOKENS = ("nan", "inf", "-inf", "1e400", "", "0", "-1", "x")
# finite but tiny: as a rate or a knot spacing they overflow the playback
# duration, the sample count or the spline coefficients
TINY_TOKENS = ("1e-300", "1e-320", "5e-324")
# finite but huge: as a joint angle they overflow the spline or pass MAX_ANGLE
HUGE_TOKENS = ("1e300", "1e308")


def test_movement_format_parse_format_is_byte_identical():
    m = parse_movement(MOVEMENT)
    assert format_movement(m) == MOVEMENT
    assert format_movement(parse_movement("\n  \n" + MOVEMENT)) == MOVEMENT
    assert format_movement(parse_movement(format_movement(m))) == MOVEMENT


def test_movement_file_writes_each_angle_as_the_per_value_template():
    """Each step's angles are one line, every angle as '%.17g' writes it alone."""
    rng = np.random.default_rng(12)
    joints = rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-12, 6, (6, 9))
    joints[0, :6] = [0.0, -0.0, 1e-5, -9.999e-6, 5e-324, MAX_ANGLE]
    m = KeyframeMovement(np.arange(6) * 0.37, joints, speed_rate=1.25)
    lines = format_movement(m).splitlines()
    assert lines[1:] == [f"t={'%.17g' % t} {format_numbers_each(q)}"
                         for t, q in zip(m.times, joints)]


def test_schedule_format_parse_format_is_byte_identical():
    schedule = parse_schedule(SCHEDULE)
    assert format_schedule(schedule) == SCHEDULE
    assert format_schedule(parse_schedule("\n  \n" + SCHEDULE)) == SCHEDULE
    assert format_schedule(parse_schedule(format_schedule(schedule))) == SCHEDULE


def mutate(text, rng, odd=TINY_TOKENS):
    """Cut the text or a line, drop a line or a field, duplicate a field, or swap in a bad or odd token.

    Fields are space-separated; a 'key=value' field keeps its key and gets the new value.
    """
    lines = text.splitlines() or [""]
    i = rng.randrange(len(lines))
    fields = lines[i].split(" ")
    j = rng.randrange(len(fields))
    op = rng.randrange(7)
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
            token = rng.choice(BAD_TOKENS if op == 5 else odd)
            key, eq, _ = fields[j].partition("=")
            fields[j] = key + eq + token if eq else token
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def mutants(text, seed, count, odd=TINY_TOKENS):
    rng = random.Random(seed)
    for _ in range(count):
        mutated = text
        for _ in range(rng.randint(1, 2)):
            mutated = mutate(mutated, rng, odd)
        yield mutated


def play(text):
    """Parse a movement, sample it and run it through the plant: the finite outputs."""
    m = parse_movement(text)
    ds = sample_movement(m, 50.0)
    result = simulate(m, PlantConfig())
    return [ds.targets, result.desired, result.attained, [result.overall_rms]]


@pytest.mark.filterwarnings("error")
def test_mutated_movements_play_or_raise_mimic_error():
    outcomes = {"played": 0, "rejected": 0}
    texts = [text for movement in (MOVEMENT, SHORT_MOVEMENT)
             for text in mutants(movement, "fuzz movement", 300)]
    texts += [text for movement in (MOVEMENT, SHORT_MOVEMENT)
              for text in mutants(movement, "fuzz huge movement", 300, HUGE_TOKENS)]
    for text in texts:
        try:
            outputs = play(text)
        except MimicError:
            outcomes["rejected"] += 1
        else:
            outcomes["played"] += 1
            assert all(np.all(np.abs(out) <= MAX_ANGLE) for out in outputs), text
    assert outcomes["rejected"] > 0 and outcomes["played"] > 0


@pytest.mark.filterwarnings("error")
def test_mutated_schedules_parse_or_raise_mimic_error():
    outcomes = {"parsed": 0, "rejected": 0}
    for text in mutants(SCHEDULE, "fuzz schedule", 200):
        try:
            schedule = parse_schedule(text)
        except MimicError:
            outcomes["rejected"] += 1
        else:
            outcomes["parsed"] += 1
            assert schedule.phases and all(e > 0 and math.isfinite(lr) and lr > 0
                                           for e, lr in schedule.phases)
            again = format_schedule(schedule)
            assert format_schedule(parse_schedule(again)) == again
    assert outcomes["rejected"] > 0 and outcomes["parsed"] > 0
