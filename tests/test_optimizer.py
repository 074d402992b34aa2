import numpy as np
import pytest

import motionmimic.trainer
from motionmimic.errors import DivergenceError, MimicError
from motionmimic.motion import KeyframeMovement
from motionmimic.optimizer import (
    SCHEDULE_PRESETS,
    TrainingSchedule,
    adam_init,
    adam_step,
    load_schedule,
    parse_schedule,
    reset_state,
)
from motionmimic.trainer import sample_movement, train

from oracles import (expression_adam_step, format_schedule, layer_views, scalar_adam,
                     schedule_run, text_lines)

# frozen from the plain-float recurrence in oracles.scalar_adam
FIRST_STEP_THETA = -0.09999999900000002
SECOND_STEP_THETA = -0.19999999799999935


def scalar_setup(theta0=0.0):
    params = np.array([theta0])
    return params, adam_init(params)


def test_first_adam_step_matches_hand_value():
    params, state = scalar_setup()
    adam_step(state, params, np.array([1.0]), lr=0.1)
    # bias correction makes mhat = vhat = 1 exactly at t=1
    assert params[0] == pytest.approx(FIRST_STEP_THETA, abs=1e-12)
    assert state.t == 1


def test_second_adam_step_matches_hand_value():
    params, state = scalar_setup()
    for _ in range(2):
        adam_step(state, params, np.array([1.0]), lr=0.1)
    assert params[0] == pytest.approx(SECOND_STEP_THETA, abs=1e-12)


def test_adam_matches_scalar_oracle_over_random_gradients():
    rng = np.random.default_rng(31)
    grads = rng.uniform(-2.0, 2.0, size=50)
    params, state = scalar_setup(theta0=0.3)
    expected = scalar_adam(grads, lr=0.05, theta0=0.3)
    for g, want in zip(grads, expected):
        adam_step(state, params, np.array([g]), lr=0.05)
        assert params[0] == pytest.approx(want, abs=1e-12)


def test_adam_step_matches_expression_step_bit_for_bit():
    # the step works in its state's scratch vectors; the values are the plain expression's
    rng = np.random.default_rng(32)
    params = rng.standard_normal(300)
    want = params.copy()
    m, v = np.zeros_like(want), np.zeros_like(want)
    state, t = adam_init(params), 0
    for step in range(50):
        if step == 30:
            state, t = reset_state(state), 0
            m[:], v[:] = 0.0, 0.0
        grads = rng.standard_normal(300) * 10.0 ** rng.integers(-8, 3)
        lr = float(rng.uniform(1e-4, 0.1))
        t += 1
        adam_step(state, params, grads, lr)
        expression_adam_step(m, v, t, want, grads, lr)
        assert state.t == t
        for got, ref in ((params, want), (state.first_moment, m), (state.second_moment, v)):
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_zero_gradients_leave_parameters_unchanged():
    params = np.array([0.5, -1.5, 1.0, 1.0, 1.0, 1.0])
    state = adam_init(params)
    before = params.copy()
    for _ in range(5):
        adam_step(state, params, np.zeros_like(params), lr=0.1)
    np.testing.assert_array_equal(params, before)
    assert state.t == 5


def test_update_magnitude_loose_bound():
    rng = np.random.default_rng(37)
    params = rng.standard_normal(8)
    state = adam_init(params)
    lr = 0.01
    for _ in range(200):
        prev = params.copy()
        adam_step(state, params, rng.uniform(-1.0, 1.0, size=8), lr=lr)
        assert np.all(np.abs(params - prev) <= 3.0 * lr)


def test_nonfinite_gradient_names_the_tensor(monkeypatch):
    # the trainer checks each gradient once and names the tensor; adam_step
    # only updates, and never sees the non-finite gradient
    real_pass = motionmimic.trainer.forward_backward
    steps = []

    def poisoned_pass(*args):
        loss, pred, grads = real_pass(*args)
        if steps:
            layer_views(args[0].sizes, grads)[1][0][1] = np.nan  # layer0.biases
        return loss, pred, grads

    def recording_step(state, params, grads, lr):
        steps.append(lr)
        return adam_step(state, params, grads, lr)

    monkeypatch.setattr(motionmimic.trainer, "forward_backward", poisoned_pass)
    monkeypatch.setattr(motionmimic.trainer, "adam_step", recording_step)
    ds = sample_movement(KeyframeMovement([0.0, 1.0], [[0.0], [0.5]]), 10.0)
    with pytest.raises(DivergenceError, match="^non-finite gradient in layer0.biases; "
                                              "last finite epoch 0$") as err:
        train(ds, arch=[1, 3, 2], schedule=TrainingSchedule([(4, 0.1)]))
    assert len(steps) == 1 and len(err.value.log) == 1


def test_reset_state_zeroes_moments_and_counter():
    params, state = scalar_setup()
    for _ in range(3):
        adam_step(state, params, np.array([1.0]), lr=0.1)
    fresh = reset_state(state)
    assert fresh.t == 0
    np.testing.assert_array_equal(fresh.first_moment, [0.0])
    np.testing.assert_array_equal(fresh.second_moment, [0.0])
    # idempotent, and no aliasing with the source state
    again = reset_state(fresh)
    assert again.t == fresh.t
    np.testing.assert_array_equal(again.first_moment, fresh.first_moment)
    assert not np.shares_memory(again.first_moment, fresh.first_moment)


def test_reference_schedule_phases():
    sched = TrainingSchedule(SCHEDULE_PRESETS["reference"])
    assert sched.phases == (
        (30000, 0.001),
        (5000, 0.0008),
        (5000, 0.0006),
        (5000, 0.0004),
        (5000, 0.0002),
    )
    assert sched.phases[2] == (5000, 0.0006)
    assert sched.total_epochs == 50000
    assert sched.reset_on_phase


def test_epoch_lr_sequence_exact():
    lrs, resets, table = schedule_run(TrainingSchedule(SCHEDULE_PRESETS["reference"]))
    expected = np.concatenate(
        [
            np.full(30000, 0.001),
            np.full(5000, 0.0008),
            np.full(5000, 0.0006),
            np.full(5000, 0.0004),
            np.full(5000, 0.0002),
        ]
    )
    np.testing.assert_array_equal(lrs, expected)
    np.testing.assert_array_equal(table[:, 2], expected)
    phases = table[:, 1]
    assert phases[0] == 0 and phases[29999] == 0 and phases[30000] == 1 and phases[-1] == 4
    assert resets == [30000, 35000, 40000, 45000]


def test_desk_schedule_keeps_proportions():
    sched = TrainingSchedule(SCHEDULE_PRESETS["desk"])
    assert sched.total_epochs == 5000
    assert [e for e, _ in sched.phases] == [3000, 500, 500, 500, 500]
    assert [lr for _, lr in sched.phases] == [lr for _, lr in SCHEDULE_PRESETS["reference"]]


def test_schedule_validation():
    with pytest.raises(MimicError, match="^schedule needs at least one phase$"):
        TrainingSchedule([])
    with pytest.raises(MimicError, match="^phase 0: epochs must be a positive integer, got 0$"):
        TrainingSchedule([(0, 0.001)])
    with pytest.raises(MimicError,
                       match=r"^phase 0: learning rate must be positive and finite, got -0\.001$"):
        TrainingSchedule([(10, -0.001)])
    with pytest.raises(MimicError, match="at most 1000000"):
        TrainingSchedule([(10**20, 0.001)])


def test_schedule_file_round_trip(tmp_path):
    sched = TrainingSchedule(((100, 0.001), (50, 0.0002)), reset_on_phase=False)
    text = format_schedule(sched)
    again = parse_schedule(text_lines(text))
    assert again.phases == sched.phases
    assert again.reset_on_phase is False
    assert format_schedule(again) == text

    path = tmp_path / "sched.txt"
    path.write_text(text)
    assert load_schedule(path).phases == sched.phases


def test_schedule_parse_errors():
    with pytest.raises(MimicError, match="line 1"):
        parse_schedule(text_lines("phase epochs=ten lr=0.001\n"))
    with pytest.raises(MimicError, match="line 2"):
        parse_schedule(text_lines("phase epochs=10 lr=0.001\nreset_on_phase=maybe\n"))
    # TrainingSchedule owns the one-phase rule, for files too
    for text in ["reset_on_phase=true\n", ""]:
        with pytest.raises(MimicError, match="^schedule needs at least one phase$"):
            parse_schedule(text_lines(text))
    # the phases, then at most one reset_on_phase line, which must come last
    for text, line in [
        ("phase epochs=10 lr=0.001\nreset_on_phase=false\nreset_on_phase=true\n", 3),
        ("phase epochs=10 lr=0.001\nreset_on_phase=true\n\nphase epochs=5 lr=0.001\n", 4),
        ("reset_on_phase=false\nphase epochs=10 lr=0.001\n", 2),
    ]:
        with pytest.raises(MimicError, match=f"line {line}: nothing may follow"):
            parse_schedule(text_lines(text))
