import numpy as np
import pytest

from motionmimic.errors import ConfigError, DivergenceError, FormatError, ShapeError
from motionmimic.optimizer import (
    TrainingSchedule,
    adam_init,
    adam_step,
    desk_schedule,
    format_schedule,
    load_schedule,
    parse_schedule,
    reference_schedule,
    reset_state,
    save_schedule,
)

from oracles import scalar_adam

# frozen from the plain-float recurrence in oracles.scalar_adam
FIRST_STEP_THETA = -0.09999999900000002
SECOND_STEP_THETA = -0.19999999799999935


def scalar_setup(theta0=0.0):
    params = [np.array([theta0])]
    return params, adam_init(params)


def test_first_adam_step_matches_hand_value():
    params, state = scalar_setup()
    adam_step(state, params, [np.array([1.0])], lr=0.1)
    # bias correction makes mhat = vhat = 1 exactly at t=1
    assert params[0][0] == pytest.approx(FIRST_STEP_THETA, abs=1e-12)
    assert state.t == 1


def test_second_adam_step_matches_hand_value():
    params, state = scalar_setup()
    for _ in range(2):
        adam_step(state, params, [np.array([1.0])], lr=0.1)
    assert params[0][0] == pytest.approx(SECOND_STEP_THETA, abs=1e-12)


def test_adam_matches_scalar_oracle_over_random_gradients():
    rng = np.random.default_rng(31)
    grads = rng.uniform(-2.0, 2.0, size=50)
    params, state = scalar_setup(theta0=0.3)
    expected = scalar_adam(grads, lr=0.05, theta0=0.3)
    for g, want in zip(grads, expected):
        adam_step(state, params, [np.array([g])], lr=0.05)
        assert params[0][0] == pytest.approx(want, abs=1e-12)


def test_zero_gradients_leave_parameters_unchanged():
    params = [np.array([0.5, -1.5]), np.ones((2, 2))]
    state = adam_init(params)
    before = [p.copy() for p in params]
    for _ in range(5):
        adam_step(state, params, [np.zeros_like(p) for p in params], lr=0.1)
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p, b)
    assert state.t == 5


def test_update_magnitude_loose_bound():
    rng = np.random.default_rng(37)
    params = [rng.standard_normal(8)]
    state = adam_init(params)
    lr = 0.01
    for _ in range(200):
        prev = params[0].copy()
        adam_step(state, params, [rng.uniform(-1.0, 1.0, size=8)], lr=lr)
        assert np.all(np.abs(params[0] - prev) <= 3.0 * lr)


def test_nonfinite_gradient_names_the_tensor():
    params, state = scalar_setup()
    with pytest.raises(DivergenceError, match="parameter 0"):
        adam_step(state, params, [np.array([np.nan])], lr=0.1)
    # failed step leaves parameters and counter untouched
    assert state.t == 0
    assert params[0][0] == 0.0


def test_adam_shape_mismatch():
    params, state = scalar_setup()
    with pytest.raises(ShapeError):
        adam_step(state, params, [np.zeros(2)], lr=0.1)
    with pytest.raises(ShapeError):
        adam_step(state, params, [], lr=0.1)


def test_reset_state_zeroes_moments_and_counter():
    params, state = scalar_setup()
    for _ in range(3):
        adam_step(state, params, [np.array([1.0])], lr=0.1)
    fresh = reset_state(state)
    assert fresh.t == 0
    assert fresh.beta1 == state.beta1
    assert fresh.beta2 == state.beta2
    assert fresh.eps == state.eps
    np.testing.assert_array_equal(fresh.first_moment[0], [0.0])
    np.testing.assert_array_equal(fresh.second_moment[0], [0.0])
    # idempotent, and no aliasing with the source state
    again = reset_state(fresh)
    assert again.t == fresh.t
    np.testing.assert_array_equal(again.first_moment[0], fresh.first_moment[0])
    assert again.first_moment[0] is not fresh.first_moment[0]


def test_adam_state_validation():
    with pytest.raises(ConfigError):
        adam_init([np.zeros(1)], beta1=1.0)
    with pytest.raises(ConfigError):
        adam_init([np.zeros(1)], eps=0.0)


def test_reference_schedule_phases():
    sched = reference_schedule()
    assert sched.phases == [
        (30000, 0.001),
        (5000, 0.0008),
        (5000, 0.0006),
        (5000, 0.0004),
        (5000, 0.0002),
    ]
    assert sched.phases[2] == (5000, 0.0006)
    assert sched.total_epochs == 50000
    assert sched.reset_on_phase


def test_epoch_lr_sequence_exact():
    sched = reference_schedule()
    lrs = sched.epoch_lrs()
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
    phases = sched.epoch_phases()
    assert phases[0] == 0 and phases[29999] == 0 and phases[30000] == 1 and phases[-1] == 4


def test_desk_schedule_keeps_proportions():
    sched = desk_schedule()
    assert sched.total_epochs == 5000
    assert [e for e, _ in sched.phases] == [3000, 500, 500, 500, 500]
    assert [lr for _, lr in sched.phases] == [lr for _, lr in reference_schedule().phases]


def test_schedule_validation():
    with pytest.raises(ConfigError):
        TrainingSchedule([])
    with pytest.raises(ConfigError):
        TrainingSchedule([(0, 0.001)])
    with pytest.raises(ConfigError):
        TrainingSchedule([(10, -0.001)])
    with pytest.raises(ConfigError, match="at most 1000000"):
        TrainingSchedule([(10**20, 0.001)])


def test_schedule_file_round_trip(tmp_path):
    sched = TrainingSchedule([(100, 0.001), (50, 0.0002)], reset_on_phase=False)
    text = format_schedule(sched)
    again = parse_schedule(text)
    assert again.phases == sched.phases
    assert again.reset_on_phase is False
    assert format_schedule(again) == text

    path = tmp_path / "sched.txt"
    save_schedule(sched, path)
    assert load_schedule(path).phases == sched.phases


def test_schedule_parse_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_schedule("phase epochs=ten lr=0.001\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_schedule("phase epochs=10 lr=0.001\nreset_on_phase=maybe\n")
    with pytest.raises(FormatError):
        parse_schedule("reset_on_phase=true\n")
