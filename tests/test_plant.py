import numpy as np
import pytest

from motionmimic.errors import MimicError
from motionmimic.motion import KeyframeMovement
from motionmimic.network import initialize
from motionmimic.plant import PlantConfig, format_comparison, simulate, step
from motionmimic.trainer import TrainedModel
from oracles import plant_step_loop


def sine_movement(freq, duration=2.0, amplitude=0.5, knots_per_cycle=12):
    n = max(int(duration * freq * knots_per_cycle), 8)
    times = np.linspace(0.0, duration, n + 1)
    return KeyframeMovement(times, amplitude * np.sin(2.0 * np.pi * freq * times)[:, None])


def three_joint_movement():
    # joint 0 sweeps fast, joint 1 slowly, joint 2 holds still
    times = np.linspace(0.0, 2.0, 25)
    return KeyframeMovement(times, [[1.2 * np.sin(6.0 * t), 0.3 * np.sin(t), -0.4] for t in times])


def flag_only_model(n_joints=2):
    # constant high end flag: rollout stops immediately after one sample
    net = initialize([1, 4, n_joints + 1], seed=0)
    net.params[:] = 0.0
    net.biases[-1][-1] = 1.0
    return TrainedModel(
        network=net, name="f", n_joints=n_joints, duration=1.0,
        sample_rate=50.0, time_offset=0.0, time_scale=1.0,
    )


def test_p_command_cases():
    # at 8 Hz one tick moves an eighth of the speed command, exactly in binary
    cfg = PlantConfig(kp=10.0, max_speed=7.0, tick_rate=8.0)

    def command(reference, position):
        return (step(np.array([position]), np.array([reference]), cfg)[0] - position) * 8.0

    assert command(1.0, 1.0) == 0.0
    assert command(1.05, 1.0) == pytest.approx(0.5)
    assert command(3.0, 1.0) == 7.0
    assert command(-1.0, 1.0) == -7.0
    np.testing.assert_array_equal(step(np.zeros(2), np.array([0.0, 2.0]), cfg), [0.0, 7.0 / 8.0])


def test_step_zero_error_only_advances_time():
    cfg = PlantConfig(kp=10.0, max_speed=7.0, tick_rate=50.0)
    positions = np.array([0.3, -0.2])
    # no error, no motion; the tick's time is the caller's to count
    np.testing.assert_array_equal(step(positions, np.array([0.3, -0.2]), cfg), positions)


def test_step_hand_computed_saturated():
    # kp*error = 50 saturates at 10 rad/s; one 50 Hz tick moves 0.2 rad
    cfg = PlantConfig(kp=50.0, max_speed=10.0, tick_rate=50.0)
    assert step(np.array([0.0]), np.array([1.0]), cfg)[0] == pytest.approx(0.2)


def test_geometric_error_recurrence_exact():
    # kp/tick_rate = 0.5 is exact in binary: error halves every tick
    cfg = PlantConfig(kp=25.0, max_speed=100.0, tick_rate=50.0)
    positions = np.array([0.0])
    ref = np.array([1.0])
    errors = [1.0]
    for _ in range(20):
        positions = step(positions, ref, cfg)
        errors.append(float(ref[0] - positions[0]))
    for prev, cur in zip(errors, errors[1:]):
        assert cur == 0.5 * prev


def test_geometric_error_recurrence_general_ratio():
    # kp=10 at 50 Hz: error shrinks by exactly 0.8 per tick while unsaturated
    cfg = PlantConfig(kp=10.0, max_speed=100.0, tick_rate=50.0)
    positions = np.array([0.3])
    ref = np.array([0.7])
    err = 0.4
    for _ in range(30):
        positions = step(positions, ref, cfg)
        new_err = float(ref[0] - positions[0])
        assert new_err == pytest.approx(0.8 * err, rel=1e-12)
        err = new_err


def test_speed_limit_bounds_every_tick():
    rng = np.random.default_rng(41)
    cfg = PlantConfig(kp=30.0, max_speed=2.0, tick_rate=50.0)
    positions = rng.uniform(-1, 1, size=4)
    # the commanded step is exactly bounded; measuring it back off the
    # positions picks up one addition rounding at position magnitude
    bound = 2.0 / 50.0 + 1e-14
    for _ in range(200):
        refs = rng.uniform(-2.0, 2.0, size=4)
        nxt = step(positions, refs, cfg)
        assert np.all(np.abs(nxt - positions) <= bound)
        positions = nxt


def test_stability_guard_rejects_large_kp():
    with pytest.raises(MimicError, match="stability"):
        PlantConfig(kp=100.0, max_speed=7.0, tick_rate=50.0)
    PlantConfig(kp=99.9, max_speed=7.0, tick_rate=50.0)


def test_config_validation():
    with pytest.raises(MimicError, match=r"^kp must be positive and finite, got 0\.0$"):
        PlantConfig(kp=0.0)
    with pytest.raises(MimicError, match=r"^max speed must be positive and finite, got -1\.0$"):
        PlantConfig(max_speed=-1.0)
    with pytest.raises(MimicError, match=r"^tick rate must be positive and finite, got 0\.0$"):
        PlantConfig(tick_rate=0.0)


@pytest.mark.parametrize("kp, max_speed", [pytest.param(40.0, 2.0, id="scalar")])
def test_simulate_matches_step_loop_bit_for_bit(kp, max_speed):
    cfg = PlantConfig(kp=kp, max_speed=max_speed, tick_rate=50.0)
    result = simulate(three_joint_movement(), cfg)
    np.testing.assert_array_equal(result.attained, plant_step_loop(result.desired, cfg))
    # the fast joint hits its speed limit, so the clamp is exercised
    moves = np.abs(np.diff(result.attained[:, 0]))
    assert np.max(moves) == pytest.approx(max_speed / 50.0, rel=1e-9)


def test_slow_motion_tracks_tightly():
    movement = sine_movement(freq=0.5, duration=2.0, amplitude=0.2)
    cfg = PlantConfig(kp=50.0, max_speed=7.0, tick_rate=50.0)
    result = simulate(movement, cfg)
    assert result.overall_rms < 0.01
    # at deadbeat gain the residual is the one-tick transport delay:
    # rms ~ amplitude * omega * dt / sqrt(2)
    delay_rms = 0.2 * 2.0 * np.pi * 0.5 * 0.02 / np.sqrt(2.0)
    assert result.overall_rms == pytest.approx(delay_rms, rel=0.05)
    assert not result.attenuated


def test_deadbeat_gain_trails_by_one_tick():
    # kp == tick_rate clears the whole error each tick, so the attained
    # trajectory equals the reference delayed by exactly one tick
    movement = sine_movement(freq=1.0, duration=2.0)
    cfg = PlantConfig(kp=50.0, max_speed=1000.0, tick_rate=50.0)
    result = simulate(movement, cfg)
    np.testing.assert_allclose(
        result.attained[1:], result.desired[:-1], atol=1e-12
    )


def test_fast_sinusoid_is_attenuated():
    movement = sine_movement(freq=3.0, duration=2.0, amplitude=0.5)
    cfg = PlantConfig(kp=25.0, max_speed=7.0, tick_rate=50.0)
    result = simulate(movement, cfg)
    steady = slice(len(result.times) // 4, None)
    des_amp = 0.5 * (result.desired[steady].max() - result.desired[steady].min())
    att_amp = 0.5 * (result.attained[steady].max() - result.attained[steady].min())
    assert att_amp < des_amp
    assert result.attenuated


def test_speed_starved_motion_loses_amplitude():
    movement = sine_movement(freq=2.0, duration=2.0, amplitude=1.0)
    cfg = PlantConfig(kp=80.0, max_speed=3.0, tick_rate=50.0)
    result = simulate(movement, cfg)
    assert np.ptp(result.attained) < np.ptp(result.desired)
    assert result.attenuated


def test_simulate_movement_defaults_to_first_reference():
    movement = sine_movement(freq=1.0)
    result = simulate(movement, PlantConfig())
    np.testing.assert_array_equal(result.attained[0], result.desired[0])
    assert len(result.times) == len(result.desired) == len(result.attained)


def test_simulate_model_source():
    model = flag_only_model()
    result = simulate(model, PlantConfig())
    assert result.desired.shape[1] == 2
    assert len(result.times) >= 1


def test_comparison_csv_layout():
    movement = sine_movement(freq=1.0, duration=0.5)
    result = simulate(movement, PlantConfig())
    text = format_comparison(result, ["hip"])
    lines = text.splitlines()
    assert lines[0] == "time,hip_desired,hip_attained"
    assert len(lines) == len(result.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == result.times[0]
    assert float(first[1]) == result.desired[0, 0]
    assert float(first[2]) == result.attained[0, 0]
    with pytest.raises(MimicError, match=r"^5 column names for a table of shape \([0-9]+, 3\)$"):
        format_comparison(result, ["a", "b"])
