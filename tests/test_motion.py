import dataclasses
import re

import numpy as np
import pytest

from motionmimic.errors import MimicError
from motionmimic.motion import (
    MAX_ANGLE,
    MAX_GRID_SAMPLES,
    KeyframeMovement,
    format_movement,
    grid_size,
    load_movement,
    parse_movement,
    playback_duration,
    poses,
    reference_pose,
    validate_movement,
)

from oracles import dense_natural_spline, eval_segment_poly


def simple_movement(rate=1.0):
    return KeyframeMovement([0.0, 0.5, 1.0], [[0.0, 0.1], [1.0, -0.2], [0.0, 0.3]],
                            speed_rate=rate)


def bump_movement(rate=1.0):
    # single joint 0 -> 1 -> 0 at t = 0, 1, 2
    return KeyframeMovement([0.0, 1.0, 2.0], [[0.0], [1.0], [0.0]], speed_rate=rate)


def test_valid_movement_passes():
    m = simple_movement()
    assert m.times.shape == (3,) and m.joints.shape == (3, 2)
    assert validate_movement(m) is None


def test_nonzero_first_time_violation():
    with pytest.raises(MimicError, match="^invalid movement: first-step-time: ") as err:
        KeyframeMovement([0.1, 0.5, 1.0], simple_movement().joints)
    assert str(err.value) == "invalid movement: first-step-time: first step time must be 0"


def test_duplicate_times_violation():
    with pytest.raises(MimicError, match="^invalid movement: times-increasing: ") as err:
        KeyframeMovement([0.0, 0.5, 0.5], [[0.0], [1.0], [2.0]])
    assert str(err.value) == "invalid movement: times-increasing: times strictly increasing"


def test_all_violations_reported():
    with pytest.raises(MimicError, match="^invalid movement: step-count: ") as err:
        KeyframeMovement([0.2], [[np.inf, 1.0]], speed_rate=-1.0)
    assert str(err.value) == (
        "invalid movement: step-count: movement needs at least 2 keyframe steps; "
        "finite-angles: joint angles must be finite; first-step-time: first step time must be 0; "
        "speed-rate: speed rate must be positive and finite, got -1.0"
    )
    with pytest.raises(MimicError, match="^invalid movement: joint-shape: ") as err:
        KeyframeMovement([0.2, 0.1], [0.0, 1.0], speed_rate=np.nan)
    for rule in ("joint-shape", "first-step-time", "times-increasing", "speed-rate"):
        assert rule in str(err.value)
    assert str(err.value).endswith("speed-rate: speed rate must be positive and finite, got nan")


@pytest.mark.parametrize("times, joints, rule", [
    ([0.0], [[1.0]], "step-count"),
    ([], [], "step-count"),
    ([0.0, 1.0], [[0.0], [1.0], [2.0]], "joint-shape"),
    ([0.0, 1.0], [1.0, 2.0], "joint-shape"),
    ([[0.0, 1.0]], [[0.0], [1.0]], "joint-shape"),
    ([0.0, 1.0], [[np.nan], [1.0]], "finite-angles"),
    ([0.0, np.inf], [[0.0], [1.0]], "finite-times"),
    ([0.0, 1.0, 0.5], [[0.0], [1.0], [2.0]], "times-increasing"),
])
def test_each_rule_refuses_a_movement(times, joints, rule):
    with pytest.raises(MimicError, match=f"^invalid movement: {rule}: [^;]*$"):
        KeyframeMovement(times, joints)


def test_keyframes_without_joints_violation():
    with pytest.raises(MimicError, match="^invalid movement: no-joints: ") as err:
        KeyframeMovement([0.0, 1.0], np.zeros((2, 0)))
    assert str(err.value) == (
        "invalid movement: no-joints: keyframes must hold at least one joint angle"
    )


def test_validate_is_pure():
    m = simple_movement()
    assert validate_movement(m) is None and validate_movement(m) is None
    assert m.times[0] == 0.0


def test_movement_is_frozen_once_checked():
    m = simple_movement()
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.speed_rate = 0.0


def test_playback_duration_rates():
    assert playback_duration(bump_movement(1.0)) == pytest.approx(2.0)
    assert playback_duration(bump_movement(2.0)) == pytest.approx(1.0)
    assert playback_duration(bump_movement(0.5)) == pytest.approx(4.0)


def test_duration_scales_inversely_with_rate():
    rng = np.random.default_rng(3)
    for rate in rng.uniform(0.25, 4.0, size=10):
        m = bump_movement(float(rate))
        assert playback_duration(m) * rate == pytest.approx(2.0, rel=1e-12)


def test_duration_invalid_movement_raises():
    for rate in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(MimicError) as err:
            simple_movement(rate)
        assert str(err.value) == (
            f"invalid movement: speed-rate: speed rate must be positive and finite, got {rate}")


def test_reference_pose_endpoints():
    m = simple_movement()
    np.testing.assert_allclose(reference_pose(m, 0.0), m.joints[0], atol=1e-12)
    np.testing.assert_allclose(reference_pose(m, playback_duration(m)), m.joints[-1], atol=1e-12)


def test_speed_rate_rescales_knot_arrivals():
    # r > 1 reaches each keyframe at t_i / r, r < 1 later
    for rate, arrival in ((2.0, 0.5), (0.5, 2.0), (1.0, 1.0)):
        m = bump_movement(rate)
        np.testing.assert_allclose(reference_pose(m, arrival), [1.0], atol=1e-10)


def test_reference_pose_interior_frozen_value():
    # natural spline through (0,0), (1,1), (2,0): value(0.5) = 0.6875
    m = bump_movement(1.0)
    assert reference_pose(m, 0.5)[0] == pytest.approx(0.6875, abs=1e-12)
    oracle = dense_natural_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert eval_segment_poly(oracle[0], 0.5) == pytest.approx(0.6875, abs=1e-12)


def test_reference_pose_hits_every_keyframe():
    rng = np.random.default_rng(5)
    times = [0.0, 0.4, 0.9, 1.7, 2.2]
    joints = rng.uniform(-1, 1, size=(5, 4))
    for rate in (0.5, 1.0, 3.0):
        m = KeyframeMovement(times, joints, speed_rate=rate)
        for t, q in zip(times, joints):
            np.testing.assert_allclose(reference_pose(m, t / rate), q, atol=1e-10)


def test_reference_pose_out_of_range():
    m = simple_movement()
    with pytest.raises(MimicError, match=r"^playback time -0\.01 outside \[0, "):
        reference_pose(m, -0.01)
    with pytest.raises(MimicError, match=r"^playback time [0-9.]+ outside \[0, "):
        reference_pose(m, playback_duration(m) + 0.01)


def test_reference_pose_invalid_movement():
    with pytest.raises(MimicError, match="step-count"):
        KeyframeMovement([0.0], [[0.0]])


def oracle_poses(m, times):
    """Poses from one dense-solve spline per joint, one sample at a time."""
    knots, values = m.times, m.joints
    coeffs = [dense_natural_spline(knots, values[:, j]) for j in range(values.shape[1])]
    out = np.empty((len(times), values.shape[1]))
    for k, t in enumerate(times):
        u = min(t * m.speed_rate, knots[-1])
        seg = min(int(np.searchsorted(knots, u, side="right")) - 1, len(knots) - 2)
        out[k] = [eval_segment_poly(c[seg], u - knots[seg]) for c in coeffs]
    return out


def test_poses_on_a_grid_match_dense_oracle():
    rng = np.random.default_rng(21)
    times = [0.0, 0.37, 0.8, 1.45, 2.013]
    joints = rng.uniform(-1, 1, size=(5, 5))
    for rate in (0.7, 1.0, 1.3):
        m = KeyframeMovement(times, joints, speed_rate=rate)
        duration = playback_duration(m)
        grid = np.minimum(np.arange(grid_size(duration, 50.0)) / 50.0, duration)
        got = poses(m, grid)
        assert got.shape == (len(grid), 5)
        np.testing.assert_allclose(got, oracle_poses(m, grid), atol=1e-10)
        for k in (0, len(grid) // 2, len(grid) - 1):
            np.testing.assert_array_equal(reference_pose(m, grid[k]), got[k])


def test_one_spline_holds_every_joint():
    m = KeyframeMovement([0.0, 0.5, 1.2], [np.full(4, t) for t in (0.0, 0.5, 1.2)])
    assert m.spline.coeffs.shape == (2, 4, 4)


@pytest.mark.parametrize("times, joints", [
    ([0.0, 1e-150, 1.0], [[0.0], [1000.0], [0.0]]),  # keyframes within 1000 overshoot to 1e151
    ([0.0, 1.0], [[0.0], [1e308]]),
    ([0.0, 1.0], [[0.0], [2 * MAX_ANGLE]]),
])
def test_poses_refuse_angles_beyond_the_bound(times, joints):
    m = KeyframeMovement(times, joints)
    with pytest.raises(MimicError, match="rad bound"):
        poses(m, np.linspace(0.0, 1.0, 11))


def test_poses_accept_angles_at_the_bound():
    m = KeyframeMovement([0.0, 1.0], [[-MAX_ANGLE], [MAX_ANGLE]])
    np.testing.assert_array_equal(poses(m, [0.0, 1.0]), [[-MAX_ANGLE], [MAX_ANGLE]])


def test_poses_reject_any_time_out_of_range():
    m = simple_movement()
    duration = playback_duration(m)
    assert poses(m, [0.0, duration]).shape == (2, 2)
    for bad in (-0.01, duration + 0.01, np.nan):
        grid = np.linspace(0.0, duration, 11)
        grid[7] = bad
        refusal = rf"^playback time {re.escape(str(bad))} outside \[0, "
        with pytest.raises(MimicError, match=refusal):
            poses(m, grid)


def test_grid_size_counts_samples_up_to_the_span():
    for span, rate in ((1.0, 50.0), (1.013, 50.0), (2.0, 50.0), (0.0, 50.0), (3.0, 33.0),
                       (1 / 1.3, 50.0), (0.58, 50.0)):
        assert grid_size(span, rate) == int(np.floor(span * rate + 1e-9)) + 1
    assert grid_size((MAX_GRID_SAMPLES - 1) / 50.0, 50.0) == MAX_GRID_SAMPLES


@pytest.mark.parametrize("span, rate", [(np.inf, 50.0), (np.nan, 50.0), (1e300, 50.0),
                                        (1.0, 1e300), (-1.0, 50.0),
                                        (MAX_GRID_SAMPLES / 50.0, 50.0)])
def test_grid_size_rejects_impossible_grids(span, rate):
    with pytest.raises(MimicError, match="samples; allowed are 1 to"):
        grid_size(span, rate)


def test_movement_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    m = KeyframeMovement([0.0, 0.31, 0.9], rng.standard_normal((3, 3)), speed_rate=1.25)
    text = format_movement(m)
    again = parse_movement(text)
    assert format_movement(again) == text
    assert again.speed_rate == m.speed_rate
    np.testing.assert_array_equal(again.times, m.times)
    np.testing.assert_array_equal(again.joints, m.joints)

    path = tmp_path / "m.mov"
    path.write_text(text)
    loaded = load_movement(path)
    assert format_movement(loaded) == text


def test_movement_parse_errors_carry_line_numbers():
    with pytest.raises(MimicError, match="line 1"):
        parse_movement("bogus n=1 gamma=2 rate=1\n")
    with pytest.raises(MimicError, match="line 3"):
        parse_movement("movement n=2 gamma=2 rate=1\nt=0 0 0\nt=1 0\n")
    with pytest.raises(MimicError, match="line 2"):
        parse_movement("movement n=1 gamma=2 rate=1\nt=zero 0\nt=1 0\n")
    with pytest.raises(MimicError, match="gamma=3"):
        parse_movement("movement n=1 gamma=3 rate=1\nt=0 0\nt=1 0\n")
